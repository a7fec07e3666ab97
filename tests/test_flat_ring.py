"""The flat coefficient ring against a slow reference, and its printed forms.

``Poly`` stores one sparse map from (x exponents, t monomial) to a
Gaussian-integer numerator pair, one positive integer denominator ``q`` and
one monic denominator in t.  The reference here is independent of it: a
polynomial is a dict from exponent tuples over x1..x3, t, t1, t2 to pairs of
``fractions.Fraction`` (real and imaginary part), and a rational function is a
pair (numerator, denominator) of such dicts, compared by cross-multiplying.
A Poly is read into the reference through its boundary accessor
``scalar_terms``; the tests of the storage itself read ``terms`` and ``q``,
its packed keys unpacked by ``tuple_terms``.
"""

import math
import random
from fractions import Fraction

import pytest

from fedconn.scalars import Scalar, gaussian_is_atomic, gaussian_is_negative
from fedconn.polynomials import (
    T_ONE, Poly, parse_poly, pp_gcd, _mono_sort_key,
)
from fedconn.multidiff import MultiDiffOp, operator_from_symbol

from conftest import series
from reference_kernels import tuple_terms

X = ("x1", "x2", "x3")
T = ("t", "t1", "t2")
NAMES = X + T


# -- the reference: dicts of (Fraction, Fraction) ------------------------------

def _c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _acc(out, key, c):
    s = _c_add(out.get(key, (Fraction(0), Fraction(0))), c)
    if s == (0, 0):
        out.pop(key, None)
    else:
        out[key] = s


def r_add(p, q):
    out = dict(p)
    for k, c in q.items():
        _acc(out, k, c)
    return out


def r_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            _acc(out, tuple(a + b for a, b in zip(k1, k2)), _c_mul(c1, c2))
    return out


def r_scale(p, c):
    out = {}
    for k, v in p.items():
        _acc(out, k, _c_mul(v, c))
    return out


def r_neg(p):
    return r_scale(p, (Fraction(-1), Fraction(0)))


def r_diff(p, i):
    out = {}
    for k, c in p.items():
        if k[i]:
            _acc(out, k[:i] + (k[i] - 1,) + k[i + 1:], _c_mul(c, (Fraction(k[i]), Fraction(0))))
    return out


def r_int(p, i):
    out = {}
    for k, c in p.items():
        e = k[i] + 1
        _acc(out, k[:i] + (e,) + k[i + 1:], _c_mul(c, (Fraction(1, e), Fraction(0))))
    return out


def r_subs(p, i, value):
    out = {}
    for k, c in p.items():
        z = c
        for _ in range(k[i]):
            z = _c_mul(z, value)
        _acc(out, k[:i] + (0,) + k[i + 1:], z)
    return out


# a rational function is (numerator, denominator); the denominator has no x
def q_add(a, b):
    return (r_add(r_mul(a[0], b[1]), r_mul(b[0], a[1])), r_mul(a[1], b[1]))


def q_mul(a, b):
    return (r_mul(a[0], b[0]), r_mul(a[1], b[1]))


def q_neg(a):
    return (r_neg(a[0]), a[1])


def q_diff(a, i):
    num, den = a
    if i < len(X):
        return (r_diff(num, i), den)
    return (r_add(r_mul(r_diff(num, i), den), r_neg(r_mul(num, r_diff(den, i)))), r_mul(den, den))


def q_eq(a, b):
    return r_mul(a[0], b[1]) == r_mul(b[0], a[1])


def to_ref(p: Poly):
    """The reference of a Poly over x1..x3, read off its stored terms."""
    assert p.roster == X
    num = {}
    for (xs, tm), c in p.scalar_terms().items():
        ts = dict(tm)
        _acc(num, xs + tuple(ts.get(n, 0) for n in T), (c.re, c.im))
    return num, pp_to_ref(p.den)


def pp_to_ref(pp: Poly):
    """The reference of a t-only Poly, polynomial in t."""
    assert pp.roster == () and pp.den is T_ONE
    out = {}
    for (_, tm), c in pp.scalar_terms().items():
        ts = dict(tm)
        _acc(out, (0,) * len(X) + tuple(ts.get(n, 0) for n in T), (c.re, c.im))
    return out


def random_scalar(rng):
    return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def random_pp(rng, terms=2):
    """A random polynomial in t, t1, t2, each variable to degree <= 2."""
    pp = Poly.zero(())
    for _ in range(terms):
        mono = Poly.const((), random_scalar(rng))
        for name in rng.sample(T, rng.randint(0, 2)):
            mono = mono * Poly.var((), name) ** rng.randint(1, 2)
        pp = pp + mono
    return pp


DENOMINATORS = ["t + 1", "t1^2 + 1", "t - t2", "2*t1 + i", "t*t1 - 3"]


def random_flat(rng):
    """A random Poly in x1..x3 with Gaussian-rational, t-polynomial and, half
    the time, t-rational coefficients."""
    p = Poly.zero(X)
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in X)
        p = p + Poly.monomial(X, exps, random_pp(rng, rng.randint(1, 2)))
    if rng.random() < 0.5:
        den = parse_poly(rng.choice(DENOMINATORS), ())
        p = p.scale(Poly.const((), 1) / den)
    return p


def _canonical(p: Poly):
    """The stored denominator is monic and shares no factor with all the
    numerators at once, so it is 1 exactly when p is polynomial in t; the
    integer denominator q shares no factor with every integer numerator."""
    assert p.q > 0 and math.gcd(p.q, *(n for pair in p.terms.values() for n in pair)) == 1
    assert all(pair != (0, 0) for pair in p.terms.values())
    den_terms = tuple_terms(p.den)
    lead = max(den_terms, key=lambda key: _mono_sort_key(key[1]))
    assert p.den.roster == () and p.den.den is T_ONE and den_terms[lead] == (p.den.q, 0)
    numerators = {}
    for (xs, tm), c in p.scalar_terms().items():
        numerators.setdefault(xs, {})[((), tm)] = c
    g = p.den
    for num in numerators.values():
        g = pp_gcd(g, Poly((), num))
    assert not g.param_variables()


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations_match_reference(seed):
    rng = random.Random(seed)
    a, b = random_flat(rng), random_flat(rng)
    ra, rb = to_ref(a), to_ref(b)
    for p in (a, b, a + b, a - b, a * b, -a):
        _canonical(p)
    assert q_eq(to_ref(a + b), q_add(ra, rb))
    assert q_eq(to_ref(a - b), q_add(ra, q_neg(rb)))
    assert q_eq(to_ref(a * b), q_mul(ra, rb))
    assert (a + b) - b == a
    assert a * b == b * a
    assert a - a == 0 and (a - a).is_zero()
    assert a + b != a + b + Poly.var(X, "x1") ** 5


@pytest.mark.parametrize("seed", SEEDS)
def test_scale_matches_reference(seed):
    rng = random.Random(100 + seed)
    a = random_flat(rng)
    ra = to_ref(a)
    z = random_scalar(rng)
    assert q_eq(to_ref(a.scale(z)), (r_scale(ra[0], (z.re, z.im)), ra[1]))
    num = random_pp(rng)
    den = parse_poly(rng.choice(DENOMINATORS), ())
    c = num / den
    scaled = a.scale(c)
    _canonical(scaled)
    assert q_eq(to_ref(scaled), q_mul(ra, (pp_to_ref(num), pp_to_ref(den))))
    if not num.is_zero():
        assert scaled.scale(Poly.const((), 1) / c) == a
    assert a.scale(0).is_zero() and a.scale(1) == a


@pytest.mark.parametrize("seed", SEEDS)
def test_calculus_matches_reference(seed):
    rng = random.Random(200 + seed)
    a = random_flat(rng)
    ra = to_ref(a)
    for i, name in enumerate(NAMES):
        d = a.differentiate(name)
        _canonical(d)
        assert q_eq(to_ref(d), q_diff(ra, i)), name
        if name in a.den.param_variables():
            with pytest.raises(ValueError):
                a.antiderivative(name)
            continue
        q = a.antiderivative(name)
        _canonical(q)
        assert q_eq(to_ref(q), (r_int(ra[0], i), ra[1])), name
        assert q.differentiate(name) == a
    exps = tuple(rng.randint(0, 2) for _ in X)
    expect = a
    for name, e in zip(X, exps):
        for _ in range(e):
            expect = expect.differentiate(name)
    assert a.deriv_multi(exps) == expect


@pytest.mark.parametrize("seed", SEEDS)
def test_subs_params_matches_reference(seed):
    rng = random.Random(300 + seed)
    a = random_flat(rng)
    ra = to_ref(a)
    i = rng.randrange(len(T))
    z = Scalar(rng.randint(-2, 2), rng.randint(0, 1))
    value = (z.re, z.im)
    den = r_subs(ra[1], len(X) + i, value)
    if not den:
        with pytest.raises(ZeroDivisionError):
            a.subs_params({T[i]: z})
        return
    s = a.subs_params({T[i]: z})
    _canonical(s)
    assert T[i] not in s.param_variables()
    assert q_eq(to_ref(s), (r_subs(ra[0], len(X) + i, value), den))


def test_complex_constant_over_denominator_round_trips():
    p = parse_poly("(2/3 - i)/(t + 1)*x1", X)
    assert str(p) == "(2/3-i)/(t + 1)*x1"
    assert parse_poly(str(p), X) == p


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_division_and_printing_round_trip(seed):
    rng = random.Random(400 + seed)
    a, b = random_flat(rng), random_flat(rng)
    if not b.is_zero():
        assert (a * b) / b == a
    c = parse_poly(rng.choice(DENOMINATORS), ())
    assert a / Poly.const(X, c) == a.scale(Poly.const((), 1) / c)
    for p in (a, b, a * b, a.differentiate("t1")):
        assert parse_poly(str(p), X) == p
    with pytest.raises(ValueError):
        Poly.var(X, "x1") / (Poly.var(X, "x1") + Poly.var(X, "x2"))


def test_constant_coefficient_and_views_reduce_each_coefficient():
    p = parse_poly("x1/(t+1) + (t - 1)/(t^2 - 1)", X)
    # one denominator for the Poly; each coefficient is read back reduced
    assert str(p.den) == "t + 1"
    assert p.constant_coefficient() == parse_poly("1/(t+1)", ())
    q = parse_poly("x1 + 1/(t+1)", X)
    assert q.differentiate("x1") == 1 and q.differentiate("x1").den is T_ONE
    assert not (q - parse_poly("1/(t+1)", X)).den.param_variables()


# -- the integer-numerator storage -------------------------------------------------

def _stored(p: Poly):
    return p.roster, p.terms, p.q, p.den


# products of large distinct primes, so that the denominators pass 2^64
PRIMES = (2 ** 61 - 1, 2 ** 31 - 1, 1_000_000_007, 998_244_353, 1_000_000_009, 2 ** 89 - 1)


def _large_flat(rng):
    p = Poly.zero(X)
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in X)
        den = math.prod(rng.sample(PRIMES, 2))
        c = Scalar(Fraction(rng.randint(-10 ** 20, 10 ** 20), den),
                   Fraction(rng.randint(-3, 3) * rng.choice(PRIMES), rng.choice(PRIMES)))
        p = p + Poly.monomial(X, exps, c) * Poly.monomial(X, (0, 0, 0), random_pp(rng, 1))
    return p


@pytest.mark.parametrize("seed", range(6))
def test_denominators_past_64_bits_match_reference(seed):
    rng = random.Random(500 + seed)
    a, b = _large_flat(rng), _large_flat(rng)
    ra, rb = to_ref(a), to_ref(b)
    assert max(a.q, b.q) > 2 ** 64
    for p in (a, b, a + b, a - b, a * b, a.scale(Scalar(Fraction(PRIMES[0], PRIMES[-1]))),
              a.differentiate("x1"), a.antiderivative("t1"), a.subs_params({"t": 3})):
        _canonical(p)
    assert q_eq(to_ref(a + b), q_add(ra, rb))
    assert q_eq(to_ref(a - b), q_add(ra, q_neg(rb)))
    assert q_eq(to_ref(a * b), q_mul(ra, rb))
    assert (a * b).q > 2 ** 128
    assert _stored((a + b) - b) == _stored(a)
    assert (a * b).scale(Scalar(Fraction(1, b.q))).scale(b.q) == a * b


def test_sums_that_cancel():
    x1, x2, x3 = (Poly.var(X, v) for v in X)
    a = x1.scale(Fraction(1, 6)) + x2.scale(Scalar(Fraction(1, 4), Fraction(1, 3))) + x3.scale(7)
    b = x1.scale(Fraction(1, 6)) - x2.scale(Scalar(Fraction(1, 4), Fraction(1, 3)))
    # per coefficient: the x1 term cancels, the others add, and q drops from 12 to 6
    s = a - b
    _canonical(s)
    assert a.q == 12 and s.q == 6
    assert tuple_terms(s) == {((0, 1, 0), ()): (3, 4), ((0, 0, 1), ()): (42, 0)}
    assert str(s) == "(1/2+2/3*i)*x2 + 7*x3"
    assert q_eq(to_ref(s), q_add(to_ref(a), q_neg(to_ref(b))))
    # a whole Poly: zero with q == 1, also over a t denominator
    for p in (a, a * b, random_flat(random.Random(7)), _large_flat(random.Random(8))):
        z = p - p
        assert z.is_zero() and z.q == 1 and z.den is T_ONE and z.terms == {}
        assert _stored(p + (-p)) == _stored(Poly.zero(X))
    # cancelling every fraction leaves integer numerators over q == 1
    half = x1.scale(Fraction(1, 2)) + x2.scale(Scalar(Fraction(1, 2), Fraction(1, 2)))
    whole = half + half
    assert whole.q == 1 and tuple_terms(whole) == {((1, 0, 0), ()): (1, 0), ((0, 1, 0), ()): (1, 1)}


def test_storage_is_canonical_across_routes():
    for seed in SEEDS:
        rng = random.Random(600 + seed)
        p, q, r = random_flat(rng), random_flat(rng), random_flat(rng)
        assert _stored((p * q) * r) == _stored(p * (q * r))
        assert _stored((p + q) - q) == _stored(p)
        assert _stored(p * q + p * r) == _stored(p * (q + r))
        assert _stored(p.scale(Fraction(2, 3)).scale(Fraction(3, 2))) == _stored(p)
        assert _stored(parse_poly(str(p), X)) == _stored(p)


def test_shared_content_of_real_and_imaginary_parts_is_divided_out():
    x1, x2 = Poly.var(X, "x1"), Poly.var(X, "x2")
    # (1 + 2i)/6 * 2 = (1 + 2i)/3: the 2 in both parts cancels against q
    p = x1.scale(Scalar(Fraction(1, 6), Fraction(1, 3))).scale(2)
    assert p.q == 3 and tuple_terms(p) == {((1, 0, 0), ()): (1, 2)}
    # (3 + 6i)/9 = (1 + 2i)/3, built as a sum of its two parts
    p = x1.scale(Fraction(3, 9)) + x1.scale(Scalar(0, Fraction(6, 9)))
    assert p.q == 3 and tuple_terms(p) == {((1, 0, 0), ()): (1, 2)}
    # the content is shared across terms: x1/3 + 2i/3 x2, from sixths
    p = x1.scale(Fraction(2, 6)) + x2.scale(Scalar(0, Fraction(4, 6)))
    assert p.q == 3 and tuple_terms(p) == {((1, 0, 0), ()): (1, 0), ((0, 1, 0), ()): (0, 2)}
    # a product: (1 + i)/2 * (1 - i)/2 = 1/2, and (1 + i)^2/2 = i
    z = Scalar(Fraction(1, 2), Fraction(1, 2))
    assert tuple_terms(x1.scale(z) * x2.scale(Scalar(Fraction(1, 2), Fraction(-1, 2)))) == \
        {((1, 1, 0), ()): (1, 0)}
    square = x1.scale(z) * x1.scale(z).scale(2)
    assert square.q == 1 and tuple_terms(square) == {((2, 0, 0), ()): (0, 1)}
    for p in (square, x1.scale(z)):
        _canonical(p)


# -- printing a t-free Poly straight from its numerators ------------------------------

def str_by_coefficients(p: Poly) -> str:
    """str(p) through ``coefficients()``, one t-only Poly per x-monomial: the
    route ``Poly.__str__`` takes for a Poly with t, and took for every Poly."""
    if p.is_zero():
        return "0"
    parts = []
    for m, c in sorted(p.coefficients().items(), key=lambda kv: (sum(kv[0]), kv[0]),
                       reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.roster, m) if e)
        if not mono:
            parts.append(str(c))
            continue
        # a bare minus sign on a one-term numerator moves in front of the term
        single = next(iter(c.terms.values())) if len(c.terms) == 1 else None
        pre = ""
        if single and gaussian_is_negative(*single):
            pre, c, single = "-", -c, (-single[0], -single[1])
        if c == 1:
            parts.append(pre + mono)
        else:
            cs = str(c)
            # num/(den) binds like a factor chain; a polynomial needs one atomic term
            if c.den is T_ONE and not (single and gaussian_is_atomic(*single)):
                cs = f"({cs})"
            parts.append(f"{pre}{cs}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


SPECIAL = [Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1), Scalar(2, -3),
           Scalar(Fraction(-1, 2), Fraction(1, 3)), Scalar(Fraction(4, 6)), Scalar(0, Fraction(-9, 12)),
           Scalar(Fraction(PRIMES[0], PRIMES[1] * PRIMES[2]), -1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_t_free_printing_matches_the_coefficient_route(seed):
    rng = random.Random(700 + seed)
    polys = []
    for _ in range(4):
        p = Poly.zero(X)
        for _ in range(rng.randint(1, 5)):
            c = rng.choice(SPECIAL) if rng.random() < 0.5 else random_scalar(rng)
            p = p + Poly.monomial(X, tuple(rng.randint(0, 2) for _ in X), c)
        polys.append(p)
    a, b, c, d = polys
    for p in (a, b, c, d, a * b - c, -d, a.scale(Scalar(0, -1)), (a - a) + Poly.const(X, -1)):
        assert not p.param_variables()
        assert str(p) == str_by_coefficients(p)
        assert parse_poly(str(p), X) == p
    t_dependent = a + Poly.var(X, "t1")
    assert str(t_dependent) == str_by_coefficients(t_dependent)


# -- printed forms, captured before the flat ring replaced the coefficient tower --

R3J = ("x1", "x2", "xi1", "xi2", "eta1", "eta2")

CORPUS = [
    (X, "0"), (X, "1"), (X, "-1"), (X, "i"), (X, "-i"), (X, "1/2 - i"), (X, "3 + 2*i"),
    (X, "x1"), (X, "-x1"), (X, "i*x1"), (X, "-i*x2^2"), (X, "(1+i)*x1*x2"),
    (X, "-3/4*x1^3 + 2*x2 - 5"), (X, "x1*x2*x3 - 2/3*i*x3^2 + (2 - i)*x1"),
    (X, "t1*x1"), (X, "-t1*x1"), (X, "(t1 + 1)*x1^2 - t2"), (X, "-t*t1*x2 + i*t2^2"),
    (X, "(t1^2 - 2*t1*t2 + i)*x3 + x1"), (X, "-2*i*t1*x1 - t1"),
    (X, "1/(1+t1)*x1"), (X, "-1/(1+t1)"), (X, "x2/(t1^2+1) - x1*t2/(t1^2+1)"),
    (X, "(t1 - 1)/(t1 + 2)*x1 + 1/(t1+2)"), (X, "t/(t+1)*x1 - i/(2*t+2)"),
    (X, "(t^2 - 1)/(t - 1)*x2"), (X, "-x1/(t1*t2 + 3) + (1/2 + i)*x3^2/(t1*t2 + 3)"),
    (R3J, "xi1*eta2 - xi2*eta1"), (R3J, "i/2*xi1^2*x2 + t1*eta1"),
    (R3J, "-1/8*xi1^2*eta2^2 + (t1 + i)*x1*xi2 - 1/(t1+1)*eta1"),
]


def golden_strings():
    out = [str(parse_poly(expr, roster)) for roster, expr in CORPUS]
    polys = [parse_poly(expr, X) for _, expr in CORPUS[:27]]
    op = MultiDiffOp(X, 2, 3, {
        (k % 4, ((k % 2, k % 3 % 2, 0), (k // 3 % 2, 0, k % 5 // 3))): p
        for k, p in enumerate(polys)})
    out.extend(op.serialize().splitlines())
    symbol = series(R3J, 3, {k: parse_poly(expr, R3J) for k, (_, expr) in enumerate(CORPUS[-3:])})
    out.append(str(symbol))
    sym_op = operator_from_symbol(("x1", "x2"), 3, symbol, (("xi1", "xi2"), ("eta1", "eta2")))
    out.extend(sym_op.serialize().splitlines())
    out.append(str(series(X, 4, {k: p for k, p in enumerate(polys[10:15])})))
    return out


GOLDEN = [
    "0",
    "1",
    "-1",
    "i",
    "-i",
    "1/2-i",
    "3+2*i",
    "x1",
    "-x1",
    "i*x1",
    "-i*x2^2",
    "(1+i)*x1*x2",
    "-3/4*x1^3 + 2*x2 - 5",
    "x1*x2*x3 - 2/3*i*x3^2 + (2-i)*x1",
    "t1*x1",
    "-t1*x1",
    "(t1 + 1)*x1^2 - t2",
    "-t*t1*x2 + i*t2^2",
    "x1 + (t1^2 - 2*t1*t2 + i)*x3",
    "-2*i*t1*x1 - t1",
    "1/(t1 + 1)*x1",
    "(-1)/(t1 + 1)",
    "-t2/(t1^2 + 1)*x1 + 1/(t1^2 + 1)*x2",
    "(t1 - 1)/(t1 + 2)*x1 + 1/(t1 + 2)",
    "t/(t + 1)*x1 + (-1/2*i)/(t + 1)",
    "(t + 1)*x2",
    "(1/2+i)/(t1*t2 + 3)*x3^2 - 1/(t1*t2 + 3)*x1",
    "xi1*eta2 - xi2*eta1",
    "1/2*i*x2*xi1^2 + t1*eta1",
    "-1/8*xi1^2*eta2^2 + (t1 + i)*x1*xi2 - 1/(t1 + 1)*eta1",
    "h^0 * 1/(t1 + 1)*x1 * D[(0,0,0),(0,0,0)]",
    "h^0 * (t/(t + 1)*x1 + (-1/2*i)/(t + 1)) * D[(0,0,0),(0,0,1)]",
    "h^0 * ((t1 + 1)*x1^2 - t2) * D[(0,1,0),(1,0,0)]",
    "h^0 * -i * D[(0,1,0),(1,0,1)]",
    "h^1 * (-1)/(t1 + 1) * D[(1,0,0),(1,0,0)]",
    "h^1 * i*x1 * D[(1,0,0),(1,0,1)]",
    "h^1 * (t + 1)*x2 * D[(1,1,0),(0,0,0)]",
    "h^1 * (x1*x2*x3 - 2/3*i*x3^2 + (2-i)*x1) * D[(1,1,0),(0,0,1)]",
    "h^2 * ((1/2+i)/(t1*t2 + 3)*x3^2 - 1/(t1*t2 + 3)*x1) * D[(0,0,0),(0,0,0)]",
    "h^2 * (x1 + (t1^2 - 2*t1*t2 + i)*x3) * D[(0,0,0),(0,0,1)]",
    "h^2 * (-t2/(t1^2 + 1)*x1 + 1/(t1^2 + 1)*x2) * D[(0,1,0),(1,0,0)]",
    "h^3 * -t1*x1 * D[(1,0,0),(1,0,0)]",
    "h^3 * ((t1 - 1)/(t1 + 2)*x1 + 1/(t1 + 2)) * D[(1,0,0),(1,0,1)]",
    "h^3 * x1 * D[(1,1,0),(0,0,0)]",
    "h^3 * (-2*i*t1*x1 - t1) * D[(1,1,0),(0,0,1)]",
    "xi1*eta2 - xi2*eta1 + h^1*(1/2*i*x2*xi1^2 + t1*eta1) + h^2*(-1/8*xi1^2*eta2^2 + (t1 + i)*x1*xi2 - 1/(t1 + 1)*eta1)",
    "h^0 * -1 * D[(0,1),(1,0)]",
    "h^0 * 1 * D[(1,0),(0,1)]",
    "h^1 * t1 * D[(0,0),(1,0)]",
    "h^1 * 1/2*i*x2 * D[(2,0),(0,0)]",
    "h^2 * (-1)/(t1 + 1) * D[(0,0),(1,0)]",
    "h^2 * (t1 + i)*x1 * D[(0,1),(0,0)]",
    "h^2 * -1/8 * D[(2,0),(0,2)]",
    "-i*x2^2 + h^1*(1+i)*x1*x2 + h^2*(-3/4*x1^3 + 2*x2 - 5) + h^3*(x1*x2*x3 - 2/3*i*x3^2 + (2-i)*x1) + h^4*t1*x1",
]


def test_printed_forms_are_unchanged():
    assert golden_strings() == GOLDEN
