"""The product kernels against their slow references, for exact equality.

``WeylForm._pairing`` (under ``mw``, ``graded_comm`` and ``ad_over_h``) and
``MultiDiffOp.compose_at`` skip the pairs that cannot contribute before
multiplying and sum each output coefficient once through ``PolySums``;
``reference_kernels`` scales and adds every contribution on its own.  The
cases cover coefficients rational in t, coefficients on a jet-symbol roster
mixed with x-roster ones (as in the tau symbol), the degree and slot caps,
y-free (central) terms under the brackets, and zero and constant operands.
"""

import random

import pytest

from fedconn.polynomials import Poly, PolySums, parse_poly, x_roster, add_term
from fedconn.scalars import Scalar
from fedconn.weylforms import WeylForm
from fedconn.multidiff import MultiDiffOp
from fedconn.properties import random_weyl_form, random_multidiffop, random_poly, random_scalar

from reference_kernels import pairing_by_products, compose_at_by_products

R2 = x_roster(2)
SYMBOL2 = R2 + ("xi1", "xi2")
T_FACTORS = ["1", "t1 + 2", "1/(t1 + 2)", "i*t1^2 - 1/3", "(2 - i)*t1/(t1^2 + 2)"]


def t_factor(rng, roster=()):
    return parse_poly(rng.choice(T_FACTORS), roster)


def mixed_form(sym, rng, trunc=8, **kwargs):
    """A random form whose terms are scaled by t-polynomials, t-rational
    values or x-and-jet polynomials on the symbol roster, term by term."""
    form = random_weyl_form(sym, trunc, rng, **kwargs)
    symbol = sym.roster + tuple(f"xi{j + 1}" for j in range(sym.dim))
    terms = {}
    for key, c in form.terms.items():
        pick = rng.randrange(3)
        if pick == 1:
            c = c * t_factor(rng)
        elif pick == 2:
            c = c * random_poly(symbol, rng, degree=1, terms=2)
        terms[key] = c
    return WeylForm(sym, trunc, terms)


def with_central_terms(form, rng):
    """form plus y-free terms, with and without form indices."""
    zero = (0,) * form.ctx.dim
    extra = {(rng.randint(0, 2), zero, J): Poly.const(form.ctx.roster, random_scalar(rng))
             for J in ((), (0,), (1,))}
    return form + WeylForm(form.ctx, form.trunc, extra)


BRACKETS = {"mw": (False, False), "graded_comm": (True, False), "ad_over_h": (True, True)}


def assert_same(fast, reference, *context):
    """Equal terms, each coefficient on the roster, in the order, that the
    reference's one-by-one sums give it (``Poly.__eq__`` aligns rosters)."""
    assert fast == reference, context
    assert ({key: c.roster for key, c in fast.terms.items()}
            == {key: c.roster for key, c in reference.terms.items()}), context


@pytest.mark.parametrize("seed", range(6))
def test_pairing_matches_the_scaled_products(sym2, sym4, seed):
    rng = random.Random(1400 + seed)
    sym = sym4 if seed % 3 == 2 else sym2
    for _ in range(3):
        a = with_central_terms(mixed_form(sym, rng, terms=6, max_y=3), rng)
        b = with_central_terms(mixed_form(sym, rng, terms=6, max_y=3), rng)
        for name, (commutator, over_h) in BRACKETS.items():
            for cap in (None, 2, 4, 6):
                fast = getattr(a, name)(b, max_degree=cap)
                assert_same(fast, pairing_by_products(a, b, commutator, over_h, cap), name, cap)
                assert fast.trunc == min(a.trunc, b.trunc)


@pytest.mark.parametrize("seed", range(3))
def test_pairing_merges_rosters_within_a_key(sym2, seed):
    # the terms of f on the x roster and those of g = h f on the symbol roster
    # meet at the same output keys, as in the tau symbol, in either order
    rng = random.Random(1430 + seed)
    symbol = SYMBOL2
    f = random_weyl_form(sym2, 8, rng, terms=5, max_h=0, max_y=2)
    g = WeylForm(sym2, 8, {(k + 1, y, J): c * random_poly(symbol, rng, degree=1, terms=2)
                           for (k, y, J), c in f.terms.items()})
    b = random_weyl_form(sym2, 8, rng, terms=5, max_h=0, max_y=2)
    b = b + b.shift_h(1).truncate(8)
    for a in (f + g, g + f):
        for name, (commutator, over_h) in BRACKETS.items():
            fast = getattr(a, name)(b)
            assert_same(fast, pairing_by_products(a, b, commutator, over_h), name)
            assert any(set(c.roster) == set(symbol) for c in fast.terms.values())


def test_pairing_skips_central_terms_only_in_brackets(sym2):
    # a y-free term pairs at contraction order 0 only, which a commutator cancels
    rng = random.Random(1410)
    a = with_central_terms(WeylForm.zero(sym2, 6), rng)
    b = mixed_form(sym2, rng, trunc=6, terms=6)
    assert a.graded_comm(b).is_zero() and a.ad_over_h(b).is_zero() and b.ad_over_h(a).is_zero()
    assert_same(a.mw(b), pairing_by_products(a, b, False, False))
    assert not a.mw(b).is_zero()


def test_pairing_with_zero_and_constant_operands(sym2):
    rng = random.Random(1420)
    a = mixed_form(sym2, rng, terms=6)
    zero, one = WeylForm.zero(sym2, 8), WeylForm.unit(sym2, 8)
    half_t = WeylForm.from_poly(sym2, 8, parse_poly("1/(t1 + 2)", sym2.roster))
    for other in (zero, one, half_t, a.scale(Scalar(0, 3))):
        for name, (commutator, over_h) in BRACKETS.items():
            assert_same(getattr(a, name)(other), pairing_by_products(a, other, commutator, over_h))
            assert_same(getattr(other, name)(a), pairing_by_products(other, a, commutator, over_h))
    assert a.mw(zero).is_zero() and a.mw(one) == a and one.mw(a) == a
    assert a.ad_over_h(one).is_zero()


def random_op(rng, arity, order, roster=R2):
    """A random operator on R2 whose coefficients are scaled by random
    polynomials on ``roster`` and by t factors, some rational in t."""
    op = random_multidiffop(R2, rng, arity, order, slot_degree=2, terms=4)
    return MultiDiffOp(R2, arity, order, {
        key: random_poly(roster, rng, degree=2, terms=2) * t_factor(rng) * c
        for key, c in op.terms.items()})


@pytest.mark.parametrize("seed", range(6))
def test_compose_at_matches_the_scaled_products(seed):
    rng = random.Random(1450 + seed)
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        phi = random_op(rng, m, 3, ("x2",) if seed % 2 else R2)
        psi = random_op(rng, n, rng.choice((2, 3)))
        for i in range(m):
            for cap in (None, 0, 1, 2, 3):
                fast = phi.compose_at(i, psi, cap)
                assert_same(fast, compose_at_by_products(phi, i, psi, cap), m, n, i, cap)
                assert (fast.arity, fast.order) == (m + n - 1, min(phi.order, psi.order))


def test_compose_at_with_zero_and_constant_operands():
    rng = random.Random(1470)
    phi, psi = random_op(rng, 2, 3), random_op(rng, 1, 3)
    ident = MultiDiffOp.identity(R2, 3)
    zero = MultiDiffOp.zero(R2, 1, 3)
    # constant coefficients, and a psi whose coefficient every slot derivative kills
    const = MultiDiffOp(R2, 1, 3, {(1, ((1, 0),)): Poly.const(R2, Scalar(2, -1)),
                                   (0, ((0, 0),)): Poly.const(R2, 5)})
    for inner in (ident, zero, const, psi):
        for i in range(2):
            assert_same(phi.compose_at(i, inner), compose_at_by_products(phi, i, inner))
        assert_same(inner.compose_at(0, phi), compose_at_by_products(inner, 0, phi))
    assert phi.compose_at(1, ident) == phi and ident.compose_at(0, phi) == phi
    assert phi.compose_at(0, zero).is_zero()


# rosters a sum meets, one unsorted as a jet roster may be
ROSTERS = (R2, SYMBOL2, ("x2",), ("xi1", "x2", "x1"), ())


@pytest.mark.parametrize("seed", range(6))
def test_poly_sums_match_add_term_of_scaled_polys(seed):
    # sums and products on mixed rosters, t-rational parts, complex and
    # integer weights, and sums that cancel, some before a contribution on a
    # new roster
    rng = random.Random(1480 + seed)
    sums, reference = PolySums(), {}
    for _ in range(60):
        key = rng.randrange(4)
        roster = rng.choice(ROSTERS)
        p = (random_poly(roster, rng, degree=2, terms=3, params=("t1",)) if roster
             else Poly.const((), random_scalar(rng)))
        if rng.random() < 0.3:
            p = p * t_factor(rng)
        other = rng.choice((random_poly(R2, rng, degree=1, terms=2),
                            random_poly(("x1",), rng, degree=1, terms=2),
                            Poly.const((), random_scalar(rng))))
        if rng.random() < 0.3:
            other = other * t_factor(rng)
        w = rng.choice((random_scalar(rng), rng.randint(-3, 3)))
        if p.is_zero() or other.is_zero() or Scalar.of(w).is_zero():
            continue  # no kernel adds a zero contribution
        pick = rng.randrange(3)
        if pick == 0:
            sums.add(key, p, w)
            add_term(reference, key, p.scale(w))
        else:
            if pick == 1:
                sums.add_product(key, p, other, w)
            else:
                sums.add(key, p * other, w)
            add_term(reference, key, (p * other).scale(w))
        if rng.random() < 0.2:
            sums.add(key, p, -w)
            add_term(reference, key, p.scale(-w))
        if rng.random() < 0.1 and key in reference:
            # cancel the whole sum, polynomial and rational parts at once
            sums.add(key, reference[key], -1)
            add_term(reference, key, -reference[key])
    got = sums.polys()
    assert got == reference
    assert {key: p.roster for key, p in got.items()} == {
        key: p.roster for key, p in reference.items()}
    assert all(not p.is_zero() for p in got.values())


def test_poly_sums_roster_restarts_when_a_sum_cancels():
    # x-roster parts that cancel leave no mark on the roster of what follows,
    # whether they were polynomial or rational in t
    rng = random.Random(1485)
    jet = ("xi1", "x2", "x1")
    for factor in ("1", "1/(t1 + 2)"):
        p = random_poly(R2, rng, degree=2, terms=3) * parse_poly(factor, R2)
        q = random_poly(jet, rng, degree=2, terms=3) * parse_poly("1/(t1 + 3)", jet)
        r = random_poly(jet, rng, degree=2, terms=3)
        sums = PolySums()
        sums.add("k", p, 2)
        sums.add_product("k", p, Poly.const((), -2), 1)
        sums.add("k", q, 1)
        sums.add("k", r, 1)
        got = sums.polys()["k"]
        assert got == q + r and got.roster == jet
    # a zero weight adds nothing, and a sum that cancels leaves no key
    sums, p, far = PolySums(), random_poly(R2, rng, degree=2, terms=3), Poly.monomial(R2, (5, 0))
    sums.add("zero first", p, 0)
    sums.add("zero first", far, 1)
    sums.add("cancels", p, Scalar(1, 2))
    sums.add("cancels", p.with_roster(SYMBOL2), Scalar(-1, -2))
    assert sums.polys() == {"zero first": far}


@pytest.mark.parametrize("seed", range(4))
def test_product_with_a_constant_is_the_general_product(seed):
    rng = random.Random(1490 + seed)
    x1 = Poly.var(SYMBOL2, "x1")
    for _ in range(6):
        p = random_poly(SYMBOL2, rng, degree=3, terms=4, params=("t1", "t2")) * t_factor(rng)
        c = Poly.const(rng.choice((R2, ())), random_scalar(rng))
        # c + x1 is not a constant, so (c + x1) * p - x1 * p takes the general loop
        general = (c + x1) * p - x1 * p
        assert c * p == p * c == general
        assert p * Poly.const(R2, 0) == Poly.zero(SYMBOL2)
