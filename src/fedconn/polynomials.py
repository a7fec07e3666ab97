"""Exact polynomial arithmetic.

``Poly`` is a polynomial in base variables (x1, x2, ... and the jet variables
of operator symbols) with coefficients rational in parameter variables (t, t1,
t2, ...).  One sparse map takes (x exponents, t monomial) to a
Gaussian-integer numerator pair over one positive integer denominator per
Poly, so arithmetic runs on plain ints and reduces each result once; rational
dependence on t is carried by one monic denominator per Poly, which is
``T_ONE`` unless a coefficient needs it.  ``Scalar`` is the exact type a Poly
takes and hands out at its boundary.

A Poly over the empty roster () is a t-only value, and the one coefficient
ring of the package: the entries of Kahler matrices, the values a Poly is
built from or scaled by, the coefficients a Poly reports (``coefficients``,
``constant_coefficient``) and every t denominator are such Polys.  t monomials
are keyed by sorted (name, exponent) tuples, so the representation is
canonical with no roster bookkeeping.  ``pp_gcd`` is their monic gcd.

Each of a Poly's two denominators shares no factor with all of its
numerators at once, so equal Polys are equal structurally; the gcd that keeps
it so runs only when the t denominator is not 1.

``PolySums`` adds up weighted Polys per key on their integer numerators and
reduces each sum once: the product kernels of ``weylforms`` and
``multidiff``, the degree recursions and D_r of ``fedosov``, ``cov_deriv``
and the Gerstenhaber bracket accumulate through it.

``FormalFunction`` is a finite h-expansion sum_k h^k * Poly, truncated at a
declared order.

The module also provides the expression grammar used by scenario files and
reports: variables x1..xn and t1..tm, imaginary unit i, rational literals,
operators + - * / ^, parentheses.
"""

from __future__ import annotations

import itertools
import math
import operator
from math import gcd

from .scalars import Scalar, ONE, format_gaussian, gaussian_is_atomic, gaussian_is_negative


def natural_key(name: str):
    """Sort 'x2' before 'x10'; bare 't' before 't1'."""
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


def is_param_name(name: str) -> bool:
    return name[:1] == "t" and (len(name) == 1 or name[1:].isdigit())


def add_term(out: dict, key, c):
    """Accumulate c into the sparse map out at key; a sum that cancels is dropped."""
    s = out.get(key)
    if s is None:
        out[key] = c
    else:
        s = s + c
        if s.is_zero():
            del out[key]
        else:
            out[key] = s


def exponents_up_to(n: int, degree: int):
    """Exponent tuples of length n and total degree <= degree, graded-lex order."""
    keys = (e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree)
    return sorted(keys, key=lambda m: (sum(m), m))


# ---------------------------------------------------------------------------
# monomials in parameter variables: sorted tuples of (name, positive exponent)
# ---------------------------------------------------------------------------

EMPTY_MONO = ()


def _mono_of(d: dict):
    """The canonical monomial of a {name: exponent} dict with no zero exponent."""
    return tuple(sorted(d.items(), key=lambda kv: natural_key(kv[0])))


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
        return ((a[0][0], a[0][1] + b[0][1]),)
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return _mono_of(d)


def mono_degree(m) -> int:
    return sum(e for _, e in m)


def mono_divides(a, b) -> bool:
    db = dict(b)
    return all(db.get(name, 0) >= e for name, e in a)


def mono_div(b, a):
    """b / a, assuming mono_divides(a, b)."""
    d = dict(b)
    for name, e in a:
        d[name] -= e
    return _mono_of({n: e for n, e in d.items() if e})


def _mono_derivative(m, name):
    """[(m with the exponent e of name lowered by one, e)], or [] when name is
    absent; distinct monomials stay distinct, so no two results collide."""
    for j, (n, e) in enumerate(m):
        if n == name:
            return [(m[:j] + (((n, e - 1),) if e > 1 else ()) + m[j + 1:], e)]
    return []


def _mono_sort_key(m):
    # graded lex: total degree first, then exponents along the sorted roster
    return (mono_degree(m), tuple((natural_key(n), e) for n, e in m))


def _mono_str(m) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)


# ---------------------------------------------------------------------------
# Poly: Gaussian-integer numerators over one integer and one t denominator
# ---------------------------------------------------------------------------

def merge_rosters(a, b):
    if a == b or not b:
        return a
    if not a:
        return b
    return tuple(sorted(set(a) | set(b), key=natural_key))


def _remap(terms, old, new):
    if old == new:
        return dict(terms)
    pos = [new.index(name) for name in old]
    out = {}
    for (exps, t), c in terms.items():
        key = [0] * len(new)
        for p, e in zip(pos, exps):
            key[p] = e
        out[(tuple(key), t)] = c
    return out


# The helpers below work on a Poly's layout: ``terms`` maps keys to nonzero
# Gaussian-integer pairs (a, b) over one positive integer q.  Those marked
# unreduced leave the common content of q and the numerators to the caller.

def _acc(out: dict, key, a: int, b: int):
    """Accumulate the pair (a, b) into out at key; a sum that cancels is dropped."""
    s = out.get(key)
    if s is not None:
        a += s[0]
        b += s[1]
    if a or b:
        out[key] = (a, b)
    elif s is not None:
        del out[key]


def _content(terms: dict, q: int):
    """(terms, q) with gcd(q, every numerator) divided out; the gcd stops at 1."""
    g = q
    for a, b in terms.values():
        g = gcd(g, a, b)
        if g == 1:
            return terms, q
    return {key: (a // g, b // g) for key, (a, b) in terms.items()}, q // g


def _numerators(scalars: dict):
    """(terms, q) of a map to nonzero Scalars over their least common q.  Each
    Scalar is reduced, so the result is too."""
    q = math.lcm(*(c.q for c in scalars.values()))
    terms = {}
    for key, c in scalars.items():
        f = q // c.q
        terms[key] = (c.a * f, c.b * f)
    return terms, q


def _times_gaussian(terms: dict, c: int, d: int):
    """Every numerator times c + d*i, unreduced."""
    if d:
        return {key: (a * c - b * d, a * d + b * c) for key, (a, b) in terms.items()}
    return {key: (a * c, b * c) for key, (a, b) in terms.items()}


def _acc_product(out: dict, ta: dict, tb: dict, c: int, d: int):
    """Accumulate (c + d*i) * ta * tb into out, for term maps on one roster;
    unreduced."""
    add = operator.add
    for (m1, t1), (a1, b1) in ta.items():
        a, b = (a1 * c - b1 * d, a1 * d + b1 * c) if d else (a1 * c, b1 * c)
        for (m2, t2), (a2, b2) in tb.items():
            t = mono_mul(t1, t2) if t1 and t2 else t1 or t2
            _acc(out, (tuple(map(add, m1, m2)), t), a * a2 - b * b2, a * b2 + b * a2)


def _sum(ta: dict, qa: int, tb: dict, qb: int, sign: int):
    """(terms, q) of ta/qa + sign * tb/qb over q = lcm(qa, qb), unreduced."""
    if qa == qb:
        fa = fb = 1
    else:
        g = gcd(qa, qb)
        fa, fb = qb // g, qa // g
    out = dict(ta) if fa == 1 else _times_gaussian(ta, fa, 0)
    fb *= sign
    for key, (a, b) in tb.items():
        _acc(out, key, a * fb, b * fb)
    return out, qa * fa


def _over(items, q: int):
    """(terms, q * L) of items (key, a, b, d), each adding (a + b*i)/(q*d) at
    key, where L is the lcm of the d; unreduced."""
    lcm = math.lcm(*(item[3] for item in items))
    out = {}
    for key, a, b, d in items:
        f = lcm // d
        _acc(out, key, a * f, b * f)
    return out, q * lcm


def _t_coefficients(terms: dict, q: int, den: "Poly") -> dict:
    """x exponents -> the t-only Poly coefficient of that x-monomial over q and den."""
    out = {}
    for (m, t), c in terms.items():
        out.setdefault(m, {})[((), t)] = c
    return {m: Poly._make((), ts, q, den) for m, ts in out.items()}


def _times_t(terms: dict, q: int, p: "Poly"):
    """(terms, q) times the numerators of the t-only Poly p, unreduced."""
    if p is T_ONE:
        return terms, q
    out = {}
    for (m, t1), (a1, b1) in terms.items():
        for (_, t2), (a2, b2) in p.terms.items():
            _acc(out, (m, mono_mul(t1, t2)), a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
    return out, q * p.q


def _is_constant_key(key) -> bool:
    """Whether a term key (x exponents, t monomial) is free of x and t."""
    return not key[1] and not any(key[0])


def _den_mul(d1: "Poly", d2: "Poly") -> "Poly":
    """d1 * d2, kept as the T_ONE object when both are T_ONE."""
    return d2 if d1 is T_ONE else d1 if d2 is T_ONE else d1 * d2


def _reduce(terms: dict, q: int, den: "Poly"):
    """(terms, q, den) over the least monic common denominator; den is T_ONE
    when that is 1.  The only place a Poly calls pp_gcd."""
    if not terms:
        return terms, 1, T_ONE
    if den.param_variables():
        nums = _t_coefficients(terms, q, T_ONE)
        g = den
        for num in nums.values():
            g = pp_gcd(g, num)
            if not g.param_variables():
                break
        if g.param_variables():
            den = _t_divexact(den, g)
            quotients = [(m, _t_divexact(num, g)) for m, num in nums.items()]
            terms, q = _over([((m, t), a, b, p.q) for m, p in quotients
                              for (_, t), (a, b) in p.terms.items()], 1)
    inv = ONE / _leading(den)
    den = den.scale(inv) if den.param_variables() else T_ONE
    if not inv.is_one():
        terms, q = _times_gaussian(terms, inv.a, inv.b), q * inv.q
    return (*_content(terms, q), den)


def _monomial_terms(exps: tuple, value):
    """(terms, q, den), reduced, of value * x^exps for a number or a t-only Poly."""
    if isinstance(value, Poly):
        return {(exps, t): c for (_, t), c in value.terms.items()}, value.q, value.den
    c = Scalar.of(value)
    return ({(exps, EMPTY_MONO): (c.a, c.b)} if c.a or c.b else {}), c.q, T_ONE


def _format_terms(items) -> str:
    """The sum of the terms (monomial string, a, b, q), each (a + b*i)/q times
    its monomial, in the given order."""
    parts = []
    for mono, a, b, q in items:
        if not mono:
            parts.append(format_gaussian(a, b, q))
            continue
        pre = ""
        if gaussian_is_negative(a, b):
            pre, a, b = "-", -a, -b
        if a == q and not b:
            parts.append(pre + mono)
        else:
            cs = format_gaussian(a, b, q)
            if not gaussian_is_atomic(a, b):
                cs = f"({cs})"
            parts.append(f"{pre}{cs}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


class Poly:
    """Polynomial in an ordered roster of base variables, rational in the parameters.

    The value is the sum of (a + b*i) x^m t^u / (q * den) over ``terms``,
    which maps (x exponents m along ``roster``, t monomial u) to a nonzero
    Gaussian-integer numerator pair (a, b); u is () when t-free.  ``q`` is a
    positive integer sharing no factor with all the numerators at once, so it
    is 1 exactly when every coefficient is a Gaussian integer.  ``den`` is the
    monic t-only Poly that divides every coefficient: T_ONE unless some
    coefficient is rational in t, and sharing no factor with all the
    numerators at once.  Equal Polys are therefore equal structurally.

    Arithmetic runs on plain ints, and each result is reduced once: one gcd
    pass over its numerators that stops at 1, skipped when its q is 1.
    Scalars are made only at the boundary (the constructor, ``scalar_terms``,
    ``as_scalar``) and where ``pp_gcd`` divides by a leading coefficient.
    """

    __slots__ = ("roster", "terms", "q", "den")

    def __init__(self, roster, terms=None, den=None):
        """``terms`` maps keys to nonzero Scalars, the numerators over ``den``,
        a t-only Poly that is 1 when omitted and is reduced otherwise."""
        self.roster = tuple(roster)
        self.terms, self.q = _numerators(terms) if terms else ({}, 1)
        self.den = T_ONE
        if den is not None and den is not T_ONE:
            self.terms, self.q, self.den = _reduce(self.terms, self.q, den)

    @staticmethod
    def _new(roster: tuple, terms: dict, q: int, den: "Poly") -> "Poly":
        """The Poly of parts already reduced, without re-validating them."""
        p = object.__new__(Poly)
        p.roster, p.terms, p.q, p.den = roster, terms, q, den
        return p

    @staticmethod
    def _make(roster: tuple, terms: dict, q: int, den: "Poly") -> "Poly":
        """The Poly of integer numerators over q and den, reduced once."""
        if den is not T_ONE:
            terms, q, den = _reduce(terms, q, den)
        elif q != 1:
            terms, q = _content(terms, q)
        p = object.__new__(Poly)
        p.roster, p.terms, p.q, p.den = roster, terms, q, den
        return p

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def zero(roster) -> "Poly":
        return Poly(roster)

    @staticmethod
    def const(roster, value) -> "Poly":
        """value, a number or a t-only Poly, over roster."""
        roster = tuple(roster)
        return Poly._new(roster, *_monomial_terms((0,) * len(roster), value))

    @staticmethod
    def var(roster, name: str) -> "Poly":
        """The variable name over roster: one of the roster, or a parameter."""
        roster = tuple(roster)
        if name in roster:
            return Poly.monomial(roster, tuple(int(v == name) for v in roster))
        if not is_param_name(name):
            raise ValueError(f"variable {name!r} not in roster {roster}")
        return Poly._new(roster, {((0,) * len(roster), ((name, 1),)): (1, 0)}, 1, T_ONE)

    @staticmethod
    def monomial(roster, exps, coeff=1) -> "Poly":
        return Poly._new(tuple(roster), *_monomial_terms(tuple(exps), coeff))

    # -- predicates and coefficients ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        """Free of x; a constant Poly may still depend on t."""
        return all(not any(m) for m, _ in self.terms)

    def as_scalar(self) -> Scalar:
        """The number this Poly is; ValueError when it depends on x or t."""
        if self.den is not T_ONE or any(any(m) or t for m, t in self.terms):
            raise ValueError(f"{self} is not a number")
        a, b = next(iter(self.terms.values()), (0, 0))
        return Scalar._make(a, b, self.q)

    def scalar_terms(self) -> dict:
        """(x exponents, t monomial) -> the Scalar numerator of that term over ``den``."""
        q = self.q
        return {key: Scalar._make(a, b, q) for key, (a, b) in self.terms.items()}

    def coefficients(self) -> dict:
        """x exponents -> the coefficient of that x-monomial, a reduced t-only Poly."""
        if not self.roster:
            return {(): self} if self.terms else {}
        return _t_coefficients(self.terms, self.q, self.den)

    def constant_coefficient(self) -> "Poly":
        """The coefficient of x^0, a reduced t-only Poly."""
        return self.coefficients().get((0,) * len(self.roster), Poly.zero(()))

    def param_variables(self) -> set:
        out = set() if self.den is T_ONE else self.den.param_variables()
        for _, t in self.terms:
            out.update(name for name, _ in t)
        return out

    # -- roster handling -----------------------------------------------------------

    def with_roster(self, roster) -> "Poly":
        roster = tuple(roster)
        if roster == self.roster:
            return self
        if not set(self.roster) <= set(roster):
            missing = set(self.roster) - set(roster)
            if any(self.degree_in(v) for v in missing):
                raise ValueError(f"cannot drop variables {missing} still in use")
        return Poly._new(roster, _remap(self.terms, self.roster, roster), self.q, self.den)

    def degree_in(self, name: str) -> int:
        if name not in self.roster:
            return 0
        i = self.roster.index(name)
        return max((m[i] for m, _ in self.terms), default=0)

    def _aligned(self, other: "Poly"):
        if self.roster == other.roster:
            return self, other
        r = merge_rosters(self.roster, other.roster)
        return self.with_roster(r), other.with_roster(r)

    # -- arithmetic ---------------------------------------------------------------

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign * other."""
        if not isinstance(other, Poly):
            other = Poly.const(self.roster, other)
        a, b = self._aligned(other)
        if not b.terms:
            return a
        if a.den is T_ONE and b.den is T_ONE:
            return Poly._make(a.roster, *_sum(a.terms, a.q, b.terms, b.q, sign), T_ONE)
        ta, qa = _times_t(a.terms, a.q, b.den)
        tb, qb = _times_t(b.terms, b.q, a.den)
        return Poly._make(a.roster, *_sum(ta, qa, tb, qb, sign), _den_mul(a.den, b.den))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._new(self.roster, {key: (-a, -b) for key, (a, b) in self.terms.items()},
                         self.q, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self._aligned(other)
        if not a.terms or not b.terms:
            return Poly._new(a.roster, {}, 1, T_ONE)
        if len(a.terms) == 1 and a.den is T_ONE and _is_constant_key(next(iter(a.terms))):
            return b.scale(a)
        if len(b.terms) == 1 and b.den is T_ONE and _is_constant_key(next(iter(b.terms))):
            return a.scale(b)
        out = {}
        _acc_product(out, a.terms, b.terms, 1, 0)
        return Poly._make(a.roster, out, a.q * b.q, _den_mul(a.den, b.den))

    __rmul__ = __mul__

    def scale(self, value) -> "Poly":
        """self * value for a number or a t-only Poly."""
        if type(value) is int:
            c, d, r = value, 0, 1
        elif type(value) is Poly:
            if value.den is not T_ONE or any(t for _, t in value.terms):
                return Poly._make(self.roster, *_times_t(self.terms, self.q, value),
                                  _den_mul(self.den, value.den))
            (c, d), r = next(iter(value.terms.values()), (0, 0)), value.q
        else:
            value = Scalar.of(value)
            c, d, r = value.a, value.b, value.q
        if c and d:
            return Poly._make(self.roster, _times_gaussian(self.terms, c, d), self.q * r, self.den)
        if not c and not d:
            return Poly._new(self.roster, {}, 1, T_ONE)
        if c == r:
            return self
        # a real or imaginary value s/r: with g = gcd(s, q), s/g and q/g share
        # no factor, so only r can share one with the numerators
        s = c or d
        g = gcd(s, self.q)
        s //= g
        terms = _times_gaussian(self.terms, s, 0) if c else _times_gaussian(self.terms, 0, s)
        if r == 1:
            return Poly._new(self.roster, terms, self.q // g, self.den)
        return Poly._make(self.roster, terms, self.q // g * r, self.den)

    def __pow__(self, k: int):
        out = Poly.const(self.roster, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        """Division where defined: by constants (in x) always, otherwise exact."""
        if not isinstance(other, Poly):
            other = Poly.const((), other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if other.is_constant():
            # c = N / (q D) for the integer numerators N of c: 1/c = q D / N
            c = other.constant_coefficient()
            return self.scale(Poly._make((), _times_gaussian(c.den.terms, c.q, 0), c.den.q,
                                         Poly._new((), c.terms, 1, T_ONE)))
        a, b = self._aligned(other)
        return _poly_divexact(a, b)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if other == 0:
                return self.is_zero()
            other = Poly.const(self.roster, other)
        a, b = self._aligned(other)
        return a.terms == b.terms and a.q == b.q and (a.den is b.den or a.den == b.den)

    # -- calculus -------------------------------------------------------------------

    def differentiate(self, name: str) -> "Poly":
        if name in self.roster:
            i = self.roster.index(name)
            out = {}
            for (m, t), (a, b) in self.terms.items():
                e = m[i]
                if e:
                    out[(m[:i] + (e - 1,) + m[i + 1:], t)] = (a * e, b * e)
            return Poly._make(self.roster, out, self.q, self.den)
        if not is_param_name(name):
            raise ValueError(f"unknown variable {name!r}")
        out = {(m, low): (a * e, b * e) for (m, t), (a, b) in self.terms.items()
               for low, e in _mono_derivative(t, name)}
        if self.den is T_ONE:
            return Poly._make(self.roster, out, self.q, T_ONE)
        # (N / D)' = (N' D - N D') / D^2
        dn = _times_t(out, self.q, self.den)
        ndd = _times_t(self.terms, self.q, self.den.differentiate(name))
        return Poly._make(self.roster, *_sum(*dn, *ndd, -1), self.den * self.den)

    def antiderivative(self, name: str) -> "Poly":
        """Integral from 0: result q has dq/dname = self and q|_{name=0} = 0."""
        items = []
        if name in self.roster:
            i = self.roster.index(name)
            for (m, t), (a, b) in self.terms.items():
                e = m[i] + 1
                items.append(((m[:i] + (e,) + m[i + 1:], t), a, b, e))
        elif is_param_name(name):
            if name in self.den.param_variables():
                raise ValueError(f"antiderivative: {name!r} occurs in a denominator")
            for (m, t), (a, b) in self.terms.items():
                d = dict(t)
                e = d[name] = d.get(name, 0) + 1
                items.append(((m, _mono_of(d)), a, b, e))
        else:
            raise ValueError(f"unknown variable {name!r}")
        return Poly._make(self.roster, *_over(items, self.q), self.den)

    def deriv_multi(self, exps) -> "Poly":
        """Apply the mixed partial d^exps aligned with the roster."""
        steps = [(i, e) for i, e in enumerate(exps[:len(self.roster)]) if e]
        if not steps:
            return self
        out = {}
        for (m, t), (a, b) in self.terms.items():
            factor = 1
            for i, e in steps:
                if m[i] < e:
                    break
                factor *= math.perm(m[i], e)
            else:
                lowered = list(m)
                for i, e in steps:
                    lowered[i] -= e
                out[(tuple(lowered), t)] = (a * factor, b * factor)
        return Poly._make(self.roster, out, self.q, self.den)

    def subs_params(self, values: dict) -> "Poly":
        values = {name: Scalar.of(v) for name, v in values.items()}
        den = self.den
        if den is not T_ONE:
            den = den.subs_params(values)
            if den.is_zero():
                raise ZeroDivisionError("denominator vanishes at the substituted point")
        items = []
        for (m, t), (a, b) in self.terms.items():
            rest = []
            r = 1
            for name, e in t:
                if name in values:
                    z = values[name] ** e
                    a, b, r = a * z.a - b * z.b, a * z.b + b * z.a, r * z.q
                else:
                    rest.append((name, e))
            items.append(((m, tuple(rest)), a, b, r))
        return Poly._make(self.roster, *_over(items, self.q), den)

    # -- printing -------------------------------------------------------------------

    def _x_monomial(self, m) -> str:
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.roster, m) if e)

    def __str__(self):
        if self.is_zero():
            return "0"
        if self.den is T_ONE and not any(t for _, t in self.terms):
            # t-free: straight from the numerators
            return _format_terms((self._x_monomial(m), a, b, self.q) for (m, _), (a, b) in
                                 sorted(self.terms.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0]),
                                        reverse=True))
        if not self.roster:
            return self._str_t_only()
        parts = []
        for m, c in sorted(self.coefficients().items(), key=lambda kv: (sum(kv[0]), kv[0]),
                           reverse=True):
            mono = self._x_monomial(m)
            if not mono:
                parts.append(str(c))
                continue
            pre = ""
            if len(c.terms) == 1 and gaussian_is_negative(*next(iter(c.terms.values()))):
                pre, c = "-", -c
            if c == 1:
                parts.append(pre + mono)
                continue
            cs = str(c)
            # num/(den) binds like a factor chain; a polynomial needs one term
            if c.den is T_ONE and (len(c.terms) != 1
                                   or not gaussian_is_atomic(*next(iter(c.terms.values())))):
                cs = f"({cs})"
            parts.append(f"{pre}{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def _str_t_only(self) -> str:
        """str(self) for a t-only Poly with t: num or num/(den)."""
        num = _format_terms((_mono_str(t), a, b, self.q) for (_, t), (a, b) in
                            sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0][1]),
                                   reverse=True))
        if self.den is T_ONE:
            return num
        # a lone complex constant such as 2/3-i prints as a sum, which / would split
        ((_, t), (a, b)), *rest = self.terms.items()
        if rest or num.startswith("-") or (not t and not gaussian_is_atomic(a, b)):
            num = f"({num})"
        return f"{num}/({self.den})"

    def map_x(self, fn) -> "Poly":
        """Each term c x^m as w c x^m2 where fn(m) = (m2, w), or dropped where
        fn(m) is None; fn must not send two kept x-monomials to one."""
        items = []
        for (m, t), (a, b) in self.terms.items():
            image = fn(m)
            if image is not None:
                w = Scalar.of(image[1])
                items.append(((image[0], t), a * w.a - b * w.b, a * w.b + b * w.a, w.q))
        return Poly._make(self.roster, *_over(items, self.q), self.den)

    def as_factor(self) -> str:
        """str(self), in parentheses when it has more than one x-monomial."""
        s = str(self)
        return f"({s})" if len({m for m, _ in self.terms}) > 1 else s

    def __repr__(self):
        return f"Poly({self})"

    def __reduce__(self):
        # T_ONE is recognized by identity, so it pickles by name and comes
        # back as the module's own object
        if self is T_ONE:
            return "T_ONE"
        return Poly._new, (self.roster, self.terms, self.q, self.den)


# the t-only Poly 1: the denominator of every Poly polynomial in t, its own
# denominator, and recognized by identity
T_ONE = Poly._new((), {((), EMPTY_MONO): (1, 0)}, 1, None)
T_ONE.den = T_ONE


class PolySums:
    """Sums of weighted Polys, one per key, each reduced once.

    This is where the package's linear combinations are summed: the product
    kernels, the degree recursions of ``fedosov``, ``cov_deriv``, D_r and the
    Gerstenhaber bracket add into one PolySums, and each coefficient is
    reduced once, in ``polys()``.

    ``add(key, p, w)`` adds w * p at key for a number w, an int or a Scalar,
    and ``add_product(key, p1, p2, w)`` adds w * p1 * p2.  A key's first
    contribution, when it is a Poly of weight 1 or -1, is kept as that Poly
    (negated for -1): a key that nothing else touches costs no reduction.
    Once a second contribution joins, the key keeps one map of unreduced
    Gaussian-integer numerators over one integer denominator, the lcm of its
    contributions' denominators.  The numerators of a contribution go
    straight into that map, those of a product as they are multiplied
    (``_acc_product``, the loop of ``Poly.__mul__``), so a contribution
    makes no Poly of its own, and ``polys()`` makes one Poly per key.  A
    contribution rational in t (``den`` not T_ONE) joins an exact Poly sum
    kept beside the map instead, and moves into the map once that sum is
    polynomial.

    A key's roster merges the rosters of its contributions since its sum was
    last zero, as adding them one by one with ``add_term`` would.
    """

    __slots__ = ("_sums",)

    def __init__(self):
        # key -> a lone contribution, kept as its Poly, or
        #        [roster, q, {(x exponents, t monomial): (a, b)},
        #         the Poly sum of the contributions rational in t, or None]
        self._sums = {}

    def _slot(self, key, roster: tuple, q: int):
        """(slot at key, factor): the slot's map is on a roster that contains
        ``roster``, and a contribution over q joins its denominator once its
        numerators are multiplied by the factor."""
        acc = self._sums.get(key)
        if acc is None:
            acc = self._sums[key] = [roster, q, {}, None]
            return acc, 1
        if type(acc) is Poly:
            # a second contribution: the lone Poly becomes the slot's start
            acc = self._sums[key] = ([acc.roster, acc.q, dict(acc.terms), None]
                                     if acc.den is T_ONE else [acc.roster, 1, {}, acc])
        if roster != acc[0]:
            merged = merge_rosters(acc[0], roster)
            if merged != acc[0]:
                acc[2] = _remap(acc[2], acc[0], merged)
                acc[0] = merged
        total = acc[1]
        if total % q:
            lcm = total // gcd(total, q) * q
            f = lcm // total
            acc[2] = {k: (a * f, b * f) for k, (a, b) in acc[2].items()}
            acc[1] = total = lcm
        return acc, total // q

    def add(self, key, p: Poly, w):
        wa, wb, q = (w, 0, 1) if type(w) is int else (w.a, w.b, w.q)
        if not wa and not wb:
            return
        if q == 1 and not wb and (wa == 1 or wa == -1) and p.terms and key not in self._sums:
            self._sums[key] = p if wa == 1 else -p
            return
        if p.den is not T_ONE:
            acc, _ = self._slot(key, p.roster, 1)
            exact = p.scale(w) if acc[3] is None else acc[3] + p.scale(w)
            if exact.den is not T_ONE:
                acc[3] = exact
                return
            acc[3] = None
            p, wa, wb, q = exact, 1, 0, 1
        acc, f = self._slot(key, p.roster, p.q * q)
        out, roster = acc[2], acc[0]
        terms = p.terms if roster == p.roster else _remap(p.terms, p.roster, roster)
        wa, wb = wa * f, wb * f
        if wb:
            for k, (a, b) in terms.items():
                _acc(out, k, a * wa - b * wb, a * wb + b * wa)
        else:
            for k, (a, b) in terms.items():
                _acc(out, k, a * wa, b * wa)
        if not out and acc[3] is None:
            del self._sums[key]

    def add_product(self, key, p1: Poly, p2: Poly, w):
        if p1.den is not T_ONE or p2.den is not T_ONE:
            self.add(key, p1 * p2, w)
            return
        wa, wb, q = (w, 0, 1) if type(w) is int else (w.a, w.b, w.q)
        if not wa and not wb:
            return
        if p1.roster != p2.roster:
            p1, p2 = p1._aligned(p2)
        acc, f = self._slot(key, p1.roster, p1.q * p2.q * q)
        if acc[0] != p1.roster:
            p1, p2 = p1.with_roster(acc[0]), p2.with_roster(acc[0])
        _acc_product(acc[2], p1.terms, p2.terms, wa * f, wb * f)
        if not acc[2] and acc[3] is None:
            del self._sums[key]

    def polys(self) -> dict:
        """key -> the sum at that key, for every key whose sum is not zero."""
        out = {}
        for key, acc in self._sums.items():
            if type(acc) is Poly:
                out[key] = acc
                continue
            roster, q, terms, exact = acc
            p = Poly._make(roster, terms, q, T_ONE)
            out[key] = p if exact is None else p + exact
        return out


# ---------------------------------------------------------------------------
# t-only polynomials: leading terms, exact division, gcd
# ---------------------------------------------------------------------------

def _leading(p: Poly) -> Scalar:
    """The coefficient of p's leading t monomial in the order _mono_sort_key."""
    a, b = p.terms[max(p.terms, key=lambda key: _mono_sort_key(key[1]))]
    return Scalar._make(a, b, p.q)


def _monic(p: Poly) -> Poly:
    return p.scale(ONE / _leading(p)) if p.terms else p


def _t_term(t, z: Scalar) -> Poly:
    """The t-only Poly z * t for a t monomial t and a nonzero z."""
    return Poly._new((), {((), t): (z.a, z.b)}, z.q, T_ONE)


def _in_powers(p: Poly, name: str) -> dict:
    """p as {e: the coefficient of name^e}, each a t-only Poly free of name."""
    out = {}
    for (_, t), c in p.terms.items():
        e = dict(t).get(name, 0)
        out.setdefault(e, {})[((), tuple(kv for kv in t if kv[0] != name))] = c
    return {e: Poly._make((), terms, p.q, T_ONE) for e, terms in out.items()}


def _t_divexact(a: Poly, b: Poly) -> Poly:
    """a / b for t-only polynomials where b divides a; ValueError otherwise."""
    # graded lex along the sorted variables: a monomial order, which the
    # division needs and the printing order of _mono_sort_key is not
    names = sorted(a.param_variables() | b.param_variables(), key=natural_key)

    def order(key):
        d = dict(key[1])
        return mono_degree(key[1]), tuple(d.get(n, 0) for n in names)

    lb = max(b.terms, key=order)
    cb = Scalar._make(*b.terms[lb], b.q)
    quot, rem = Poly.zero(()), a
    while rem.terms:
        lr = max(rem.terms, key=order)
        if not mono_divides(lb[1], lr[1]):
            raise ValueError("polynomial division is not exact")
        step = _t_term(mono_div(lr[1], lb[1]), Scalar._make(*rem.terms[lr], rem.q) / cb)
        quot, rem = quot + step, rem - step * b
    return quot


def _content_in(p: Poly, name: str) -> Poly:
    """The monic gcd of p's coefficients as a polynomial in name."""
    g = Poly.zero(())
    for c in _in_powers(p, name).values():
        g = pp_gcd(g, c)
    return g


def _pseudo_remainder(a: Poly, b: Poly, name: str) -> Poly:
    """a times a power of b's leading coefficient in name, reduced by b below
    b's degree in name."""
    cb = _in_powers(b, name)
    db = max(cb)
    while a.terms:
        ca = _in_powers(a, name)
        da = max(ca)
        if da < db:
            break
        shift = _t_term(((name, da - db),) if da > db else EMPTY_MONO, ONE)
        a = a * cb[db] - ca[da] * shift * b
    return a


def pp_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q(i) of two t-only polynomials, by the primitive
    Euclidean algorithm in their last variable; the gcd with 0 is the other
    argument made monic."""
    if a.is_zero() or b.is_zero():
        return _monic(a + b)
    va, vb = a.param_variables(), b.param_variables()
    if not va or not vb:
        return T_ONE
    v = max(va | vb, key=natural_key)
    ca, cb = _content_in(a, v), _content_in(b, v)
    g = pp_gcd(ca, cb)
    if v in va and v in vb:
        a, b = _t_divexact(a, ca), _t_divexact(b, cb)
        while b.terms:
            r = _pseudo_remainder(a, b, v)
            a, b = b, _t_divexact(r, _content_in(r, v)) if r.terms else r
        g = g * a
    return _monic(g)


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    def leading(p):
        coeffs = p.coefficients()
        m = max(coeffs, key=lambda m: (sum(m), m))
        return m, coeffs[m]

    out = Poly.zero(a.roster)
    rem = a
    lb, cb = leading(b)
    while not rem.is_zero():
        lr, cr = leading(rem)
        if any(er < eb for er, eb in zip(lr, lb)):
            raise ValueError("polynomial division is not exact")
        q = Poly.monomial(a.roster, tuple(er - eb for er, eb in zip(lr, lb)), cr / cb)
        out = out + q
        rem = rem - q * b
    return out


def x_roster(dim: int):
    return tuple(f"x{i}" for i in range(1, dim + 1))


def monomials_up_to(roster, degree: int):
    """All monomial Polys of total degree <= degree, graded-lex order."""
    roster = tuple(roster)
    return [Poly.monomial(roster, k) for k in exponents_up_to(len(roster), degree)]


# ---------------------------------------------------------------------------
# FormalFunction: finite h-expansions of Polys
# ---------------------------------------------------------------------------

class FormalFunction:
    """sum_k h^k * p_k with Poly coefficients, truncated at h^order."""

    __slots__ = ("roster", "order", "coeffs")

    def __init__(self, roster, order: int, coeffs=None):
        self.roster = tuple(roster)
        self.order = order
        self.coeffs = {}
        if coeffs:
            for k, p in coeffs.items():
                if k <= order and not p.is_zero():
                    self.coeffs[k] = p

    @staticmethod
    def from_poly(p: Poly, order: int, h_power: int = 0) -> "FormalFunction":
        return FormalFunction(p.roster, order, {h_power: p})

    def coefficient(self, k: int) -> Poly:
        return self.coeffs.get(k, Poly.zero(self.roster))

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, order: int) -> "FormalFunction":
        return FormalFunction(self.roster, min(self.order, order), self.coeffs)

    def __add__(self, other):
        if isinstance(other, Poly):
            other = FormalFunction.from_poly(other, self.order)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, p in other.coeffs.items():
            add_term(out, k, p)
        return FormalFunction(merge_rosters(self.roster, other.roster), order, out)

    def __neg__(self):
        return FormalFunction(self.roster, self.order, {k: -p for k, p in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, Poly):
            other = FormalFunction.from_poly(other, self.order)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = FormalFunction.from_poly(other, self.order)
        if not isinstance(other, FormalFunction):
            return self.scale(other)
        order = min(self.order, other.order)
        out = PolySums()
        for k1, p1 in self.coeffs.items():
            for k2, p2 in other.coeffs.items():
                k = k1 + k2
                if k <= order:
                    out.add_product(k, p1, p2, 1)
        return FormalFunction(merge_rosters(self.roster, other.roster), order, out.polys())

    def scale(self, value) -> "FormalFunction":
        return FormalFunction(self.roster, self.order, {k: p.scale(value) for k, p in self.coeffs.items()})

    def shift_h(self, j: int) -> "FormalFunction":
        """Multiply by h^j (j may be negative; dropping below h^0 must be exact)."""
        out = {}
        for k, p in self.coeffs.items():
            nk = k + j
            if nk < 0:
                raise ValueError("h-division leaves a remainder")
            out[nk] = p
        return FormalFunction(self.roster, self.order + j, out)

    def t_derivative(self, name: str) -> "FormalFunction":
        return FormalFunction(self.roster, self.order, {k: p.differentiate(name) for k, p in self.coeffs.items()})

    def subs_params(self, values: dict) -> "FormalFunction":
        return FormalFunction(self.roster, self.order, {k: p.subs_params(values) for k, p in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = FormalFunction.from_poly(other, self.order)
        if not isinstance(other, FormalFunction):
            return NotImplemented
        upto = min(self.order, other.order)
        for k in range(upto + 1):
            if self.coefficient(k) != other.coefficient(k):
                return False
        return True

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(str(p) if k == 0 else f"h^{k}*{p.as_factor()}"
                          for k, p in sorted(self.coeffs.items()))

    def __repr__(self):
        return f"FormalFunction({self})"


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

class ExprError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r} in expression")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, roster):
        self.tokens = tokens
        self.pos = 0
        self.roster = tuple(roster)

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        k, v = self.tokens[self.pos]
        if kind is not None and k != kind:
            raise ExprError(f"expected {kind}, found {v or 'end of input'!r}")
        self.pos += 1
        return v

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() != "end":
            raise ExprError(f"unexpected trailing input {self.tokens[self.pos][1]!r}")
        return p

    def expr(self) -> Poly:
        if self.peek() == "-":
            self.take()
            out = -self.term()
        else:
            out = self.term()
        while self.peek() in "+-":
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> Poly:
        out = self.factor()
        while self.peek() in "*/":
            op = self.take()
            rhs = self.factor()
            if op == "*":
                out = out * rhs
            else:
                out = self._divide(out, rhs)
        return out

    def _divide(self, a: Poly, b: Poly) -> Poly:
        if b.is_zero():
            raise ExprError("division by zero")
        try:
            return a / b
        except ValueError as exc:
            raise ExprError(str(exc)) from None

    def factor(self) -> Poly:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        out = self.atom()
        while self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            e = int(self.take("int"))
            if neg:
                raise ExprError("negative exponents are not supported")
            out = out ** e
        return out

    def atom(self) -> Poly:
        kind = self.peek()
        if kind == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        if kind == "int":
            return Poly.const(self.roster, int(self.take()))
        if kind == "name":
            name = self.take()
            if name == "i":
                return Poly.const(self.roster, Scalar(0, 1))
            if name in self.roster or is_param_name(name):
                return Poly.var(self.roster, name)
            raise ExprError(f"unknown variable {name!r}")
        raise ExprError(f"expected a value, found {self.tokens[self.pos][1] or 'end of input'!r}")


def parse_poly(text: str, roster) -> Poly:
    """Parse an expression in the scenario grammar into a Poly over `roster`."""
    return _Parser(_tokenize(text), roster).parse()
