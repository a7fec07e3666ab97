"""Exact polynomial arithmetic.

* ``Poly``        -- polynomials in base variables (x1, x2, ... and the jet
                     variables of operator symbols) with coefficients rational
                     in parameter variables (t, t1, t2, ...).  One sparse map
                     takes (x exponents, t monomial) to a Gaussian-integer
                     numerator pair over one positive integer denominator per
                     Poly, so arithmetic runs on plain ints and reduces each
                     result once; rational dependence on t is carried by one
                     monic ``ParamPoly`` denominator per Poly, which is 1
                     unless a coefficient needs it.  ``Scalar`` is the exact
                     type a Poly takes and hands out at its boundary.
* ``ParamPoly``   -- polynomials in the parameters alone over Scalar.
                     Monomials are keyed by sorted (name, exponent) tuples, so
                     the representation is canonical with no roster
                     bookkeeping; a Poly's t monomials use the same keys.
* ``ParamRational`` -- quotients of ParamPolys, reduced by polynomial gcd,
                     denominator normalized monic (and equal to 1 whenever the
                     value is polynomial).  These are the t-only scalars: the
                     entries of Kahler matrices, the values a Poly is built
                     from or scaled by, and the coefficients a Poly reports
                     (``coefficient``, ``constant_coefficient``).

Each of a Poly's two denominators shares no factor with all of its
numerators at once, so equal Polys are equal structurally; the gcd that keeps
it so runs only when that denominator is not 1.

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
from fractions import Fraction
from math import gcd

from .scalars import (
    Scalar, ZERO, ONE, format_scalar, format_gaussian, gaussian_is_atomic, gaussian_is_negative,
    scalar_is_atomic, scalar_sign_split,
)


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


def mono_gcd(a, b):
    da, db = dict(a), dict(b)
    out = {}
    for name, e in da.items():
        if name in db:
            out[name] = min(e, db[name])
    return _mono_of(out)


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


class ParamPoly:
    """Polynomial in parameter variables over Scalar, canonically represented."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(z) -> "ParamPoly":
        z = Scalar.of(z)
        return ParamPoly({} if z.is_zero() else {EMPTY_MONO: z})

    @staticmethod
    def var(name: str) -> "ParamPoly":
        if not is_param_name(name):
            raise ValueError(f"{name!r} is not a parameter variable")
        return ParamPoly({((name, 1),): ONE})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == EMPTY_MONO for m in self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and EMPTY_MONO in self.terms and self.terms[EMPTY_MONO].is_one()

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant ParamPoly")
        return self.terms.get(EMPTY_MONO, ZERO)

    def variables(self):
        out = set()
        for m in self.terms:
            for name, _ in m:
                out.add(name)
        return out

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        d = 0
        for m in self.terms:
            for n, e in m:
                if n == name:
                    d = max(d, e)
        return d

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return ParamPoly(out)

    def __neg__(self):
        return ParamPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_term(out, mono_mul(m1, m2), c1 * c2)
        return ParamPoly(out)

    def scale(self, z: Scalar) -> "ParamPoly":
        z = Scalar.of(z)
        if z.is_zero():
            return ParamPoly()
        return ParamPoly({m: c * z for m, c in self.terms.items()})

    def __pow__(self, k: int):
        out = ParamPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, c.a, c.b, c.q) for m, c in self.terms.items()))

    # -- leading data (graded lex) ------------------------------------------

    def leading_monomial(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_mono_sort_key)

    def leading_coefficient(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    # -- calculus ------------------------------------------------------------

    def derivative(self, name: str) -> "ParamPoly":
        return ParamPoly({low: c.mul_int(e) for m, c in self.terms.items()
                          for low, e in _mono_derivative(m, name)})

    def subs(self, values: dict) -> "ParamPoly":
        """Substitute Scalars for a subset of the variables."""
        out = ParamPoly()
        for m, c in self.terms.items():
            z = c
            rest = []
            for name, e in m:
                if name in values:
                    z = z * (Scalar.of(values[name]) ** e)
                else:
                    rest.append((name, e))
            out = out + ParamPoly({tuple(rest): z} if not z.is_zero() else {})
        return out

    # -- printing ------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]), reverse=True)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
            if not mono:
                parts.append(format_scalar(c))
                continue
            sign, c = scalar_sign_split(c)
            pre = "-" if sign < 0 else ""
            if c.is_one():
                parts.append(pre + mono)
            else:
                cs = format_scalar(c)
                if not scalar_is_atomic(c):
                    cs = f"({cs})"
                parts.append(f"{pre}{cs}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"ParamPoly({self})"


PP_ZERO = ParamPoly()
PP_ONE = ParamPoly.const(1)


# ---------------------------------------------------------------------------
# polynomial gcd (primitive Euclidean algorithm)
# ---------------------------------------------------------------------------

def _pp_divexact(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Exact division a / b; raises ValueError when not exact."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if b.is_constant():
        inv = ONE / b.constant_value()
        return a.scale(inv)
    # graded lex along the sorted variables: a monomial order, which the
    # division needs and the printing order of _mono_sort_key is not
    names = sorted(a.variables() | b.variables(), key=natural_key)

    def order(m):
        d = dict(m)
        return mono_degree(m), tuple(d.get(n, 0) for n in names)

    quota = {}
    rem = a
    lb = max(b.terms, key=order)
    cb = b.terms[lb]
    while not rem.is_zero():
        lr = max(rem.terms, key=order)
        if not mono_divides(lb, lr):
            raise ValueError("polynomial division is not exact")
        qm = mono_div(lr, lb)
        qc = rem.terms[lr] / cb
        add_term(quota, qm, qc)
        rem = rem - ParamPoly({qm: qc}) * b
    return ParamPoly(quota)


def _uni_view(p: ParamPoly, name: str):
    """View p as a univariate polynomial in `name` with ParamPoly coefficients."""
    coeffs = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.pop(name, 0)
        coeffs.setdefault(e, {})[_mono_of(d)] = c
    return {e: ParamPoly(t) for e, t in coeffs.items()}


def _uni_assemble(coeffs: dict, name: str) -> ParamPoly:
    out = ParamPoly()
    for e, c in coeffs.items():
        out = out + c * (ParamPoly.var(name) ** e if e else PP_ONE)
    return out


def _uni_mul_coeff(coeffs, c: ParamPoly):
    return {e: v * c for e, v in coeffs.items()}


def _uni_sub(a, b):
    out = dict(a)
    for e, v in b.items():
        add_term(out, e, -v)
    return out


def _uni_content(coeffs) -> ParamPoly:
    g = PP_ZERO
    for v in coeffs.values():
        g = pp_gcd(g, v)
    return g


def pp_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic gcd over Q(i); gcd with 0 returns the other argument made monic."""
    if a.is_zero():
        return _make_monic(b)
    if b.is_zero():
        return _make_monic(a)
    # common monomial factor first
    ga = mono_gcd_of(a)
    gb = mono_gcd_of(b)
    common = mono_gcd(ga, gb)
    a = ParamPoly({mono_div(m, ga): c for m, c in a.terms.items()}) if ga else a
    b = ParamPoly({mono_div(m, gb): c for m, c in b.terms.items()}) if gb else b
    if a.is_constant() or b.is_constant():
        return ParamPoly({common: ONE})
    names = sorted(a.variables() | b.variables(), key=natural_key)
    g = _pp_gcd_rec(a, b, names)
    return _make_monic(g * ParamPoly({common: ONE}))


def mono_gcd_of(p: ParamPoly):
    it = iter(p.terms)
    g = next(it)
    for m in it:
        g = mono_gcd(g, m)
        if not g:
            break
    return g


def _make_monic(p: ParamPoly) -> ParamPoly:
    if p.is_zero():
        return p
    return p.scale(ONE / p.leading_coefficient())


def _pp_gcd_rec(a: ParamPoly, b: ParamPoly, names) -> ParamPoly:
    if a.is_constant() or b.is_constant():
        return PP_ONE
    v = names[-1]
    da, db = a.degree_in(v), b.degree_in(v)
    if da == 0 or db == 0:
        # v missing from one argument: gcd divides the v-free content
        ua, ub = _uni_view(a, v), _uni_view(b, v)
        return _pp_gcd_rec_content(_uni_content(ua), _uni_content(ub))
    A, B = (_uni_view(a, v), _uni_view(b, v)) if da >= db else (_uni_view(b, v), _uni_view(a, v))
    cont_a, cont_b = _uni_content(A), _uni_content(B)
    gc = _pp_gcd_rec_content(cont_a, cont_b)
    A = {e: _pp_divexact(c, cont_a) for e, c in A.items()}
    B = {e: _pp_divexact(c, cont_b) for e, c in B.items()}
    while B:
        R = _uni_pseudo_rem(A, B, v)
        A = B
        if R:
            cont = _uni_content(R)
            R = {e: _pp_divexact(c, cont) for e, c in R.items()}
        B = R
    prim = _uni_assemble(A, v)
    return _make_monic(gc * prim)


def _pp_gcd_rec_content(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    if a.is_constant() or b.is_constant():
        return PP_ONE
    return pp_gcd(a, b)


def _uni_pseudo_rem(A, B, v):
    dB = max(B)
    lB = B[dB]
    R = dict(A)
    while R and max(R) >= dB:
        dR = max(R)
        lR = R[dR]
        R = _uni_mul_coeff(R, lB)
        shifted = {e + dR - dB: c * lR for e, c in B.items()}
        R = _uni_sub(R, shifted)
    return R


# ---------------------------------------------------------------------------
# ParamRational
# ---------------------------------------------------------------------------

class ParamRational:
    """num / den with ParamPoly parts, gcd-reduced, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly, _normalized=False):
        if _normalized:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if num.is_zero():
            self.num, self.den = PP_ZERO, PP_ONE
            return
        if den.is_constant():
            c = den.constant_value()
            self.num = num if c.is_one() else num.scale(ONE / c)
            self.den = PP_ONE
            return
        g = pp_gcd(num, den)
        if not g.is_one():
            num = _pp_divexact(num, g)
            den = _pp_divexact(den, g)
        if den.is_constant():
            c = den.constant_value()
            self.num = num if c.is_one() else num.scale(ONE / c)
            self.den = PP_ONE
        else:
            lc = den.leading_coefficient()
            if lc.is_one():
                self.num, self.den = num, den
            else:
                inv = ONE / lc
                self.num, self.den = num.scale(inv), den.scale(inv)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def of(value) -> "ParamRational":
        if isinstance(value, ParamRational):
            return value
        if isinstance(value, ParamPoly):
            return ParamRational(value, PP_ONE)
        if isinstance(value, (int, Fraction, Scalar)):
            return ParamRational(ParamPoly.const(value), PP_ONE)
        raise TypeError(f"cannot build ParamRational from {value!r}")

    @staticmethod
    def const(z) -> "ParamRational":
        return ParamRational(ParamPoly.const(z), PP_ONE)

    @staticmethod
    def var(name: str) -> "ParamRational":
        return ParamRational(ParamPoly.var(name), PP_ONE)

    # -- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.den.is_one() and self.num.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.den.is_one() and self.num.is_constant()

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant_value()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        other = ParamRational.of(other)
        if self.den.is_one() and other.den.is_one():
            return ParamRational(self.num + other.num, PP_ONE, _normalized=True)
        return ParamRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return ParamRational(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-ParamRational.of(other))

    def __rsub__(self, other):
        return ParamRational.of(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Scalar, Fraction)):
            # scaling by a unit leaves the normalized denominator untouched
            z = Scalar.of(other)
            if z.is_zero():
                return PR_ZERO
            if z.is_one():
                return self
            return ParamRational(self.num.scale(z), self.den, _normalized=True)
        other = ParamRational.of(other)
        if self.den.is_one() and other.den.is_one():
            return ParamRational(self.num * other.num, PP_ONE, _normalized=True)
        return ParamRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ParamRational.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        return ParamRational(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return ParamRational.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return ParamRational.const(1) / (self ** (-k))
        return ParamRational(self.num ** k, self.den ** k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = ParamRational.const(other)
        if not isinstance(other, ParamRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus ---------------------------------------------------------------

    def derivative(self, name: str) -> "ParamRational":
        if self.den.is_one():
            return ParamRational(self.num.derivative(name), PP_ONE, _normalized=True)
        dn = self.num.derivative(name) * self.den - self.num * self.den.derivative(name)
        return ParamRational(dn, self.den * self.den)

    def subs(self, values: dict) -> "ParamRational":
        den = self.den.subs(values)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at the substituted point")
        return ParamRational(self.num.subs(values), den)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        # a lone complex constant such as 2/3-i prints as a sum, which / would split
        if len(self.num.terms) > 1 or num.startswith("-") or (
                self.num.is_constant() and not scalar_is_atomic(self.num.constant_value())):
            num = f"({num})"
        den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"ParamRational({self})"

    def atomic_in_product(self) -> bool:
        """True when str(self) needs no parentheses inside a '*' chain."""
        if not self.den.is_one():
            return True  # printed as num/den which binds like a factor chain
        if len(self.num.terms) != 1:
            return False
        ((m, c),) = self.num.terms.items()
        return scalar_is_atomic(c)

    def sign_split(self):
        """(-1, -self) when the single-term numerator carries a bare minus sign."""
        if len(self.num.terms) == 1:
            ((m, c),) = self.num.terms.items()
            sign, _ = scalar_sign_split(c)
            if sign < 0:
                return -1, -self
        return 1, self


PR_ZERO = ParamRational.const(0)
PR_ONE = ParamRational.const(1)


# ---------------------------------------------------------------------------
# Poly: Gaussian-integer numerators over one integer and one t denominator
# ---------------------------------------------------------------------------

def merge_rosters(a, b):
    if a == b:
        return a
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


def _t_coefficients(terms: dict, q: int) -> dict:
    """x exponents -> the ParamPoly numerator of that x-monomial."""
    out = {}
    for (m, t), (a, b) in terms.items():
        out.setdefault(m, {})[t] = Scalar._make(a, b, q)
    return {m: ParamPoly(ts) for m, ts in out.items()}


def _times_t(terms: dict, q: int, pp: ParamPoly):
    """(terms, q) multiplied by a polynomial in t, unreduced."""
    if pp is PP_ONE:
        return terms, q
    pterms, pq = _numerators(pp.terms)
    out = {}
    for (m, t1), (a1, b1) in terms.items():
        for t2, (a2, b2) in pterms.items():
            _acc(out, (m, mono_mul(t1, t2)), a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
    return out, q * pq


def _den_mul(d1: ParamPoly, d2: ParamPoly) -> ParamPoly:
    """d1 * d2, kept as the PP_ONE object when both are PP_ONE."""
    return d2 if d1 is PP_ONE else d1 if d2 is PP_ONE else d1 * d2


def _reduce(terms: dict, q: int, den: ParamPoly):
    """(terms, q, den) over the least monic common denominator; den is PP_ONE
    when that is 1.  The only place a Poly calls pp_gcd."""
    if not terms:
        return terms, 1, PP_ONE
    if not den.is_constant():
        nums = _t_coefficients(terms, q)
        g = den
        for num in nums.values():
            g = pp_gcd(g, num)
            if g.is_constant():
                break
        if not g.is_constant():
            den = _pp_divexact(den, g)
            terms, q = _numerators({(m, t): c for m, num in nums.items()
                                    for t, c in _pp_divexact(num, g).terms.items()})
    if den.is_constant():
        inv, den = ONE / den.constant_value(), PP_ONE
    else:
        inv = ONE / den.leading_coefficient()
        den = den.scale(inv)
    if not inv.is_one():
        terms, q = _times_gaussian(terms, inv.a, inv.b), q * inv.q
    return (*_content(terms, q), den)


def as_coefficient(value):
    """A scaling value in the form ``Poly.scale`` is fastest on: a Scalar for
    numbers and for t-free ParamPolys and ParamRationals, else a ParamRational."""
    if isinstance(value, (int, Fraction, Scalar)):
        return Scalar.of(value)
    c = ParamRational.of(value)
    return c.constant_value() if c.is_constant() else c


def _monomial_terms(exps: tuple, value):
    """(terms, q, den) of value * x^exps, for a number, ParamPoly or ParamRational."""
    c = as_coefficient(value)
    if type(c) is Scalar:
        return ({} if c.is_zero() else {(exps, EMPTY_MONO): (c.a, c.b)}), c.q, PP_ONE
    return (*_numerators({(exps, t): z for t, z in c.num.terms.items()}), c.den)


class Poly:
    """Polynomial in an ordered roster of base variables, rational in the parameters.

    The value is the sum of (a + b*i) x^m t^u / (q * den) over ``terms``,
    which maps (x exponents m along ``roster``, t monomial u) to a nonzero
    Gaussian-integer numerator pair (a, b); u is ParamPoly's canonical key,
    () when t-free.  ``q`` is a positive integer sharing no factor with all
    the numerators at once, so it is 1 exactly when every coefficient is a
    Gaussian integer.  ``den`` is the monic ParamPoly that divides every
    coefficient: PP_ONE unless some coefficient is rational in t, and sharing
    no factor with all the numerators at once.  Equal Polys are therefore
    equal structurally.

    Arithmetic runs on plain ints, and each result is reduced once: one gcd
    pass over its numerators that stops at 1, skipped when its q is 1.
    Scalars are made only at the boundary (the constructor, ``scalar_terms``,
    ``coefficients``, ``constant_coefficient``, the printing of a Poly with
    t) and where ``pp_gcd`` reduces a t denominator.
    """

    __slots__ = ("roster", "terms", "q", "den")

    def __init__(self, roster, terms=None, den=PP_ONE):
        """``terms`` maps keys to nonzero Scalars, the numerators over ``den``;
        any ``den`` but PP_ONE is reduced."""
        self.roster = tuple(roster)
        self.terms, self.q = _numerators(terms) if terms else ({}, 1)
        self.den = PP_ONE
        if den is not PP_ONE:
            self.terms, self.q, self.den = _reduce(self.terms, self.q, den)

    @staticmethod
    def _new(roster: tuple, terms: dict, q: int, den: ParamPoly) -> "Poly":
        """The Poly of parts already reduced, without re-validating them."""
        p = object.__new__(Poly)
        p.roster, p.terms, p.q, p.den = roster, terms, q, den
        return p

    @staticmethod
    def _make(roster: tuple, terms: dict, q: int, den: ParamPoly) -> "Poly":
        """The Poly of integer numerators over q and den, reduced once."""
        if den is not PP_ONE:
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
        roster = tuple(roster)
        return Poly._make(roster, *_monomial_terms((0,) * len(roster), value))

    @staticmethod
    def var(roster, name: str) -> "Poly":
        roster = tuple(roster)
        if name not in roster:
            raise ValueError(f"variable {name!r} not in roster {roster}")
        return Poly.monomial(roster, tuple(int(v == name) for v in roster))

    @staticmethod
    def monomial(roster, exps, coeff=1) -> "Poly":
        return Poly._make(tuple(roster), *_monomial_terms(tuple(exps), coeff))

    # -- predicates and coefficients ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m, _ in self.terms)

    def scalar_terms(self) -> dict:
        """(x exponents, t monomial) -> the Scalar numerator of that term over ``den``."""
        q = self.q
        return {key: Scalar._make(a, b, q) for key, (a, b) in self.terms.items()}

    def coefficients(self) -> dict:
        """x exponents -> the coefficient of that x-monomial, a reduced ParamRational."""
        if self.den is PP_ONE:
            return {m: ParamRational(num, PP_ONE, _normalized=True)
                    for m, num in _t_coefficients(self.terms, self.q).items()}
        return {m: ParamRational(num, self.den)
                for m, num in _t_coefficients(self.terms, self.q).items()}

    def constant_coefficient(self) -> ParamRational:
        return self.coefficients().get((0,) * len(self.roster), PR_ZERO)

    def param_variables(self):
        out = self.den.variables()
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
        if a.den is PP_ONE and b.den is PP_ONE:
            return Poly._make(a.roster, *_sum(a.terms, a.q, b.terms, b.q, sign), PP_ONE)
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
            return Poly._new(a.roster, {}, 1, PP_ONE)
        out = {}
        for (m1, t1), (a1, b1) in a.terms.items():
            for (m2, t2), (a2, b2) in b.terms.items():
                t = mono_mul(t1, t2) if t1 and t2 else t1 or t2
                key = (tuple(map(operator.add, m1, m2)), t)
                _acc(out, key, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
        return Poly._make(a.roster, out, a.q * b.q, _den_mul(a.den, b.den))

    __rmul__ = __mul__

    def scale(self, value) -> "Poly":
        """self * value for a number, ParamPoly or ParamRational."""
        if type(value) is int:
            c, d, r = value, 0, 1
        else:
            if type(value) is not Scalar:
                value = as_coefficient(value)
                if type(value) is not Scalar:
                    return Poly._make(self.roster, *_times_t(self.terms, self.q, value.num),
                                      _den_mul(self.den, value.den))
            c, d, r = value.a, value.b, value.q
        if c and d:
            return Poly._make(self.roster, _times_gaussian(self.terms, c, d), self.q * r, self.den)
        if not c and not d:
            return Poly._new(self.roster, {}, 1, PP_ONE)
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
            c = ParamRational.of(other)
            if c.is_zero():
                raise ZeroDivisionError("division by the zero polynomial")
            return self.scale(PR_ONE / c)
        a, b = self._aligned(other)
        if b.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if b.is_constant():
            return a.scale(PR_ONE / b.constant_coefficient())
        return _poly_divexact(a, b)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if other == 0:
                return self.is_zero()
            other = Poly.const(self.roster, other)
        a, b = self._aligned(other)
        return a.terms == b.terms and a.q == b.q and a.den == b.den

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
        if self.den is PP_ONE:
            return Poly._make(self.roster, out, self.q, PP_ONE)
        # (N / D)' = (N' D - N D') / D^2
        dn = _times_t(out, self.q, self.den)
        ndd = _times_t(self.terms, self.q, self.den.derivative(name))
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
            if name in self.den.variables():
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
        if den is not PP_ONE:
            den = den.subs(values)
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
        if self.den is PP_ONE and not any(t for _, t in self.terms):
            return self._str_t_free()
        parts = []
        for m, c in sorted(self.coefficients().items(), key=lambda kv: (sum(kv[0]), kv[0]),
                           reverse=True):
            mono = self._x_monomial(m)
            if not mono:
                parts.append(str(c))
                continue
            sign, c = c.sign_split()
            pre = "-" if sign < 0 else ""
            if c.is_one():
                parts.append(pre + mono)
            else:
                cs = str(c)
                if not c.atomic_in_product():
                    cs = f"({cs})"
                parts.append(f"{pre}{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def _str_t_free(self) -> str:
        """str(self) formatted straight from the numerators, for a Poly with no t."""
        q = self.q
        parts = []
        for (m, _), (a, b) in sorted(self.terms.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0]),
                                     reverse=True):
            mono = self._x_monomial(m)
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
        out = {}
        for k1, p1 in self.coeffs.items():
            for k2, p2 in other.coeffs.items():
                k = k1 + k2
                if k > order:
                    continue
                add_term(out, k, p1 * p2)
        return FormalFunction(merge_rosters(self.roster, other.roster), order, out)

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
        if b.is_constant():
            return a / b
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
            if name in self.roster:
                return Poly.var(self.roster, name)
            if is_param_name(name):
                return Poly.const(self.roster, ParamPoly.var(name))
            raise ExprError(f"unknown variable {name!r}")
        raise ExprError(f"expected a value, found {self.tokens[self.pos][1] or 'end of input'!r}")


def parse_poly(text: str, roster) -> Poly:
    """Parse an expression in the scenario grammar into a Poly over `roster`."""
    return _Parser(_tokenize(text), roster).parse()
