"""Exact polynomial arithmetic.

Three layers, from the inside out:

* ``ParamPoly``   -- polynomials in parameter variables (t, t1, t2, ...) over
                     Gaussian rationals.  Monomials are keyed by sorted
                     (name, exponent) tuples, so the representation is
                     canonical with no roster bookkeeping.
* ``ParamRational`` -- quotients of ParamPolys, reduced by polynomial gcd,
                     denominator normalized monic (and equal to 1 whenever the
                     value is polynomial).
* ``Poly``        -- polynomials in base variables (x1, x2, ...) over
                     ParamRational coefficients.  Rational dependence is
                     allowed only in the parameters, never in base variables.

``FormalFunction`` is a finite h-expansion sum_k h^k * Poly, truncated at a
declared order.

The module also provides the expression grammar used by scenario files and
reports: variables x1..xn and t1..tm, imaginary unit i, rational literals,
operators + - * / ^, parentheses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, format_scalar, scalar_is_atomic, scalar_sign_split


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


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items(), key=lambda kv: natural_key(kv[0])))


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
    return tuple(sorted(((n, e) for n, e in d.items() if e), key=lambda kv: natural_key(kv[0])))


def mono_gcd(a, b):
    da, db = dict(a), dict(b)
    out = {}
    for name, e in da.items():
        if name in db:
            out[name] = min(e, db[name])
    return tuple(sorted(out.items(), key=lambda kv: natural_key(kv[0])))


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
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(name, 0)
            if not e:
                continue
            if e == 1:
                del d[name]
            else:
                d[name] = e - 1
            add_term(out, tuple(sorted(d.items(), key=lambda kv: natural_key(kv[0]))), c.mul_int(e))
        return ParamPoly(out)

    def antiderivative(self, name: str) -> "ParamPoly":
        """Integral from 0 in the given variable (vanishes at name = 0)."""
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(name, 0) + 1
            d[name] = e
            key = tuple(sorted(d.items(), key=lambda kv: natural_key(kv[0])))
            out[key] = c / e
        return ParamPoly(out)

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
    quota = {}
    rem = a
    lb = b.leading_monomial()
    cb = b.terms[lb]
    while not rem.is_zero():
        lr = rem.leading_monomial()
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
        key = tuple(sorted(d.items(), key=lambda kv: natural_key(kv[0])))
        coeffs.setdefault(e, {})[key] = c
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
            return self.mul_scalar(Scalar.of(other))
        other = ParamRational.of(other)
        if self.den.is_one() and other.den.is_one():
            return ParamRational(self.num * other.num, PP_ONE, _normalized=True)
        return ParamRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def mul_scalar(self, z: Scalar) -> "ParamRational":
        """Fast unit scaling: leaves the normalized denominator untouched."""
        if z.is_zero():
            return PR_ZERO
        if z.is_one():
            return self
        return ParamRational(self.num.scale(z), self.den, _normalized=True)

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

    def antiderivative(self, name: str) -> "ParamRational":
        if name in self.den.variables():
            raise ValueError(f"antiderivative: {name!r} occurs in a denominator")
        return ParamRational(self.num.antiderivative(name), self.den, _normalized=True)

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
        if len(self.num.terms) > 1 or num.startswith("-"):
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
# Poly: base-variable polynomials over ParamRational
# ---------------------------------------------------------------------------

def merge_rosters(a, b):
    if a == b:
        return a
    return tuple(sorted(set(a) | set(b), key=natural_key))


def _remap(terms, old, new):
    if old == new:
        return dict(terms)
    pos = {name: new.index(name) for name in old}
    out = {}
    for exps, c in terms.items():
        key = [0] * len(new)
        for i, e in enumerate(exps):
            key[pos[old[i]]] = e
        out[tuple(key)] = c
    return out


class Poly:
    """Polynomial in an ordered roster of base variables, ParamRational coefficients."""

    __slots__ = ("roster", "terms")

    def __init__(self, roster, terms=None):
        self.roster = tuple(roster)
        self.terms = terms or {}

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def zero(roster) -> "Poly":
        return Poly(roster)

    @staticmethod
    def const(roster, value) -> "Poly":
        c = ParamRational.of(value) if not isinstance(value, ParamRational) else value
        if c.is_zero():
            return Poly(roster)
        return Poly(roster, {(0,) * len(tuple(roster)): c})

    @staticmethod
    def var(roster, name: str) -> "Poly":
        roster = tuple(roster)
        if name not in roster:
            raise ValueError(f"variable {name!r} not in roster {roster}")
        key = tuple(1 if v == name else 0 for v in roster)
        return Poly(roster, {key: PR_ONE})

    @staticmethod
    def monomial(roster, exps, coeff=PR_ONE) -> "Poly":
        c = ParamRational.of(coeff)
        if c.is_zero():
            return Poly(roster)
        return Poly(roster, {tuple(exps): c})

    # -- predicates ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_coefficient(self) -> ParamRational:
        return self.terms.get((0,) * len(self.roster), PR_ZERO)

    def param_variables(self):
        out = set()
        for c in self.terms.values():
            out |= c.variables()
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
        return Poly(roster, _remap(self.terms, self.roster, roster))

    def degree_in(self, name: str) -> int:
        if name not in self.roster:
            return 0
        i = self.roster.index(name)
        return max((e[i] for e in self.terms), default=0)

    def _aligned(self, other: "Poly"):
        if self.roster == other.roster:
            return self, other
        r = merge_rosters(self.roster, other.roster)
        return self.with_roster(r), other.with_roster(r)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.roster, other)
        a, b = self._aligned(other)
        out = dict(a.terms)
        for m, c in b.terms.items():
            add_term(out, m, c)
        return Poly(a.roster, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.roster, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.roster, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self._aligned(other)
        out = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                add_term(out, tuple(e1 + e2 for e1, e2 in zip(m1, m2)), c1 * c2)
        return Poly(a.roster, out)

    __rmul__ = __mul__

    def scale(self, value) -> "Poly":
        if isinstance(value, (int, Fraction, Scalar)):
            z = Scalar.of(value)
            if z.is_zero():
                return Poly(self.roster)
            return Poly(self.roster, {m: v.mul_scalar(z) for m, v in self.terms.items()})
        c = ParamRational.of(value)
        if c.is_zero():
            return Poly(self.roster)
        return Poly(self.roster, {m: v * c for m, v in self.terms.items()})

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
        return a.terms == b.terms

    # -- calculus -------------------------------------------------------------------

    def differentiate(self, name: str) -> "Poly":
        if name in self.roster:
            i = self.roster.index(name)
            out = {}
            for m, c in self.terms.items():
                e = m[i]
                if not e:
                    continue
                add_term(out, m[:i] + (e - 1,) + m[i + 1:], c * e)
            return Poly(self.roster, out)
        if is_param_name(name):
            out = {}
            for m, c in self.terms.items():
                d = c.derivative(name)
                if not d.is_zero():
                    out[m] = d
            return Poly(self.roster, out)
        raise ValueError(f"unknown variable {name!r}")

    def antiderivative(self, name: str) -> "Poly":
        """Integral from 0: result q has dq/dname = self and q|_{name=0} = 0."""
        if name in self.roster:
            i = self.roster.index(name)
            out = {}
            for m, c in self.terms.items():
                e = m[i] + 1
                key = m[:i] + (e,) + m[i + 1:]
                out[key] = c / e
            return Poly(self.roster, out)
        if is_param_name(name):
            out = {}
            for m, c in self.terms.items():
                out[m] = c.antiderivative(name)
            return Poly(self.roster, out)
        raise ValueError(f"unknown variable {name!r}")

    def deriv_multi(self, exps) -> "Poly":
        """Apply the mixed partial d^exps aligned with the roster."""
        p = self
        for name, e in zip(self.roster, exps):
            for _ in range(e):
                p = p.differentiate(name)
                if p.is_zero():
                    return p
        return p

    def subs_params(self, values: dict) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            v = c.subs(values)
            if not v.is_zero():
                out[m] = v
        return Poly(self.roster, out)

    # -- printing -------------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.roster, m)
                if e
            )
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

    def __repr__(self):
        return f"Poly({self})"


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    out = {}
    rem = a
    lb = max(b.terms, key=lambda m: (sum(m), m))
    cb = b.terms[lb]
    while not rem.is_zero():
        lr = max(rem.terms, key=lambda m: (sum(m), m))
        if any(er < eb for er, eb in zip(lr, lb)):
            raise ValueError("polynomial division is not exact")
        qm = tuple(er - eb for er, eb in zip(lr, lb))
        qc = rem.terms[lr] / cb
        add_term(out, qm, qc)
        rem = rem - Poly(a.roster, {qm: qc}) * b
    return Poly(a.roster, out)


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
        parts = []
        for k in sorted(self.coeffs):
            p = self.coeffs[k]
            body = str(p)
            if k == 0:
                parts.append(body)
            else:
                if len(p.terms) > 1:
                    body = f"({body})"
                parts.append(f"h^{k}*{body}")
        return " + ".join(parts)

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
                return Poly.const(self.roster, ParamRational.var(name))
            raise ExprError(f"unknown variable {name!r}")
        raise ExprError(f"expected a value, found {self.tokens[self.pos][1] or 'end of input'!r}")


def parse_poly(text: str, roster) -> Poly:
    """Parse an expression in the scenario grammar into a Poly over `roster`."""
    return _Parser(_tokenize(text), roster).parse()
