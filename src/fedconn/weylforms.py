"""Truncated Weyl-algebra-valued differential forms on R^(2n).

A WeylForm is a finite sum of terms

    h^k * c(x) * y^alpha * dx^J

with c a Poly in the base variables, alpha a fiber multi-index, and J a
strictly increasing tuple of form indices.  The total degree of a term is
|alpha| + 2k (form indices do not count); every stored term satisfies
total degree <= the form's truncation bound, and binary operations truncate
to the minimum of the operands' bounds.

The fiberwise product is the Moyal-Weyl series

    a o b = sum_k (i*h/2)^k / k! * pi^{i1 j1} ... pi^{ik jk}
            * d^k a / dy^{i1}..dy^{ik} * d^k b / dy^{j1}..dy^{jk}

contracted with the Poisson matrix pi carried by the WeylContext; dx parts
multiply by wedge with the usual antisymmetry sign and no extra Koszul sign
against the fiber part.

The k-th term of the series leaves y^(a1 + a2 - b1 - b2) with |b1| = |b2| = k
and k <= min(|a1|, |a2|), so it is y-free, that is central, only when
|a1| = |a2| = k: a pair reaches the centre only at its full contraction
order.  ``projected_mw`` and ``projected_ad_over_h`` compute p(a o b) and
p(ad_over_h(a, b)) from those pairs alone, with the full-contraction weight
of each (a1, a2) cached on the WeylContext.

Total degree is additive: every contraction order of a pair of terms of
degrees d1 and d2 lands at degree d1 + d2 (d1 + d2 - 2 in ad_over_h).  So a
caller that reads a product only up to some degree passes it as
``max_degree``, and the pairs above it are skipped, not computed and dropped.

The pairing multiplies only what lands.  A pair is skipped before its
coefficients are multiplied when its form indices meet (tested on bitmasks),
when either term is y-free in a commutator (order 0, the only one such a
term has, cancels there), and when no contraction order of its exponents
survives (``WeylContext.contractions``, cached per exponent pair).  The
coefficient product c1 * c2 of a surviving pair is not made as a Poly: each
(order, leftover exponent) accumulates its weight times c1 * c2 into a
``PolySums`` as the terms are multiplied, which reduces each output
coefficient once, not once per contribution.  So a pair with several
surviving (order, exponent) multiplies its coefficients once per weight;
nearly every surviving pair has a single one.

A caller that sums brackets with other terms passes its own PolySums as
``ad_over_h``'s ``sink``, with a weight, and ``d_x`` and ``add_to`` add into
a sink the same way: the degree recursion, D_r and the Weyl curvature form
of ``fedosov`` reduce each coefficient of their sum once, in the sink's
``polys()``, and not once per ``WeylForm.__add__``.  ``delta`` and
``delta_inv`` sum their weighted terms in one PolySums too.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, I
from .polynomials import Poly, PolySums, FormalFunction, x_roster, add_term


class HDivisionError(AssertionError):
    """ad_over_h met a pair of terms whose bracket has an h^0 part, so the
    division by h left a remainder.  The message names the pair."""


def invert_scalar_matrix(m):
    """Exact inverse of a square Scalar matrix (Gauss-Jordan)."""
    n = len(m)
    a = [[Scalar.of(m[r][c]) for c in range(n)] for r in range(n)]
    inv = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        inv[col] = [v / d for v in inv[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


class WeylContext:
    """Dimension, symplectic matrix omega, and its inverse pi with omega*pi = Id."""

    def __init__(self, omega):
        self.dim = len(omega)
        if self.dim % 2 or self.dim == 0:
            raise ValueError("dimension must be a positive even number")
        self.omega = tuple(tuple(Scalar.of(v) for v in row) for row in omega)
        for i in range(self.dim):
            for j in range(self.dim):
                if self.omega[i][j] != -self.omega[j][i]:
                    raise ValueError("omega must be antisymmetric")
        self.pi = tuple(tuple(v for v in row) for row in invert_scalar_matrix(self.omega))
        self.roster = x_roster(self.dim)
        self._pi_entries = [
            (i, j, self.pi[i][j])
            for i in range(self.dim)
            for j in range(self.dim)
            if not self.pi[i][j].is_zero()
        ]
        self._moyal_factor = [ONE]  # (i/2)^k / k!
        self._full_weights = {}
        self._contractions = {}

    def moyal_factor(self, k: int) -> Scalar:
        while len(self._moyal_factor) <= k:
            n = len(self._moyal_factor)
            self._moyal_factor.append(self._moyal_factor[-1] * I * Scalar(Fraction(1, 2 * n)))
        return self._moyal_factor[k]

    def full_contraction_weight(self, a1, a2) -> Scalar:
        """The weight of y^a1 fully contracted against y^a2, for |a1| = |a2|.

        This is the y-free part of the |a1|-th contraction that ``_mw_pair``
        builds, before the Moyal factor.  It does not depend on the
        coefficients, so it is cached per (a1, a2).
        """
        w = self._full_weights.get((a1, a2))
        if w is None:
            state = {(a1, a2): ONE}
            for _ in range(sum(a1)):
                state = _contract(self, state)
            w = next(iter(state.values()), ZERO)
            self._full_weights[(a1, a2)] = w
        return w

    def contractions(self, a1, a2, commutator: bool, over_h: bool):
        """The contraction orders of y^a1 against y^a2 that ``_mw_pair`` keeps:
        (k, ((b, w), ..)) for each order k whose contraction is not empty, the
        leftover exponent b = b1 + b2 with its summed weight w, the Moyal
        factor (doubled in a commutator, times i for ad_over_h) included.
        They do not depend on the coefficients, so they are cached.
        """
        key = (a1, a2, commutator, over_h)
        out = self._contractions.get(key)
        if out is None:
            out = []
            kmax = min(sum(a1), sum(a2))
            state = {(a1, a2): ONE}
            for k in range(kmax + 1):
                if k % 2 == 1 or not commutator:
                    factor = self.moyal_factor(k)
                    if commutator:
                        factor = factor * 2  # odd orders double in the commutator
                    if over_h:
                        factor = factor * I
                    weights = {}
                    for (b1, b2), w in state.items():
                        add_term(weights, tuple(e1 + e2 for e1, e2 in zip(b1, b2)), w * factor)
                    if weights:
                        out.append((k, tuple(weights.items())))
                if k == kmax:
                    break
                state = _contract(self, state)
                if not state:
                    break
            self._contractions[key] = out = tuple(out)
        return out

    def __eq__(self, other):
        return isinstance(other, WeylContext) and self.omega == other.omega

    def __hash__(self):
        return hash(self.omega)


def _wedge_sign(J1, J2) -> int:
    inv = 0
    for a in J1:
        for b in J2:
            if b < a:
                inv += 1
    return -1 if inv % 2 else 1


def _merge_J(J1, J2):
    return tuple(sorted(J1 + J2))


def _mask(J) -> int:
    """The form indices J as a bitmask, so that two terms share an index
    exactly when their masks do."""
    m = 0
    for j in J:
        m |= 1 << j
    return m


def _contract(ctx: WeylContext, state: dict) -> dict:
    """One more pi-contraction of each pair in ``state``.

    ``state`` maps the leftover fiber exponents (b1, b2) of the two factors to
    the weight their contractions have built up so far; each pi^{ij} entry
    removes one y^i from b1 and one y^j from b2, weighted by pi^{ij} and the
    two exponents it lowers.
    """
    nxt = {}
    for (b1, b2), w in state.items():
        for (pi_i, pi_j, pv) in ctx._pi_entries:
            e1 = b1[pi_i]
            if not e1:
                continue
            e2 = b2[pi_j]
            if not e2:
                continue
            nb1 = b1[:pi_i] + (e1 - 1,) + b1[pi_i + 1:]
            nb2 = b2[:pi_j] + (e2 - 1,) + b2[pi_j + 1:]
            add_term(nxt, (nb1, nb2), (w * pv).mul_int(e1 * e2))
    return nxt


class WeylForm:
    """Element of the truncated Weyl bundle; immutable value semantics."""

    __slots__ = ("ctx", "trunc", "terms")

    def __init__(self, ctx: WeylContext, trunc: int, terms=None):
        self.ctx = ctx
        self.trunc = trunc
        self.terms = {}
        if terms:
            for key, c in terms.items():
                k, alpha, J = key
                if 2 * k + sum(alpha) > trunc:
                    continue
                if not c.is_zero():
                    self.terms[key] = c

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(ctx, trunc) -> "WeylForm":
        return WeylForm(ctx, trunc)

    @staticmethod
    def from_poly(ctx, trunc, p: Poly, h_power=0, J=()) -> "WeylForm":
        key = (h_power, (0,) * ctx.dim, tuple(J))
        return WeylForm(ctx, trunc, {key: p.with_roster(ctx.roster)})

    @staticmethod
    def unit(ctx, trunc) -> "WeylForm":
        return WeylForm.from_poly(ctx, trunc, Poly.const(ctx.roster, 1))

    @staticmethod
    def y_monomial(ctx, trunc, alpha, coeff=1, h_power=0, J=()) -> "WeylForm":
        c = Poly.const(ctx.roster, coeff) if not isinstance(coeff, Poly) else coeff
        return WeylForm(ctx, trunc, {(h_power, tuple(alpha), tuple(J)): c.with_roster(ctx.roster)})

    @staticmethod
    def two_form(ctx, trunc, coeff_table) -> "WeylForm":
        """Scalar 2-form from entries {(h, i, j): Poly} with i < j (0-based)."""
        terms = {}
        zero_alpha = (0,) * ctx.dim
        for (h, i, j), c in coeff_table.items():
            if i >= j:
                raise ValueError("two_form expects strictly increasing index pairs i < j")
            add_term(terms, (h, zero_alpha, (i, j)), c.with_roster(ctx.roster))
        return WeylForm(ctx, trunc, terms)

    @staticmethod
    def omega_form(ctx, trunc) -> "WeylForm":
        """The constant symplectic form as a scalar 2-form sum_{i<j} omega_ij dx^i dx^j."""
        table = {}
        for i in range(ctx.dim):
            for j in range(i + 1, ctx.dim):
                if not ctx.omega[i][j].is_zero():
                    table[(0, i, j)] = Poly.const(ctx.roster, ctx.omega[i][j])
        return WeylForm.two_form(ctx, trunc, table)

    def _check(self, other: "WeylForm"):
        if self.ctx != other.ctx:
            raise ValueError("dimension/context mismatch between Weyl forms")

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, trunc: int) -> "WeylForm":
        return WeylForm(self.ctx, min(self.trunc, trunc), self.terms)

    def homogeneous(self, degree: int) -> "WeylForm":
        return WeylForm(
            self.ctx, self.trunc,
            {key: c for key, c in self.terms.items() if 2 * key[0] + sum(key[1]) == degree},
        )

    def up_to_degree(self, degree: int) -> "WeylForm":
        """The terms of total degree <= ``degree``, at the same truncation."""
        return WeylForm(
            self.ctx, self.trunc,
            {key: c for key, c in self.terms.items() if 2 * key[0] + sum(key[1]) <= degree},
        )

    def by_degree(self) -> dict:
        """The nonzero homogeneous parts, keyed by total degree in rising order."""
        parts = {}
        for key, c in self.terms.items():
            parts.setdefault(2 * key[0] + sum(key[1]), {})[key] = c
        return {d: WeylForm(self.ctx, self.trunc, t) for d, t in sorted(parts.items())}

    def lowest_degree(self):
        """The least total degree of a term; None for the zero form."""
        return min((2 * k + sum(a) for (k, a, _) in self.terms), default=None)

    def form_degrees(self):
        return sorted({len(key[2]) for key in self.terms})

    def y_degree_zero(self) -> bool:
        return all(not any(a) for (_, a, _) in self.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylForm):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    # -- linear operations -------------------------------------------------------

    def __add__(self, other: "WeylForm") -> "WeylForm":
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return WeylForm(self.ctx, trunc, out)

    def add_to(self, sink, weight=1):
        """Add each term times ``weight``, an int or a Scalar, into the
        PolySums ``sink``."""
        for key, c in self.terms.items():
            sink.add(key, c, weight)

    def __neg__(self):
        return WeylForm(self.ctx, self.trunc, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "WeylForm":
        c = value if isinstance(value, Poly) else Scalar.of(value)
        if c.is_zero():
            return WeylForm(self.ctx, self.trunc)
        return WeylForm(self.ctx, self.trunc, {k: p.scale(c) for k, p in self.terms.items()})

    def shift_h(self, j: int) -> "WeylForm":
        out = {}
        for (k, a, J), c in self.terms.items():
            if k + j < 0:
                raise ValueError("h-division leaves a remainder")
            out[(k + j, a, J)] = c
        return WeylForm(self.ctx, self.trunc + 2 * j, out)

    # -- Moyal-Weyl product --------------------------------------------------------

    def mw(self, other: "WeylForm", max_degree=None) -> "WeylForm":
        """Fiberwise Moyal-Weyl product, wedging the form parts."""
        return self._pairing(other, False, False, max_degree)

    def graded_comm(self, other: "WeylForm", max_degree=None) -> "WeylForm":
        """a o b - (-1)^{|a||b|} b o a on form degrees, computed termwise."""
        return self._pairing(other, True, False, max_degree)

    def ad_over_h(self, other: "WeylForm", max_degree=None, sink=None, weight=1):
        """(i/h) * graded_comm(self, other); exact because only odd contraction
        orders survive in the commutator.  With a ``sink``, the bracket times
        ``weight`` is added into that PolySums and nothing is returned."""
        return self._pairing(other, True, True, max_degree, sink, weight)

    def projected_mw(self, other: "WeylForm", order: int) -> FormalFunction:
        """p(self o other) mod h^{order+1}, without forming the product."""
        return self._projected_pairing(other, order, False)

    def projected_ad_over_h(self, other: "WeylForm", order: int) -> FormalFunction:
        """p(ad_over_h(self, other)) mod h^{order+1}, without forming the bracket."""
        return self._projected_pairing(other, order, True)

    def _projected_pairing(self, other, order, over_h):
        """The central part of the pairing loop, for dx-free forms.

        Only pairs with |a1| = |a2| = m reach the centre, at contraction order
        m, with h-power k1 + k2 + m (less 1 for ad_over_h, where only odd m
        survive, doubled).  Keeps what ``project_function(order)`` keeps of
        the full product: h-power <= order and 2 * h-power <= trunc.
        """
        self._check(other)
        if any(key[2] for key in self.terms) or any(key[2] for key in other.terms):
            raise ValueError("projection requires a form of dx-degree zero")
        ctx = self.ctx
        top = min(order, min(self.trunc, other.trunc) // 2)
        by_degree = {}
        for (k2, a2, _), c2 in other.terms.items():
            by_degree.setdefault(sum(a2), []).append((k2, a2, c2))
        coeffs = PolySums()
        for (k1, a1, _), c1 in self.terms.items():
            m = sum(a1)
            if over_h and m % 2 == 0:
                continue
            factor = ctx.moyal_factor(m)
            if over_h:
                factor = factor * 2 * I
            base = k1 + m - 1 if over_h else k1 + m
            for k2, a2, c2 in by_degree.get(m, ()):
                h_power = base + k2
                if h_power > top:
                    continue
                w = ctx.full_contraction_weight(a1, a2)
                if w.is_zero():
                    continue
                coeffs.add_product(h_power, c1, c2, w * factor)
        return FormalFunction(ctx.roster, order, coeffs.polys())

    def _pairing(self, other, commutator, over_h, max_degree=None, sink=None, weight=1):
        """The pairing loop shared by mw, graded_comm and ad_over_h.

        Terms of total degrees d1 and d2 contribute at total degree d1 + d2
        (d1 + d2 - 2 for ad_over_h) at every contraction order: the k-th
        contraction removes 2k from the y-degree and adds k to the h-power.
        So with ``max_degree`` the pairs that land above it are never
        visited (``other`` is bucketed by degree), and the result is exactly
        the part of degree <= ``max_degree`` of the full pairing.  None
        computes everything up to the truncation.

        A pair reaches ``_mw_pair`` only if it can contribute: its form
        indices are disjoint (tested on bitmasks), and in a commutator
        neither term is y-free, since a y-free term has only the contraction
        order 0, which the commutator cancels.

        Without a ``sink`` the result is a form, each coefficient reduced
        once in its own PolySums.  With one, the pairing times ``weight`` is
        added into it, for a caller that sums several terms and reduces them
        once; the weight scales each coefficient of self that pairs.
        """
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        cap = trunc if max_degree is None else min(trunc, max_degree)
        room = cap + 2 if over_h else cap
        by_degree = {}
        for key2, c2 in other.terms.items():
            if commutator and not any(key2[1]):
                continue
            by_degree.setdefault(2 * key2[0] + sum(key2[1]), []).append(
                (key2, _mask(key2[2]), c2))
        out = PolySums() if sink is None else sink
        for key1, c1 in self.terms.items():
            if commutator and not any(key1[1]):
                continue
            left = room - 2 * key1[0] - sum(key1[1])
            if weight != 1:
                c1 = c1.scale(weight)
            mask1 = _mask(key1[2])
            for d2, bucket in by_degree.items():
                if d2 > left:
                    continue
                for key2, mask2, c2 in bucket:
                    if not mask1 & mask2:
                        self._mw_pair(key1, c1, key2, c2, out, commutator, over_h)
        if sink is None:
            return WeylForm(self.ctx, trunc, out.polys())

    def _mw_pair(self, key1, c1, key2, c2, out, commutator, over_h):
        """Add the pairing of two terms with disjoint form indices to the
        PolySums ``out``: only when some contraction order survives, each
        (order, leftover exponent) accumulates c1 * c2 times its cached
        weight."""
        k1, a1, J1 = key1
        k2, a2, J2 = key2
        orders = self.ctx.contractions(a1, a2, commutator, over_h)
        if not orders:
            return
        if J1 and J2:
            sign, J = _wedge_sign(J1, J2), _merge_J(J1, J2)
        else:
            sign, J = 1, J1 or J2
        for k, weights in orders:
            h_power = k1 + k2 + k + (-1 if over_h else 0)
            if h_power < 0:
                raise HDivisionError(
                    f"the bracket of h^{k1} y^{a1} and h^{k2} y^{a2} has an h^0 part "
                    f"at contraction order {k}")
            for b, w in weights:
                out.add_product((h_power, b, J), c1, c2, w if sign > 0 else -w)

    # -- delta calculus ---------------------------------------------------------

    def delta(self) -> "WeylForm":
        """delta(a) = sum_i dx^i wedge da/dy^i, summed in one PolySums."""
        out = PolySums()
        for (k, a, J), c in self.terms.items():
            for i, e in enumerate(a):
                if not e or i in J:
                    continue
                na = a[:i] + (e - 1,) + a[i + 1:]
                before = sum(1 for j in J if j < i)
                out.add((k, na, tuple(sorted(J + (i,)))), c, -e if before % 2 else e)
        return WeylForm(self.ctx, self.trunc, out.polys())

    def delta_star(self) -> "WeylForm":
        """delta*(a) = sum_i y^i iota_{d/dx^i}(a).

        Raises the total degree by one, and its degree-(d+1) output depends
        only on the degree-d input, so the result is complete one degree
        beyond the input truncation; nothing may be dropped.
        """
        out = {}
        for (k, a, J), c in self.terms.items():
            for pos, i in enumerate(J):
                na = a[:i] + (a[i] + 1,) + a[i + 1:]
                nJ = J[:pos] + J[pos + 1:]
                add_term(out, (k, na, nJ), c if pos % 2 == 0 else -c)
        return WeylForm(self.ctx, self.trunc + 1, out)

    def delta_inv(self) -> "WeylForm":
        """(1/(p+q)) delta* on the (y-degree p, form-degree q) component; 0 on p+q=0.

        Like delta*, complete one degree past the input truncation.  The
        terms are summed in one PolySums.
        """
        out = PolySums()
        for (k, a, J), c in self.terms.items():
            p, q = sum(a), len(J)
            if p + q == 0:
                continue
            w = Scalar._make(1, 0, p + q)
            for pos, i in enumerate(J):
                na = a[:i] + (a[i] + 1,) + a[i + 1:]
                nJ = J[:pos] + J[pos + 1:]
                out.add((k, na, nJ), c, w if pos % 2 == 0 else -w)
        return WeylForm(self.ctx, self.trunc + 1, out.polys())

    def center_part(self) -> "WeylForm":
        return WeylForm(
            self.ctx, self.trunc,
            {key: c for key, c in self.terms.items() if not any(key[1]) and not key[2]},
        )

    def project_function(self, order=None) -> FormalFunction:
        """The map p: form-degree-0 sections to formal functions."""
        if any(key[2] for key in self.terms):
            raise ValueError("projection requires a form of dx-degree zero")
        if order is None:
            order = self.trunc // 2
        coeffs = {}
        for (k, a, J), c in self.terms.items():
            if any(a):
                continue
            add_term(coeffs, k, c)
        return FormalFunction(self.ctx.roster, order, coeffs)

    # -- flat exterior derivative in x -------------------------------------------

    def d_x(self, sink=None, weight=1):
        """sum_i dx^i wedge da/dx^i (the de Rham part of a covariant
        derivative).  With a ``sink``, it times ``weight`` is added into that
        PolySums and nothing is returned."""
        out = PolySums() if sink is None else sink
        for (k, a, J), c in self.terms.items():
            for i in range(self.ctx.dim):
                if i in J:
                    continue
                dc = c.differentiate(self.ctx.roster[i])
                if dc.is_zero():
                    continue
                before = sum(1 for j in J if j < i)
                out.add((k, a, tuple(sorted(J + (i,)))), dc, -weight if before % 2 else weight)
        if sink is None:
            return WeylForm(self.ctx, self.trunc, out.polys())

    # -- parameter dependence ------------------------------------------------------

    def t_derivative(self, name: str) -> "WeylForm":
        out = {}
        for key, c in self.terms.items():
            d = c.differentiate(name)
            if not d.is_zero():
                out[key] = d
        return WeylForm(self.ctx, self.trunc, out)

    def subs_params(self, values: dict) -> "WeylForm":
        out = {}
        for key, c in self.terms.items():
            v = c.subs_params(values)
            if not v.is_zero():
                out[key] = v
        return WeylForm(self.ctx, self.trunc, out)

    # -- printing -------------------------------------------------------------------

    def serialize(self) -> str:
        """Canonical term-per-line form: h^k * <poly> * y^(alpha) * dx{J}."""
        lines = []
        for (k, a, J) in sorted(self.terms):
            c = self.terms[(k, a, J)]
            alpha = ",".join(str(e) for e in a)
            dxs = ",".join(str(j + 1) for j in J)
            lines.append(f"h^{k} * {c.as_factor()} * y^({alpha}) * dx{{{dxs}}}")
        return "\n".join(lines) if lines else "0"

    def __str__(self):
        return self.serialize().replace("\n", "  +  ")

    def __repr__(self):
        return f"WeylForm[N={self.trunc}]({self})"


def omega_tilde(ctx: WeylContext, trunc: int) -> WeylForm:
    """The element sum omega_ij y^j dx^i, for which delta = -ad_over_h(omega_tilde)."""
    terms = {}
    for i in range(ctx.dim):
        for j in range(ctx.dim):
            v = ctx.omega[i][j]
            if v.is_zero():
                continue
            alpha = tuple(1 if m == j else 0 for m in range(ctx.dim))
            add_term(terms, (0, alpha, (i,)), Poly.const(ctx.roster, v))
    return WeylForm(ctx, trunc, terms)


def poincare_potential(form: WeylForm) -> WeylForm:
    """Homotopy operator for the de Rham differential on star-shaped domains.

    For a closed y-free q-form (q >= 1) with polynomial coefficients returns P
    with d_x P = form.  Acts per x-homogeneous piece: a monomial coefficient of
    degree m in a q-form is contracted with the Euler field and weighted
    1/(m+q).
    """
    ctx = form.ctx
    terms = {}
    for (k, a, J), c in form.terms.items():
        if any(a):
            raise ValueError("Poincare potential needs a y-free form")
        q = len(J)
        if q == 0:
            raise ValueError("Poincare potential needs form-degree >= 1")
        for pos, j in enumerate(J):
            sign = 1 if pos % 2 == 0 else -1
            part = c.map_x(lambda e: (e[:j] + (e[j] + 1,) + e[j + 1:], Fraction(sign, sum(e) + q)))
            add_term(terms, (k, a, J[:pos] + J[pos + 1:]), part)
    return WeylForm(ctx, form.trunc, terms)
