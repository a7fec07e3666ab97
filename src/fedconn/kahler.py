"""Linear Kahler families on R^(2n) and the order-1 checks.

A linear family is a t-dependent, x-constant complex structure I_t compatible
with the fixed omega: I_t^2 = -Id, g_t = omega * I_t symmetric, positive at
declared sample parameters.  Everything below is exact matrix calculus over
rational functions of t, each a t-only ``Poly`` (one over the empty roster).

Conventions (calibrated against the Poisson orientation of this package and
pinned by the tests):

* gtilde = g^{-1} = -I * pi,  and the variation bivector is
  G(V) = -V[gtilde] = V[I] * pi, validated both ways.
* The first star coefficient of the Wick-type product is realized as
  c1(f, g) = df M dg with M = -(P gtilde Pbar^T) = (i*pi - gtilde)/2,
  where P = (Id - iI)/2; its antisymmetric part is (i/2){f,g} and its
  t-variation is (1/2) df G(V) dg.
* The order-1 connection term is A1(V)(f) = -(1/4) Delta_{G(V)} f
  + c1(V[F], f) + V[c1](F, f), and the flatness potential is
  P1 = -(1/4) Delta_{gtilde} - c1(F, .), so that V[-P1] = A1(V) holds
  identically.

The order-1 checks are identities between explicit operators (``multidiff``).
c1 and V[c1] are arity-2 operators with terms (e_a, e_b) -> M[a][b]; A1(V)
and P1 are arity-1, h^0 operators with Q^{ab} on e_a + e_b (both orders
folded into one term) and w^b on e_b.  The Leibniz identity is
V[c1] = d_H A1(V) for the pointwise product (the order-1 part of
d_H A(V) = V[star]), decided on the terms of the difference; flatness and
closedness compare t-derivatives of the operators.  The variation lemma is
an identity of the same kind: V[c1] = -(1/4) [m0, Delta_G] for the pointwise
product m0 and Delta_G = G^{ab} d_a d_b, an arity-1 operator.  An operator is
evaluated only to find the witness of a failure, and for the report notes
H(V) and E(V)(f), which apply Delta_G and its companions to F and f.

Each family computes the c1 matrix M and its operator once, and per
direction G(V), its pure-type parts, V[M] and (1/2) G(V) once
(``LinearKahlerFamily.variation``), and the two V[c1] operators on first use
(``variation_operators``).  ``gtilde_variation``'s cross-checks run before a
direction is stored, so a failing direction is never cached.  Cached
matrices and operators are shared and never mutated: every ``mat_*`` helper
returns a new matrix, and matrices compare by Python's list equality.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .scalars import Scalar, I, HALF
from .polynomials import Poly, monomials_up_to, add_term, mat, mat_identity, mat_inverse
from .weylforms import WeylContext
from .multidiff import MultiDiffOp, unit_vectors
from .reports import CheckError


class VariationError(CheckError):
    """A cross-check of one direction's variation data failed: the two routes
    to G(V), its symmetry or type decomposition, or the two routes to V[c1]."""

    check = "variation bivector"


# the factor of the Laplacian Delta_G in A1(V) and P1
DELTA_FACTOR = Fraction(1, 4)
# the factor of the quarter-Laplacian in the variation lemma (``verify_lemma_vc1``)
LEMMA_FACTOR = Fraction(1, 4)

# the data of one direction V: G(V), its pure-type parts, V[M] for the c1 matrix M, (1/2) G(V)
Variation = namedtuple("Variation", "G Gh Ga Mdot half_G")


# -- exact matrices over t-only Polys (``mat``, ``mat_identity`` and
#    ``mat_inverse`` live in ``polynomials``) -----------------------------------

def mat_mul(a, b):
    n, m, p = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = Poly.zero(())
            for k in range(p):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_map(fn, *mats):
    """The matrix of fn applied entrywise to matrices of one shape."""
    return [[fn(*entries) for entries in zip(*rows)] for rows in zip(*mats)]


def mat_transpose(a):
    return [list(row) for row in zip(*a)]


def mat_deriv(a, name):
    return mat_map(lambda x: x.differentiate(name), a)


def _leading_minors_positive(m):
    """Exact positivity of all leading principal minors of a constant real
    matrix.  One Gaussian elimination without row swaps keeps every leading
    minor, so the kxk one is the product of the first k pivots; it stops at
    the first minor that is not positive, before dividing by a zero pivot."""
    n = len(m)
    vals = []
    for r in range(n):
        row = []
        for c in range(n):
            e = m[r][c]
            if e.param_variables():
                raise ValueError("positivity check needs constant entries")
            z = e.as_scalar()
            if not z.is_real():
                return False, f"entry ({r+1},{c+1}) is not real: {z}"
            row.append(z.re)
        vals.append(row)

    d = Fraction(1)
    for k in range(n):
        pivot = vals[k][k]
        d *= pivot
        if d <= 0:
            return False, f"leading {k+1}x{k+1} minor is {d}"
        for r in range(k + 1, n):
            f = vals[r][k] / pivot
            vals[r] = [a - f * b for a, b in zip(vals[r], vals[k])]
    return True, None


class LinearKahlerFamily:
    """x-constant family I_t of compatible complex structures over a WeylContext."""

    def __init__(self, sym: WeylContext, I_matrix, samples=()):
        self.sym = sym
        n = sym.dim
        self.I = mat(I_matrix)
        if len(self.I) != n or any(len(row) != n for row in self.I):
            raise ValueError("complex structure has the wrong shape")
        self.pi_mat = mat(sym.pi)
        self.omega_mat = mat(sym.omega)
        if mat_mul(self.I, self.I) != mat_map(operator.neg, mat_identity(n)):
            raise ValueError("I^2 = -Id fails identically in t")
        self.g = mat_mul(self.omega_mat, self.I)
        if self.g != mat_transpose(self.g):
            raise ValueError("g = omega * I is not symmetric")
        self.samples = [dict(s) for s in samples]
        for s in self.samples:
            at = ", ".join(f"{name}={value}" for name, value in s.items())
            try:
                g = mat_map(lambda x: x.subs_params(s), self.g)
            except ZeroDivisionError:
                raise ValueError(f"metric has a pole at sample {at}") from None
            ok, wit = _leading_minors_positive(g)
            if not ok:
                raise ValueError(f"metric not positive at sample {at}: {wit}")
        self.gtilde = mat_inverse(self.g)
        # P = (Id - iI)/2 and Pbar = (Id + iI)/2
        self.proj = mat_map(lambda e, x: (e - x * I) * HALF, mat_identity(n), self.I)
        self.proj_bar = mat_map(lambda e, x: (e + x * I) * HALF, mat_identity(n), self.I)
        self._c1 = None
        self._c1_op = None
        self._variations = {}
        self._variation_ops = {}

    # -- the variation bivector -------------------------------------------------

    def gtilde_variation(self, direction: str):
        """G(V) = -V[gtilde], cross-checked against V[I] * pi.

        Returns (G, G_holo, G_anti): the bivector and its pure-type parts
        under the projections (Id -+ iI)/2; the mixed part must vanish and the
        parts must sum back.  Computed afresh on every call; ``variation``
        keeps the result.
        """
        def fail(what):
            return VariationError(f"{what} (direction {direction})")

        G = mat_map(operator.neg, mat_deriv(self.gtilde, direction))
        if G != mat_mul(mat_deriv(self.I, direction), self.pi_mat):
            raise fail("the two computations of the variation bivector disagree")
        if G != mat_transpose(G):
            raise fail("variation bivector is not symmetric")
        P, Pb = self.proj, self.proj_bar
        Gh = mat_mul(mat_mul(P, G), mat_transpose(P))
        Ga = mat_mul(mat_mul(Pb, G), mat_transpose(Pb))
        mixed = mat_mul(mat_mul(P, G), mat_transpose(Pb))
        if any(not v.is_zero() for row in mixed for v in row):
            raise fail("variation bivector has a mixed-type part")
        if mat_map(operator.add, Gh, Ga) != G:
            raise fail("type decomposition does not sum back")
        return G, Gh, Ga

    def variation(self, direction: str) -> Variation:
        """The data of one direction, computed on first use and then kept.

        gtilde_variation's cross-checks run before anything is stored, so a
        failing direction raises VariationError on every call."""
        v = self._variations.get(direction)
        if v is None:
            G, Gh, Ga = self.gtilde_variation(direction)
            v = Variation(G, Gh, Ga, mat_deriv(self.c1_matrix(), direction),
                          mat_map(lambda x: x * HALF, G))
            self._variations[direction] = v
        return v

    # -- the first star coefficient ---------------------------------------------------

    def c1_matrix(self):
        """M with c1(f,g) = df M dg, realized by the type projections of gtilde;
        computed once."""
        if self._c1 is None:
            self._c1 = mat_map(operator.neg, mat_mul(mat_mul(self.proj, self.gtilde),
                                                     mat_transpose(self.proj_bar)))
        return self._c1

    # -- the order-1 formal connection --------------------------------------------------

    def variation_operators(self, direction: str):
        """V[c1] as arity-2 operators by its two routes, V[M] and (1/2) G(V):
        computed on first use and then kept, like ``variation``."""
        ops = self._variation_ops.get(direction)
        if ops is None:
            v = self.variation(direction)
            ops = self._variation_ops[direction] = (self._pairing(v.Mdot), self._pairing(v.half_G))
        return ops

    def c1_operator(self) -> MultiDiffOp:
        """c1 as the arity-2 operator with terms (e_a, e_b) -> M[a][b]; built once."""
        if self._c1_op is None:
            self._c1_op = self._pairing(self.c1_matrix())
        return self._c1_op

    def _pairing(self, M) -> MultiDiffOp:
        """(f, g) -> df M dg for an x-constant matrix M."""
        n = self.sym.dim
        return MultiDiffOp.pairing(self.sym.roster, ((a, b, M[a][b])
                                                     for a in range(n) for b in range(n)))

    def _second_order(self, Z) -> MultiDiffOp:
        """Delta_Z = Z^{ab} d_a d_b, both orders of a pair folded into one term."""
        roster, e = self.sym.roster, unit_vectors(self.sym.dim)
        terms = {}
        for a in range(self.sym.dim):
            for b in range(self.sym.dim):
                add_term(terms, (0, (tuple(map(operator.add, e[a], e[b])),)),
                         Poly.const(roster, Z[a][b]))
        return MultiDiffOp(roster, 1, 0, terms)

    def a1_data(self, direction: str, F: Poly) -> MultiDiffOp:
        """A1(V) as an arity-1, h^0 operator:

            A1(V)(f) = -(1/4) Delta_{G(V)}(f) + c1(V[F], f) + V[c1](F, f),

        that is Delta_Q + w^b d_b with Q = -(1/4) G(V) and w collecting
        the two first-order terms; the 1/4 is ``DELTA_FACTOR``."""
        F = F.with_roster(self.sym.roster)
        v = self.variation(direction)
        vc1, _ = self.variation_operators(direction)
        return (self._second_order(v.G).scale(-Scalar(DELTA_FACTOR))
                + self.c1_operator().partial_apply(0, F.differentiate(direction))
                + vc1.partial_apply(0, F))

    def p1_data(self, F: Poly) -> MultiDiffOp:
        """P1 = -(1/4) Delta_{gtilde} - c1(F, .) as an arity-1, h^0 operator."""
        F = F.with_roster(self.sym.roster)
        return (self._second_order(self.gtilde).scale(-Scalar(DELTA_FACTOR))
                - self.c1_operator().partial_apply(0, F))

    def operator_E(self, direction: str, F: Poly, f: Poly) -> Poly:
        """E(V)(f) = -(1/4)(Delta_{G}(f) - 2 grad_{G dF}(f) - 2 Delta_G(F) f - 2n V[F] f).

        Delta_G is ``_second_order(G)``, grad_{G dF} is ``_pairing(G)`` with F
        frozen in its second slot, and the last two terms multiply f by a
        function: the pointwise product with that function frozen in slot 0."""
        roster = self.sym.roster
        F = F.with_roster(roster)
        G = self.variation(direction).G
        n = self.sym.dim // 2
        delta_G = self._second_order(G)
        potential = delta_G.apply(F).poly(0).scale(2) + F.differentiate(direction).scale(2 * n)
        body = (delta_G
                - self._pairing(G).partial_apply(1, F).scale(2)
                - MultiDiffOp.pointwise(roster, 0).partial_apply(0, potential))
        return body.scale(-Scalar(Fraction(1, 4))).apply(f).poly(0)

    def operator_H(self, direction: str, F: Poly) -> Poly:
        """H(V) = E(V)(1) = (1/2)(Delta_{G}(F) + n V[F])."""
        return self.operator_E(direction, F, Poly.const(self.sym.roster, 1))


def _vc1_witness(fam: LinearKahlerFamily, direction: str, other: MultiDiffOp, basis_degree: int):
    """The first pair of basis monomials on which V[c1] and the arity-2
    operator ``other`` differ, with the difference there; None when there is
    none.  Both are decided on the terms (``MultiDiffOp.basis_witness``), in
    nested-loop order over ``monomials_up_to(roster, basis_degree)``, f
    outermost.

    V[c1] is taken by its V[M] route.  Its two routes are compared as
    operators too, and where they disagree at an earlier pair, or at the
    same one, VariationError is raised at that pair instead."""
    vc1, half_G = fam.variation_operators(direction)
    routes = (vc1 - half_G).basis_witness(basis_degree)
    found = (vc1 - other).basis_witness(basis_degree)
    if routes is not None:
        basis = monomials_up_to(fam.sym.roster, basis_degree)

        def position(witness):
            f, g = witness[0]
            return basis.index(f), basis.index(g)

        if found is None or position(routes) <= position(found):
            (f, g), _ = routes
            raise VariationError(
                f"V[c1] disagrees with (1/2) df G(V) dg at ({f}, {g}) (direction {direction})")
    return found


def verify_lemma_vc1(fam: LinearKahlerFamily, direction: str, basis_degree: int):
    """V[c1](f,g) = c * (Delta_G(fg) - Delta_G(f) g - Delta_G(g) f) for all
    f and g, with c = ``LEMMA_FACTOR``; (ok, witness).

    The right side is -c * [m0, Delta_G](f, g) for the pointwise product m0
    (``MultiDiffOp.bracket``), so the lemma is the operator identity
    V[c1] + c * [m0, Delta_G] = 0.  Every slot of that operator has
    order at most 1, so its terms on the monomials of degree <= basis_degree,
    raised to 1 if it is 0, decide it for all f and g (``_vc1_witness``,
    which also compares the two routes to V[c1]).  Only a failure evaluates
    the two sides, at the witness pair.
    """
    basis_degree = max(basis_degree, 1)
    product = MultiDiffOp.pointwise(fam.sym.roster, 0)
    delta_G = fam._second_order(fam.variation(direction).G)
    right = product.bracket(delta_G, basis_degree).scale(-Scalar(LEMMA_FACTOR))
    found = _vc1_witness(fam, direction, right, basis_degree)
    if found is None:
        return True, None
    (f, g), _ = found
    vc1, _ = fam.variation_operators(direction)
    lhs, rhs = (op.apply(f, g).poly(0) for op in (vc1, right))
    return False, f"({f}, {g}): {lhs} != {rhs}"


def order1_hitchin_check(fam: LinearKahlerFamily, F: Poly, basis_degree: int = 3,
                         directions=None):
    """Three verdicts for the order-1 formal connection built from A1:

    (a) derivation identity: V[c1](f,g) = -A1(fg) + A1(f) g + f A1(g) on the
        monomial basis of degree <= basis_degree;
    (b) flatness potential:  V[-P1] = A1(V);
    (c) d_T A1 = 0 across direction pairs.

    Each is an identity between explicit operators.  (a) compares V[c1]
    with d_H A1(V) = [m0, A1(V)] for the pointwise product m0 and reads the
    verdict off the terms of the difference (``_vc1_witness``, which also
    compares the two routes to V[c1] and raises VariationError where they
    disagree first).  Operators are evaluated only to find the witness of a
    failure.

    Returns a list of (name, ok, witness).
    """
    if directions is None:
        directions = family_directions(fam, F)
    a1 = {p: fam.a1_data(p, F) for p in directions}
    product = MultiDiffOp.pointwise(fam.sym.roster, 0)

    checks = []
    ok, wit = True, None
    for p, A in a1.items():
        found = _vc1_witness(fam, p, product.bracket(A, basis_degree), basis_degree)
        if found is not None:
            (f, g), _ = found
            ok, wit = False, f"direction {p}, ({f},{g})"
            break
    checks.append(("order-1 derivation identity", ok, wit))

    ok, wit = True, None
    P1 = fam.p1_data(F)
    for p, A in a1.items():
        if -P1.t_derivative(p) != A:
            ok, wit = False, f"direction {p}"
            break
    checks.append(("flatness potential V[-P1] = A1(V)", ok, wit))

    ok, wit = True, None
    for v, w in combinations(directions, 2):
        if not (a1[w].t_derivative(v) - a1[v].t_derivative(w)).is_zero():
            ok, wit = False, f"directions ({v},{w})"
    checks.append(("closedness d_T A1 = 0", ok, wit))
    return checks


def family_directions(fam: LinearKahlerFamily, F: Poly):
    """The parameters I_t or F depends on, sorted; ["t1"] when there are none."""
    params = set(F.param_variables())
    for row in fam.I:
        for v in row:
            params |= v.param_variables()
    return sorted(params) or ["t1"]


def rigidity_report(Z_entries):
    """('pass'|'n/a', witness) for the rigidity condition nabla_{X''} Z = 0.

    x-constant bivectors pass identically (the Levi-Civita connection of a
    constant metric is flat); x-dependent input is out of this module's scope.
    """
    for row in Z_entries:
        for v in row:
            if isinstance(v, Poly) and not v.is_constant():
                return "n/a", "x-dependent bivector fields are not handled here"
    return "pass", None


def rigidity_check(fam: LinearKahlerFamily, direction: str):
    """Rigidity of the family in one direction: the holomorphic part of the
    variation bivector is x-constant for linear families, so the condition
    holds identically once the type decomposition validates."""
    return rigidity_report(fam.variation(direction).Gh)
