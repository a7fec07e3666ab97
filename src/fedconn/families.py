"""Formal connections for smooth families of Fedosov star products.

Given a family (nabla_t, alpha_t) over parameters t = (t1..tm) and a
trivialization beta with d_M i_V beta = V[alpha], solve for the 1-form s
with values in Weyl 0-forms:

    D_r(i_V s) = V[r] + (1/2) i_V S + i_V beta,     delta*(i_V s) = 0,

by the degree recursion ``fedosov.solve_by_degree`` that also gives r and
the flat sections; then the connection 1-form

    A(V)(f) = p( ad_over_h(i_V s, tau(f)) )

is O(h) and trivializes the variation of the star product:
d_H A(V) = V[star].  The curvature of D_V = V + A(V) is computed two
independent ways (directly from A, and from s) and compared.

Everything here is exact: the family's coefficients are rational functions of
t, and all identities are checked as identities in t.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .polynomials import (
    Poly, PolySums, exponents_up_to, is_param_name,
)
from .weylforms import WeylForm, poincare_potential
from .symplectic import ConnectionFamily
from .fedosov import FedosovSetup, solve_by_degree
from .multidiff import MultiDiffOp, operator_from_symbol, unit_vectors
from .reports import CheckError


class SolvabilityError(CheckError, ValueError):
    """The s-equation has no solution: the necessary condition
    d_M i_V beta = V[alpha] failed (check ``beta invariant``), or the solved
    s fails the equation (``s equation``, raised by ``solve_s``)."""

    check = "beta invariant"


class FamilyContext:
    """A family of Fedosov inputs over R^m, with the generic-t setup cached.

    Its truncation is 2 * order + 2, where r and s are solved: A(V) to
    h-order ``order`` pairs i_V s with tau(f) at total degrees that sum to
    at most that (``read_degree``).
    """

    def __init__(self, connection: ConnectionFamily, alpha: WeylForm, params, order: int):
        self.connection = connection
        self.sym = connection.sym
        self.alpha = alpha
        self.params = tuple(params)
        for p in self.params:
            if not is_param_name(p):
                raise ValueError(f"{p!r} is not a parameter name")
        self.order = order
        self.trunc = 2 * order + 2
        for p in self.params:
            if not alpha.t_derivative(p).d_x().is_zero():
                raise ValueError(f"variation of alpha along {p} is not closed")
        self.setup = FedosovSetup(connection, alpha, trunc=self.trunc)
        self._star = None

    def extract_star(self) -> MultiDiffOp:
        """The star at the family's order, extracted once and kept as ``star``.

        The runners extract it right after ``connection_form``: A(V) reads
        the symbol of tau at jet degree 2K - 1 and the star at K, a
        truncation of it, so the star asked for first would make the symbol
        start again."""
        if self._star is None:
            self._star = self.setup.extract_star(self.order)
        return self._star

    star = property(extract_star)


class TrivializationBeta:
    """Per-direction scalar 1-forms with d_M i_V beta = V[alpha]."""

    def __init__(self, family: FamilyContext, forms: dict, provenance: str = "user"):
        self.family = family
        self.forms = forms
        self.provenance = provenance
        self.validate()

    def __getitem__(self, direction: str) -> WeylForm:
        return self.forms[direction]

    def validate(self):
        for p in self.family.params:
            f = self.forms[p]
            if not f.y_degree_zero():
                raise ValueError("beta must be a scalar (y-free) form")
            if any(len(J) != 1 for (_, _, J) in f.terms):
                raise ValueError("beta must consist of 1-forms on the base")
            if any(k == 0 for (k, _, _) in f.terms):
                raise ValueError("beta must vanish at h^0")
            if f.d_x() != self.family.alpha.t_derivative(p):
                raise SolvabilityError(
                    f"d_M i_V beta != V[alpha] for direction {p}"
                )

    def shifted_by_closed(self, direction: str, closed_form: WeylForm) -> "TrivializationBeta":
        """A second trivialization differing by a d_M-closed 1-form."""
        if not closed_form.d_x().is_zero():
            raise ValueError("shift must be closed")
        forms = dict(self.forms)
        forms[direction] = forms[direction] + closed_form
        return TrivializationBeta(self.family, forms, provenance=f"{self.provenance}+shift")


def trivialize_alpha(family: FamilyContext) -> TrivializationBeta:
    """Build beta from the primitive of alpha - alpha(basepoint), the
    basepoint t = 0.

    gamma is the Poincare potential of the (closed, h >= 1) difference, and
    i_V beta = V[gamma]; the defining property is then checked exactly, and
    a potential that misses it fails the ``beta invariant`` check.
    """
    diff = family.alpha - family.alpha.subs_params(dict.fromkeys(family.params, 0))
    if not diff.d_x().is_zero():
        raise SolvabilityError("alpha variation is not closed")
    if diff.is_zero():
        gamma = WeylForm.zero(family.sym, family.trunc)
    else:
        gamma = poincare_potential(diff)
        miss = gamma.d_x() - diff
        if not miss.is_zero():
            raise SolvabilityError(
                f"Poincare potential failed on a closed form: d_M gamma differs from "
                f"alpha - alpha(basepoint) at h^{min(k for k, _, _ in miss.terms)}")
    forms = {p: gamma.t_derivative(p) for p in family.params}
    return TrivializationBeta(family, forms, provenance="auto")


def solve_s(family: FamilyContext, beta: TrivializationBeta, direction: str) -> WeylForm:
    """The unique i_V s with

        D_r(i_V s) = V[r] + (1/2) i_V S + i_V beta,    delta*(i_V s) = 0,

    solved by total degree.  The sign on i_V beta is the one for which D_r of
    the right-hand side has vanishing central part (-V[alpha] + d_M i_V beta
    shows up with these conventions), which the recursion checks degreewise.
    The defining equation is then checked below degree N - 1, so the bracket
    in D_r(s) is capped at N - 2 (exact: its degree is additive).
    """
    def failed(message):
        return SolvabilityError(message, "s equation",
                                f"direction {direction}: D_r equation and delta* normalization")

    setup = family.setup
    N = family.trunc
    ivbeta = beta[direction]
    if ivbeta.d_x() != family.alpha.t_derivative(direction):
        raise failed(f"d_M i_V beta != V[alpha] for direction {direction}")
    rhs = (
        setup.r.t_derivative(direction)
        + family.connection.variation_S(direction, N).scale(Fraction(1, 2))
        + ivbeta
    )
    parts = {}
    solve_by_degree(
        family.connection.cov_deriv, parts, range(2, N), -rhs, setup._r_parts, 1,
        lambda d: failed(
            f"s-recursion source fails delta-closedness at degree {d} (direction {direction})"),
    )
    s = sum(parts.values(), WeylForm.zero(family.sym, N))
    if not s.delta_star().is_zero():
        raise failed(f"delta* normalization of s failed (direction {direction})")
    defect = setup.D_r(s, max_degree=N - 2) - rhs
    for d in range(N - 1):
        if not defect.homogeneous(d).is_zero():
            raise failed(f"s fails its defining equation at degree {d} (direction {direction})")
    return s


def read_degree(form: WeylForm, order: int) -> int:
    """The total degree to which p(ad_over_h(form, tau(f))) mod h^{order+1}
    reads tau(f): a central h^k term pairs degrees summing to 2k + 2, so it
    is 2 * order + 2 less the lowest degree of ``form``, taken from the form."""
    low = form.lowest_degree()
    return 0 if low is None else max(0, 2 * order + 2 - low)


class ConnectionOneForm:
    """Per-direction arity-1 operators A(V), vanishing mod h."""

    def __init__(self, family: FamilyContext, ops: dict):
        self.family = family
        self.ops = ops
        for p, op in ops.items():
            if not op.is_O_h():
                raise ValueError(f"A({p}) has an h^0 part")
        self._coboundaries = {}  # direction -> (basis_degree, d_H A(V) capped there)

    def __getitem__(self, direction: str) -> MultiDiffOp:
        return self.ops[direction]

    def coboundary(self, direction: str, basis_degree: int) -> MultiDiffOp:
        """d_H A(V) = [star, A(V)] (``MultiDiffOp.bracket``), capped at ``basis_degree``.

        Formed once per direction: a request at a lower cap reuses the
        operator formed at a higher one.  The cap only drops terms with a
        slot above it, and the checks read the difference with V[star] by
        ``basis_witness(d)``, which reads only the terms whose slots are all
        <= d, and every cap >= d keeps those.  It depends on A(V) and the
        family's star alone, so the memo cannot go stale.
        """
        cached = self._coboundaries.get(direction)
        if cached is None or cached[0] < basis_degree:
            op = self.family.star.bracket(self[direction], basis_degree)
            cached = self._coboundaries[direction] = (basis_degree, op)
        return cached[1]

    def drop_coboundaries(self):
        """Forget the memo of ``coboundary``; a later request forms it again."""
        self._coboundaries.clear()

    def curvature(self, v: str, w: str) -> MultiDiffOp:
        """The direct curvature V[A(W)] - W[A(V)] + [A(V), A(W)] in directions (v, w)."""
        return self[w].t_derivative(v) - self[v].t_derivative(w) + self[v].bracket(self[w])

    def shifted(self, direction: str, delta_op: MultiDiffOp) -> "ConnectionOneForm":
        ops = dict(self.ops)
        ops[direction] = ops[direction] + delta_op
        return ConnectionOneForm(self.family, ops)


def connection_form(family: FamilyContext, s_forms: dict) -> ConnectionOneForm:
    """A(V)(f) = p(ad_over_h(i_V s, tau(f))), as operators read off a symbol.

    The h^k layer of A(V) has differential order at most 2k - 1: a scalar
    h^k term pairs i_V s (total degree 2k1 + c >= 3) with a tau component of
    degree 2k2 + c and k = k1 + k2 + c - 1, so the tau degree is at most
    2k - 1.  So A(V) is read off p(ad_over_h(i_V s, sigma)), with sigma the
    symbol of tau at jet degree 2K - 1 (``FedosovSetup.tau_symbol``), and
    checked against the formula on monomials one degree past that bound.
    Both the symbol and tau are read to total degree ``read_degree(i_V s, K)``.
    """
    setup = family.setup
    K = family.order
    roster = family.sym.roster
    bound = 2 * K - 1
    probes = [Poly.monomial(roster, a)
              for a in exponents_up_to(len(roster), bound + 1)[-len(roster):]]
    ops = {}
    for p in family.params:
        s = s_forms[p]
        read = read_degree(s, K)
        sigma = setup.tau_symbol(bound, read)
        op = operator_from_symbol(roster, K, s.projected_ad_over_h(sigma, K), (setup.jets,))
        for m in probes:
            diff = op.apply(m) - s.projected_ad_over_h(setup.tau(m, read), K)
            if not diff.is_zero():
                raise CheckError(
                    f"A({p}) from its symbol differs from p(ad_over_h(i_V s, tau f)) "
                    f"on the probe monomial {m} at h^{min(diff.terms)[0]}", "connection form")
        ops[p] = op
    return ConnectionOneForm(family, ops)


def verify_compatibility(family: FamilyContext, A: ConnectionOneForm, basis_degree: int = 3):
    """d_H A(V) = V[star] on the monomial basis, for every coordinate V.

    Per direction the difference is formed as an operator,

        D = star o_0 A(V) + star o_1 A(V) - A(V) o_0 star - V[star]

    (``MultiDiffOp.bracket``, through ``ConnectionOneForm.coboundary``),
    capped at ``basis_degree``.  D vanishes on every pair of basis monomials
    exactly when it has no term with both slot orders <= basis_degree
    (``MultiDiffOp.basis_witness``), and only then is it evaluated, pair by
    pair, for the witness.  Returns (ok, witness).
    """
    for p in family.params:
        D = A.coboundary(p, basis_degree) - family.star.t_derivative(p)
        found = D.basis_witness(basis_degree)
        if found is not None:
            (f, g), value = found
            k = min(value.terms)[0]
            return False, (
                f"direction {p}: (d_H A - V[star])({f}, {g}) has h^{k} "
                f"coefficient {value.poly(k)}"
            )
    return True, None


def lowest_order_identity(family: FamilyContext, A: ConnectionOneForm,
                          beta: TrivializationBeta, basis_degree: int = 3):
    """A(V)(f) = -h i_V i_{X_f} beta_1 mod h^2, with X_f(g) = {g, f}.

    With X_f^j = pi^{ij} d_i f, the right side is h L_V(f) for the vector
    field L_V = -sum_{i,j} pi^{ij} beta1_j d_i, so the identity says that the
    h^1 layer of A(V) is L_V.  Per direction the difference of the two
    operators is decided on its terms (``MultiDiffOp.basis_witness``), and
    only a failure applies both sides, to the first basis monomial on which
    they differ.  Returns (ok, witness)."""
    sym = family.sym
    e = unit_vectors(sym.dim)
    for p in family.params:
        beta1 = {J[0]: c for (k, _, J), c in beta[p].terms.items() if k == 1}
        field = PolySums()
        for i, j, v in sym._pi_entries:
            if j in beta1:
                field.add((0, (e[i],)), beta1[j], -v)
        L = MultiDiffOp(sym.roster, 1, 0, field.polys())
        found = (A[p].h_coefficient(1) - L).basis_witness(basis_degree)
        if found is not None:
            (f,), _ = found
            got, expect = A[p].apply(f).poly(1), L.apply(f).poly(0)
            return False, f"direction {p}, f = {f}: h^1 part {got} != {expect}"
    return True, None


def curvature_ops(family: FamilyContext, A: ConnectionOneForm, s_forms: dict,
                  v: str, w: str):
    """The curvature in directions (v, w), computed two independent ways.

    Returns (direct, via_s) where ``direct`` is the arity-1 operator
    V[A(W)] - W[A(V)] + [A(V), A(W)] and ``via_s(degree)`` is the operator
    f -> p(ad_over_h(E, tau(f))) for E = V[s_W] - W[s_V] + ad_over_h(s_V, s_W),
    read off the symbol of tau like A(V) in ``connection_form``: at jet
    degree max(2K - 1, degree), so that it is exact on every f of degree <=
    ``degree``, and to total degree ``read_degree(E, K)``.
    """
    direct = A.curvature(v, w)
    E = (
        s_forms[w].t_derivative(v)
        - s_forms[v].t_derivative(w)
        + s_forms[v].ad_over_h(s_forms[w])
    )
    setup = family.setup
    K = family.order
    read = read_degree(E, K)

    def via_s(degree):
        symbol = setup.tau_symbol(max(2 * K - 1, degree), read)
        return operator_from_symbol(family.sym.roster, K, E.projected_ad_over_h(symbol, K),
                                    (setup.jets,))

    return direct, via_s


def verify_curvature(family: FamilyContext, A: ConnectionOneForm, s_forms: dict,
                     basis_degree: int = 3):
    """Compare the two curvature computations on the basis; (ok, witness).

    For each pair of directions, direct - via_s(basis_degree) is decided on
    its terms (``MultiDiffOp.basis_witness``); only a failure applies both
    sides, to the first basis monomial on which they differ.  A
    one-parameter family has no pair of directions (no 2-forms on R^1), so
    it passes with nothing compared.
    """
    for v, w in itertools.combinations(family.params, 2):
        direct, via_s = curvature_ops(family, A, s_forms, v, w)
        E_op = via_s(basis_degree)
        found = (direct - E_op).basis_witness(basis_degree)
        if found is not None:
            (f,), _ = found
            return False, f"directions ({v},{w}), f = {f}: {direct.apply(f)} != {E_op.apply(f)}"
    return True, None


def derivation_identity(family: FamilyContext, A: ConnectionOneForm, basis_degree: int = 2):
    """The compatibility identity in its covariant form, checked on sections
    with explicit t-dependence:  D_V(f*g) = D_V(f)*g + f*D_V(g), D_V = V + A(V).

    For f = f0 * T(t) with T = prod_p (t_p + 1), and g = g0, the defect
    D_V(f*g) - D_V(f)*g - f*D_V(g) is -T * (d_H A(V) - V[star])(f0, g0).  So
    each direction is decided on the terms of [star, A(V)] - V[star],
    capped at ``basis_degree`` (``MultiDiffOp.basis_witness``); the bracket
    is the one ``verify_compatibility`` formed (``ConnectionOneForm.coboundary``).
    Only a failing direction is evaluated: both sides, at the witness pair
    (f0, g0) of that decision, first argument outermost.
    """
    star = family.star
    roster = family.sym.roster
    tpoly = Poly.const(roster, 1)
    for p in family.params:
        tpoly = tpoly * (Poly.var(roster, p) + 1)

    def DV(p, f):
        return MultiDiffOp.function(roster, f.differentiate(p), family.order) + A[p].apply(f)

    for p in family.params:
        found = (A.coboundary(p, basis_degree) - star.t_derivative(p)).basis_witness(basis_degree)
        if found is None:
            continue
        (f0, g), _ = found
        f = f0 * tpoly
        fg = star.apply(f, g)
        if fg.t_derivative(p) + A[p].apply(fg) == star.apply(DV(p, f), g) + star.apply(f, DV(p, g)):
            raise AssertionError("the covariant form holds at the witness of its decision")
        return False, f"direction {p}, f = {f}, g = {g}"
    return True, None
