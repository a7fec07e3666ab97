"""Gauge equivalence of formal connections, and parallel transport.

Gauge equivalence of two flat compatible connections over a star-shaped
parameter space is built by the induction

    B_{l+1}(V) h^{l+1} = V[P^{(l)}] - (P^{(l)} A'(V) - A(V) P^{(l)})  mod h^{l+2},

checking that the operator-valued 1-form B_{l+1} is closed (this is where
flatness enters) and integrating it with the Poincare homotopy on R^m
(``oneform_potential``).

Parallel transport along a coordinate axis is the one-direction case: with
the other parameters frozen and A' = 0 the equation reads
dPhi/dt = -A(d/dt) o Phi, each B_{l+1} is closed by itself, and its potential
is the antiderivative from 0.  Since A = O(h), each order is explicit
polynomial data and Phi = id + sum_l Phi_l h^l stays exact.
"""

from __future__ import annotations

import itertools

from .polynomials import T_ONE
from .multidiff import MultiDiffOp
from .families import FamilyContext, ConnectionOneForm
from .reports import CheckError


class GaugeError(CheckError, ValueError):
    """The gauge induction hit a non-closed defect: flatness hypothesis failed."""

    check = "gauge equation"
    description = "inductive solution of V[P] = P A'(V) - A(V) P"


def oneform_potential(forms: dict, params) -> MultiDiffOp:
    """The potential, zero at the origin, of the closed operator-valued
    1-form sum_j forms[j] dt^j on the parameter space R^m with coordinates
    ``params``: the Euler homotopy, which takes a t-monomial of degree m in
    the direction-j component to t_j * monomial / (m + 1)
    (``Poly.euler_step``).  With one direction it is the antiderivative from
    0.  Every coefficient must be polynomial in t."""
    if any(c.den is not T_ONE for op in forms.values() for c in op.terms.values()):
        raise ValueError("an operator-valued 1-form must be polynomial in the parameters")
    parts = [op.map_coefficients(lambda c, j=j: c.euler_step(j, params))
             for j, op in forms.items()]
    return sum(parts[1:], parts[0])


def _frozen_point(family: FamilyContext, axis: str, freeze: dict = None) -> dict:
    """``freeze`` with every parameter other than ``axis`` defaulting to 0."""
    return {**{p: 0 for p in family.params if p != axis}, **(freeze or {})}


def parallel_transport(family: FamilyContext, A: ConnectionOneForm, axis: str,
                       freeze: dict = None, order: int = None) -> MultiDiffOp:
    """Phi(t) = id + sum Phi_l h^l with dPhi/dt = -A(d/dt) o Phi, Phi(0) = id:
    ``gauge_equivalence`` along ``axis`` alone, with A(d/dt) at the frozen
    point and the zero operator as A'.

    Other parameters are frozen (default 0); the result depends on the axis
    variable only, polynomially.
    """
    Aj = A[axis].subs_params(_frozen_point(family, axis, freeze))
    if not Aj.is_O_h():
        raise ValueError("transport needs a connection form with A = 0 mod h")
    zero = MultiDiffOp.zero(family.sym.roster, 1, Aj.order)
    return gauge_equivalence(family, {axis: Aj}, {axis: zero}, order, (axis,))


def invert(P: MultiDiffOp) -> MultiDiffOp:
    """Inverse of id + O(h) mod h^{K+1} by the geometric series."""
    if P.arity != 1:
        raise ValueError("invert needs an arity-1 operator")
    K = P.order
    ident = MultiDiffOp.identity(P.roster, K)
    Q = P - ident
    if not Q.is_O_h():
        raise ValueError("invert needs h^0 part equal to the identity")
    out = ident
    power = ident
    sign = 1
    for _ in range(1, K + 1):
        power = Q.compose(power)
        if power.is_zero():
            break
        sign = -sign
        out = out + (power if sign > 0 else -power)
    return out


def conjugation_check(family: FamilyContext, phi: MultiDiffOp, axis: str,
                      freeze: dict = None, basis_degree: int = 2):
    """star_t = Phi o star_0 o (Phi^{-1} (x) Phi^{-1}) on the basis; (ok, witness).

    The difference star_t - Phi o_0 ((star_0 o_0 Phi^{-1}) o_1 Phi^{-1}) is
    formed as an operator and capped at ``basis_degree``; it vanishes on every
    pair of basis monomials exactly when it has no term with both slot orders
    <= basis_degree (``MultiDiffOp.basis_witness``), and only then is it
    evaluated, pair by pair, for the witness.
    """
    values = _frozen_point(family, axis, freeze)
    star_t = family.star.subs_params(values)
    star_0 = family.star.subs_params({**values, axis: 0})
    phi_inv = invert(phi)
    d = basis_degree
    pulled = star_0.compose_at(0, phi_inv).compose_at(1, phi_inv, d)
    D = star_t - phi.compose_at(0, pulled, d)
    wit = D.basis_failure(d, "conjugation fails on ({}, {})")
    return wit is None, wit


def gauge_equivalence(family: FamilyContext, A: ConnectionOneForm, A2: ConnectionOneForm,
                      order: int = None, params=None) -> MultiDiffOp:
    """P = id + O(h) with V[P] = P A'(V) - A(V) P mod h^{K+1} (A' = A2), for
    V along each of ``params`` (default ``family.params``); A and A2 need
    only be indexable by them.  K is ``order`` (default ``family.order``)
    capped at the lowest h-order of A and A2, above which P is not known.

    Requires both connections flat; for one direction this is automatic, for
    more the closedness of each induction defect is exactly what flatness
    guarantees, and a non-closed defect raises GaugeError with its order.
    A CheckError of ``gauge equation`` guards the induction itself.
    """
    params = family.params if params is None else params
    K = min([order if order is not None else family.order]
            + [C[p].order for C in (A, A2) for p in params])
    roster = family.sym.roster
    P = MultiDiffOp.identity(roster, K)

    def defect(P):
        # V[P] - (P A'(V) - A(V) P), per direction
        return {
            p: P.t_derivative(p) - (P.compose(A2[p]) - A[p].compose(P))
            for p in params
        }

    for l in range(K):
        E = defect(P)
        for p in params:
            for k in range(l + 1):
                if not E[p].h_coefficient(k).is_zero():
                    raise CheckError(
                        f"gauge induction lost its invariant at order h^{k} (direction {p})",
                        "gauge equation")
        B = {p: E[p].h_coefficient(l + 1) for p in params}
        if all(op.is_zero() for op in B.values()):
            continue
        # closedness of B is the flatness hypothesis
        for v, w in itertools.combinations(params, 2):
            closed = B[w].t_derivative(v) - B[v].t_derivative(w)
            if not closed.is_zero():
                raise GaugeError(
                    f"connections not flat / hypothesis violated at order h^{l+1}: "
                    f"d_T B({v},{w}) = {closed}"
                )
        Pl = -oneform_potential(B, params)
        for p in params:
            if Pl.t_derivative(p) != -B[p]:
                raise GaugeError(
                    f"potential of the order-h^{l+1} defect failed; "
                    f"parameter space integration hypothesis violated"
                )
        P = P + MultiDiffOp(roster, 1, K, Pl.shift_h(l + 1).terms)
    E = defect(P)
    for p in params:
        if not E[p].is_zero():
            k = min(k for k, _ in E[p].terms)
            raise CheckError(
                f"gauge equation fails below the truncation order, at h^{k} (direction {p})",
                "gauge equation")
    return P


def self_equivalence_check(family: FamilyContext, P: MultiDiffOp, basis_degree: int = 2):
    """P(f star_t g) = P(f) star_t P(g) mod h^{K+1} on the basis; (ok, witness).

    The difference P o_0 star - (star o_0 P) o_1 P is formed as an operator
    and capped at ``basis_degree``; it vanishes on every pair of basis
    monomials exactly when it has no term with both slot orders <=
    basis_degree (``MultiDiffOp.basis_witness``), and only then is it
    evaluated, pair by pair, for the witness.
    """
    star = family.star
    d = basis_degree
    D = P.compose_at(0, star, d) - star.compose_at(0, P).compose_at(1, P, d)
    wit = D.basis_failure(d, "self-equivalence fails on ({}, {})")
    return wit is None, wit


def flatness_check(family: FamilyContext, A: ConnectionOneForm):
    """Direct curvature V[A(W)] - W[A(V)] + [A(V), A(W)] must vanish; (ok, witness)."""
    for v, w in itertools.combinations(family.params, 2):
        F = A.curvature(v, w)
        if not F.is_zero():
            return False, f"curvature in directions ({v},{w}) is {F}"
    return True, None
