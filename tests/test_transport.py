import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fedconn.polynomials import T_ONE, Poly, parse_poly, monomials_up_to
from fedconn.weylforms import WeylForm
from fedconn.families import FamilyContext, ConnectionOneForm, connection_form, solve_s
from fedconn.multidiff import MultiDiffOp
from fedconn.transport import (
    parallel_transport, invert, conjugation_check, gauge_equivalence,
    self_equivalence_check, flatness_check, GaugeError, oneform_potential,
)
from fedconn.scenario import Scenario
from fedconn.cli import main, GAUGE_EQUATION

from conftest import pull_back, series

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def constant_family(sym2, flat2):
    alpha = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(
        sym2, 8, {(1, 0, 1): parse_poly("x1", sym2.roster)}
    )
    return FamilyContext(flat2, alpha, ["t1"], order=3)


def zero_connection(family):
    return ConnectionOneForm(
        family, {p: MultiDiffOp.zero(family.sym.roster, 1, family.order) for p in family.params},
    )


def test_transport_of_zero_connection(constant_family):
    phi = parallel_transport(constant_family, zero_connection(constant_family), "t1")
    assert phi == MultiDiffOp.identity(constant_family.sym.roster, 3)


def test_transport_exponential_oracle(constant_family):
    # A(d/dt)(f) = h L(f) with L = d/dx1: Phi_l = (-t)^l L^l / l!
    r = constant_family.sym.roster
    L = MultiDiffOp(r, 1, 3, {(0, ((1, 0),)): Poly.const(r, 1)})
    A = ConnectionOneForm(
        constant_family, {"t1": MultiDiffOp(r, 1, 3, {(1, ((1, 0),)): Poly.const(r, 1)})},
    )
    phi = parallel_transport(constant_family, A, "t1")
    t = Poly.var((), "t1")
    power = MultiDiffOp.identity(r, 0)
    for l in range(4):
        expect = power.scale(t ** l * Fraction((-1) ** l, math.factorial(l)))
        assert phi.h_coefficient(l) == expect
        power = power.compose(L)


def test_transport_starts_at_identity(bundle_f1):
    phi = parallel_transport(bundle_f1.family, bundle_f1.A, "t1")
    at_zero = phi.subs_params({"t1": 0})
    assert at_zero == MultiDiffOp.identity(bundle_f1.family.sym.roster, 3)


def test_transport_conjugates_star(bundle_f1, bundle_f2):
    for bundle in (bundle_f1, bundle_f2):
        phi = parallel_transport(bundle.family, bundle.A, "t1")
        ok, wit = conjugation_check(bundle.family, phi, "t1", basis_degree=2)
        assert ok, wit


def test_transport_composition(bundle_f1):
    # Phi(a + b) = [transport restarted from a, run for b] o Phi(a)
    fam = bundle_f1.family
    phi = parallel_transport(fam, bundle_f1.A, "t1")
    a, b = Fraction(1, 2), Fraction(1, 3)
    shifted_ops = {
        "t1": _shift_param(bundle_f1.A["t1"], "t1", a)
    }
    phi_shifted = parallel_transport(fam, ConnectionOneForm(fam, shifted_ops), "t1")
    lhs = phi.subs_params({"t1": a + b})
    rhs = phi_shifted.subs_params({"t1": b}).compose(phi.subs_params({"t1": a}))
    assert lhs == rhs


def _shift_param(op, name, offset):
    """Substitute t -> t + offset in the operator's coefficients."""
    out = {}
    for (k, slots), c in op.terms.items():
        shifted = Poly.zero(c.roster)
        for e, pr in c.coefficients().items():
            shifted = shifted + Poly.monomial(c.roster, e, _shift_pr(pr, name, offset))
        out[(k, slots)] = shifted
    return MultiDiffOp(op.roster, op.arity, op.order, out)


def _shift_pr(pr, name, offset):
    """pr(t -> t + offset) for a t-only pr, polynomial in t."""
    assert pr.den is T_ONE
    shifted = Poly.zero(())
    base = Poly.var((), name) + offset
    for (_, mono), z in pr.scalar_terms().items():
        term = Poly.const((), z)
        for var, e in mono:
            term = term * (base ** e if var == name else Poly.var((), var) ** e)
        shifted = shifted + term
    return shifted


def test_invert(sym2):
    r = sym2.roster
    ident = MultiDiffOp.identity(r, 3)
    assert invert(ident) == ident
    L = MultiDiffOp(r, 1, 3, {(1, ((1, 0),)): parse_poly("x2", r)})
    P = ident + L
    Pi = invert(P)
    assert P.compose(Pi) == ident
    assert Pi.compose(P) == ident
    # geometric series: id - hL + h^2 L L - ...
    assert Pi.h_coefficient(1) == -L.h_coefficient(1)
    with pytest.raises(ValueError):
        invert(L)


def test_transport_rejects_h0_connection(constant_family):
    r = constant_family.sym.roster
    bad = ConnectionOneForm.__new__(ConnectionOneForm)
    bad.family = constant_family
    bad.ops = {"t1": MultiDiffOp.identity(r, 3)}
    with pytest.raises(ValueError):
        parallel_transport(constant_family, bad, "t1")


def test_gauge_identity_pair(bundle_f1):
    fam = bundle_f1.family
    P = gauge_equivalence(fam, bundle_f1.A, bundle_f1.A, 3)
    assert P == MultiDiffOp.identity(fam.sym.roster, 3)


def test_gauge_two_trivializations(bundle_f1):
    fam = bundle_f1.family
    shift = WeylForm.from_poly(fam.sym, 8, parse_poly("x1^2*x2", fam.sym.roster)).d_x().shift_h(1)
    beta2 = bundle_f1.beta.shifted_by_closed("t1", shift)
    A2 = connection_form(fam, {"t1": solve_s(fam, beta2, "t1")})
    assert flatness_check(fam, bundle_f1.A) == (True, None)
    P = gauge_equivalence(fam, bundle_f1.A, A2, 3)
    # the gauge equation V[P] = P A'(V) - A(V) P holds below the truncation
    defect = P.t_derivative("t1") - (P.compose(A2["t1"]) - bundle_f1.A["t1"].compose(P))
    assert defect.is_zero()
    ok, wit = self_equivalence_check(fam, P, basis_degree=2)
    assert ok, wit


def test_an_order_above_the_connections_stops_at_theirs(bundle_f1):
    # above the connections' h-order nothing is known, so gauge equivalence
    # and transport both answer at that order
    fam, A = bundle_f1.family, bundle_f1.A
    shift = WeylForm.from_poly(fam.sym, 8, parse_poly("x1^2*x2", fam.sym.roster)).d_x().shift_h(1)
    A2 = connection_form(fam, {"t1": solve_s(fam, bundle_f1.beta.shifted_by_closed("t1", shift), "t1")})
    K = min(A["t1"].order, A2["t1"].order)
    P = gauge_equivalence(fam, A, A2, K + 2)
    assert P.order == K and P == gauge_equivalence(fam, A, A2, K)
    phi = parallel_transport(fam, A, "t1", order=K + 2)
    assert phi.order == K and phi == parallel_transport(fam, A, "t1", order=K)


def gauge_operator(sc):
    """The P that ``gauge`` solves on the scenario ``sc``, at its order."""
    fam = sc.build_family()
    A, B = (connection_form(fam, {p: solve_s(fam, beta, p) for p in fam.params})
            for beta in sc.build_gauge_pair(fam))
    return gauge_equivalence(fam, A, B, sc.order)


def test_family_sheared_r2_gauge_is_family_r2_pulled_back():
    # family_sheared_r2 is family_r2 pulled back by phi(x') = A x', gauge_shift
    # and all; the construction is natural, so P'(f o phi) = P(f) o phi at
    # every h-order, here K = 3
    A = [[1, 2], [-1, 1]]
    P, sheared = (gauge_operator(Scenario.load(SCENARIOS / name))
                  for name in ("family_r2.scn", "family_sheared_r2.scn"))
    assert P.order == 3
    for f in monomials_up_to(P.roster, 2):
        want, got = P.apply(f), sheared.apply(pull_back(f, A))
        for k in range(4):
            assert got.poly(k) == pull_back(want.poly(k), A), (f, k)


def test_gauge_exponential_case(sym2, flat2):
    # A = 0 and A'(d/dt) = ad_star(b0) with t-constant b0: P is the orderwise
    # exponential of t * ad-data.  The star is extracted one order higher so
    # that the inner derivation is complete through h^3.
    alpha = WeylForm.omega_form(sym2, 10) + WeylForm.two_form(
        sym2, 10, {(1, 0, 1): parse_poly("x1", sym2.roster)}
    )
    fam = FamilyContext(flat2, alpha, ["t1"], order=4)
    star = fam.star
    b = series(fam.sym.roster, 4, {1: parse_poly("x1^2", fam.sym.roster)})
    ad_b = star.ad_over_h(b)
    A = ConnectionOneForm(fam, {"t1": MultiDiffOp.zero(fam.sym.roster, 1, 3)})
    A2 = ConnectionOneForm(fam, {"t1": ad_b})
    ok, _ = flatness_check(fam, A2)
    assert ok
    P = gauge_equivalence(fam, A, A2, 3)
    t = Poly.var((), "t1")
    expect = MultiDiffOp.identity(fam.sym.roster, 3)
    power = MultiDiffOp.identity(fam.sym.roster, 3)
    for l in range(1, 4):
        power = power.compose(ad_b.truncate(3))
        expect = expect + power.scale(t ** l * Fraction(1, math.factorial(l)))
    assert P == expect
    ok, wit = self_equivalence_check(fam, P, basis_degree=2)
    assert ok, wit


def test_gauge_respects_compatibility_after_conjugation(bundle_f1):
    # conjugating the star by a self-equivalence preserves the derivation
    # property of D_V; spot-check by transporting a product
    fam = bundle_f1.family
    star = fam.star
    P = gauge_equivalence(fam, bundle_f1.A, bundle_f1.A, 3)
    f = parse_poly("x1", fam.sym.roster)
    g = parse_poly("x2", fam.sym.roster)
    assert P.apply(star.apply(f, g)) == star.apply(P.apply(f), P.apply(g))


def test_gauge_rejects_non_flat_pair(bundle_f3):
    # twisting one slot of beta by a t2-dependent closed form produces a
    # genuinely curved connection; the gauge induction must refuse it
    fam = bundle_f3.family
    twist = (
        WeylForm.from_poly(fam.sym, 8, parse_poly("t2*x1^2*x2", fam.sym.roster))
        .d_x()
        .shift_h(1)
    )
    beta2 = bundle_f3.beta.shifted_by_closed("t1", twist)
    s2 = {p: solve_s(fam, beta2, p) for p in fam.params}
    A2 = connection_form(fam, s2)
    with pytest.raises(GaugeError):
        gauge_equivalence(fam, bundle_f3.A, A2, 3)


def test_conjugation_by_self_equivalence_preserves_compatibility(sym2, flat2):
    # P = exp(ad_star(b(t))) is a self-equivalence of the (t-constant) Moyal
    # family; conjugating the trivial connection D_V = V by it yields
    # A'(V) = P^{-1} V[P], which must again satisfy d_H A'(V) = V[star] = 0.
    from fedconn.families import verify_compatibility
    alpha = WeylForm.omega_form(sym2, 10)
    fam = FamilyContext(flat2, alpha, ["t1"], order=4)
    b = series(
        sym2.roster, 4,
        {1: parse_poly("t1*x1^2 + x2^2", sym2.roster), 2: parse_poly("t1^2*x1*x2", sym2.roster)},
    )
    D = fam.star.ad_over_h(b)
    P = MultiDiffOp.identity(sym2.roster, 3)
    power = MultiDiffOp.identity(sym2.roster, 3)
    for l in range(1, 4):
        power = power.compose(D.truncate(3))
        P = P + power.scale(Fraction(1, math.factorial(l)))
    ok, wit = self_equivalence_check(fam, P, basis_degree=2)
    assert ok, wit
    Aprime = invert(P).compose(P.t_derivative("t1"))
    conn = ConnectionOneForm(fam, {"t1": Aprime.truncate(3)})
    ok, wit = verify_compatibility(fam, conn, basis_degree=2)
    assert ok, wit


def _drop_h_orders_in_defect(keep):
    """A mutant of MultiDiffOp.t_derivative for the gauge defect only: V[P]
    keeps the h-orders up to ``keep(op)`` when called from ``defect``."""
    original = MultiDiffOp.t_derivative

    def mutant(self, name):
        out = original(self, name)
        # the caller is defect's dict comprehension, or defect itself
        if "defect" in (sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name):
            return MultiDiffOp(out.roster, out.arity, out.order,
                               {key: c for key, c in out.terms.items() if key[0] <= keep(self)})
        return out
    return mutant


@pytest.mark.parametrize("keep, witness", [
    # V[P] read as 0: the order fixed at h^1 comes undone on the next step
    (lambda op: -1, "gauge induction lost its invariant at order h^1 (direction t1)"),
    # the top order of V[P] dropped: only the final check sees it
    (lambda op: op.order - 1,
     "gauge equation fails below the truncation order, at h^3 (direction t1)"),
])
def test_gauge_check_failures_are_report_lines(monkeypatch, capsys, keep, witness):
    code = main(["gauge", "--scenario", str(SCENARIOS / "family_r2.scn")])
    assert code == 0 and "[FAIL]" not in capsys.readouterr().out
    monkeypatch.setattr(MultiDiffOp, "t_derivative", _drop_h_orders_in_defect(keep))
    code = main(["gauge", "--scenario", str(SCENARIOS / "family_r2.scn")])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert "Traceback" not in out
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        f"[FAIL] gauge equation: {GAUGE_EQUATION}"]
    assert f"       witness: {witness}\n" in out


def test_oneform_potential_gives_back_an_operator_from_its_differential():
    # P polynomial in t1 and t2 with P = 0 at t = 0, over several h-orders and slots
    roster = ("x1", "x2")
    P = MultiDiffOp(roster, 1, 2, {
        (0, ((1, 0),)): parse_poly("t1*x2 + t2^2", roster),
        (1, ((0, 1),)): parse_poly("t1*t2 - 3*t1^3*x1", roster),
        (2, ((0, 0),)): parse_poly("i*t2 + t1*t2^2/5", roster),
    })
    potential = oneform_potential({p: P.t_derivative(p) for p in ("t1", "t2")}, ("t1", "t2"))
    assert potential == P and (potential.roster, potential.arity) == (P.roster, P.arity)
    # one direction: the antiderivative from 0
    Q = P.subs_params({"t2": 0})
    assert oneform_potential({"t1": Q.t_derivative("t1")}, ("t1",)) == Q


@pytest.mark.parametrize("text, params", [("x1/(t1 + 2)", ("t1",)),
                                          ("x1/(t2 + 1)", ("t1", "t2"))])
def test_oneform_potential_rejects_data_rational_in_t(text, params):
    # also when the pole is in a direction the component is not integrated along
    roster = ("x1", "x2")
    form = MultiDiffOp(roster, 1, 2, {(1, ((1, 0),)): parse_poly(text, roster)})
    with pytest.raises(ValueError, match="polynomial in the parameters"):
        oneform_potential({"t1": form}, params)
