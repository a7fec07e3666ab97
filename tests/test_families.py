import random
from pathlib import Path

import pytest

from fedconn.scalars import Scalar
from fedconn.polynomials import Poly, parse_poly, monomials_up_to
from fedconn.weylforms import WeylForm
from fedconn import families
from fedconn.families import (
    FamilyContext, TrivializationBeta, ConnectionOneForm, SolvabilityError,
    trivialize_alpha, solve_s, connection_form, verify_compatibility,
    lowest_order_identity, verify_curvature, derivation_identity, curvature_ops,
)
from fedconn.multidiff import MultiDiffOp, is_derivation
from fedconn.scenario import Scenario
from fedconn.fedosov import FedosovSetup
from fedconn.cli import main
from conftest import lower_cap, pull_back
from reference_cochains import operator_from_callable

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def constant_family(sym2, flat2):
    """t-independent family (still declared over one parameter)."""
    alpha = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(
        sym2, 8, {(1, 0, 1): parse_poly("x1", sym2.roster)}
    )
    return FamilyContext(flat2, alpha, ["t1"], order=3)


def test_trivialize_constant_family(constant_family):
    beta = trivialize_alpha(constant_family)
    assert beta["t1"].is_zero()


def test_trivialize_running_family(bundle_f1):
    # i_V beta = h/2 (x1 dx2 - x2 dx1), the Poincare potential of dx1^dx2
    sym = bundle_f1.family.sym
    half = Poly.const(sym.roster, Scalar(1) / 2)
    expect = WeylForm.from_poly(sym, 8, parse_poly("1/2*x1", sym.roster), h_power=1, J=(1,)) - \
        WeylForm.from_poly(sym, 8, parse_poly("1/2*x2", sym.roster), h_power=1, J=(0,))
    assert bundle_f1.beta["t1"] == expect


def test_beta_invariant(bundle_f2, bundle_f3):
    for bundle in (bundle_f2, bundle_f3):
        fam = bundle.family
        for p in fam.params:
            assert bundle.beta[p].d_x() == fam.alpha.t_derivative(p)


def test_beta_rejects_wrong_form(bundle_f1):
    fam = bundle_f1.family
    sym = fam.sym
    wrong = {"t1": WeylForm.from_poly(sym, 8, parse_poly("x2", sym.roster), h_power=1, J=(0,))}
    with pytest.raises(SolvabilityError):
        TrivializationBeta(fam, wrong)


def test_variation_star(constant_family, bundle_f1):
    assert constant_family.star.t_derivative("t1").is_zero()
    BV = bundle_f1.family.star.t_derivative("t1")
    # c^0 is the pointwise product for every t, so V[c^0] = 0
    assert BV.h_coefficient(0).is_zero()
    # d_H B_V = 0: evaluate the bracket on a small basis
    star = bundle_f1.family.star
    basis = monomials_up_to(star.roster, 2)
    rng = random.Random(0)
    for _ in range(6):
        f, g, k = (rng.choice(basis) for _ in range(3))
        lhs = (
            star.apply(f, BV.apply(g, k)) - BV.apply(star.apply(f, g), k)
            + BV.apply(f, star.apply(g, k)) - star.apply(BV.apply(f, g), k)
        )
        assert lhs.is_zero()


def test_solve_s_constant_family(constant_family):
    beta = trivialize_alpha(constant_family)
    s = solve_s(constant_family, beta, "t1")
    assert s.is_zero()


def test_solve_s_lowest_component(sym2, flat2):
    # explicit beta gauge i_V beta = h x1 dx2; the first recursion step gives
    # i_V s = -h x1 y^2 at total degree 3 under this package's sign stack
    alpha = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(
        sym2, 8, {(1, 0, 1): parse_poly("t1", sym2.roster)}
    )
    fam = FamilyContext(flat2, alpha, ["t1"], order=3)
    beta = TrivializationBeta(
        fam, {"t1": WeylForm.from_poly(sym2, 8, parse_poly("x1", sym2.roster), h_power=1, J=(1,))}
    )
    s = solve_s(fam, beta, "t1")
    expect = WeylForm.y_monomial(sym2, 8, (0, 1), coeff=parse_poly("-x1", sym2.roster), h_power=1)
    assert s.homogeneous(3) == expect
    # the low-order identity stays true in this gauge too
    A = connection_form(fam, {"t1": s})
    ok, wit = lowest_order_identity(fam, A, beta)
    assert ok, wit


def test_s_closedness_guard_fires(monkeypatch):
    # with the sign of i_V beta in the s-equation flipped, or with r doubled,
    # the s-recursion source stops being delta-closed
    sc = Scenario.load(SCENARIOS / "family_r2.scn")
    fam = sc.build_family()
    beta = sc.build_beta(fam)
    ivbeta = beta["t1"]
    solve = families.solve_by_degree

    def flipped_ivbeta(connection, parts, degrees, source, left, weight, fail):
        # the source is -(V[r] + (1/2) i_V S + i_V beta)
        return solve(connection, parts, degrees, source + ivbeta + ivbeta, left, weight, fail)

    def expect_guard():
        with pytest.raises(SolvabilityError) as exc:
            solve_s(fam, beta, "t1")
        assert exc.type is SolvabilityError
        assert str(exc.value) == "s-recursion source fails delta-closedness at degree 3 (direction t1)"

    with monkeypatch.context() as m:
        m.setattr(families, "solve_by_degree", flipped_ivbeta)
        expect_guard()
    fam.setup.r = fam.setup.r.scale(2)
    fam.setup._r_parts = fam.setup.r.by_degree()
    expect_guard()


def test_s_postconditions(bundle_f2):
    fam = bundle_f2.family
    s = bundle_f2.s["t1"]
    assert s.delta_star().is_zero()
    from fractions import Fraction
    rhs = (
        fam.setup.r.t_derivative("t1")
        + fam.connection.variation_S("t1", fam.trunc).scale(Fraction(1, 2))
        + bundle_f2.beta["t1"]
    )
    defect = fam.setup.D_r(s) - rhs
    for d in range(fam.trunc - 1):
        assert defect.homogeneous(d).is_zero()


def test_connection_form_zero_s(constant_family):
    A = connection_form(constant_family, {"t1": WeylForm.zero(constant_family.sym, 8)})
    assert A["t1"].is_zero()


def test_connection_form_is_O_h(bundle_f1, bundle_f2, bundle_f3):
    for bundle in (bundle_f1, bundle_f2, bundle_f3):
        for p in bundle.family.params:
            assert bundle.A[p].is_O_h()


def test_low_order_identity(bundle_f1, bundle_f2, bundle_f3):
    for bundle in (bundle_f1, bundle_f2, bundle_f3):
        ok, wit = lowest_order_identity(bundle.family, bundle.A, bundle.beta, basis_degree=3)
        assert ok, wit


def test_low_order_vanishing_direction(sym2, flat2):
    # with i_V beta = h c x1 dx2 and f = x2, i_{X_f} beta_1 = c x1 dx2(X_{x2}) = 0
    alpha = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(
        sym2, 8, {(1, 0, 1): parse_poly("t1", sym2.roster)}
    )
    fam = FamilyContext(flat2, alpha, ["t1"], order=3)
    beta = TrivializationBeta(
        fam, {"t1": WeylForm.from_poly(sym2, 8, parse_poly("x1", sym2.roster), h_power=1, J=(1,))}
    )
    A = connection_form(fam, {"t1": solve_s(fam, beta, "t1")})
    got = A["t1"].apply(parse_poly("x2", sym2.roster))
    assert got.poly(1).is_zero()


def test_compatibility(bundle_f1, bundle_f2, bundle_f3):
    for bundle in (bundle_f1, bundle_f2, bundle_f3):
        ok, wit = verify_compatibility(bundle.family, bundle.A, basis_degree=2)
        assert ok, wit


def test_compatibility_fails_for_perturbed_A(bundle_f1):
    fam = bundle_f1.family
    bad = MultiDiffOp(fam.sym.roster, 1, 3,
                      {(1, ((0, 0),)): parse_poly("x1", fam.sym.roster)})
    perturbed = bundle_f1.A.shifted("t1", bad)
    ok, wit = verify_compatibility(fam, perturbed, basis_degree=2)
    assert not ok
    assert wit


def test_mutated_connections_fail_both_checks_on_one_coboundary(bundle_f1, bundle_f3,
                                                               monkeypatch):
    """The derivation identity reads the coboundary that verify_compatibility
    formed at the higher cap, and fails as it does on a connection of its own."""
    r = bundle_f1.family.sym.roster
    cases = [
        (bundle_f1, "t1", {(2, ((1, 1),)): parse_poly("x1", r)}),
        (bundle_f1, "t1", {(1, ((0, 0),)): parse_poly("x1", r)}),
        (bundle_f3, "t2", {(2, ((1, 1),)): parse_poly("t2*x1", r)}),
    ]
    expected = []
    for bundle, direction, terms in cases:
        fresh = bundle.A.shifted(direction, MultiDiffOp(r, 1, 3, terms))
        expected.append(derivation_identity(bundle.family, fresh, 2))
    calls = []
    bracket = MultiDiffOp.bracket

    def counting(self, phi, max_slot=None):
        calls.append(self.arity)
        return bracket(self, phi, max_slot)

    monkeypatch.setattr(MultiDiffOp, "bracket", counting)
    for (bundle, direction, terms), derivation in zip(cases, expected):
        fam = bundle.family
        shared = bundle.A.shifted(direction, MultiDiffOp(r, 1, 3, terms))
        calls.clear()
        ok, wit = verify_compatibility(fam, shared, 3)
        assert not ok and wit.startswith(f"direction {direction}: ")
        formed = len(calls)
        assert formed == fam.params.index(direction) + 1
        assert derivation_identity(fam, shared, 2) == derivation
        assert derivation[0] is False
        assert len(calls) == formed


@pytest.mark.parametrize("name, directions", [("family_r2.scn", 1), ("family2_r2.scn", 2)])
def test_a_family_run_brackets_the_star_once_per_direction(name, directions, monkeypatch,
                                                           capsys):
    calls = []
    bracket = MultiDiffOp.bracket

    def counting(self, phi, max_slot=None):
        calls.append((self.arity, phi.arity))
        return bracket(self, phi, max_slot)

    monkeypatch.setattr(MultiDiffOp, "bracket", counting)
    monkeypatch.delenv("FEDCONN_REPORT_DIR", raising=False)
    assert main(["family", "--scenario", str(SCENARIOS / name)]) == 0
    capsys.readouterr()
    assert calls.count((2, 1)) == directions


def test_constant_family_zero_A_compatible(constant_family):
    A = ConnectionOneForm(constant_family,
                          {"t1": MultiDiffOp.zero(constant_family.sym.roster, 1, 3)})
    ok, wit = verify_compatibility(constant_family, A, basis_degree=2)
    assert ok, wit


def test_derivation_identity_with_t_dependent_sections(bundle_f1, bundle_f2):
    for bundle in (bundle_f1, bundle_f2):
        ok, wit = derivation_identity(bundle.family, bundle.A, basis_degree=2)
        assert ok, wit


def test_curvature_one_parameter(bundle_f1):
    fam = bundle_f1.family
    direct, via_s = curvature_ops(fam, bundle_f1.A, bundle_f1.s, "t1", "t1")
    assert direct.is_zero()
    assert via_s(2).is_zero()


def test_curvature_two_parameters(bundle_f3):
    ok, wit = verify_curvature(bundle_f3.family, bundle_f3.A, bundle_f3.s, basis_degree=3)
    assert ok, wit
    # beta built from a single potential gamma is d_T-closed, so this
    # connection is genuinely flat and both routes return zero
    direct, _ = curvature_ops(bundle_f3.family, bundle_f3.A, bundle_f3.s, "t1", "t2")
    assert direct.is_zero()


def test_curvature_two_parameters_twisted(bundle_f3):
    # twist the trivialization by a t2-dependent closed form in the t1 slot
    # only: the connection picks up genuine curvature and the two independent
    # computations still agree on it
    fam = bundle_f3.family
    twist = (
        WeylForm.from_poly(fam.sym, 8, parse_poly("t2*x1^2*x2", fam.sym.roster))
        .d_x()
        .shift_h(1)
    )
    beta2 = bundle_f3.beta.shifted_by_closed("t1", twist)
    s2 = {p: solve_s(fam, beta2, p) for p in fam.params}
    A2 = connection_form(fam, s2)
    direct, _ = curvature_ops(fam, A2, s2, "t1", "t2")
    assert not direct.is_zero()
    ok, wit = verify_curvature(fam, A2, s2, basis_degree=2)
    assert ok, wit


def test_affine_structure_of_connections(bundle_f1):
    fam = bundle_f1.family
    shift = WeylForm.from_poly(fam.sym, 8, parse_poly("x1^2*x2", fam.sym.roster)).d_x().shift_h(1)
    beta2 = bundle_f1.beta.shifted_by_closed("t1", shift)
    A2 = connection_form(fam, {"t1": solve_s(fam, beta2, "t1")})
    diff = A2["t1"] - bundle_f1.A["t1"]
    ok, wit = is_derivation(diff, fam.star, basis_degree=3)
    assert ok, wit
    # the first-order part of each h-layer is a symplectic vector field
    for k in range(1, 4):
        comps, _ = diff.first_order_part(k)
        eta = fam.sym.gradient_of_potential(comps)
        for a in range(fam.sym.dim):
            for b in range(a + 1, fam.sym.dim):
                assert eta[b].differentiate(fam.sym.roster[a]) == \
                    eta[a].differentiate(fam.sym.roster[b])


@pytest.mark.parametrize("name", ["family_r2.scn", "family2_r2.scn"])
def test_connection_form_matches_evaluation(name):
    # the symbol path against the operator rebuilt from its values on monomials
    sc = Scenario.load(SCENARIOS / name)
    fam = sc.build_family()
    beta = sc.build_beta(fam)
    s_forms = {p: solve_s(fam, beta, p) for p in fam.params}
    A = connection_form(fam, s_forms)
    K = fam.order
    for p in fam.params:
        reference = operator_from_callable(
            lambda f, s=s_forms[p]: s.projected_ad_over_h(fam.setup.tau(f), K),
            fam.sym.roster, 1, K, lambda k: max(2 * k - 1, 0),
        )
        assert A[p] == reference
        assert A[p].serialize() == reference.serialize()


def test_family_sheared_r2_connection_is_family_r2_pulled_back():
    # family_sheared_r2 is family_r2 pulled back by phi(x') = A x', beta and
    # all; the construction is natural, so A'(t1)(f o phi) = A(t1)(f) o phi
    # at every h-order, here K = 3
    A = [[1, 2], [-1, 1]]
    forms = []
    for name in ("family_r2.scn", "family_sheared_r2.scn"):
        sc = Scenario.load(SCENARIOS / name)
        fam = sc.build_family()
        assert fam.order == 3
        forms.append(connection_form(fam, {"t1": solve_s(fam, sc.build_beta(fam), "t1")})["t1"])
    conn, sheared = forms
    for f in monomials_up_to(conn.roster, 2):
        want = conn.apply(f)
        got = sheared.apply(pull_back(f, A))
        for k in range(4):
            assert got.poly(k) == pull_back(want.poly(k), A), (f, k)


def test_curvature_via_s_matches_formula(bundle_f3):
    # the E-operator read off the symbol against the per-function projection,
    # also on an f past the jet degree 2K - 1 of A(V), with the operator read
    # at that f's degree
    fam = bundle_f3.family
    beta2 = bundle_f3.beta.shifted_by_closed("t1", (
        WeylForm.from_poly(fam.sym, 8, parse_poly("t2*x1^2*x2", fam.sym.roster)).d_x().shift_h(1)
    ))
    s2 = {p: solve_s(fam, beta2, p) for p in fam.params}
    _, via_s = curvature_ops(fam, connection_form(fam, s2), s2, "t1", "t2")
    E = s2["t2"].t_derivative("t1") - s2["t1"].t_derivative("t2") + s2["t1"].ad_over_h(s2["t2"])
    cases = [(2, f) for f in monomials_up_to(fam.sym.roster, 2)]
    cases.append((7, parse_poly("x1^6 - 2*x1^3*x2^4", fam.sym.roster)))
    values = []
    for degree, f in cases:
        expect = E.projected_ad_over_h(fam.setup.tau(f), fam.order)
        values.append(via_s(degree).apply(f))
        assert values[-1] == expect, f
    assert any(not value.is_zero() for value in values)


def test_curvature_cap_is_needed(bundle_f3, monkeypatch):
    # the E-operator's symbol read one degree short of read_degree(E, K)
    # disagrees with the per-function projection
    lower_cap(monkeypatch, FedosovSetup, "tau_symbol", "via_s")
    with pytest.raises(AssertionError):
        test_curvature_via_s_matches_formula(bundle_f3)


def test_read_degree_comes_from_the_form(sym2):
    # 2K + 2 less the lowest total degree present, whatever that degree is
    y = WeylForm.y_monomial(sym2, 8, (2, 1), h_power=1)  # degree 5
    assert families.read_degree(y, 3) == 3
    assert families.read_degree(y + WeylForm.y_monomial(sym2, 8, (1, 0)), 3) == 7
    x1 = WeylForm.from_poly(sym2, 8, Poly.var(sym2.roster, "x1"), h_power=4)  # degree 8
    assert families.read_degree(x1, 3) == 0
    assert families.read_degree(WeylForm.zero(sym2, 8), 3) == 0
