import random
from fractions import Fraction
from pathlib import Path

import pytest

from fedconn.scalars import Scalar, I
from fedconn.polynomials import (
    Poly, FormalFunction, parse_poly, monomials_up_to, exponents_up_to,
)
from fedconn.weylforms import WeylForm
from fedconn.symplectic import ConnectionFamily
from fedconn import fedosov
from fedconn.fedosov import (
    FedosovSetup, NotAbelianError, taylor_flat_section, validate_star_axioms,
)
from fedconn.multidiff import StarTruncation, operator_from_symbol, operator_from_values
from fedconn.properties import random_poly
from fedconn.scenario import Scenario
from fedconn.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_flat_r_is_zero(sym2, flat2):
    setup = FedosovSetup(flat2, None, trunc=8)
    assert setup.r.is_zero()


def test_first_recursion_step(sym2, flat2):
    # alpha = omega + h a dx1^dx2 with a = 3: the degree-3 component of r is
    # (3h/2)(y^1 dx^2 - y^2 dx^1), i.e. h a delta_inv(dx1^dx2)
    alpha = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(
        sym2, 8, {(1, 0, 1): Poly.const(sym2.roster, 3)}
    )
    setup = FedosovSetup(flat2, alpha, trunc=8)
    half3 = Poly.const(sym2.roster, Scalar(3) / 2)
    expect = WeylForm.y_monomial(sym2, 8, (1, 0), J=(1,), coeff=half3, h_power=1) - \
        WeylForm.y_monomial(sym2, 8, (0, 1), J=(0,), coeff=half3, h_power=1)
    assert setup.r.homogeneous(3) == expect


def test_r_normalization_and_curvature(curved_setup):
    assert curved_setup.r.delta_star().is_zero()
    got = curved_setup.weyl_curvature(curved_setup.r)
    diff = got - curved_setup.alpha
    for d in range(curved_setup.trunc):
        assert diff.homogeneous(d).is_zero()
    # the characteristic form is closed
    assert got.d_x().is_zero()


def test_non_abelian_r_rejected(curved_setup):
    bogus = curved_setup.r + WeylForm.y_monomial(
        curved_setup.sym, curved_setup.trunc, (0, 2), J=(0,), h_power=1
    )
    with pytest.raises(NotAbelianError):
        curved_setup.weyl_curvature(bogus)


def test_r_mutations_are_caught(monkeypatch, capsys):
    # each interlocking weight of the r-equation, mutated, trips the
    # Weyl-curvature check while r is solved for curved_r2 at order 2; the
    # CLI reports it as a FAIL line with the message as witness, exit 1
    sc = Scenario.load(SCENARIOS / "curved_r2.scn")
    sc.order = 2
    delta_inv = WeylForm.delta_inv

    def heavier_delta_inv(form):
        # 1/(p+q+1) in place of 1/(p+q) on the (y-degree p, form-degree q) part
        out = WeylForm.zero(form.ctx, form.trunc + 1)
        for key, c in form.terms.items():
            p = sum(key[1]) + len(key[2])
            if p:
                piece = delta_inv(WeylForm(form.ctx, form.trunc, {key: c}))
                out = out + piece.scale(Fraction(p, p + 1))
        return out

    solve = fedosov.solve_by_degree

    def full_ad_r_r(connection, parts, degrees, source, left, weight, fail):
        # 1 in place of the 1/2 on ad(r, r)
        return solve(connection, parts, degrees, source, left,
                     1 if weight == Fraction(1, 2) else weight, fail)

    for target, name, mutant, degree in (
        (WeylForm, "delta_inv", heavier_delta_inv, 2),
        (fedosov, "solve_by_degree", full_ad_r_r, 4),
    ):
        with monkeypatch.context() as m:
            m.setattr(target, name, mutant)
            with pytest.raises(NotAbelianError) as exc:
                sc.build_setup()
            code = main(["quantize", "--scenario", str(SCENARIOS / "curved_r2.scn"), "--order", "2"])
        assert str(exc.value).startswith(f"non-scalar Weyl-curvature residue at total degree {degree}:")
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert [line for line in out.splitlines() if line.startswith("[")] == [
            "[FAIL] abelian connection: the Weyl curvature of the solved r is scalar below "
            "the truncation"]
        assert f"       witness: {exc.value}\n" in out


def test_alpha_validation(sym2, flat2):
    not_closed = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(
        sym2, 8, {(1, 0, 1): parse_poly("x1", sym2.roster)}
    )
    # on R^2 every 2-form is closed; break closedness on R^4 instead
    with pytest.raises(ValueError):
        FedosovSetup(flat2, WeylForm.two_form(sym2, 8, {(1, 0, 1): Poly.const(sym2.roster, 1)}), trunc=8)


def test_alpha_closedness_on_r4(sym4):
    flat4 = ConnectionFamily(sym4)
    bad = WeylForm.omega_form(sym4, 8) + WeylForm.two_form(
        sym4, 8, {(1, 0, 1): parse_poly("x3", sym4.roster)}
    )
    with pytest.raises(ValueError):
        FedosovSetup(flat4, bad, trunc=8)
    good = WeylForm.omega_form(sym4, 8) + WeylForm.two_form(
        sym4, 8, {(1, 0, 1): parse_poly("x1", sym4.roster)}
    )
    FedosovSetup(flat4, good, trunc=6)


def test_tau_flat_taylor_oracle(sym2, flat2):
    setup = FedosovSetup(flat2, None, trunc=8)
    f = parse_poly("x1^3*x2 - 2*x2^2 + x1", sym2.roster)
    assert setup.tau(f) == taylor_flat_section(sym2, f, 8)
    one = Poly.const(sym2.roster, 1)
    assert setup.tau(one) == WeylForm.unit(sym2, 8)


def test_tau_flatness_curved(curved_setup):
    rng = random.Random(1)
    for _ in range(3):
        f = random_poly(curved_setup.sym.roster, rng, degree=3, terms=3)
        t = curved_setup.tau(f)
        assert t.center_part() == WeylForm.from_poly(curved_setup.sym, 8, f)
        defect = curved_setup.D_r(t)
        for d in range(curved_setup.trunc - 1):
            assert defect.homogeneous(d).is_zero()


def test_tau_defect_guard_fires():
    # a non-abelian r (perturbed by x1 y1^2 y2 dx1) leaves a flat-section
    # source that is not delta-closed; tau stops at the first such degree
    setup = Scenario.load(SCENARIOS / "curved_r2.scn").build_setup()
    sym = setup.sym
    setup.r = setup.r + WeylForm.y_monomial(
        sym, setup.trunc, (2, 1), coeff=parse_poly("x1", sym.roster), J=(0,)
    )
    setup._tau_cache = {}
    setup._r_parts_cache = None
    with pytest.raises(AssertionError) as exc:
        setup.tau(parse_poly("x2", sym.roster))
    assert exc.type is AssertionError
    assert str(exc.value) == "flat section defect at total degree 2"


def test_flat_star_is_moyal(sym2, flat2):
    setup = FedosovSetup(flat2, None, trunc=8)
    r = sym2.roster
    x1, x2 = parse_poly("x1", r), parse_poly("x2", r)
    assert setup.star(x1, x2, 3) == FormalFunction(r, 3, {0: x1 * x2, 1: Poly.const(r, I / 2)})
    assert setup.star(x2, x1, 3) == FormalFunction(r, 3, {0: x1 * x2, 1: Poly.const(r, -I / 2)})
    star = setup.extract_star(4)
    assert star.op == StarTruncation.moyal(sym2, 4).op


def test_extracted_star_axioms(curved_setup):
    star = curved_setup.extract_star(3)
    rng = random.Random(2)
    for name, ok, wit in validate_star_axioms(star, curved_setup.sym, 2, rng=rng):
        assert ok, (name, wit)
    # naturality: differential order of the h^k layer is at most k
    for k in range(4):
        assert star.op.slot_order(k) <= k


def test_unit_and_poisson_conditions(curved_setup):
    star = curved_setup.extract_star(3)
    rng = random.Random(3)
    one = Poly.const(curved_setup.sym.roster, 1)
    for _ in range(5):
        f = random_poly(curved_setup.sym.roster, rng)
        assert star.apply(f, one) == FormalFunction.from_poly(f, 3)
        assert star.apply(one, f) == FormalFunction.from_poly(f, 3)
        g = random_poly(curved_setup.sym.roster, rng)
        c1 = star.coefficient(1)
        assert (c1.apply(f, g) - c1.apply(g, f)).coefficient(0) == \
            curved_setup.sym.poisson(f, g).scale(I)


def test_associativity_randomized(curved_setup):
    star = curved_setup.extract_star(3)
    basis = monomials_up_to(curved_setup.sym.roster, 3)
    rng = random.Random(4)
    for _ in range(20):
        f, g, k = (rng.choice(basis) for _ in range(3))
        assert star.apply(star.apply(f, g), k) == star.apply(f, star.apply(g, k))


def test_star_needs_enough_truncation(curved_setup):
    with pytest.raises(ValueError):
        curved_setup.star(Poly.const(curved_setup.sym.roster, 1),
                          Poly.const(curved_setup.sym.roster, 1), order=7)


def test_projection_of_flat_sections(curved_setup):
    # tau(f) - f lies entirely in positive fiber degree, so p(tau(f)) = f
    rng = random.Random(5)
    for _ in range(3):
        f = random_poly(curved_setup.sym.roster, rng, degree=3, terms=3)
        proj = curved_setup.tau(f).project_function(3)
        assert proj == FormalFunction.from_poly(f, 3)


def star_by_evaluation(setup, order):
    """The star read off its values on basis pairs: the reference for the symbol path."""
    roster = setup.sym.roster
    basis = monomials_up_to(roster, order)
    values = {}
    for f in basis:
        for g in basis:
            values[(next(iter(f.terms)), next(iter(g.terms)))] = setup.star(f, g, order)
    return operator_from_values(roster, 2, order, lambda k: k, values)


@pytest.mark.parametrize("name, order", [("flat_r2.scn", 3), ("curved_r2.scn", 3),
                                         ("family_r2.scn", 3)])
def test_symbol_star_matches_evaluation(name, order):
    # family_r2 has t-dependent coefficients in Gamma and alpha
    sc = Scenario.load(SCENARIOS / name)
    setup = sc.build_family().setup if sc.params else sc.build_setup()
    op = setup.extract_star(order).op
    reference = star_by_evaluation(setup, order)
    assert op == reference
    assert op.serialize() == reference.serialize()
    if name == "flat_r2.scn":
        assert op == StarTruncation.moyal(setup.sym, order).op


def tau_from_symbol(setup, f, degree):
    """tau(f) read off tau_symbol(degree): each Weyl term's coefficient is an
    arity-1 symbol in the jet variables."""
    roster = setup.sym.roster
    terms = {}
    for key, c in setup.tau_symbol(degree).terms.items():
        op = operator_from_symbol(roster, 0, FormalFunction(roster, 0, {0: c}), (setup.jets,))
        terms[key] = op.apply(f).coefficient(0)
    return WeylForm(setup.sym, setup.trunc, terms)


def test_tau_symbol_reproduces_tau(curved_setup):
    sc = Scenario.load(SCENARIOS / "family_r2.scn")
    for setup, degree in ((curved_setup, 3), (sc.build_family().setup, 2)):
        roster = setup.sym.roster
        for a in exponents_up_to(len(roster), degree):
            f = Poly.monomial(roster, a)
            assert tau_from_symbol(setup, f, degree) == setup.tau(f), (setup, a)


def test_tau_symbol_truncates_the_larger_one():
    # one symbol is kept per setup; a smaller request is its truncation
    sc = Scenario.load(SCENARIOS / "curved_r2.scn")
    fresh = sc.build_setup().tau_symbol(2)
    setup = sc.build_setup()
    big = setup.tau_symbol(4)
    assert setup.tau_symbol(2) == fresh
    assert setup.tau_symbol(4) is big
    assert big != fresh
