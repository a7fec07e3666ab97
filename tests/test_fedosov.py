import importlib.util
import random
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from fedconn.scalars import Scalar, I
from fedconn.polynomials import (
    Poly, parse_poly, monomials_up_to, exponents_up_to,
)
from fedconn.weylforms import WeylForm
from fedconn.symplectic import ConnectionFamily
from fedconn import fedosov
from fedconn.fedosov import (
    FedosovSetup, NotAbelianError, taylor_flat_section, validate_star_axioms,
)
from fedconn.multidiff import moyal_star, operator_from_symbol
from fedconn.scenario import Scenario
from fedconn import cli
from fedconn.cli import main
from generators import random_poly
from conftest import (
    connection_from_T, generated_curved_r4, generated_curved_r4_scenario, lower_cap,
    pi_transposed, pull_back, pulled_back_setup, series,
)
from reference_cochains import operator_from_values

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
    # Weyl-curvature check while r is solved for curved_r2 at truncation 8;
    # the CLI reports it as a FAIL line with the message as witness, exit 1.
    # The CLI runs at order 3: quantize at order K solves r to degree
    # 2K - 1, the depth its star reads, and the degree-4 residue is past
    # that at order 2
    sc = Scenario.load(SCENARIOS / "curved_r2.scn")
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
                sc.build_setup(8)
            code = main(["quantize", "--scenario", str(SCENARIOS / "curved_r2.scn"), "--order", "3"])
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
    setup = Scenario.load(SCENARIOS / "curved_r2.scn").build_setup(8)
    sym = setup.sym
    setup.r = setup.r + WeylForm.y_monomial(
        sym, setup.trunc, (2, 1), coeff=parse_poly("x1", sym.roster), J=(0,)
    )
    setup._tau_cache = {}
    setup._r_parts = setup.r.by_degree()
    with pytest.raises(AssertionError) as exc:
        setup.tau(parse_poly("x2", sym.roster))
    assert exc.type is fedosov.FedosovCheckError
    assert exc.value.check == "flat sections"
    assert str(exc.value) == "flat section defect at total degree 2"


def test_flat_star_is_moyal(sym2, flat2):
    setup = FedosovSetup(flat2, None, trunc=8)
    r = sym2.roster
    x1, x2 = parse_poly("x1", r), parse_poly("x2", r)
    assert setup.star(x1, x2, 3) == series(r, 3, {0: x1 * x2, 1: Poly.const(r, I / 2)})
    assert setup.star(x2, x1, 3) == series(r, 3, {0: x1 * x2, 1: Poly.const(r, -I / 2)})
    star = setup.extract_star(4)
    assert star == moyal_star(sym2, 4)


def test_extracted_star_axioms(curved_setup):
    star = curved_setup.extract_star(3)
    for name, ok, wit in validate_star_axioms(star, curved_setup.sym, 2):
        assert ok, (name, wit)
    # naturality: differential order of the h^k layer is at most k
    for k in range(4):
        assert star.slot_order(k) <= k


def test_unit_and_poisson_conditions(curved_setup):
    star = curved_setup.extract_star(3)
    rng = random.Random(3)
    one = Poly.const(curved_setup.sym.roster, 1)
    for _ in range(5):
        f = random_poly(curved_setup.sym.roster, rng)
        assert star.apply(f, one) == series(f.roster, 3, {0: f})
        assert star.apply(one, f) == series(f.roster, 3, {0: f})
        g = random_poly(curved_setup.sym.roster, rng)
        c1 = star.h_coefficient(1)
        assert (c1.apply(f, g) - c1.apply(g, f)).poly(0) == \
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


@pytest.mark.parametrize("name, order", [
    ("curved_r2.scn", 1), ("curved_r2.scn", 2), ("curved_r2.scn", 3), ("curved_r2.scn", 4),
    ("flat_r2.scn", 3), (None, 2),
])
def test_the_star_to_order_k_is_read_from_truncation_2k(tmp_path, name, order):
    # the star to order K reads tau and its symbol, and so r, to total degree
    # 2K - 1, so a setup at truncation 2K (quantize's default) gives the star
    # of one at 2K + 2.  None is the benchmark's generated curved R^4
    path = SCENARIOS / name if name else generated_curved_r4_scenario(tmp_path)
    sc = Scenario.load(path)
    stars = []
    for trunc in (2 * order, 2 * order + 2):
        setup = sc.build_setup(trunc)
        assert setup.trunc == setup.r.trunc == trunc
        stars.append(setup.extract_star(order).serialize())
    assert stars[0] == stars[1]


def test_projection_of_flat_sections(curved_setup):
    # tau(f) - f lies entirely in positive fiber degree, so p(tau(f)) = f
    rng = random.Random(5)
    for _ in range(3):
        f = random_poly(curved_setup.sym.roster, rng, degree=3, terms=3)
        proj = curved_setup.tau(f).project_function(3)
        assert proj == series(f.roster, 3, {0: f})


def star_by_evaluation(setup, order):
    """The star read off its values on basis pairs: the reference for the symbol path."""
    roster = setup.sym.roster
    basis = monomials_up_to(roster, order)
    values = {}
    for f in basis:
        for g in basis:
            values[(next(iter(f.coefficients())), next(iter(g.coefficients())))] = setup.star(
                f, g, order)
    return operator_from_values(roster, 2, order, lambda k: k, values)


@pytest.mark.parametrize("name, order", [("flat_r2.scn", 3), ("curved_r2.scn", 3),
                                         ("family_r2.scn", 3)])
def test_symbol_star_matches_evaluation(name, order):
    # family_r2 has t-dependent coefficients in Gamma and alpha
    sc = Scenario.load(SCENARIOS / name)
    setup = sc.build_family().setup if sc.params else sc.build_setup(2 * sc.order + 2)
    op = setup.extract_star(order)
    reference = star_by_evaluation(setup, order)
    assert op == reference
    assert op.serialize() == reference.serialize()
    if name == "flat_r2.scn":
        assert op == moyal_star(setup.sym, order)


def tau_from_symbol(setup, f, degree):
    """tau(f) read off tau_symbol(degree): each Weyl term's coefficient is an
    arity-1 symbol in the jet variables."""
    roster = setup.sym.roster
    terms = {}
    for key, c in setup.tau_symbol(degree).terms.items():
        op = operator_from_symbol(roster, 0, series(roster, 0, {0: c}), (setup.jets,))
        terms[key] = op.apply(f).poly(0)
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
    fresh = sc.build_setup(8).tau_symbol(2)
    setup = sc.build_setup(8)
    big = setup.tau_symbol(4)
    assert setup.tau_symbol(2) == fresh
    assert setup.tau_symbol(4) is big
    assert big != fresh


@pytest.mark.parametrize("name", ["curved_r2.scn", "family_r2.scn"])
def test_released_weyl_stage_recomputes_the_same_values(name):
    # after a star extraction fills the caches, release_weyl_stage empties
    # them, and tau, its symbol, the contractions and the central weights
    # read afterwards equal those read before, compared exactly
    sc = Scenario.load(SCENARIOS / name)
    setup = sc.build_family().setup if sc.params else sc.build_setup(2 * sc.order + 2)
    setup.extract_star(sc.order)
    sym = setup.sym
    monomials = monomials_up_to(sym.roster, 3)
    exps = exponents_up_to(sym.dim, 4)

    def values():
        return (
            [setup.tau(f) for f in monomials],
            [setup.tau(f, 4) for f in monomials],
            setup.tau_symbol(sc.order, 5),
            setup.tau_symbol(2 * sc.order - 1),
            {(a1, a2, commutator, over_h): sym.contractions(a1, a2, commutator, over_h)
             for a1 in exps for a2 in exps for commutator in (False, True)
             for over_h in (False, True)},
            {(a1, a2, over_h): sym.central_weight(a1, a2, over_h)
             for a1 in exps for a2 in exps if sum(a1) == sum(a2) for over_h in (False, True)},
        )

    before = values()
    setup.release_weyl_stage()
    assert not setup._tau_cache and setup._symbol is None
    assert not sym._contractions and not sym._central
    after = values()
    assert after == before
    assert after[0][0] is not before[0][0] and after[3] is not before[3]


def test_the_curved_r6_generator_extends_the_r4(tmp_path, capsys):
    # tools/curved_r6.py writes the benchmark's R^4 with a flat third Darboux
    # block and one more closed alpha term; the scenario passes quantize
    root = SCENARIOS.parent
    spec = importlib.util.spec_from_file_location("curved_r6", root / "tools" / "curved_r6.py")
    r6 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(r6)
    gen = r6.load_gen()
    text = r6.curved_r6(0)
    assert text == r6.curved_r6(0) and text != r6.curved_r6(1)
    added = set(text.splitlines()) - set(gen.curved_r4(0).splitlines())
    assert added == {"# generated curved R^6 scenario, seed 0", "dimension = 6",
                     f"omega = {r6.OMEGA}", "alpha[1][5][6] = x5"}
    path = tmp_path / r6.NAME
    path.write_text(text, encoding="utf-8")
    assert gen.check(path) is None
    assert main(["quantize", "--scenario", str(path), "--order", "2"]) == 0
    assert "summary: 5 passed, 0 failed" in capsys.readouterr().out


# -- the degree caps against the uncapped computations ---------------------------------

def curved_r4_setup(sym4):
    """A curved R^4 setup at h-order 2 (truncation 6): Gamma = pi T with T
    totally symmetric and x-linear in the first block, and a closed alpha."""
    r = sym4.roster
    conn = connection_from_T(sym4, {
        (0, 0, 0): parse_poly("x2", r), (0, 0, 1): Poly.const(r, 2),
        (0, 1, 1): parse_poly("-x1", r), (1, 1, 1): parse_poly("2*x2", r),
    })
    alpha = WeylForm.omega_form(sym4, 6) + WeylForm.two_form(sym4, 6, {
        (1, 0, 1): parse_poly("x1", r), (1, 2, 3): parse_poly("-2*x3", r),
        (2, 0, 2): Poly.const(r, 1),
    })
    return FedosovSetup(conn, alpha, trunc=6)


def cap_case(name, sym4):
    if name == "curved_r4 K=2":
        return curved_r4_setup(sym4)
    sc = Scenario.load(SCENARIOS / name.split()[0])
    sc.order = int(name[-1])
    return sc.build_family().setup if sc.params else sc.build_setup(2 * sc.order + 2)


def uncapped_flatness_residues(setup, r):
    def D(a):
        return -a.delta() + setup.connection.cov_deriv(a) + r.ad_over_h(a)
    dim = setup.sym.dim
    return [D(D(WeylForm.y_monomial(setup.sym, setup.trunc,
                                    tuple(1 if q == m else 0 for q in range(dim)))))
            for m in range(dim)]


def uncapped_curvature_form(setup, r):
    return (setup.omega_form + r.delta() + setup.R - setup.connection.cov_deriv(r)
            - r.ad_over_h(r).scale(Fraction(1, 2)))


@pytest.mark.parametrize("name", ["curved_r2.scn K=4", "curved_r4 K=2", "family_r2.scn K=3"])
def test_capped_checks_match_uncapped(name, sym4):
    # the flatness and Weyl-curvature residues, degree by degree, against the
    # uncapped D(D(y^m)) and curvature form, for the solved r and for
    # r + 3 y1^2 dx^2, which fails at several degrees
    setup = cap_case(name, sym4)
    N, sym = setup.trunc, setup.sym
    bump = WeylForm.y_monomial(sym, N, (2,) + (0,) * (sym.dim - 1), coeff=3, J=(1,))
    for r, solved in ((setup.r, True), (setup.r + bump, False)):
        failing = set()
        first = None  # the check reports the first generator's lowest failing degree
        for capped, full in zip(setup._flatness_residues(r), uncapped_flatness_residues(setup, r)):
            assert capped.lowest_degree() is None or capped.lowest_degree() < N - 1
            for d in range(N - 1):
                assert capped.homogeneous(d) == full.homogeneous(d), (name, solved, d)
                if not full.homogeneous(d).is_zero():
                    failing.add(("flatness", d))
                    first = d if first is None else first
        capped = setup._curvature_form(r)
        full = uncapped_curvature_form(setup, r)
        assert capped.trunc == N - 1
        for d in range(N):
            assert capped.homogeneous(d) == full.homogeneous(d), (name, solved, d)
            if not (full - setup.alpha).homogeneous(d).is_zero():
                failing.add(("curvature", d))
        if solved:
            assert not failing
            setup._check_flatness(r)
            setup._check_weyl_curvature(r)
        else:
            for check in ("flatness", "curvature"):
                assert len([d for c, d in failing if c == check]) >= 2, (name, failing)
            with pytest.raises(fedosov.FedosovCheckError,
                               match=f"D_r fails to square to zero at degree {first}$"):
                setup._check_flatness(r)


def low_parts(form, degree):
    return WeylForm(form.ctx, form.trunc, {
        key: c for key, c in form.terms.items() if 2 * key[0] + sum(key[1]) <= degree})


@pytest.mark.parametrize("name", ["curved_r2.scn", "family_r2.scn"])
def test_capped_tau_and_symbol_match_uncapped(name):
    # tau(f, d) and tau_symbol(jet, d) are the parts of degree <= d of the
    # uncapped ones, whether computed first, continued or truncated
    sc = Scenario.load(SCENARIOS / name)
    build = (lambda: sc.build_family().setup) if sc.params else (lambda: sc.build_setup(8))
    full, rising, falling = build(), build(), build()
    N = full.trunc
    roster = full.sym.roster
    for f in (parse_poly("x1^2*x2 - 3*x2", roster), parse_poly("x1", roster)):
        reference = full.tau(f)
        for d in range(N + 1):
            assert rising.tau(f, d) == low_parts(reference, d), (f, d)
            assert falling.tau(f, N - d) == low_parts(reference, N - d), (f, N - d)
    for jet in (1, 3, 2):
        reference = full.tau_symbol(jet)
        for d in (3, 0, 5, N, 4):
            assert rising.tau_symbol(jet, d) == low_parts(reference, d), (jet, d)
    # the star reads tau to star_depth(K) = 2K - 1: the same as from full sections
    basis = monomials_up_to(roster, 3)
    for order in range(N // 2 + 1):
        for f, g in zip(basis, reversed(basis)):
            assert falling.star(f, g, order) == full.tau(f).projected_mw(full.tau(g), order)


def test_flat_sections_are_kept_at_the_largest_depth_asked(monkeypatch):
    # one section is kept per function and one symbol per setup, each at the
    # largest size asked for: a request within it is a truncation, and one
    # past it solves again from degree 0, to the larger of each size
    setup = Scenario.load(SCENARIOS / "curved_r2.scn").build_setup(8)
    solved = []

    def recording(derivative, parts, degrees, source, left, weight, fail):
        solved.append((str(fail(0)).split(" at ")[0], tuple(degrees)))
        SOLVE(derivative, parts, degrees, source, left, weight, fail)

    monkeypatch.setattr(fedosov, "solve_by_degree", recording)
    f = parse_poly("x1*x2", setup.sym.roster)
    for d in (2, 5, 3, 8, None):
        setup.tau(f, d)
    assert solved == [("flat section defect", (0, 1)), ("flat section defect", tuple(range(5))),
                      ("flat section defect", tuple(range(8)))]
    assert list(setup._tau_cache) == [str(f)] and setup._tau_cache[str(f)][0] == 8
    solved.clear()
    for jet, d in ((2, 3), (1, 6), (2, 2), (3, 4)):
        setup.tau_symbol(jet, d)
    # a larger jet degree solves again, as deep as the symbol already was
    assert solved == [("flat section symbol defect", (0, 1, 2)),
                      ("flat section symbol defect", tuple(range(6))),
                      ("flat section symbol defect", tuple(range(6)))]
    assert setup._symbol[:2] == (3, 6)


@pytest.mark.parametrize("argv", [
    ("family", "kahler_r4.scn", "--order", "1"), ("family", "kahler_r4.scn", "--order", "3"),
    ("verify-all", "kahler_r4.scn", "--order", "1"),
    ("verify-all", "kahler_r4.scn", "--order", "3"),
    ("family", "family2_r2.scn", "--order", "1"), ("gauge", "family_r2.scn"),
    ("quantize", "curved_r2.scn"),
], ids=" ".join)
def test_no_runner_solves_a_flat_section_degree_twice(monkeypatch, capsys, argv):
    # a section is kept at the largest depth asked and solved again from
    # degree 0 when asked deeper, which costs more than once only if a runner
    # asks for it deeper after solving it deep; no runner does.  A section is
    # tau(f) of one setup, or its symbol at one jet degree
    solved = []  # (section, degrees) per flat-section solve_by_degree call
    keep = []  # the setups, alive, so that their ids name them

    def recording(derivative, parts, degrees, source, left, weight, fail):
        if str(fail(0)).startswith("flat section"):
            solved.append((None, tuple(degrees)))
        SOLVE(derivative, parts, degrees, source, left, weight, fail)

    def labelled(method, section):
        def run(self, *args, **kwargs):
            keep.append(self)
            start = len(solved)
            out = method(self, *args, **kwargs)
            solved[start:] = [(section(self, *args), d) for _, d in solved[start:]]
            return out
        return run

    monkeypatch.setattr(fedosov, "solve_by_degree", recording)
    monkeypatch.setattr(FedosovSetup, "tau", labelled(
        FedosovSetup.tau, lambda self, f, *_: (id(self), str(f.with_roster(self.sym.roster)))))
    monkeypatch.setattr(FedosovSetup, "tau_symbol", labelled(
        FedosovSetup.tau_symbol, lambda self, *_: (id(self), "symbol", self._symbol[0])))
    command, name, *rest = argv
    assert main([command, "--scenario", str(SCENARIOS / name), *rest]) == 0
    capsys.readouterr()
    assert any(d for _, d in solved)
    seen = {}
    for section, degrees in solved:
        for d in degrees:
            assert d not in seen.setdefault(section, set()), (section, d, solved)
            seen[section].add(d)


def test_the_star_is_natural_off_darboux_coordinates(monkeypatch):
    # phi(x') = A x' pulls curved_r2 back to omega' = A^T omega A = 4 omega,
    # whose inverse is not its transpose as in every shipped scenario.
    # Fedosov's construction is natural under symplectomorphisms, so
    # star'(f o phi, g o phi) = star(f, g) o phi, exactly, at every h-order
    sc = Scenario.load(SCENARIOS / "curved_r2.scn")
    A = [[-1, 2], [-2, 0]]
    order = 3
    star = sc.build_setup(8).extract_star(order)
    basis = monomials_up_to(star.roster, 2)

    def first_mismatch():
        pulled = pulled_back_setup(sc, A, 8).extract_star(order)
        for f in basis:
            for g in basis:
                want = star.apply(f, g)
                got = pulled.apply(pull_back(f, A), pull_back(g, A))
                for k in range(order + 1):
                    if got.poly(k) != pull_back(want.poly(k), A):
                        return f, g, k
        return None

    assert first_mismatch() is None
    # the teeth: pi read as omega transposed, right for the standard omega only
    pi_transposed(monkeypatch)
    try:
        found = first_mismatch()
    except fedosov.FedosovCheckError as exc:
        found = exc.check
    assert found is not None


def test_family_sheared_r2_is_family_r2_pulled_back(monkeypatch, capsys):
    # the shipped off-Darboux scenario: family_r2 pulled back by
    # phi(x') = A x', with omega' = 3 omega, so its star is family_r2's
    # pulled back, at every h-order
    A = [[1, 2], [-1, 1]]
    order = 3
    star, sheared = (Scenario.load(SCENARIOS / name).build_setup(8).extract_star(order)
                     for name in ("family_r2.scn", "family_sheared_r2.scn"))
    basis = monomials_up_to(star.roster, 2)
    for f in basis:
        for g in basis:
            want = star.apply(f, g)
            got = sheared.apply(pull_back(f, A), pull_back(g, A))
            for k in range(order + 1):
                assert got.poly(k) == pull_back(want.poly(k), A), (f, g, k)
    # the teeth: with pi read as omega transposed, quantize ends on a FAIL line
    pi_transposed(monkeypatch)
    code = main(["quantize", "--scenario", str(SCENARIOS / "family_sheared_r2.scn")])
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert code == 1 and checks[-1].startswith("[FAIL] ")


# -- failures of the construction's checks are report lines ---------------------------

SOLVE = fedosov.solve_by_degree


def _with_junk(prefix, key):
    """solve_by_degree with a non-closed or extra term in the source of the
    recursion whose failure message starts with ``prefix``."""
    def mutant(derivative, parts, degrees, source, left, weight, fail):
        if str(fail(0)).startswith(prefix):
            roster = next(iter(parts[0].terms.values())).roster if parts else source.ctx.roster
            source = source + WeylForm(source.ctx, source.trunc, {key: Poly.const(roster, 1)})
        SOLVE(derivative, parts, degrees, source, left, weight, fail)
    return mutant


def _delta_exact_top(derivative, parts, degrees, source, left, weight, fail):
    # r plus delta(y1^(N+1)) at its top degree N: delta-closed, so only
    # delta* r = 0 sees it
    SOLVE(derivative, parts, degrees, source, left, weight, fail)
    if str(fail(0)).startswith("r recursion"):
        top = degrees[-1] + 1
        y = WeylForm.y_monomial(source.ctx, top + 1, (top + 1,) + (0,) * (source.ctx.dim - 1))
        parts[top] = parts.get(top, WeylForm.zero(source.ctx, top)) + y.delta()


def _full_ad_r_r(derivative, parts, degrees, source, left, weight, fail):
    # 1 in place of the 1/2 on ad(r, r)
    weight = 1 if weight == Fraction(1, 2) else weight
    SOLVE(derivative, parts, degrees, source, left, weight, fail)


@pytest.mark.parametrize("mutant, extra, check, witness", [
    # y1 y2 dx1 in the source of r at degree 2: not delta-closed
    (_with_junk("r recursion", (0, (1, 1), (0,))), None, "r recursion",
     "r recursion source fails delta-closedness at degree 2"),
    (_delta_exact_top, None, "r normalization", "delta* r = 0 fails on the degree-6 part of r"),
    # h dx1^dx2 in the source of r: r solves for alpha + h dx1^dx2
    (_with_junk("r recursion", (1, (0, 0), (0, 1))), None, "Weyl curvature",
     "Weyl curvature of the solved r differs from alpha at degree 2"),
    # a non-abelian r, with the Weyl-curvature check that would see it first off
    (_full_ad_r_r, "_check_weyl_curvature", "flatness of D_r",
     "D_r fails to square to zero at degree 3"),
    # y1 dx2 in the source of tau(f), then of its symbol: not delta-closed
    (_with_junk("flat section defect", (0, (1, 0), (1,))), None, "flat sections",
     "flat section defect at total degree 1"),
    (_with_junk("flat section symbol defect", (0, (1, 0), (1,))), None, "flat sections",
     "flat section symbol defect at total degree 1"),
])
def test_fedosov_check_failures_are_report_lines(monkeypatch, capsys, mutant, extra, check,
                                                 witness):
    monkeypatch.setattr(fedosov, "solve_by_degree", mutant)
    if extra:
        monkeypatch.setattr(FedosovSetup, extra, lambda self, r: None)
    code = main(["quantize", "--scenario", str(SCENARIOS / "curved_r2.scn")])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert "Traceback" not in out
    assert [line for line in out.splitlines() if line.startswith("[")] == [
        f"[FAIL] {check}: {cli.FEDOSOV[check]}"]
    assert f"       witness: {witness}\n" in out


# -- each cap is needed: one lower and the result is wrong ---------------------------

def _inner(frame, cap):
    return cap == frame.f_locals["self"].trunc - 1


def _outer(frame, cap):
    return cap == frame.f_locals["self"].trunc - 2


@pytest.mark.parametrize("cls, name, caller, which, cmd, scenario, check", [
    (WeylForm, "ad_over_h", "D_r", _inner, "quantize", "curved_r2.scn", "flatness of D_r"),
    (WeylForm, "ad_over_h", "D_r", _outer, "quantize", "curved_r2.scn", "flatness of D_r"),
    (WeylForm, "ad_over_h", "_curvature_form", None, "quantize", "curved_r2.scn",
     "abelian connection"),
    (FedosovSetup, "D_r", "solve_s", None, "family", "family_r2.scn", "s equation"),
    (FedosovSetup, "tau", "star", None, "quantize", "curved_r2.scn", "naturality"),
    (FedosovSetup, "tau_symbol", "extract_star", None, "quantize", "curved_r2.scn",
     "naturality"),
    (FedosovSetup, "tau_symbol", "connection_form", None, "family", "family_r2.scn",
     "connection form"),
    (FedosovSetup, "tau", "connection_form", None, "family", "family_r2.scn", "connection form"),
])
def test_each_cap_is_needed(monkeypatch, capsys, cls, name, caller, which, cmd, scenario, check):
    # a cap one lower turns the solved r, the s equation or a probe into a FAIL
    code = main([cmd, "--scenario", str(SCENARIOS / scenario)])
    assert code == 0 and "[FAIL]" not in capsys.readouterr().out
    lower_cap(monkeypatch, cls, name, caller, which)
    code = main([cmd, "--scenario", str(SCENARIOS / scenario)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {check}: "), failed


@pytest.mark.parametrize("name", ["curved_r2.scn K=4", "generated curved_r4 K=2",
                                  "family_r2.scn K=3"])
def test_r_self_bracket_once_per_pair_matches_both_orders(name, sym4, tmp_path):
    # the r recursion and the curvature form bracket each unordered pair of
    # r's parts once; the reference brackets both orders with weight 1/2
    setup = generated_curved_r4(tmp_path) if name.startswith("generated") else cap_case(name, sym4)
    N = setup.trunc
    parts = {}
    # a view of ``parts`` that is not ``parts`` itself takes the both-orders path
    fedosov.solve_by_degree(setup.connection.cov_deriv, parts, range(2, N),
                            (setup.alpha - setup.omega_form) - setup.R, MappingProxyType(parts),
                            Fraction(1, 2), AssertionError)
    assert parts == setup._r_parts
    assert sum(parts.values(), WeylForm.zero(setup.sym, N)) == setup.r
    assert len(parts) >= 2
    bump = WeylForm.y_monomial(setup.sym, N, (2,) + (0,) * (setup.sym.dim - 1), coeff=3, J=(1,))
    for r in (setup.r, setup.r + bump):
        both_orders = (setup.omega_form + r.delta() + setup.R - setup.connection.cov_deriv(r)
                       - r.ad_over_h(r, max_degree=N - 1).scale(Fraction(1, 2))).truncate(N - 1)
        assert setup._curvature_form(r) == both_orders


def test_projected_pairing_of_a_symbol_is_on_its_coefficients_roster():
    # a jet symbol's projection carries the jet variables in its coefficients,
    # so the arity-0 operator is on the merged roster and can be moved along it
    setup = Scenario.load(SCENARIOS / "curved_r2.scn").build_setup(8)
    sigma = setup.tau_symbol(3, 4)
    x1 = Poly.var(setup.sym.roster, "x1")
    section = setup.tau(x1 ** 3, 4)
    for op in (sigma.projected_mw(sigma, 3), section.projected_ad_over_h(sigma, 3)):
        assert op.terms and op.roster == setup.symbol_roster
        assert all(c.roster == op.roster for c in op.terms.values())
        wider = op.with_roster(("x1", "x2", "x3", "xi1", "xi2"))
        assert all(c.roster == wider.roster for c in wider.terms.values())
        assert {k: str(c) for k, c in wider.terms.items()} == \
               {k: str(c) for k, c in op.terms.items()}
    # the projections of x-only forms stay on the x roster
    assert setup.star(x1, x1, 2).roster == setup.sym.roster
