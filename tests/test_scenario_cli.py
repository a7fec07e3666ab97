import json
import operator
import os
from fractions import Fraction
from pathlib import Path

import pytest

from fedconn import cli, fedosov, families, kahler
from fedconn.scenario import Scenario, ScenarioError
from fedconn.cli import VARIATION, main
from fedconn.fedosov import FedosovSetup
from fedconn.polynomials import Poly
from fedconn.symplectic import ConnectionFamily
from fedconn.weylforms import HDivisionError, WeylContext, WeylForm
from fedconn.kahler import family_directions
from fedconn.multidiff import MultiDiffOp
from fedconn.reports import CheckError
from fedconn import transport

from conftest import RATIONAL_KAHLER, series
from reference_cochains import ReconstructionError, operator_from_callable
from reference_kernels import lemma_by_pairs, lowest_order_by_loops

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_minimal():
    sc = Scenario.parse("dimension = 2\nomega = [[0, -1], [1, 0]]\n")
    assert sc.dimension == 2
    assert (sc.order, sc.basis_degree, sc.seed) == (3, 2, 0)  # the defaults


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioError) as exc:
        Scenario.parse("dimension = 2\nomega = [[0, -1], [1, 0]]\nGamma[1][1] = x1\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(ScenarioError) as exc:
        Scenario.parse("dimension = two\n")
    assert "line 1" in str(exc.value)
    # every expression is parsed as the file is read, with its line attached
    with pytest.raises(ScenarioError) as exc:
        Scenario.parse("dimension = 2\nomega = [[0, -1], [1, 0]]\nalpha[1][1][2] = x9\n")
    assert "line 3" in str(exc.value)


def test_missing_fields():
    with pytest.raises(ScenarioError):
        Scenario.parse("omega = [[0,-1],[1,0]]\n")
    with pytest.raises(ScenarioError):
        Scenario.parse("dimension = 3\nomega = [[0,-1],[1,0]]\n")


def test_quantize_flat(capsys):
    code, out, err = run_cli(capsys, "quantize", "--scenario", str(SCENARIOS / "flat_r2.scn"))
    assert code == 0
    assert "summary:" in out
    assert "FAIL" not in out


def test_family_command(capsys):
    code, out, _ = run_cli(capsys, "family", "--scenario", str(SCENARIOS / "family_r2.scn"))
    assert code == 0
    assert "compatibility" in out
    assert "i_V s for t1" in out


def test_kahler_command(capsys):
    code, out, _ = run_cli(capsys, "kahler", "--scenario", str(SCENARIOS / "kahler_r2.scn"))
    assert code == 0
    assert "order-1" in out


def test_bad_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("dimension = 2\n")
    code, out, err = run_cli(capsys, "quantize", "--scenario", str(bad))
    assert code == 2
    assert "omega" in err
    code, _, err = run_cli(capsys, "quantize", "--scenario", str(tmp_path / "missing.scn"))
    assert code == 2
    # an h-order or a basis degree below 1 is rejected up front
    for cmd, name, order in (("quantize", "flat_r2.scn", "-1"), ("quantize", "flat_r2.scn", "0"),
                             ("family", "family_r2.scn", "0")):
        code, out, err = run_cli(capsys, cmd, "--scenario", str(SCENARIOS / name), "--order", order)
        assert (code, out) == (2, "")
        assert "--order must be >= 1" in err
    for line in ("order = 0", "order = -1", "basis_degree = 0", "basis_degree = -1"):
        bad.write_text("dimension = 2\nomega = [[0, -1], [1, 0]]\n" + line + "\n")
        code, out, err = run_cli(capsys, "quantize", "--scenario", str(bad))
        assert (code, out) == (2, "")
        assert "line 3:" in err and "must be >=" in err
    # the truncation is derived from the h-order, never read
    bad.write_text("dimension = 2\nomega = [[0, -1], [1, 0]]\ntruncation = 8\n")
    code, out, err = run_cli(capsys, "quantize", "--scenario", str(bad))
    assert (code, out, err) == (2, "", "fedconn: line 3: unknown key 'truncation'\n")


@pytest.fixture
def built_truncations(monkeypatch):
    """The truncation of each FedosovSetup built from here on, in order."""
    truncs = []
    init = FedosovSetup.__init__

    def recording(self, connection, alpha=None, *, trunc):
        truncs.append(trunc)
        init(self, connection, alpha, trunc=trunc)

    monkeypatch.setattr(FedosovSetup, "__init__", recording)
    return truncs


@pytest.mark.parametrize("extra, argv, built", [
    # quantize builds at 2K, the depth its star reads, for the K of the
    # file or of --order, which overrides it
    ("", (), [6]),
    ("", ("--order", "2"), [4]),
    ("", ("--order", "5"), [10]),
    ("order = 2\n", (), [4]),
    ("order = 2\n", ("--order", "4"), [8]),
])
def test_quantize_builds_its_setup_at_2k_without_a_truncation_key(
        tmp_path, capsys, built_truncations, extra, argv, built):
    # curved_r2 has h-order 3
    path = tmp_path / "curved_r2.scn"
    path.write_text((SCENARIOS / "curved_r2.scn").read_text(encoding="utf-8") + extra)
    code, out, _ = run_cli(capsys, "quantize", "--scenario", str(path), *argv)
    assert code == 0 and "[FAIL]" not in out
    assert built_truncations == built


def test_verify_all_builds_its_family_at_2k_plus_2(capsys, built_truncations):
    # the quantize part builds at 2K; the family and gauge parts at 2K + 2,
    # for the K of the file or of --order, below the file's as above it
    for argv, built in (((), [6, 8, 8]), (("--order", "1"), [2, 4, 4])):
        built_truncations.clear()
        code, out, _ = run_cli(capsys, "verify-all", "--scenario",
                               str(SCENARIOS / "family_r2.scn"), *argv)
        assert code == 0 and "[FAIL]" not in out
        assert built_truncations == built


@pytest.mark.parametrize("command, name, order", [
    ("family", "family_r2.scn", 1), ("family", "family2_r2.scn", 1),
    ("verify-all", "family_r2.scn", 1), ("verify-all", "family2_r2.scn", 1),
    ("gauge", "family_r2.scn", 1), ("gauge", "family_r2.scn", 2),
])
def test_order_flag_reports_as_the_file_rewritten_with_that_order(tmp_path, capsys, command,
                                                                   name, order):
    # --order K and 'order = K' in the file are one input: every depth is
    # derived from K, so the reports agree byte for byte, below the file's
    # order as above it
    text = (SCENARIOS / name).read_text(encoding="utf-8")
    assert "\norder = 3\n" in text
    rewritten = tmp_path / name
    rewritten.write_text(text.replace("\norder = 3\n", f"\norder = {order}\n"),
                         encoding="utf-8")
    for report in ("text", "json"):
        flagged = run_cli(capsys, command, "--scenario", str(SCENARIOS / name),
                          "--order", str(order), "--report", report)
        assert flagged == run_cli(capsys, command, "--scenario", str(rewritten),
                                  "--report", report)
        assert flagged[0] == 0


@pytest.mark.parametrize("command, name, entry, message", [
    ("kahler", "kahler_r2.scn", "I[3][3] = 5", "I index out of range"),
    ("gauge", "family_r2.scn", "gauge_shift[t2][1][1] = x1",
     "gauge_shift has no direction t2: params = 1"),
    ("family", "family_r2.scn", "beta[t3][1][1] = x1", "beta has no direction t3: params = 1"),
    ("family", "family_r2.scn", "beta[t1][1][3] = x1", "dx index out of range"),
    ("quantize", "family_r2.scn", "Gamma[1][3][1] = x1", "Gamma index out of range"),
    ("quantize", "family_r2.scn", "Gamma[2][2][1] = 2*t1",
     "Gamma^2_{2,1} breaks the (i,j) symmetry"),
    ("quantize", "family_r2.scn", "Gamma[2][2][1] = 0",
     "Gamma^2_{2,1} breaks the (i,j) symmetry"),
    ("quantize", "family_r2.scn", "alpha[1][1][3] = x1", "alpha index out of range"),
    ("kahler", "kahler_r2.scn", "samples = t3=1", "samples has no parameter t3: params = 1"),
    ("family", "family_r2.scn", "Gamma[1][1][1] = t2", "Gamma has no parameter t2: params = 1"),
    ("quantize", "family_r2.scn", "alpha[2][1][2] = t1*t2", "alpha has no parameter t2: params = 1"),
    ("family", "family_r2.scn", "beta[t1][1][1] = t3*x1", "beta has no parameter t3: params = 1"),
    ("gauge", "family_r2.scn", "gauge_shift[t1][1][2] = t2*x1^2",
     "gauge_shift has no parameter t2: params = 1"),
    ("kahler", "kahler_r2.scn", "I[2][2] = t", "I has no parameter t: params = 1"),
    ("kahler", "kahler_r2.scn", "F = t2*x1^2*x2", "F has no parameter t2: params = 1"),
    ("verify-all", "flat_r2.scn", "params = -1", "params must be >= 0, got -1"),
])
def test_an_index_out_of_range_is_a_diagnostic(tmp_path, capsys, command, name, entry, message):
    # every index and parameter is checked once, as the file is read: an entry
    # the command would ignore, or read as a failed check, is bad input with its line
    text = (SCENARIOS / name).read_text(encoding="utf-8").rstrip("\n") + "\n"
    bad = tmp_path / name
    bad.write_text(text + entry + "\n")
    code, out, err = run_cli(capsys, command, "--scenario", str(bad))
    assert (code, out) == (2, "")
    assert err == f"fedconn: line {len(text.splitlines()) + 1}: {message}\n"


@pytest.mark.parametrize("first, second", [("0", "x1"), ("x1", "0")])
def test_gamma_stated_as_zero_against_a_nonzero_mirror_is_a_diagnostic(tmp_path, capsys, first,
                                                                      second):
    # reported at the later line, whichever of the two is the 0
    text = (SCENARIOS / "flat_r2.scn").read_text(encoding="utf-8").rstrip("\n") + "\n"
    bad = tmp_path / "mirror.scn"
    bad.write_text(text + f"Gamma[1][1][2] = {first}\nGamma[1][2][1] = {second}\n")
    code, out, err = run_cli(capsys, "quantize", "--scenario", str(bad))
    assert (code, out) == (2, "")
    assert err == (f"fedconn: line {len(text.splitlines()) + 2}: "
                   "Gamma^1_{2,1} breaks the (i,j) symmetry\n")
    # 0 on both lines is no entry
    bad.write_text(text + "Gamma[1][1][2] = 0\nGamma[1][2][1] = 0\n")
    assert run_cli(capsys, "quantize", "--scenario", str(bad))[0] == 0


@pytest.mark.parametrize("entry", [
    "Gamma[1][1][1] = " + "(" * 3000 + "x1" + ")" * 3000,
    "Gamma[1][1][1] = " + "-" * 3000 + "x1",
    "omega = [[0, " + "(" * 3000 + "-1" + ")" * 3000 + "], [1, 0]]",
], ids=["parentheses", "unary minus", "omega cell"])
def test_a_deeply_nested_expression_is_a_diagnostic(tmp_path, capsys, entry):
    # the recursive descent stops at a fixed depth, long before Python's recursion limit
    text = (SCENARIOS / "flat_r2.scn").read_text(encoding="utf-8").rstrip("\n") + "\n"
    bad = tmp_path / "deep.scn"
    bad.write_text(text + entry + "\n")
    code, out, err = run_cli(capsys, "quantize", "--scenario", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"fedconn: line {len(text.splitlines()) + 1}: ")
    assert err.endswith("expression nested deeper than 100 levels\n")
    # the line number locates the entry, which is not echoed
    assert len(err) < 200


@pytest.mark.parametrize("samples, why", [
    ("t1=0", "metric has a pole at sample t1=0"),
    ("t1=1/2 ; t1=-1", "metric not positive at sample t1=-1: leading 1x1 minor is -1"),
])
def test_bad_kahler_sample_is_a_diagnostic(tmp_path, capsys, samples, why):
    bad = tmp_path / "bad.scn"
    bad.write_text(RATIONAL_KAHLER.replace("samples = t1=1 ; t1=2", f"samples = {samples}"))
    code, out, err = run_cli(capsys, "kahler", "--scenario", str(bad))
    assert (code, out) == (2, "")
    assert err == f"fedconn: bad Kahler family: {why}\n"


def test_usage_error(capsys):
    code, _, err = run_cli(capsys, "quantize")
    assert code == 2


def test_list_checks(capsys):
    code, out, _ = run_cli(capsys, "--list-checks")
    assert code == 0
    for cmd in ("quantize", "family", "gauge", "kahler", "verify-all"):
        assert cmd in out


def test_determinism_and_json_parity(tmp_path, capsys):
    args = ("quantize", "--scenario", str(SCENARIOS / "curved_r2.scn"))
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(capsys, *args, "--report", "json")
    payload = json.loads(out3)
    assert payload["summary"]["fail"] == 0
    text_checks = [line for line in out1.splitlines() if line.startswith("[")]
    assert len(payload["checks"]) == len(text_checks)
    for check, line in zip(payload["checks"], text_checks):
        assert check["name"] in line
        assert check["description"] in line


def test_seed_does_not_change_constructed_objects(capsys):
    args = ("family", "--scenario", str(SCENARIOS / "family_r2.scn"))
    _, out1, _ = run_cli(capsys, *args, "--seed", "1")
    _, out2, _ = run_cli(capsys, *args, "--seed", "2")

    def table(out):
        lines = out.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("i_V beta"))
        return lines[start:]

    assert table(out1) == table(out2)


def test_report_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FEDCONN_REPORT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "quantize", "--scenario", str(SCENARIOS / "flat_r2.scn"))
    assert code == 0
    text = (tmp_path / "flat_r2.quantize.txt").read_text()
    assert text == out
    payload = json.loads((tmp_path / "flat_r2.quantize.json").read_text())
    assert payload["command"] == "quantize"


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--scenario", str(SCENARIOS / "flat_r2.scn"))
    assert code == 0
    assert "weyl battery" in out
    assert "cochain battery" in out


def test_naturality_probe_failure_is_a_report_line(capsys, monkeypatch):
    # h * d_x1^(K+1) f is invisible on a basis of degree <= K, so only the
    # naturality probe past that bound sees it
    star = FedosovSetup.star

    def perturbed(self, f, g, order=None):
        out = star(self, f, g, order)
        bump = f.deriv_multi((out.order + 1,) + (0,) * (len(f.roster) - 1))
        return out + series(out.roster, out.order, {1: bump})

    monkeypatch.setattr(FedosovSetup, "star", perturbed)
    code, out, err = run_cli(capsys, "quantize", "--scenario", str(SCENARIOS / "flat_r2.scn"))
    assert code == 1
    assert "[FAIL] naturality: h^k coefficient has differential order <= k\n" \
           "       witness: extracted star differs from the star product on the probe pair " \
           "(x1^4, x1^3) at h^1\n" in out
    assert "Traceback" not in out + err


def test_projected_moyal_sign_mutation_fails(capsys, monkeypatch):
    # the odd-order central weights, which only the direct projections read,
    # negated; the full pairing reads the contractions and is left as it is
    central_weight = WeylContext.central_weight

    def negated_odd(ctx, a1, a2, over_h):
        w = central_weight(ctx, a1, a2, over_h)
        return -w if w is not None and sum(a1) % 2 else w

    monkeypatch.setattr(WeylContext, "central_weight", negated_odd)
    for cmd, name, fails in (
        ("quantize", "flat_r2.scn", ["star axioms: c1(f,g) - c1(g,f) = i{f,g}"]),
        ("family", "family_r2.scn", ["low-order identity", "compatibility", "derivation identity"]),
    ):
        code, out, _ = run_cli(capsys, cmd, "--scenario", str(SCENARIOS / name))
        assert code == 1
        failed = [line[len("[FAIL] "):] for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == len(fails)
        assert all(line.startswith(prefix) for line, prefix in zip(failed, fails))


def failed_lines(out):
    return [line for line in out.splitlines() if line.startswith("[FAIL]")]


def test_family_check_failures_are_report_lines(tmp_path, capsys, monkeypatch):
    # a beta that does not trivialize V[alpha], and s-equations that fail, end
    # as one FAIL line with the message as witness and exit 1
    bad = tmp_path / "family_r2.scn"
    bad.write_text((SCENARIOS / "family_r2.scn").read_text().replace(
        "beta = auto", "beta[t1][1][1] = x2"))
    for cmd in ("family", "gauge"):
        code, out, err = run_cli(capsys, cmd, "--scenario", str(bad))
        assert (code, err) == (1, "")
        assert failed_lines(out) == ["[FAIL] beta invariant: d_M i_V beta = V[alpha]"]
        assert "       witness: d_M i_V beta != V[alpha] for direction t1\n" in out

    variation_S = ConnectionFamily.variation_S
    solve = families.solve_by_degree

    def lowest_part_dropped(derivative, parts, *rest):
        solve(derivative, parts, *rest)
        parts.pop(min(parts))

    for target, name, mutant, witness in (
        # the weight of i_V S in the s-equation, 1 in place of 1/2
        (ConnectionFamily, "variation_S",
         lambda self, p, trunc: variation_S(self, p, trunc).scale(2),
         "s-recursion source fails delta-closedness at degree 3 (direction t1)"),
        # a solved s missing its lowest part fails the postcondition
        (families, "solve_by_degree", lowest_part_dropped,
         "s fails its defining equation at degree 2 (direction t1)"),
    ):
        with monkeypatch.context() as m:
            m.setattr(target, name, mutant)
            for cmd in ("family", "gauge"):
                code, out, err = run_cli(capsys, cmd, "--scenario", str(SCENARIOS / "family_r2.scn"))
                assert (code, err) == (1, "")
                assert failed_lines(out) == [
                    "[FAIL] s equation: direction t1: D_r equation and delta* normalization"]
                assert f"       witness: {witness}\n" in out


def test_jet_symbol_mutations_fail(capsys, monkeypatch):
    jet_wedge = fedosov._jet_wedge
    tau_symbol = FedosovSetup.tau_symbol

    def flipped_xi(a, positions, degree, sink):
        # the sign of Xi = sum xi_i dx^i in the symbol recursion
        jet_wedge(-a, positions, degree, sink)

    def short_symbol(self, degree, max_degree=None):
        # the star read off a symbol one jet degree short
        return tau_symbol(self, degree - 1, max_degree)

    probe = "A(t1) from its symbol differs from p(ad_over_h(i_V s, tau f)) on the probe monomial "
    for target, name, mutant, cmd, scenario, fail, witness in (
        (fedosov, "_jet_wedge", flipped_xi, "quantize", "curved_r2.scn", "naturality",
         "extracted star differs from the star product on the probe pair"),
        (fedosov, "_jet_wedge", flipped_xi, "family", "family_r2.scn", "connection form", probe),
        (FedosovSetup, "tau_symbol", short_symbol, "quantize", "curved_r2.scn", "naturality",
         "extracted star differs from the star product on the probe pair"),
    ):
        with monkeypatch.context() as m:
            m.setattr(target, name, mutant)
            code, out, err = run_cli(capsys, cmd, "--scenario", str(SCENARIOS / scenario))
        assert code == 1
        assert "Traceback" not in out + err
        failed = failed_lines(out)
        assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {fail}: "), failed
        assert f"       witness: {witness}" in out


def test_variation_lemma_failure_is_a_report_line(capsys, monkeypatch):
    # the lemma checked with the factor 1/2: one FAIL line, the witness of the pair loop
    monkeypatch.setattr(kahler, "LEMMA_FACTOR", Fraction(1, 2))
    for name in ("kahler_r2.scn", "kahler_r4.scn"):
        code, out, err = run_cli(capsys, "kahler", "--scenario", str(SCENARIOS / name))
        assert (code, err) == (1, "") and "Traceback" not in out
        assert failed_lines(out) == [
            "[FAIL] variation lemma: V[c1] = (1/4)(Delta_G(fg) - Delta_G(f)g - Delta_G(g)f)"]
        sc = Scenario.load(SCENARIOS / name)
        fam = sc.build_kahler()
        p = family_directions(fam, sc.build_F(fam.sym))[0]
        ok, wit = lemma_by_pairs(fam, p, sc.basis_degree, Fraction(1, 2))
        assert not ok
        assert f"       witness: direction {p}: {wit}\n" in out


def test_low_order_identity_failure_is_a_report_line(capsys, monkeypatch):
    # the identity checked on A(t1) + h x2 d1: one FAIL line, the witness of the loop
    lowest_order_identity = cli.lowest_order_identity
    seen = []

    def shifted(family, A, beta, basis_degree):
        roster = family.sym.roster
        extra = MultiDiffOp(roster, 1, A["t1"].order, {(1, ((1, 0),)): Poly.var(roster, "x2")})
        mutant = A.shifted("t1", extra)
        seen.append(lowest_order_by_loops(family, mutant, beta, basis_degree))
        return lowest_order_identity(family, mutant, beta, basis_degree)

    monkeypatch.setattr(cli, "lowest_order_identity", shifted)
    for name in ("family_r2.scn", "family2_r2.scn"):
        code, out, err = run_cli(capsys, "family", "--scenario", str(SCENARIOS / name))
        assert (code, err) == (1, "") and "Traceback" not in out
        assert failed_lines(out) == [
            "[FAIL] low-order identity: A(V)(f) = -h i_V i_{X_f} beta_1 mod h^2"]
        ok, wit = seen.pop()
        assert not ok and wit.startswith("direction t1, f = x1: h^1 part ")
        assert f"       witness: {wit}\n" in out


def test_curvature_consistency_failure_is_a_report_line(capsys, monkeypatch):
    # the direct curvature formed from A(t1) + h x1 d2: one FAIL line whose
    # witness prints both sides as h-series, exit 1
    verify_curvature = cli.verify_curvature

    def shifted(family, A, s_forms, basis_degree):
        roster = family.sym.roster
        extra = MultiDiffOp(roster, 1, A["t1"].order, {(1, ((0, 1),)): Poly.var(roster, "x1")})
        return verify_curvature(family, A.shifted("t1", extra), s_forms, basis_degree)

    monkeypatch.setattr(cli, "verify_curvature", shifted)
    code, out, err = run_cli(capsys, "family", "--scenario", str(SCENARIOS / "family2_r2.scn"))
    assert (code, err) == (1, "") and "Traceback" not in out
    assert failed_lines(out) == [
        "[FAIL] curvature consistency: direct curvature equals the s-expression"]
    assert ("       witness: directions (t1,t2), f = x2: "
            "h^2*-1/3*x1*x2 + h^3*(1/3*t1*x1^2*x2 + 2/3*t2*x1*x2^2) != 0\n") in out


@pytest.mark.parametrize("target, witness", [
    # V[I] negated: the two routes to G(V) disagree
    ("I", "the two computations of the variation bivector disagree (direction t1)"),
    # V[M] negated: the two routes to V[c1] disagree
    ("_c1", "V[c1] disagrees with (1/2) df G(V) dg at ("),
])
def test_kahler_variation_failures_are_report_lines(capsys, monkeypatch, target, witness):
    built = []
    init = kahler.LinearKahlerFamily.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    deriv = kahler.mat_deriv

    def negated(a, name):
        d = deriv(a, name)
        return kahler.mat_map(operator.neg, d) if any(a is getattr(f, target) for f in built) else d

    monkeypatch.setattr(kahler.LinearKahlerFamily, "__init__", recording_init)
    monkeypatch.setattr(kahler, "mat_deriv", negated)
    code, out, err = run_cli(capsys, "kahler", "--scenario", str(SCENARIOS / "kahler_r2.scn"))
    assert (code, err) == (1, "")
    assert "Traceback" not in out
    later = f"[FAIL] variation bivector: {VARIATION}"
    if target == "I":
        # the direction's own line, then the step that needed its data
        assert failed_lines(out) == ["[FAIL] variation bivector: direction t1", later]
        fam, = built
        for _ in range(3):  # a failing direction is never cached
            with pytest.raises(kahler.VariationError, match="two computations"):
                fam.variation("t1")
        assert fam._variations == {}
    else:
        assert failed_lines(out) == [later]
    assert f"       witness: {witness}" in out


def test_poincare_potential_failure_is_a_report_line(capsys, monkeypatch):
    # a potential that misses d_M gamma = alpha - alpha(basepoint) by h dx1^dx2
    potential = families.poincare_potential

    def off_by_h_x1_dx2(form):
        return potential(form) + WeylForm.from_poly(
            form.ctx, form.trunc, Poly.var(form.ctx.roster, "x1"), h_power=1, J=(1,))

    monkeypatch.setattr(families, "poincare_potential", off_by_h_x1_dx2)
    code, out, err = run_cli(capsys, "family", "--scenario", str(SCENARIOS / "family_r2.scn"))
    assert (code, err) == (1, "")
    assert failed_lines(out) == ["[FAIL] beta invariant: d_M i_V beta = V[alpha]"]
    assert ("       witness: Poincare potential failed on a closed form: d_M gamma differs "
            "from alpha - alpha(basepoint) at h^1\n") in out
    assert "Traceback" not in out


def _extra_y2_on_two_forms(cov):
    def mutant(self, a):
        # y2 dx1^dx2 added to d_nabla of every 1-form: still y-linear, but the
        # curvature tensor read off d_nabla^2 loses its symmetry
        out = cov(self, a)
        if any(len(J) == 1 for _, _, J in a.terms):
            one = Poly.const(self.sym.roster, 1)
            out = out + WeylForm(self.sym, a.trunc, {(0, (0, 1), (0, 1)): one})
        return out
    return mutant


def _extra_y1_squared(cov):
    def mutant(self, a):
        # y1^2 dx1 added to every d_nabla: d_nabla^2 is no longer y-linear
        return cov(self, a) + WeylForm(self.sym, a.trunc,
                                       {(0, (2, 0), (0,)): Poly.const(self.sym.roster, 1)})
    return mutant


def _asymmetric_dgamma(table):
    def mutant(self, name):
        # 1 added to V[Gamma]^1_11: the i_V S read off V[d_nabla] loses its symmetry
        out = dict(table(self, name))
        one = Poly.const(self.sym.roster, 1)
        out[(0, 0, 0)] = out[(0, 0, 0)] + one if (0, 0, 0) in out else one
        return out
    return mutant


@pytest.mark.parametrize("name, mutant, commands, scenario, check, witness", [
    ("cov_deriv", _extra_y1_squared, ("quantize", "verify-all"), "curved_r2.scn",
     "curvature action", "d_nabla^2 y1 has a term of y-degree 2 at h^0"),
    ("cov_deriv", _extra_y2_on_two_forms, ("quantize",), "curved_r2.scn",
     "curvature symmetry", "entries (1,2) and (2,1) of the curvature tensor on dx1^dx2 differ"),
    ("t_derivative_table", _asymmetric_dgamma, ("family", "gauge"), "family_r2.scn",
     "variation symmetry", "entries (1,2) and (2,1) of i_V S on dx1 differ (direction t1)"),
])
def test_symplectic_check_failures_are_report_lines(capsys, monkeypatch, name, mutant, commands,
                                                    scenario, check, witness):
    monkeypatch.setattr(ConnectionFamily, name, mutant(getattr(ConnectionFamily, name)))
    for cmd in commands:
        code, out, err = run_cli(capsys, cmd, "--scenario", str(SCENARIOS / scenario))
        assert (code, err) == (1, "")
        assert "Traceback" not in out
        assert failed_lines(out) == [f"[FAIL] {check}: {cli.SYMPLECTIC[check]}"]
        assert f"       witness: {witness}\n" in out


def test_h_division_remainder_is_a_report_line(capsys, monkeypatch):
    # every left factor of ad_over_h lowered by one power of h: a pair at
    # h^0 now brackets to an h^0 part, which h cannot divide
    pair = WeylForm._mw_pair

    def mutant(self, key1, c1, key2, c2, out, commutator, over_h):
        if over_h:
            key1 = (key1[0] - 1,) + key1[1:]
        return pair(self, key1, c1, key2, c2, out, commutator, over_h)

    monkeypatch.setattr(WeylForm, "_mw_pair", mutant)
    with pytest.raises(HDivisionError):
        Scenario.load(SCENARIOS / "curved_r2.scn").build_setup(8)
    check = "h-division"
    assert (check, cli.ALGEBRA[check] + " (listed on failure)") in cli.CHECKS["quantize"]
    for cmd in ("quantize", "family"):
        scenario = "curved_r2.scn" if cmd == "quantize" else "family_r2.scn"
        code, out, err = run_cli(capsys, cmd, "--scenario", str(SCENARIOS / scenario))
        assert (code, err) == (1, "") and "Traceback" not in out
        assert failed_lines(out) == [f"[FAIL] {check}: {cli.ALGEBRA[check]}"]
        assert "       witness: the bracket of h^-1 y^(" in out


def test_operator_reconstruction_bound_raises_a_named_error():
    # d1^2 rebuilt with slot order 1 is zero, and the probe x1^2 tells it apart
    roster = ("x1", "x2")

    def second(f):
        return MultiDiffOp.function(roster, f.differentiate("x1").differentiate("x1"), 0)

    assert operator_from_callable(second, roster, 1, 0, lambda k: 2).apply(
        Poly.var(roster, "x1") ** 2) == MultiDiffOp.function(roster, Poly.const(roster, 2), 0)
    with pytest.raises(ReconstructionError) as exc:
        operator_from_callable(second, roster, 1, 0, lambda k: 1)
    witness = "the operator rebuilt to slot order 1 differs from its values on (x1^2) at h^0"
    assert str(exc.value) == witness


def test_weyl_battery_failure_is_a_report_line(capsys, monkeypatch):
    # the plain Moyal product without its second-order contraction: no longer
    # associative.  Only WeylForm.mw reads the plain product in full, and only
    # the battery calls it, so every other check of verify-all still passes.
    contractions, mw = WeylContext.contractions, WeylForm.mw

    def no_second_order(ctx, a1, a2, commutator, over_h):
        return tuple(order for order in contractions(ctx, a1, a2, commutator, over_h)
                     if order[0] != 2)

    def mutated(self, other, max_degree=None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(WeylContext, "contractions", no_second_order)
            return mw(self, other, max_degree)

    monkeypatch.setattr(WeylForm, "mw", mutated)
    code, out, err = run_cli(capsys, "verify-all", "--scenario", str(SCENARIOS / "flat_r2.scn"))
    assert (code, err) == (1, "") and "Traceback" not in out
    assert failed_lines(out) == ["[FAIL] weyl battery: Moyal-Weyl associativity"]
    assert "       witness: failed on seeded instance 6\n" in out


def test_order1_closedness_failure_is_a_report_line(capsys, monkeypatch):
    # A1(t2) plus t1 d/dx1, a vector field: d_t1 A1(t2) - d_t2 A1(t1) = d/dx1.
    # A vector field brackets to zero with the pointwise product, so the
    # derivation identity still holds.  Flatness fails too: A1 = -V[P1] in
    # every direction would make d_T A1 = 0, since t-derivatives commute.
    a1_data = kahler.LinearKahlerFamily.a1_data

    def shifted(self, direction, F):
        A = a1_data(self, direction, F)
        if direction != "t2":
            return A
        roster = self.sym.roster
        return A + MultiDiffOp(roster, 1, 0, {(0, ((1, 0, 0, 0),)): Poly.var(roster, "t1")})

    monkeypatch.setattr(kahler.LinearKahlerFamily, "a1_data", shifted)
    code, out, err = run_cli(capsys, "kahler", "--scenario", str(SCENARIOS / "kahler_r4.scn"))
    assert (code, err) == (1, "") and "Traceback" not in out
    assert failed_lines(out) == ["[FAIL] order-1 flatness: flatness potential V[-P1] = A1(V)",
                                 "[FAIL] order-1 closedness: closedness d_T A1 = 0"]
    assert "       witness: direction t2\n" in out
    assert "       witness: directions (t1,t2)\n" in out


@pytest.mark.parametrize("check", sorted(cli.FAILURES))
def test_a_check_error_ends_the_run_as_its_fail_line(capsys, monkeypatch, check):
    # raised inside the family runner after its first checks have passed
    def failing(family, s_forms):
        raise CheckError("the witness", check)

    monkeypatch.setattr(cli, "connection_form", failing)
    code, out, err = run_cli(capsys, "family", "--scenario", str(SCENARIOS / "family_r2.scn"))
    assert (code, err) == (1, "")
    assert "Traceback" not in out
    assert "[PASS] s equation: direction t1: D_r equation and delta* normalization\n" in out
    assert failed_lines(out) == [f"[FAIL] {check}: {cli.FAILURES[check]}"]
    assert f"[FAIL] {check}: {cli.FAILURES[check]}\n       witness: the witness\n" in out


@pytest.mark.parametrize("error, line", [
    (fedosov.NotAbelianError("w"), f"[FAIL] abelian connection: {cli.ABELIAN}"),
    (fedosov.FedosovCheckError("r recursion", "w"), f"[FAIL] r recursion: {cli.FEDOSOV['r recursion']}"),
    (families.SolvabilityError("w"), "[FAIL] beta invariant: d_M i_V beta = V[alpha]"),
    (families.SolvabilityError("w", "s equation", "direction t1: D_r equation"),
     "[FAIL] s equation: direction t1: D_r equation"),
    (transport.GaugeError("w"),
     "[FAIL] gauge equation: inductive solution of V[P] = P A'(V) - A(V) P"),
    (HDivisionError("w"), f"[FAIL] h-division: {cli.ALGEBRA['h-division']}"),
    (kahler.VariationError("w"), f"[FAIL] variation bivector: {VARIATION}"),
])
def test_each_check_error_class_names_its_fail_line(capsys, monkeypatch, error, line):
    def failing(self, trunc):
        raise error

    monkeypatch.setattr(Scenario, "build_setup", failing)
    code, out, err = run_cli(capsys, "quantize", "--scenario", str(SCENARIOS / "flat_r2.scn"))
    assert (code, err) == (1, "")
    assert "Traceback" not in out
    assert failed_lines(out) == [line]
    assert f"{line}\n       witness: w\n" in out
