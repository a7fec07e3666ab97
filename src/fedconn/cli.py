"""Scenario-driven command-line runner.

    fedconn quantize   --scenario FILE [--order K]   star coefficient tables + axioms
    fedconn family     --scenario FILE [--order K]   trivialization -> s -> A + checks
    fedconn gauge      --scenario FILE [--order K]   gauge equivalence of two connections
    fedconn kahler     --scenario FILE               order-1 report for a linear family
    fedconn verify-all --scenario FILE [--order K]   infrastructure battery + all applicable

Common flags: --report text|json, --seed N, --list-checks.  Exit code 0 when
every check passes, 1 on check failures, 2 on scenario/usage errors.  A check
that fails inside a runner raises ``CheckError``, which ends the run as one
FAIL line (``main``), after the checks that ran.  With
FEDCONN_REPORT_DIR set, reports are also written there in both formats.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from .polynomials import Poly
from .fedosov import c1_antisymmetry_witness, validate_star_axioms
from .families import (
    solve_s, connection_form, verify_compatibility, lowest_order_identity, verify_curvature,
    derivation_identity,
)
from .transport import (
    parallel_transport, conjugation_check, gauge_equivalence,
    self_equivalence_check, flatness_check,
)
from .kahler import (
    VariationError, family_directions, verify_lemma_vc1, order1_hitchin_check, rigidity_check,
)
from .properties import weyl_battery, cochain_battery
from .reports import CheckError, Report
from .scenario import Scenario, ScenarioError

GAUGE_EQUATION = "V[P] = P A'(V) - A(V) P to the requested order"
ABELIAN = "the Weyl curvature of the solved r is scalar below the truncation"
# the checks inside Fedosov's construction (``FedosovCheckError.check``)
FEDOSOV = {
    "r recursion": "the source of r is delta-closed at every degree",
    "r normalization": "delta* r = 0",
    "Weyl curvature": "the Weyl curvature of the solved r equals alpha below the truncation",
    "flatness of D_r": "D_r^2 = 0 on the fiber generators below degree trunc - 1",
    "flat sections": "the source of tau(f) and of its symbol is delta-closed at every degree",
}
# the checks inside the symplectic calculus
SYMPLECTIC = {
    "curvature action": "d_nabla^2 acts y-linearly on the fiber generators",
    "curvature symmetry": "the Weyl curvature solved from d_nabla^2 is a symmetric tensor",
    "variation symmetry": "i_V S solved from V[d_nabla] is a symmetric tensor",
}
# checks of the operator algebra itself (``HDivisionError``)
ALGEBRA = {
    "h-division": "every bracket ad_over_h divides by h is O(h)",
}
NATURALITY = "h^k coefficient has differential order <= k"
CONNECTION_FORM = "A(V) from its symbol matches p(ad_over_h(i_V s, tau f)) past its order bound"
VARIATION = "G(V) by both routes, symmetric, pure type, and V[c1] = (1/2) df G(V) dg"
# the FAIL line's description of each check that can end a run (``CheckError.check``),
# for a CheckError that brings none of its own
FAILURES = {
    "abelian connection": ABELIAN, **FEDOSOV, **SYMPLECTIC, **ALGEBRA,
    "naturality": NATURALITY,
    "beta invariant": "d_M i_V beta = V[alpha]",
    "connection form": CONNECTION_FORM,
    "gauge equation": GAUGE_EQUATION,
    "variation bivector": VARIATION,
}


def _listed_on_failure(*names):
    return [(name, FAILURES[name] + " (listed on failure)") for name in names]


FEDOSOV_CHECKS = _listed_on_failure(
    "curvature action", "curvature symmetry", "abelian connection", *FEDOSOV, "h-division")

CHECKS = {
    "quantize": [
        *FEDOSOV_CHECKS,
        ("star axioms", "unitality, c0 = product, c1 antisymmetry, associativity"),
        ("naturality", "h^k coefficient has differential order <= k per argument"),
    ],
    "family": [
        *FEDOSOV_CHECKS,
        *_listed_on_failure("variation symmetry"),
        ("beta invariant", "d_M i_V beta = V[alpha] for every direction"),
        ("s equation", "D_r(i_V s) matches its source with delta* i_V s = 0"),
        ("connection form", "A(V) from its symbol matches its formula past its order bound "
                            "(listed on failure)"),
        ("low-order identity", "A(V)(f) = -h i_V i_{X_f} beta_1 mod h^2"),
        ("compatibility", "d_H A(V) = V[star] on the monomial basis"),
        ("derivation identity", "D_V(f*g) = D_V(f)*g + f*D_V(g) on t-dependent sections"),
        ("curvature consistency", "direct curvature of A equals the s-expression"),
    ],
    "gauge": [
        *FEDOSOV_CHECKS,
        *_listed_on_failure("variation symmetry"),
        ("beta invariant", "d_M i_V beta = V[alpha] for both trivializations (listed on failure)"),
        ("s equation", "D_r(i_V s) matches its source (listed on failure)"),
        ("connection form", "A(V) from its symbol matches its formula (listed on failure)"),
        ("flatness", "direct curvature of both connections vanishes"),
        ("compatibility", "both connections satisfy d_H A(V) = V[star]"),
        ("gauge equation", GAUGE_EQUATION),
        ("self-equivalence", "P(f star g) = P(f) star P(g) on the basis"),
        ("transport conjugation", "Phi(t) conjugates star_0 to star_t on the basis"),
    ],
    "kahler": [
        ("variation bivector", "both computations of G(V) agree, symmetric, pure type; "
                               "listed again when a later step finds G(V) or V[c1] failing"),
        ("c1 antisymmetry", "c1(f,g) - c1(g,f) = i{f,g}"),
        ("variation lemma", "V[c1] matches the quarter-Laplacian expression"),
        ("order-1 derivation", "the order-1 connection term satisfies the Leibniz identity"),
        ("order-1 flatness", "V[-P1] = A1(V)"),
        ("order-1 closedness", "d_T A1 = 0"),
        ("rigidity", "holomorphic variation part is covariantly constant; never FAIL: holds "
                     "identically for x-constant (linear) families, n/a for x-dependent input"),
    ],
    "verify-all": [
        ("weyl battery", "homotopy, differentials, associativity, unit, h-divisibility"),
        ("cochain battery", "[star,star] = 0, d_H^2 = 0, graded Jacobi and antisymmetry"),
        *FEDOSOV_CHECKS,
    ],
}


def list_checks() -> str:
    lines = []
    for cmd in ("quantize", "family", "gauge", "kahler", "verify-all"):
        lines.append(cmd)
        for name, desc in CHECKS[cmd]:
            lines.append(f"  {name}: {desc}")
    return "\n".join(lines) + "\n"


def _monomial_table(report, star, degree):
    report.note("star products on the monomial basis:")
    for (f, g), value in star.basis_table(degree):
        report.note(f"  ({f}) * ({g}) = {value}")


def run_quantize(sc: Scenario, report: Report):
    """The star to order K, its axioms, and its tables.

    The star reads ``r``, tau and the symbol of tau to total degree 2K - 1
    (``star_depth``), so the setup is built at truncation 2K, and ``r`` is
    solved and checked to degree 2K - 1.
    """
    setup = sc.build_setup(2 * sc.order)
    star = setup.extract_star(sc.order)
    for name, ok, wit in validate_star_axioms(star, setup.sym, sc.basis_degree):
        report.add("star axioms", name, ok, wit)
    natural = all(star.slot_order(k) <= k for k in range(sc.order + 1))
    report.add("naturality", NATURALITY, natural)
    report.note("coefficients:")
    for line in star.serialize().splitlines():
        report.note(f"  {line}")
    _monomial_table(report, star, min(sc.basis_degree, 2))
    return report


def _family_pipeline(sc: Scenario, report: Report):
    family = sc.build_family()
    beta = sc.build_beta(family)
    report.add("beta invariant", f"d_M i_V beta = V[alpha] ({beta.provenance})", True)
    s_forms = {}
    for p in family.params:
        s_forms[p] = solve_s(family, beta, p)
        report.add("s equation", f"direction {p}: D_r equation and delta* normalization", True)
    A = connection_form(family, s_forms)
    family.extract_star()
    return family, beta, s_forms, A


def run_family(sc: Scenario, report: Report):
    family, beta, s_forms, A = _family_pipeline(sc, report)
    ok, wit = lowest_order_identity(family, A, beta, sc.basis_degree)
    report.add("low-order identity", "A(V)(f) = -h i_V i_{X_f} beta_1 mod h^2", ok, wit)
    ok, wit = verify_compatibility(family, A, sc.basis_degree)
    report.add("compatibility", "d_H A(V) = V[star] on the monomial basis", ok, wit)
    ok, wit = derivation_identity(family, A, min(sc.basis_degree, 2))
    report.add("derivation identity", "D_V is a derivation on t-dependent sections", ok, wit)
    ok, wit = verify_curvature(family, A, s_forms, sc.basis_degree)
    report.add("curvature consistency", "direct curvature equals the s-expression", ok, wit)
    for p in family.params:
        report.note(f"i_V beta for {p}:")
        for line in beta[p].serialize().splitlines():
            report.note(f"  {line}")
        report.note(f"i_V s for {p} by total degree:")
        for d in range(family.trunc + 1):
            h = s_forms[p].homogeneous(d)
            if not h.is_zero():
                report.note(f"  degree {d}:")
                for line in h.serialize().splitlines():
                    report.note(f"    {line}")
        report.note(f"A({p}):")
        for line in A[p].serialize().splitlines():
            report.note(f"  {line}")
        report.note(f"A({p}) on the monomial basis:")
        for (f,), value in A[p].basis_table(min(sc.basis_degree, 2)):
            report.note(f"  A({p})({f}) = {value}")
    return report


def _connection(family, beta):
    """The connection form of the trivialization ``beta``; its s forms end here."""
    return connection_form(family, {p: solve_s(family, beta, p) for p in family.params})


def run_gauge(sc: Scenario, report: Report):
    family = sc.build_family()
    base, second = sc.build_gauge_pair(family)
    A = _connection(family, base)
    B = _connection(family, second)
    family.extract_star()
    # every check from here on reads operators only
    family.setup.release_weyl_stage()
    for label, conn in (("D", A), ("D'", B)):
        ok, wit = flatness_check(family, conn)
        report.add("flatness", f"{label}: direct curvature vanishes", ok, wit)
        ok, wit = verify_compatibility(family, conn, min(sc.basis_degree, 2))
        report.add("compatibility", f"{label}: d_H A(V) = V[star]", ok, wit)
        conn.drop_coboundaries()
    P = gauge_equivalence(family, A, B, sc.order)
    report.add("gauge equation", GAUGE_EQUATION, True)
    ok, wit = self_equivalence_check(family, P, min(sc.basis_degree, 2))
    report.add("self-equivalence", "P(f star g) = P(f) star P(g)", ok, wit)
    P_lines = P.serialize().splitlines()
    del P
    axis = family.params[0]
    phi = parallel_transport(family, A, axis)
    ok, wit = conjugation_check(family, phi, axis, basis_degree=min(sc.basis_degree, 2))
    report.add("transport conjugation", f"Phi(t) conjugates star_0 to star_t along {axis}",
               ok, wit)
    report.note("P by h-order:")
    for line in P_lines:
        report.note(f"  {line}")
    return report


def run_kahler(sc: Scenario, report: Report):
    fam = sc.build_kahler()
    F = sc.build_F(fam.sym)
    directions = family_directions(fam, F)
    for p in directions:
        try:
            fam.variation(p)
            report.add("variation bivector", f"direction {p}: two routes agree, pure type", True)
        except VariationError as exc:
            report.add("variation bivector", f"direction {p}", False, str(exc))
    wit = c1_antisymmetry_witness(fam.c1_operator(), fam.sym, sc.basis_degree)
    report.add("c1 antisymmetry", "c1(f,g) - c1(g,f) = i{f,g}", wit is None, wit)
    ok_all, wit_all = True, None
    for p in directions:
        ok, wit = verify_lemma_vc1(fam, p, sc.basis_degree)
        if not ok:
            ok_all, wit_all = False, f"direction {p}: {wit}"
            break
    report.add("variation lemma", "V[c1] = (1/4)(Delta_G(fg) - Delta_G(f)g - Delta_G(g)f)",
               ok_all, wit_all)
    names = ("order-1 derivation", "order-1 flatness", "order-1 closedness")
    for name, (desc, ok, wit) in zip(
            names, order1_hitchin_check(fam, F, sc.basis_degree, directions=directions)):
        report.add(name, desc, ok, wit)
    for p in directions:
        status, wit = rigidity_check(fam, p)
        if status == "pass":
            report.add("rigidity", f"direction {p}", True)
        else:
            report.add_na("rigidity", f"direction {p}", wit)
    for p in directions:
        report.note(f"H({p}) = {fam.operator_H(p, F)}")
        report.note(f"E({p})(x1) = {fam.operator_E(p, F, Poly.var(fam.sym.roster, 'x1'))}")
    return report


def run_verify_all(sc: Scenario, report: Report):
    sym = sc.build_symplectic()
    for name, ok, wit in weyl_battery(sym, 2 * sc.order + 2, sc.basis_degree):
        report.add("weyl battery", name, ok, wit)
    for name, ok, wit in cochain_battery(sym, sc.order, random.Random(sc.seed), count=5):
        report.add("cochain battery", name, ok, wit)
    run_quantize(sc, report)
    if sc.params >= 1:
        run_family(sc, report)
        if sc.gauge_shift:
            run_gauge(sc, report)
    if sc.I_entries:
        run_kahler(sc, report)
    return report


RUNNERS = {
    "quantize": run_quantize,
    "family": run_family,
    "gauge": run_gauge,
    "kahler": run_kahler,
    "verify-all": run_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedconn",
        description="Exact verification of Fedosov star products and formal connections.",
    )
    parser.add_argument("command", nargs="?", choices=sorted(RUNNERS))
    parser.add_argument("--scenario", help="path to a scenario file")
    parser.add_argument("--order", type=int, help="h-order K (overrides the scenario)")
    parser.add_argument("--seed", type=int, help="seed of verify-all's cochain battery")
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--list-checks", action="store_true",
                        help="enumerate every check with its description")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_checks:
        sys.stdout.write(list_checks())
        return 0
    if not args.command or not args.scenario:
        parser.print_usage(sys.stderr)
        sys.stderr.write("fedconn: a command and --scenario are required\n")
        return 2
    if args.order is not None and args.order < 1:
        sys.stderr.write(f"fedconn: --order must be >= 1, got {args.order}\n")
        return 2
    try:
        sc = Scenario.load(args.scenario)
        if args.order is not None:
            sc.order = args.order
        if args.seed is not None:
            sc.seed = args.seed
        report = Report(args.command, Path(args.scenario).name, sc.seed)
        RUNNERS[args.command](sc, report)
    except CheckError as exc:
        # raised after the report exists, so the checks run so far stay; caught
        # first, since some (NotAbelianError, SolvabilityError, GaugeError) are
        # ValueErrors too, but failed checks of the math, not bad input
        report.add(exc.check, exc.description or FAILURES[exc.check], False, str(exc))
    except (ScenarioError, OSError, ValueError) as exc:
        sys.stderr.write(f"fedconn: {exc}\n")
        return 2
    rendered = report.render_text() if args.report == "text" else report.render_json()
    sys.stdout.write(rendered)
    outdir = os.environ.get("FEDCONN_REPORT_DIR")
    if outdir:
        stem = Path(args.scenario).stem
        base = Path(outdir) / f"{stem}.{args.command}"
        base.parent.mkdir(parents=True, exist_ok=True)
        base.with_suffix(base.suffix + ".txt").write_text(report.render_text(), encoding="utf-8")
        base.with_suffix(base.suffix + ".json").write_text(report.render_json(), encoding="utf-8")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
