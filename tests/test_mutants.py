"""The registry of mutants: each entry breaks one part of the program and
names the CLI run that must catch it, with the FAIL lines and witnesses that
run must end in, exit 1 and no traceback.  A check of ``cli.CHECKS`` with an
entry here is known to fail when the code it guards is wrong."""

from pathlib import Path

import pytest

from fedconn import cli
from fedconn.cli import main

from conftest import mw_without_second_order, pi_transposed

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# mutant -> (argv, [(FAIL line, witness), ...])
MUTANTS = {
    pi_transposed: (
        ["verify-all", "--scenario", str(SCENARIOS / "family_sheared_r2.scn")],
        [("[FAIL] weyl battery: delta = -ad_over_h(omega_tilde)", "fails on (y^(0,1))"),
         (f"[FAIL] flatness of D_r: {cli.FEDOSOV['flatness of D_r']}",
          "D_r fails to square to zero at degree 1")]),
    # the battery samples nothing, so its witness does not move with the seed
    mw_without_second_order: (
        ["verify-all", "--scenario", str(SCENARIOS / "flat_r2.scn"), "--seed", "4"],
        [("[FAIL] weyl battery: Moyal-Weyl associativity",
          "fails on (y^(0,1), y^(0,1), y^(2,0))")]),
}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.__name__)
def test_a_mutant_ends_in_its_fail_lines(capsys, monkeypatch, mutant):
    argv, fails = MUTANTS[mutant]
    mutant(monkeypatch)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (1, "") and "Traceback" not in out
    lines = out.splitlines()
    assert [(line, lines[i + 1]) for i, line in enumerate(lines) if line.startswith("[FAIL]")] \
        == [(line, f"       witness: {witness}") for line, witness in fails]
