"""Seeded generator for a curved R^6 scenario, one Darboux block past the benchmark's R^4.

    python3 tools/curved_r6.py [--seed N] > curved_r6.scn

The text is the curved R^4 of ``perfbench/gen.py`` at the same seed, with a
flat third Darboux block (x5, x6) added to omega and one more closed h^1
term, ``alpha[1][5][6] = x5``.  The connection is still ``pi T`` with ``T``
totally symmetric, so it stays symplectic and torsion-free, and the new term
is closed.  ``perfbench/gen.py`` is read here, never changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = "curved_r6.scn"

OMEGA = ("[[0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0], "
         "[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]")


def load_gen():
    """``perfbench/gen.py`` of this checkout, the generator of the curved R^4."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def curved_r6(seed: int) -> str:
    """Scenario text for ``seed``; the same seed always gives the same text."""
    gen = load_gen()
    text = gen.curved_r4(seed)
    for old, new in ((f"curved R^4 scenario, seed {seed}", f"curved R^6 scenario, seed {seed}"),
                     ("dimension = 4", "dimension = 6"),
                     (f"omega = {gen.OMEGA}", f"omega = {OMEGA}")):
        if old not in text:
            raise ValueError(f"perfbench/gen.py no longer writes {old!r}")
        text = text.replace(old, new)
    return text + "alpha[1][5][6] = x5\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.stdout.write(curved_r6(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
