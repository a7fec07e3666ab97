"""Seeded generator for the curved R^4 scenario of the quantize-curved workload.

The connection is ``Gamma^k_ij = pi^{kl} T_lij`` with ``T`` totally symmetric
and x-linear in the first symplectic block, so it is symplectic and
torsion-free by construction.  ``alpha`` has one closed h^1 term per block and
a constant h^2 term.  The support and the magnitudes of the small integer
coefficients are the same for every seed and only their signs are drawn, so
every seed gives the same term counts and coefficient sizes.
"""

from __future__ import annotations

import random

NAME = "curved_r4.scn"

OMEGA = "[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]"


MAGNITUDES = (1, 2, 1, 2, 2, 1, 1)


def _term(c: int, var: str = "") -> str:
    if not var:
        return str(c)
    if c == 1:
        return var
    if c == -1:
        return f"-{var}"
    return f"{c}*{var}"


def curved_r4(seed: int) -> str:
    """Scenario text for ``seed``; the same seed always gives the same text."""
    rng = random.Random(seed)
    c1, c2, c3, c4, b1, b2, b3 = (rng.choice((-m, m)) for m in MAGNITUDES)
    # T_111 = c1*x2, T_112 = c2, T_122 = c3*x1, T_222 = c4*x2 (1-based);
    # with pi^{12} = 1 and pi^{21} = -1: Gamma^1_ij = T_2ij, Gamma^2_ij = -T_1ij.
    gamma = {
        (1, 1, 1): _term(c2),
        (1, 1, 2): _term(c3, "x1"),
        (1, 2, 2): _term(c4, "x2"),
        (2, 1, 1): _term(-c1, "x2"),
        (2, 1, 2): _term(-c2),
        (2, 2, 2): _term(-c3, "x1"),
    }
    lines = [
        f"# generated curved R^4 scenario, seed {seed}",
        "dimension = 4",
        "params = 0",
        "order = 2",
        "basis_degree = 2",
        f"seed = {seed}",
        "",
        f"omega = {OMEGA}",
        "",
    ]
    lines += [f"Gamma[{k}][{i}][{j}] = {v}" for (k, i, j), v in gamma.items()]
    lines += [
        "",
        f"alpha[1][1][2] = {_term(b1, 'x1')}",
        f"alpha[1][3][4] = {_term(b2, 'x3')}",
        f"alpha[2][1][3] = {_term(b3)}",
    ]
    return "\n".join(lines) + "\n"


def check(path) -> str | None:
    """Why the scenario file at ``path`` is unusable, or None.

    It must parse, and its connection must pass ``ConnectionFamily.validate()``.
    """
    from fedconn.scenario import Scenario, ScenarioError

    try:
        sc = Scenario.load(path)
        ok, witness = sc.build_connection(sc.build_symplectic()).validate()
    except (ScenarioError, ValueError) as exc:
        return f"does not parse: {exc}"
    return None if ok else f"connection is not symplectic: {witness}"

