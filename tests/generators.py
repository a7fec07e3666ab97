"""Seeded random polynomials and Weyl forms for the tests.

No check of the package samples them: they feed the tests' own randomized
comparisons.  All randomness flows through an explicit ``random.Random``, so
a fixed seed reproduces the same objects.
"""

import random

from fedconn.polynomials import Poly, add_term
from fedconn.properties import random_scalar
from fedconn.symplectic import SymplecticData
from fedconn.weylforms import WeylForm


def random_poly(roster, rng: random.Random, degree: int = 2, terms: int = 3,
                params=(), param_degree: int = 1) -> Poly:
    roster = tuple(roster)
    out = Poly.zero(roster)
    for _ in range(terms):
        exps = [0] * len(roster)
        budget = rng.randint(0, degree)
        for _ in range(budget):
            exps[rng.randrange(len(roster))] += 1
        coeff = Poly.const((), random_scalar(rng))
        for p in params:
            if rng.random() < 0.5:
                coeff = coeff * Poly.var((), p) ** rng.randint(1, param_degree)
        out = out + Poly.monomial(roster, tuple(exps), coeff)
    return out


def random_weyl_form(sym: SymplecticData, trunc: int, rng: random.Random,
                     terms: int = 5, max_h: int = 2, max_y: int = 2,
                     max_x: int = 2, max_form: int = None) -> WeylForm:
    table = {}
    n = sym.dim
    if max_form is None:
        max_form = n
    for _ in range(terms):
        k = rng.randint(0, max_h)
        alpha = tuple(rng.randint(0, max_y) for _ in range(n))
        if 2 * k + sum(alpha) > trunc:
            continue
        q = rng.randint(0, max_form)
        J = tuple(sorted(rng.sample(range(n), q)))
        exps = tuple(rng.randint(0, max_x) for _ in range(n))
        c = Poly.monomial(sym.roster, exps, random_scalar(rng))
        add_term(table, (k, alpha, J), c)
    return WeylForm(sym, trunc, table)
