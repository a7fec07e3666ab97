"""The identity batteries of ``verify-all``.

The Weyl battery decides each identity once, exactly, on the basis the
other checks use: e = h^k y^a dx^J with |a| <= ``basis_degree`` and
2k + |a| <= trunc.  Each argument slot s is one form, the sum of tag_i e_i
over its basis, with tag_i = t_(2s+1)^lo t_(2s+2)^hi for i = lo + 2^15 hi: a
monomial of that slot alone, no exponent past a key field.  The operators
are linear over coefficients and never differentiate t, so an identity
holds on every basis tuple exactly when its two sides are equal on the
tagged forms, and where they differ the least tag names the first failing
tuple, the witness.  Linear identities run over every J, bilinear ones over
0-forms, associativity over triples of fiber monomials.  At
``basis_degree`` = 1 no product contracts at order 2, so the second-order
contraction is never exercised, the same limit the star axioms have.

The cochain battery samples operators from an explicit ``random.Random``,
so a fixed seed reproduces them; its verdicts too are exact equalities.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import Scalar, ONE
from .polynomials import MAX_EXPONENT, Poly, add_term, exponents_up_to
from .weylforms import WeylForm, omega_tilde
from .symplectic import SymplecticData
from .multidiff import MultiDiffOp, moyal_star

TAG_RADIX = MAX_EXPONENT + 1  # one digit of a tag index per key field


def random_scalar(rng: random.Random) -> Scalar:
    """(a + b i) with a and b drawn as p/q, |p| <= 3 and 1 <= q <= 3."""
    return Scalar(*(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)))


def random_multidiffop(roster, rng: random.Random, arity: int, order: int,
                       slot_degree: int = 2, terms: int = 3) -> MultiDiffOp:
    roster = tuple(roster)
    table = {}
    for _ in range(terms):
        k = rng.randint(0, order)
        slots = []
        for _ in range(arity):
            a = [0] * len(roster)
            for _ in range(rng.randint(0, slot_degree)):
                a[rng.randrange(len(roster))] += 1
            slots.append(tuple(a))
        c = Poly.monomial(roster, tuple(rng.randint(0, 1) for _ in roster), random_scalar(rng))
        add_term(table, (k, tuple(slots)), c)
    return MultiDiffOp(roster, arity, order, table)


# ---------------------------------------------------------------------------
# identity batteries
# ---------------------------------------------------------------------------

def _run(name, fn, trials: int):
    """(name, ok, witness) for ``fn`` on ``trials`` seeded instances,
    stopping at the first that fails."""
    for trial in range(trials):
        if not fn():
            return name, False, f"failed on seeded instance {trial}"
    return name, True, None


def _tag(roster, slot: int, index: int) -> Poly:
    """The tag of basis element ``index`` of argument ``slot``."""
    mono = ((f"t{2 * slot + 1}", index % TAG_RADIX), (f"t{2 * slot + 2}", index // TAG_RADIX))
    return Poly(roster, {((0,) * len(roster), tuple(m for m in mono if m[1])): ONE})


def _tag_indices(mono, slots: int):
    """The basis index of each slot that the t monomial ``mono`` tags."""
    exps = dict(mono)
    return tuple(exps.get(f"t{2 * s + 1}", 0) + TAG_RADIX * exps.get(f"t{2 * s + 2}", 0)
                 for s in range(slots))


def _element(key) -> str:
    """A basis element (k, a, J) as text: h^k y^(a) dx{J}, J 1-based."""
    k, a, J = key
    dx = f" dx{{{','.join(str(j + 1) for j in J)}}}" if J else ""
    return f"{f'h^{k} ' if k else ''}y^({','.join(map(str, a))}){dx}"


def weyl_battery(sym: SymplecticData, trunc: int, basis_degree: int):
    """Exact identities of the Weyl calculus, each decided once on tagged
    basis forms (see the module docstring).  An identity is a list of pairs
    of forms that must be equal; the terms where a pair differs name the
    failing tuples.

    Returns a list of (name, ok, witness).
    """
    n = sym.dim
    fiber = exponents_up_to(n, min(basis_degree, trunc))
    tagged = {}

    def basis(forms, h_powers=True):
        return tuple((k, a, J) for a in fiber
                     for k in range((trunc - sum(a)) // 2 + 1 if h_powers else 1) for J in forms)

    def decide(name, bases, identity):
        for s, b in enumerate(bases):
            if (s, b) not in tagged:
                tagged[s, b] = WeylForm(sym, trunc, {key: _tag(sym.roster, s, i)
                                                     for i, key in enumerate(b)})
        failing = []
        for lhs, rhs in identity(*(tagged[s, b] for s, b in enumerate(bases))):
            if lhs != rhs:
                difference = dict(lhs.terms)
                for key, c in rhs.terms.items():
                    add_term(difference, key, -c)
                failing += [_tag_indices(mono, len(bases))
                            for c in difference.values() for _, mono in c.scalar_terms()]
        if not failing:
            return name, True, None
        first = min(failing)
        return name, False, f"fails on ({', '.join(_element(b[i]) for b, i in zip(bases, first))})"

    every_J = [tuple(j for j in range(n) if m >> j & 1) for m in range(1 << n)]
    linear, functions, monomials = basis(every_J), basis([()]), basis([()], h_powers=False)
    zero, one = WeylForm.zero(sym, trunc), WeylForm.unit(sym, trunc)
    minus_ot = -omega_tilde(sym, trunc)
    lower = trunc - 2

    def comm_vs_ad(a, b):
        # graded commutator recomputed from two plain mw products with the
        # form-degree sign, against the odd-contraction shortcut
        swapped = WeylForm.zero(sym, trunc)
        for q in b.form_degrees():
            bq = b.select(lambda key: len(key[2]) == q)
            for p in a.form_degrees():
                term = bq.mw(a.select(lambda key: len(key[2]) == p))
                swapped = swapped + (term if (p * q) % 2 == 0 else -term)
        return [(a.graded_comm(b) + swapped, a.mw(b))]

    def h_free(form):
        return form.select(lambda key: key[0] == 0)

    return [decide(*row) for row in (
        ("homotopy identity", (linear,),
         lambda a: [(a.center_part() + a.delta().delta_inv() + a.delta_inv().delta(), a)]),
        ("delta and delta* are differentials", (linear,),
         lambda a: [(a.delta().delta(), zero), (a.delta_star().delta_star(), zero)]),
        ("Moyal-Weyl associativity", (monomials,) * 3,
         lambda a, b, c: [(a.mw(b).mw(c), a.mw(b.mw(c)))]),
        ("Moyal-Weyl unit", (linear,), lambda a: [(one.mw(a), a), (a.mw(one), a)]),
        ("h-divisibility of commutators", (functions,) * 2,
         lambda a, b: [(h_free(a.mw(b)), h_free(b.mw(a)))]),
        ("delta = -ad_over_h(omega_tilde)", (linear,), lambda a: [(a.delta(), minus_ot.ad_over_h(a))]),
        # J in {(), (0,)} against J in {(), (n-1,)}: the odd-odd sign is exercised
        ("graded commutator consistency", (basis([(), (0,)]), basis([(), (n - 1,)])), comm_vs_ad),
        ("truncation soundness", (functions,) * 2,
         lambda a, b: [(a.mw(b).truncate(lower), a.truncate(lower).mw(b.truncate(lower)))]),
    )]


def cochain_battery(sym: SymplecticData, order: int, rng: random.Random, count: int):
    """Hochschild/Gerstenhaber identities as explicit operators: each side is
    built with ``MultiDiffOp.bracket`` and the identity holds when their
    difference ``is_zero()``.  [star, star] = 0 for the Moyal star is
    deterministic and decided once; the others on ``count`` seeded random
    operators each.
    """
    roster = sym.roster
    star = moyal_star(sym, order)

    def sign(a, b):
        # (-1)^{|a||b|} for the degrees |a| = arity - 1
        return -1 if (a.arity - 1) * (b.arity - 1) % 2 else 1

    def star_self_bracket():
        return star.bracket(star).is_zero()

    def dH_squared():
        phi = random_multidiffop(roster, rng, 1, order)
        return star.bracket(star.bracket(phi)).is_zero()

    def graded_jacobi():
        a, b, c = (random_multidiffop(roster, rng, rng.randint(1, 2), order, terms=2)
                   for _ in range(3))
        lhs = a.bracket(b).bracket(c)
        rhs = a.bracket(b.bracket(c)) - b.bracket(a.bracket(c)).scale(sign(a, b))
        return (lhs - rhs).is_zero()

    def antisymmetry():
        a = random_multidiffop(roster, rng, rng.randint(1, 2), order, terms=2)
        b = random_multidiffop(roster, rng, rng.randint(1, 2), order, terms=2)
        return (a.bracket(b) + b.bracket(a).scale(sign(a, b))).is_zero()

    return [_run(name, fn, trials) for name, fn, trials in (
        ("[star, star] vanishes", star_self_bracket, 1),
        ("d_H squared vanishes", dH_squared, count),
        ("graded Jacobi identity", graded_jacobi, count),
        ("graded antisymmetry", antisymmetry, count),
    )]
