"""The product kernels and the sums built from them against their slow
references, for exact equality.

``WeylForm._pairing`` (under ``mw``, ``graded_comm`` and ``ad_over_h``) and
``MultiDiffOp.compose_at`` skip the pairs that cannot contribute before
multiplying and sum each output coefficient once through ``PolySums``;
``reference_kernels`` scales and adds every contribution on its own.  delta,
delta*, delta_inv, the degree recursion, ``cov_deriv``, D_r, the Weyl curvature form
and the Gerstenhaber bracket add their terms into one ``PolySums``; the
references add scaled terms, whole forms and operators one at a time.  The cases cover coefficients
rational in t, coefficients on a jet-symbol roster mixed with x-roster ones
(as in the tau symbol), the degree and slot caps, y-free (central) terms
under the brackets, weights, sums that cancel, and zero and constant
operands.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from fedconn import fedosov, families
from fedconn.polynomials import Poly, PolySums, parse_poly, x_roster, add_term
from fedconn.scalars import Scalar
from fedconn.weylforms import WeylForm
from fedconn.symplectic import ConnectionFamily, SymplecticData
from fedconn.multidiff import MultiDiffOp, moyal_star
from fedconn.families import solve_s
from fedconn.scenario import Scenario
from fedconn.properties import random_weyl_form, random_multidiffop, random_poly, random_scalar

from conftest import series
from reference_kernels import (
    pairing_by_products, compose_at_by_products, cov_deriv_by_sums, solve_by_degree_by_sums,
    D_r_by_sums, curvature_form_by_sums, bracket_by_sums, delta_by_sums, delta_star_by_terms,
    delta_inv_by_sums, partial_apply_by_loops, jet_wedge_by_terms, moyal_star_by_states,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

R2 = x_roster(2)
SYMBOL2 = R2 + ("xi1", "xi2")
T_FACTORS = ["1", "t1 + 2", "1/(t1 + 2)", "i*t1^2 - 1/3", "(2 - i)*t1/(t1^2 + 2)"]


def t_factor(rng, roster=(), factors=T_FACTORS):
    return parse_poly(rng.choice(factors), roster)


def mixed_form(sym, rng, trunc=8, **kwargs):
    """A random form whose terms are scaled by t-polynomials, t-rational
    values or x-and-jet polynomials on the symbol roster, term by term."""
    form = random_weyl_form(sym, trunc, rng, **kwargs)
    symbol = sym.roster + tuple(f"xi{j + 1}" for j in range(sym.dim))
    terms = {}
    for key, c in form.terms.items():
        pick = rng.randrange(3)
        if pick == 1:
            c = c * t_factor(rng)
        elif pick == 2:
            c = c * random_poly(symbol, rng, degree=1, terms=2)
        terms[key] = c
    return WeylForm(sym, trunc, terms)


def with_central_terms(form, rng):
    """form plus y-free terms, with and without form indices."""
    zero = (0,) * form.ctx.dim
    extra = {(rng.randint(0, 2), zero, J): Poly.const(form.ctx.roster, random_scalar(rng))
             for J in ((), (0,), (1,))}
    return form + WeylForm(form.ctx, form.trunc, extra)


BRACKETS = {"mw": (False, False), "graded_comm": (True, False), "ad_over_h": (True, True)}


def assert_same(fast, reference, *context):
    """Equal terms, each coefficient on the roster, in the order, that the
    reference's one-by-one sums give it (``Poly.__eq__`` aligns rosters), and
    the same truncation, or order, arity and roster for an operator."""
    assert fast == reference, context
    assert ({key: c.roster for key, c in fast.terms.items()}
            == {key: c.roster for key, c in reference.terms.items()}), context
    for attr in ("trunc", "order", "arity", "roster"):
        assert getattr(fast, attr, None) == getattr(reference, attr, None), (attr, *context)


@pytest.mark.parametrize("seed", range(6))
def test_pairing_matches_the_scaled_products(sym2, sym4, seed):
    rng = random.Random(1400 + seed)
    sym = sym4 if seed % 3 == 2 else sym2
    for _ in range(3):
        a = with_central_terms(mixed_form(sym, rng, terms=6, max_y=3), rng)
        b = with_central_terms(mixed_form(sym, rng, terms=6, max_y=3), rng)
        for name, (commutator, over_h) in BRACKETS.items():
            for cap in (None, 2, 4, 6):
                fast = getattr(a, name)(b, max_degree=cap)
                assert_same(fast, pairing_by_products(a, b, commutator, over_h, cap), name, cap)
                assert fast.trunc == min(a.trunc, b.trunc)


@pytest.mark.parametrize("seed", range(3))
def test_pairing_merges_rosters_within_a_key(sym2, seed):
    # the terms of f on the x roster and those of g = h f on the symbol roster
    # meet at the same output keys, as in the tau symbol, in either order
    rng = random.Random(1430 + seed)
    symbol = SYMBOL2
    f = random_weyl_form(sym2, 8, rng, terms=5, max_h=0, max_y=2)
    g = WeylForm(sym2, 8, {(k + 1, y, J): c * random_poly(symbol, rng, degree=1, terms=2)
                           for (k, y, J), c in f.terms.items()})
    b = random_weyl_form(sym2, 8, rng, terms=5, max_h=0, max_y=2)
    b = b + b.shift_h(1).truncate(8)
    for a in (f + g, g + f):
        for name, (commutator, over_h) in BRACKETS.items():
            fast = getattr(a, name)(b)
            assert_same(fast, pairing_by_products(a, b, commutator, over_h), name)
            assert any(set(c.roster) == set(symbol) for c in fast.terms.values())


def test_pairing_skips_central_terms_only_in_brackets(sym2):
    # a y-free term pairs at contraction order 0 only, which a commutator cancels
    rng = random.Random(1410)
    a = with_central_terms(WeylForm.zero(sym2, 6), rng)
    b = mixed_form(sym2, rng, trunc=6, terms=6)
    assert a.graded_comm(b).is_zero() and a.ad_over_h(b).is_zero() and b.ad_over_h(a).is_zero()
    assert_same(a.mw(b), pairing_by_products(a, b, False, False))
    assert not a.mw(b).is_zero()


def test_pairing_with_zero_and_constant_operands(sym2):
    rng = random.Random(1420)
    a = mixed_form(sym2, rng, terms=6)
    zero, one = WeylForm.zero(sym2, 8), WeylForm.unit(sym2, 8)
    half_t = WeylForm.from_poly(sym2, 8, parse_poly("1/(t1 + 2)", sym2.roster))
    for other in (zero, one, half_t, a.scale(Scalar(0, 3))):
        for name, (commutator, over_h) in BRACKETS.items():
            assert_same(getattr(a, name)(other), pairing_by_products(a, other, commutator, over_h))
            assert_same(getattr(other, name)(a), pairing_by_products(other, a, commutator, over_h))
    assert a.mw(zero).is_zero() and a.mw(one) == a and one.mw(a) == a
    assert a.ad_over_h(one).is_zero()


def random_op(rng, arity, order, roster=R2):
    """A random operator on R2 whose coefficients are scaled by random
    polynomials on ``roster`` and by t factors, some rational in t."""
    op = random_multidiffop(R2, rng, arity, order, slot_degree=2, terms=4)
    return MultiDiffOp(R2, arity, order, {
        key: random_poly(roster, rng, degree=2, terms=2) * t_factor(rng) * c
        for key, c in op.terms.items()})


@pytest.mark.parametrize("seed", range(6))
def test_compose_at_matches_the_scaled_products(seed):
    rng = random.Random(1450 + seed)
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        phi = random_op(rng, m, 3, ("x2",) if seed % 2 else R2)
        psi = random_op(rng, n, rng.choice((2, 3)))
        for i in range(m):
            for cap in (None, 0, 1, 2, 3):
                fast = phi.compose_at(i, psi, cap)
                assert_same(fast, compose_at_by_products(phi, i, psi, cap), m, n, i, cap)
                assert (fast.arity, fast.order) == (m + n - 1, min(phi.order, psi.order))


def test_compose_at_with_zero_and_constant_operands():
    rng = random.Random(1470)
    phi, psi = random_op(rng, 2, 3), random_op(rng, 1, 3)
    ident = MultiDiffOp.identity(R2, 3)
    zero = MultiDiffOp.zero(R2, 1, 3)
    # constant coefficients, and a psi whose coefficient every slot derivative kills
    const = MultiDiffOp(R2, 1, 3, {(1, ((1, 0),)): Poly.const(R2, Scalar(2, -1)),
                                   (0, ((0, 0),)): Poly.const(R2, 5)})
    # an operator on part of the roster, whose slots are read along its own
    on_x2 = MultiDiffOp(("x2",), 1, 3, {(0, ((1,),)): parse_poly("x2^2", ("x2",)),
                                        (1, ((2,),)): Poly.const(("x2",), 3)})
    for inner in (ident, zero, const, psi, on_x2):
        for i in range(2):
            assert_same(phi.compose_at(i, inner), compose_at_by_products(phi, i, inner))
        assert_same(inner.compose_at(0, phi), compose_at_by_products(inner, 0, phi))
    assert phi.compose_at(1, ident) == phi and ident.compose_at(0, phi) == phi
    assert phi.compose_at(0, zero).is_zero()


# rosters a sum meets, one unsorted as a jet roster may be
ROSTERS = (R2, SYMBOL2, ("x2",), ("xi1", "x2", "x1"), ())


@pytest.mark.parametrize("seed", range(6))
def test_poly_sums_match_add_term_of_scaled_polys(seed):
    # sums and products on mixed rosters, t-rational parts, complex and
    # integer weights, and sums that cancel, some before a contribution on a
    # new roster
    rng = random.Random(1480 + seed)
    sums, reference = PolySums(), {}
    for _ in range(60):
        key = rng.randrange(4)
        roster = rng.choice(ROSTERS)
        p = (random_poly(roster, rng, degree=2, terms=3, params=("t1",)) if roster
             else Poly.const((), random_scalar(rng)))
        if rng.random() < 0.3:
            p = p * t_factor(rng)
        other = rng.choice((random_poly(R2, rng, degree=1, terms=2),
                            random_poly(("x1",), rng, degree=1, terms=2),
                            Poly.const((), random_scalar(rng))))
        if rng.random() < 0.3:
            other = other * t_factor(rng)
        w = rng.choice((random_scalar(rng), rng.randint(-3, 3)))
        if p.is_zero() or other.is_zero() or Scalar.of(w).is_zero():
            continue  # no kernel adds a zero contribution
        pick = rng.randrange(3)
        if pick == 0:
            sums.add(key, p, w)
            add_term(reference, key, p.scale(w))
        else:
            if pick == 1:
                sums.add_product(key, p, other, w)
            else:
                sums.add(key, p * other, w)
            add_term(reference, key, (p * other).scale(w))
        if rng.random() < 0.2:
            sums.add(key, p, -w)
            add_term(reference, key, p.scale(-w))
        if rng.random() < 0.1 and key in reference:
            # cancel the whole sum, polynomial and rational parts at once
            sums.add(key, reference[key], -1)
            add_term(reference, key, -reference[key])
    got = sums.polys()
    assert got == reference
    assert {key: p.roster for key, p in got.items()} == {
        key: p.roster for key, p in reference.items()}
    assert all(not p.is_zero() for p in got.values())


def test_poly_sums_hand_over_their_sums():
    # polys() pops every slot, whether a lone Poly, a map of numerators or a
    # map beside a sum rational in t, so the PolySums is empty afterwards
    rng = random.Random(1500)
    p = random_poly(R2, rng, degree=2, terms=3)
    q = random_poly(R2, rng, degree=2, terms=3) * parse_poly("1/(t1 + 2)", R2)
    sums = PolySums()
    sums.add("lone", p, 1)
    sums.add("map", p, 1)
    sums.add_product("map", p, p, Scalar(1, 2))
    sums.add("rational", q, 1)
    sums.add("rational", p, 3)
    assert sums.polys() == {"lone": p, "map": p + (p * p).scale(Scalar(1, 2)),
                            "rational": q + p.scale(3)}
    assert sums._sums == {}
    assert sums.polys() == {}


def test_poly_sums_roster_restarts_when_a_sum_cancels():
    # x-roster parts that cancel leave no mark on the roster of what follows,
    # whether they were polynomial or rational in t
    rng = random.Random(1485)
    jet = ("xi1", "x2", "x1")
    for factor in ("1", "1/(t1 + 2)"):
        p = random_poly(R2, rng, degree=2, terms=3) * parse_poly(factor, R2)
        q = random_poly(jet, rng, degree=2, terms=3) * parse_poly("1/(t1 + 3)", jet)
        r = random_poly(jet, rng, degree=2, terms=3)
        sums = PolySums()
        sums.add("k", p, 2)
        sums.add_product("k", p, Poly.const((), -2), 1)
        sums.add("k", q, 1)
        sums.add("k", r, 1)
        got = sums.polys()["k"]
        assert got == q + r and got.roster == jet
    # a zero weight adds nothing, and a sum that cancels leaves no key
    sums, p, far = PolySums(), random_poly(R2, rng, degree=2, terms=3), Poly.monomial(R2, (5, 0))
    sums.add("zero first", p, 0)
    sums.add("zero first", far, 1)
    sums.add("cancels", p, Scalar(1, 2))
    sums.add("cancels", p.with_roster(SYMBOL2), Scalar(-1, -2))
    assert sums.polys() == {"zero first": far}


@pytest.mark.parametrize("seed", range(4))
def test_product_with_a_constant_is_the_general_product(seed):
    rng = random.Random(1490 + seed)
    x1 = Poly.var(SYMBOL2, "x1")
    for _ in range(6):
        p = random_poly(SYMBOL2, rng, degree=3, terms=4, params=("t1", "t2")) * t_factor(rng)
        c = Poly.const(rng.choice((R2, ())), random_scalar(rng))
        # c + x1 is not a constant, so (c + x1) * p - x1 * p takes the general loop
        general = (c + x1) * p - x1 * p
        assert c * p == p * c == general
        assert p * Poly.const(R2, 0) == Poly.zero(SYMBOL2)


def test_poly_sums_keep_a_lone_contribution_until_another_joins():
    # a key's first contribution of weight 1 or -1 is kept as its Poly; a
    # later contribution joins it, or cancels it and restarts the roster
    rng = random.Random(1495)
    for factor in ("1", "1/(t1 + 2)"):
        p = random_poly(R2, rng, degree=2, terms=3, params=("t1",)) * parse_poly(factor, R2)
        q = random_poly(SYMBOL2, rng, degree=2, terms=3) * t_factor(rng, SYMBOL2)
        other = random_poly(("x1",), rng, degree=1, terms=2)
        sums, reference = PolySums(), {}

        def add(key, poly, w):
            sums.add(key, poly, w)
            add_term(reference, key, poly.scale(w))

        add("lone", p, 1)
        add("lone negated", p, Scalar(-1))
        add("joined", p, 1)
        add("joined", q, Scalar(1, -2))
        add("joined by a product", p, -1)
        sums.add_product("joined by a product", q, other, 3)
        add_term(reference, "joined by a product", (q * other).scale(3))
        add("cancelled", p.with_roster(SYMBOL2), 1)
        add("cancelled", p, -1)
        add("restarted", q, -1)
        add("restarted", q, 1)
        add("restarted", p, 2)
        got = sums.polys()
        assert got["lone"] is p
        assert got == reference and "cancelled" not in got
        assert {key: c.roster for key, c in got.items()} == {
            key: c.roster for key, c in reference.items()}
        assert got["restarted"].roster == R2 and got["joined"].roster == SYMBOL2


def random_connection(sym, rng, factors=T_FACTORS):
    """Christoffels symmetric in (i, j): x-polynomials scaled by ``factors``,
    by default some of them rational in t; cov_deriv does not need them to
    be symplectic."""
    gamma = {}
    for _ in range(3):
        m, i, j = (rng.randrange(sym.dim) for _ in range(3))
        gamma[(m, min(i, j), max(i, j))] = (random_poly(sym.roster, rng, degree=1, terms=2)
                                            * t_factor(rng, sym.roster, factors))
    return ConnectionFamily(sym, gamma)


def form_degree(form, q):
    """The terms of ``form`` of form degree q."""
    return WeylForm(form.ctx, form.trunc, {key: c for key, c in form.terms.items()
                                           if len(key[2]) == q})


@pytest.mark.parametrize("seed", range(4))
def test_delta_and_delta_inv_match_the_chained_sums(sym2, sym4, seed):
    # -c y^(alpha + e_j - e_i) dx^i beside c y^alpha dx^j: both reach
    # y^(alpha - e_i) dx^i dx^j under delta and y^(alpha + e_j) under
    # delta* and delta_inv, where they cancel
    rng = random.Random(1505 + seed)
    sym = sym4 if seed % 2 else sym2
    cancelled = False
    for _ in range(3):
        a = mixed_form(sym, rng, terms=8, max_y=3)
        moved = {}
        for (k, y, J), c in a.terms.items():
            i = rng.randrange(sym.dim)
            if len(J) == 1 and J[0] != i and y[i]:
                moved[(k, tuple(e + (m == J[0]) - (m == i) for m, e in enumerate(y)), (i,))] = -c
        b = a + WeylForm(sym, a.trunc, moved)
        for form in (a, b):
            assert_same(form.delta(), delta_by_sums(form))
            assert_same(form.delta_star(), delta_star_by_terms(form))
            assert_same(form.delta_inv(), delta_inv_by_sums(form))
        cancelled |= len(b.delta_inv().terms) < len(a.delta_inv().terms) + len(moved)
    assert cancelled


@pytest.mark.parametrize("seed", range(4))
def test_cov_deriv_matches_the_chained_sums(sym2, sym4, seed):
    rng = random.Random(1500 + seed)
    sym = sym4 if seed % 2 else sym2
    conn = random_connection(sym, rng)
    for _ in range(3):
        a = mixed_form(sym, rng, terms=6, max_y=3)
        reference = cov_deriv_by_sums(conn, a)
        assert_same(conn.cov_deriv(a), reference)
        # into a sink that already holds terms, with a weight
        before = mixed_form(sym, rng, terms=6, max_y=3)
        for w in (1, -1, Scalar(2, -1)):
            sink = PolySums()
            before.add_to(sink)
            assert conn.cov_deriv(a, sink, w) is None
            assert_same(WeylForm(sym, a.trunc, sink.polys()), before + reference.scale(w), w)


@pytest.mark.parametrize("seed", range(3))
def test_jet_wedge_matches_the_term_sums(sym2, seed):
    # Xi ^ a added into a sink that already holds terms, at jet degrees 0..3
    rng = random.Random(1550 + seed)
    positions = [SYMBOL2.index(name) for name in ("xi1", "xi2")]
    for _ in range(3):
        a, before = (mixed_form(sym2, rng, terms=6, max_y=3).map_coefficients(
                         lambda c: c.with_roster(SYMBOL2)) for _ in range(2))
        for degree in range(4):
            sink = PolySums()
            before.add_to(sink)
            assert fedosov._jet_wedge(a, positions, degree, sink) is None
            assert_same(WeylForm(sym2, a.trunc, sink.polys()),
                        before + jet_wedge_by_terms(a, positions, degree))


def _solved(solve, conn, source, start, left, weight):
    parts = dict(start)
    solve(conn.cov_deriv, parts, range(2, 5), source, parts if left is None else left, weight,
          AssertionError)
    return parts


@pytest.mark.parametrize("seed", range(4))
def test_solve_by_degree_matches_the_chained_sums(sym2, seed):
    # on R^2 every 2-form is delta-closed, so a recursion on 1-forms runs on
    # any source 2-form: coefficients rational in t and on the symbol
    # roster, a self bracket with its weight 1/2 and brackets with given
    # left parts, and a source that cancels all or part of a degree's sum
    rng = random.Random(1510 + seed)
    conn = random_connection(sym2, rng, T_FACTORS[:2])
    source = form_degree(mixed_form(sym2, rng, trunc=6, terms=12, max_y=3), 2)
    p2 = WeylForm(sym2, 6, {(0, (2, 0), (1,)): random_poly(R2, rng, degree=1, terms=2),
                            (0, (1, 1), (0,)): random_poly(SYMBOL2, rng, degree=1, terms=2)
                            * parse_poly("1/(t1 + 2)", SYMBOL2),
                            (1, (0, 0), (1,)): Poly.const(R2, random_scalar(rng))})
    # left parts truncated lower than the source, as a bracket's truncation is
    left = form_degree(mixed_form(sym2, rng, trunc=5, terms=8, max_y=3), 1).by_degree()
    left[2] = p2
    cancels_derivative = source - source.homogeneous(2) - conn.cov_deriv(p2)
    for weight, lefts in ((Fraction(1, 2), None), (1, left), (Scalar(1, -2), left)):
        bracket = (p2 if lefts is None else lefts[2]).ad_over_h(p2).scale(weight)
        for src in (source, cancels_derivative, cancels_derivative - bracket):
            fast = _solved(fedosov.solve_by_degree, conn, src, {2: p2}, lefts, weight)
            slow = _solved(solve_by_degree_by_sums, conn, src, {2: p2}, lefts, weight)
            assert fast.keys() == slow.keys()
            for d in fast:
                assert_same(fast[d], slow[d], weight, d)
            if src is not source:
                # degree 2 of the source cancels the derivative: degree 3 comes
                # from the bracket alone, or is zero when the source cancels it too
                assert fast[3] == (bracket if src is cancels_derivative
                                   else WeylForm.zero(sym2, 6)).delta_inv()


@pytest.mark.parametrize("name", ["curved_r2.scn", "family_r2.scn", "family2_r2.scn"])
def test_recursions_match_the_chained_sums(monkeypatch, name):
    # r, tau of a t-rational f, the tau symbol (its coefficients on the
    # symbol roster meet the x-roster Christoffels) and each direction's s
    def solve_all():
        sc = Scenario.load(SCENARIOS / name)
        sc.order = 3
        if sc.params:
            family = sc.build_family()
            beta = sc.build_beta(family)
            setup, s = family.setup, [solve_s(family, beta, p) for p in family.params]
        else:
            setup, s = sc.build_setup(8), []
        f = parse_poly("x1^2*x2/(t1 + 2) - i*t1*x2 + 3", setup.sym.roster)
        return [setup.r, setup.tau(f), setup.tau_symbol(3, 5), *s], setup

    fast, setup = solve_all()
    monkeypatch.setattr(fedosov, "solve_by_degree", solve_by_degree_by_sums)
    monkeypatch.setattr(families, "solve_by_degree", solve_by_degree_by_sums)
    slow, _ = solve_all()
    assert len(fast) == len(slow) >= 3
    for got, want in zip(fast, slow):
        assert_same(got, want)
    assert any(c.roster == setup.symbol_roster for c in fast[2].terms.values())


@pytest.mark.parametrize("seed", range(4))
def test_D_r_matches_the_chained_sums(curved_setup, bundle_f2, seed):
    rng = random.Random(1520 + seed)
    setup = bundle_f2.family.setup if seed % 2 else curved_setup
    for _ in range(2):
        a = with_central_terms(mixed_form(setup.sym, rng, terms=6, max_y=3), rng)
        for cap in (None, 2, 5):
            assert_same(setup.D_r(a, cap), D_r_by_sums(setup, a, cap), cap)


@pytest.mark.parametrize("which", ["curved", "family"])
def test_curvature_form_matches_the_chained_sums(curved_setup, bundle_f2, which):
    setup = curved_setup if which == "curved" else bundle_f2.family.setup
    bump = WeylForm.y_monomial(setup.sym, setup.trunc, (2, 0), coeff=3, J=(1,))
    for r in (setup.r, setup.r + bump):
        assert_same(setup._curvature_form(r), curvature_form_by_sums(setup, r))


@pytest.mark.parametrize("seed", range(6))
def test_bracket_matches_the_chained_sums(seed):
    rng = random.Random(1540 + seed)
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        psi = random_op(rng, m, 3, ("x2",) if seed % 2 else R2)
        phi = random_op(rng, n, rng.choice((2, 3)))
        for cap in (None, 1, 2, 3):
            assert_same(psi.bracket(phi, cap), bracket_by_sums(psi, phi, cap), m, n, cap)


@pytest.mark.parametrize("seed", range(4))
def test_bracket_with_a_function_is_the_difference_of_partial_applications(sym2, seed):
    # a function b is an arity-0 operator, and [m, b] = m o_0 b - m o_1 b for
    # an arity-2 m; b is a Poly or an arity-0 operator, on R2 or on part of it,
    # with coefficients rational in t
    rng = random.Random(1580 + seed)
    m = random_op(rng, 2, 3)
    moyal = moyal_star(sym2, 3)
    for roster in (R2, ("x2",)):
        b = series(roster, rng.choice((2, 3)), {
            k: random_poly(roster, rng, degree=3, terms=2) * t_factor(rng) for k in range(3)})
        for value in (b, b.poly(1)):
            expect = partial_apply_by_loops(m, 0, value) - partial_apply_by_loops(m, 1, value)
            assert_same(m.bracket(MultiDiffOp.function(R2, value, m.order)), expect, seed, roster)
            for slot in (0, 1):
                assert_same(m.partial_apply(slot, value), partial_apply_by_loops(m, slot, value))
            expect = (partial_apply_by_loops(moyal, 0, value)
                      - partial_apply_by_loops(moyal, 1, value)).shift_h(-1)
            assert_same(moyal.ad_over_h(value), expect, seed, roster)


@pytest.mark.parametrize("cap", [None, 2])
def test_a_self_bracket_equals_the_bracket_with_a_copy(sym2, curved_setup, cap):
    # [a, a] is composed once, doubled for odd r and zero for even r; an
    # equal but distinct copy takes both sums of the sign rule
    rng = random.Random(1590)
    for a in (moyal_star(sym2, 3), curved_setup.extract_star(3),
              random_op(rng, 1, 3), random_op(rng, 2, 3), random_op(rng, 3, 2)):
        copy = MultiDiffOp(a.roster, a.arity, a.order, dict(a.terms))
        assert copy is not a and copy == a
        assert_same(a.bracket(a, cap), a.bracket(copy, cap), a.arity, cap)


@pytest.mark.parametrize("K", range(6))
def test_moyal_star_matches_the_raising_states(sym2, sym4, K):
    # the last omega is not in Darboux form: several pi entries land on one
    # (g1, g2), so the layers sum their weights
    dense = SymplecticData([[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]])
    for sym in (sym2, sym4, dense):
        assert_same(moyal_star(sym, K), moyal_star_by_states(sym, K), K)


def test_bracket_sums_that_cancel(sym2):
    # [P, P] = 0 and [P, Q] = -[Q, P] for arity 1; the Moyal star is
    # associative, so its self-bracket, twice its associator, cancels
    rng = random.Random(1560)
    P, Q = random_op(rng, 1, 3), random_op(rng, 1, 2)
    assert P.bracket(P).is_zero() and bracket_by_sums(P, P).is_zero()
    assert_same(P.bracket(Q), -Q.bracket(P))
    moyal = moyal_star(sym2, 3)
    B = random_op(rng, 1, 3)
    assert moyal.bracket(moyal).is_zero()
    assert_same(moyal.bracket(B, 2), bracket_by_sums(moyal, B, 2))
    C = moyal + random_op(rng, 2, 3)
    assert_same(C.bracket(C), bracket_by_sums(C, C))
