"""The pair checks as identities between operators, against their pair loops.

``verify_compatibility``, ``derivation_identity``, ``verify_curvature``,
``self_equivalence_check``, ``conjugation_check``, ``is_derivation``,
``lowest_order_identity``, Kahler's ``order1_hitchin_check`` and
``verify_lemma_vc1``, and the star axioms of ``validate_star_axioms`` form
difference operators and read their verdicts off the terms.  The functions
below are the evaluation loops they replaced: every pair (every triple, for
associativity) of basis monomials (every section pair, every basis
monomial), in the same order, with the same witness text.
``MultiDiffOp.bracket`` is checked against the lazy bracket of ``reference_cochains``, materialized,
and against the compositions it replaced; ``MultiDiffOp.basis_table``, which
sums an operator's values on the monomial basis term by term, is checked
against ``apply`` on every tuple.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fedconn.scalars import Scalar, I
from fedconn.polynomials import (
    Poly, parse_poly, x_roster, monomials_up_to,
    add_term,
)
from fedconn import kahler
from fedconn.kahler import (
    LinearKahlerFamily, VariationError, order1_hitchin_check, verify_lemma_vc1, family_directions,
    mat_map, mat_deriv,
)
from fedconn.weylforms import WeylForm
from fedconn.multidiff import MultiDiffOp, moyal_star, is_derivation, unit_vectors
from fedconn.fedosov import FedosovSetup, c1_antisymmetry_witness, validate_star_axioms
from fedconn.symplectic import SymplecticData
from fedconn import cli
from fedconn.cli import main
from fedconn.families import (
    connection_form, solve_s, verify_compatibility, derivation_identity, verify_curvature,
    lowest_order_identity,
)
from fedconn.transport import (
    parallel_transport, gauge_equivalence, self_equivalence_check, conjugation_check, invert,
)
from fedconn.properties import random_multidiffop
from fedconn.scenario import Scenario

from generators import random_poly
from conftest import (
    count_evaluations, generated_curved_r4, generated_curved_r4_scenario, pr, series,
)
from reference_cochains import gerstenhaber, materialize
from reference_kernels import contract, delta_Z, v_c1, lemma_by_pairs, lowest_order_by_loops

R2 = x_roster(2)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- the pair loops -------------------------------------------------------------------

def compatibility_by_pairs(family, A, basis_degree=3):
    star = family.star
    basis = monomials_up_to(family.sym.roster, basis_degree)
    for p in family.params:
        Ap = A[p]
        BV = family.star.t_derivative(p)
        applied = [Ap.apply(f) for f in basis]
        for f, Af in zip(basis, applied):
            for g, Ag in zip(basis, applied):
                lhs = star.apply(Af, g) + star.apply(f, Ag) - Ap.apply(star.apply(f, g))
                rhs = BV.apply(f, g)
                if lhs != rhs:
                    d = lhs - rhs
                    k = min(d.terms)[0]
                    return False, (
                        f"direction {p}: (d_H A - V[star])({f}, {g}) has h^{k} "
                        f"coefficient {d.poly(k)}"
                    )
    return True, None


def self_equivalence_by_pairs(family, P, basis_degree=2):
    star = family.star
    basis = monomials_up_to(family.sym.roster, basis_degree)
    applied = [P.apply(f) for f in basis]
    for f, Pf in zip(basis, applied):
        for g, Pg in zip(basis, applied):
            if P.apply(star.apply(f, g)) != star.apply(Pf, Pg):
                return False, f"self-equivalence fails on ({f}, {g})"
    return True, None


def conjugation_by_pairs(family, phi, axis, freeze=None, basis_degree=2):
    values = dict(freeze or {})
    for p in family.params:
        if p != axis:
            values.setdefault(p, 0)
    star_t = family.star.subs_params(values)
    star_0 = family.star.subs_params({**values, axis: 0})
    phi_inv = invert(phi)
    basis = monomials_up_to(family.sym.roster, basis_degree)
    pulled = [phi_inv.apply(f) for f in basis]
    for f, pf in zip(basis, pulled):
        for g, pg in zip(basis, pulled):
            if star_t.apply(f, g) != phi.apply(star_0.apply(pf, pg)):
                return False, f"conjugation fails on ({f}, {g})"
    return True, None


def derivation_by_pairs(B, star, basis_degree=None):
    if basis_degree is None:
        basis_degree = star.slot_order() + B.slot_order()
    basis = monomials_up_to(star.roster, basis_degree)
    applied = [B(f) for f in basis]
    for f, Bf in zip(basis, applied):
        for g, Bg in zip(basis, applied):
            lhs = star.apply(Bf, g) + star.apply(f, Bg) - B(star.apply(f, g))
            if not lhs.is_zero():
                k = min(lhs.terms)[0]
                return False, f"d_H B ({f}, {g}) has h^{k} coefficient {lhs.poly(k)}"
    return True, None


def derivation_by_sections(family, A, basis_degree=2):
    """D_V(f*g) = D_V(f)*g + f*D_V(g) on f = f0 * T(t), g = g0, for f0 and g0
    in the monomial basis, T = prod_p (t_p + 1)."""
    star = family.star
    roster = family.sym.roster
    basis = monomials_up_to(roster, basis_degree)
    tpoly = Poly.const(roster, 1)
    for p in family.params:
        tpoly = tpoly * (Poly.var(roster, p) + 1)

    def DV(p, f):
        return MultiDiffOp.function(roster, f.differentiate(p), family.order) + A[p].apply(f)

    for p in family.params:
        for f0 in basis:
            f = f0 * tpoly
            for g in basis:
                fg = star.apply(f, g)
                lhs = fg.t_derivative(p) + A[p].apply(fg)
                rhs = star.apply(DV(p, f), g) + star.apply(f, DV(p, g))
                if lhs != rhs:
                    return False, f"direction {p}, f = {f}, g = {g}"
    return True, None


def curvature_by_basis(family, A, s_forms, basis_degree=3):
    """V[A(W)] - W[A(V)] + A(V)A(W) - A(W)A(V) against p(ad_over_h(E, tau(f)))
    for E = V[s_W] - W[s_V] + ad_over_h(s_V, s_W), on each basis monomial f."""
    basis = monomials_up_to(family.sym.roster, basis_degree)
    for v, w in itertools.combinations(family.params, 2):
        direct = (A[w].t_derivative(v) - A[v].t_derivative(w)
                  + A[v].compose(A[w]) - A[w].compose(A[v]))
        E = s_forms[w].t_derivative(v) - s_forms[v].t_derivative(w) \
            + s_forms[v].ad_over_h(s_forms[w])
        for f in basis:
            lhs = direct.apply(f)
            rhs = E.projected_ad_over_h(family.setup.tau(f), family.order)
            if lhs != rhs:
                return False, f"directions ({v},{w}), f = {f}: {lhs} != {rhs}"
    return True, None


def hochschild_d1(B, m, max_slot=None):
    """d_H B for an arity-1 B and an arity-2 m, as three compositions."""
    return m.compose_at(0, B, max_slot) + m.compose_at(1, B, max_slot) \
        - B.compose_at(0, m, max_slot)


def leibniz_compose(p_op, q_op):
    """The arity-1 composition by the binomial Leibniz rule, term by term."""
    order = min(p_op.order, q_op.order)
    out = {}
    for (k1, (a,)), p in p_op.terms.items():
        for (k2, (b,)), q in q_op.terms.items():
            if k1 + k2 > order:
                continue
            for e in itertools.product(*(range(x + 1) for x in a)):
                binom = math.prod(math.comb(x, y) for x, y in zip(a, e))
                dq = q.deriv_multi(tuple(x - y for x, y in zip(a, e)))
                if not dq.is_zero():
                    add_term(out, (k1 + k2, (tuple(x + y for x, y in zip(b, e)),)),
                             (p * dq).scale(binom))
    return MultiDiffOp(p_op.roster, 1, order, out)


# -- random operators with t-dependent coefficients ------------------------------------

T_FACTORS = ["1", "t1 + 2", "i*t1^2 - 1/3", "1/(t1 + 1)", "(2 - i)*t1/(t1^2 + 2)"]


def random_op(rng, arity, order, slot_degree=2):
    op = random_multidiffop(R2, rng, arity, order, slot_degree=slot_degree, terms=3)
    return MultiDiffOp(R2, arity, order, {
        key: c * random_poly(R2, rng, degree=2, terms=2) * parse_poly(rng.choice(T_FACTORS), R2)
        for key, c in op.terms.items()})


def cut(op, cap):
    return MultiDiffOp(op.roster, op.arity, op.order,
                       {key: c for key, c in op.terms.items()
                        if all(sum(s) <= cap for s in key[1])})


@pytest.mark.parametrize("seed", range(4))
def test_compose_at_matches_nested_apply(seed):
    rng = random.Random(900 + seed)
    basis = monomials_up_to(R2, 3)
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        phi = random_op(rng, m, 3)
        psi = random_op(rng, n, rng.choice((2, 3)))
        for i in range(m):
            comp = phi.compose_at(i, psi)
            assert (comp.arity, comp.order) == (m + n - 1, min(phi.order, psi.order))
            tuples = list(itertools.product(basis, repeat=comp.arity))
            for args in (tuples if comp.arity < 3 else rng.sample(tuples, 25)):
                inner = psi.apply(*args[i:i + n])
                assert comp.apply(*args) == phi.apply(*args[:i], inner, *args[i + n:])
            for cap in (0, 1, 2, 3):
                assert phi.compose_at(i, psi, cap) == cut(comp, cap)


@pytest.mark.parametrize("seed", range(4))
def test_compose_is_compose_at_zero_and_the_leibniz_loop(seed):
    rng = random.Random(950 + seed)
    for _ in range(4):
        p, q = random_op(rng, 1, 3, slot_degree=3), random_op(rng, 1, 3, slot_degree=3)
        assert p.compose(q) == p.compose_at(0, q) == leibniz_compose(p, q)


@pytest.mark.parametrize("seed", range(3))
def test_bracket_is_the_lazy_bracket_materialized(seed):
    # operators of arity 1-3 with x-linear coefficients, as in the cochain
    # battery; the lazy bracket is read off its values on every tuple of
    # monomials up to the summed slot order, so slot orders stay at 1 where
    # the bracket has arity 3
    rng = random.Random(1100 + seed)
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        slot = 1 if m + n > 3 else 2
        a, b = (random_multidiffop(R2, rng, arity, 3, slot_degree=slot) for arity in (m, n))
        assert a.bracket(b) == materialize(gerstenhaber(a, b), R2), (m, n)


@pytest.mark.parametrize("seed", range(3))
def test_bracket_is_d_H_and_the_commutator(sym2, seed):
    rng = random.Random(1150 + seed)
    for m in (moyal_star(sym2, 3), random_op(rng, 2, 3)):
        B = random_op(rng, 1, 3, slot_degree=3)
        for cap in (None, 1, 2, 3):
            assert m.bracket(B, cap) == hochschild_d1(B, m, cap), cap
    P, Q = random_op(rng, 1, 3, slot_degree=3), random_op(rng, 1, 3, slot_degree=3)
    assert P.bracket(Q) == P.compose(Q) - Q.compose(P) \
        == leibniz_compose(P, Q) - leibniz_compose(Q, P)


@pytest.mark.parametrize("seed", range(6))
def test_basis_witness_is_the_first_nonzero_pair(seed):
    # zero on the basis exactly when no term has every slot within the degree
    rng = random.Random(980 + seed)
    for degree in (1, 2):
        D = random_op(rng, 2, 2, slot_degree=3)
        basis = monomials_up_to(R2, degree)
        expect = next(((args, v) for args in itertools.product(basis, repeat=2)
                       if not (v := D.apply(*args)).is_zero()), None)
        assert D.basis_witness(degree) == expect


@pytest.mark.parametrize("seed", range(3))
def test_basis_table_is_apply_on_every_tuple(seed):
    # t-rational coefficients and slot orders up to 3, above some degrees,
    # so terms are skipped
    rng = random.Random(1000 + seed)
    for arity in (1, 2, 3):
        op = random_op(rng, arity, 3, slot_degree=3)
        for degree in range(4):
            table = list(op.basis_table(degree))
            basis = monomials_up_to(op.roster, degree)
            assert [args for args, _ in table] == list(itertools.product(basis, repeat=arity))
            for args, value in table:
                expect = op.apply(*args)
                assert value == expect and str(value) == str(expect), (arity, degree, args)


# -- the checks against their pair loops --------------------------------------------------

def extra_term(roster, h, slot, coeff="x1", order=3):
    return MultiDiffOp(roster, 1, order, {(h, (slot,)): parse_poly(coeff, roster)})


def test_compatibility_matches_the_pair_loop(bundle_f1, bundle_f2, bundle_f3, monkeypatch):
    for bundle in (bundle_f1, bundle_f2, bundle_f3):
        for d in (1, 2):
            got = verify_compatibility(bundle.family, bundle.A, d)
            assert got == compatibility_by_pairs(bundle.family, bundle.A, d) == (True, None)
    fam, A = bundle_f1.family, bundle_f1.A
    r = fam.sym.roster
    # h^2 x1 d1 d2: fails, with the pair loop's witness
    bad = A.shifted("t1", extra_term(r, 2, (1, 1)))
    got = verify_compatibility(fam, bad, 2)
    assert got == compatibility_by_pairs(fam, bad, 2)
    assert got[0] is False and "h^2" in got[1]
    # a term of slot order basis_degree + 1 added to A(V) fails on both: its
    # coboundary under the pointwise product splits d1^3 into d1 (x) d1^2
    bad = A.shifted("t1", extra_term(r, 2, (3, 0)))
    got = verify_compatibility(fam, bad, 2)
    assert got == compatibility_by_pairs(fam, bad, 2)
    assert got[0] is False
    # at h^K a term of slot order 2d + 3 has a coboundary whose every term
    # has a slot above d: d_H A - V[star] is no longer zero, yet both pass
    tall = A.shifted("t1", extra_term(r, 3, (7, 0)))
    assert not (fam.star.bracket(tall["t1"]) - fam.star.t_derivative("t1")).is_zero()
    assert verify_compatibility(fam, tall, 2) == compatibility_by_pairs(fam, tall, 2) == (True, None)
    # a term of slot order basis_degree + 1 in V[star] is invisible on the basis
    # (the star's t-derivative gains it, so the check and the loop read the same V[star])
    variation, star = MultiDiffOp.t_derivative, fam.star
    high = MultiDiffOp(r, 2, 3, {(1, ((3, 0), (0, 0))): parse_poly("x2", r)})

    def high_variation(op, name):
        return variation(op, name) + high if op is star else variation(op, name)

    monkeypatch.setattr(MultiDiffOp, "t_derivative", high_variation)
    assert verify_compatibility(fam, A, 2) == compatibility_by_pairs(fam, A, 2) == (True, None)
    got = verify_compatibility(fam, A, 3)
    assert got == compatibility_by_pairs(fam, A, 3)
    assert got[1] == "direction t1: (d_H A - V[star])(x1^3, 1) has h^1 coefficient -6*x2"


@pytest.fixture(scope="module")
def gauge_pair(bundle_f1):
    fam = bundle_f1.family
    shift = WeylForm.from_poly(fam.sym, 8, parse_poly("x1^2*x2", fam.sym.roster)).d_x().shift_h(1)
    beta2 = bundle_f1.beta.shifted_by_closed("t1", shift)
    A2 = connection_form(fam, {"t1": solve_s(fam, beta2, "t1")})
    return gauge_equivalence(fam, bundle_f1.A, A2, 3)


def test_self_equivalence_matches_the_pair_loop(bundle_f1, gauge_pair):
    fam, P = bundle_f1.family, gauge_pair
    assert not (P - MultiDiffOp.identity(fam.sym.roster, 3)).is_zero()
    for d in (1, 2):
        assert self_equivalence_check(fam, P, d) == self_equivalence_by_pairs(fam, P, d) \
            == (True, None)
    r = fam.sym.roster
    for bad in (P + extra_term(r, 2, (1, 1)), P + extra_term(r, 2, (0, 2), "x1^2 + t1")):
        got = self_equivalence_check(fam, bad, 2)
        assert got == self_equivalence_by_pairs(fam, bad, 2)
        assert got[0] is False


def test_conjugation_matches_the_pair_loop(bundle_f1, bundle_f2, bundle_f3):
    for bundle, freeze in ((bundle_f1, None), (bundle_f2, None), (bundle_f3, {"t2": 2})):
        fam = bundle.family
        phi = parallel_transport(fam, bundle.A, "t1", freeze=freeze)
        assert conjugation_check(fam, phi, "t1", freeze) == \
            conjugation_by_pairs(fam, phi, "t1", freeze) == (True, None)
    fam = bundle_f2.family
    phi = parallel_transport(fam, bundle_f2.A, "t1")
    truncated = MultiDiffOp(phi.roster, 1, 3, {key: c for key, c in phi.terms.items() if key[0] < 3})
    perturbed = phi + extra_term(phi.roster, 2, (2, 0), "t1*x2")
    for bad in (truncated, perturbed):
        got = conjugation_check(fam, bad, "t1")
        assert got == conjugation_by_pairs(fam, bad, "t1")
        assert got[0] is False


def test_is_derivation_matches_the_pair_loop(sym2, bundle_f1, gauge_pair):
    star = moyal_star(sym2, 4)
    inner = star.ad_over_h(series(R2, 4, {1: parse_poly("x1^2*x2 + x1", R2)}))
    fam = bundle_f1.family
    cases = [
        (inner, star, 3), (inner, star, None),
        (MultiDiffOp.zero(R2, 1, 4), star, 2),
        (MultiDiffOp(R2, 1, 4, {(1, ((0, 0),)): parse_poly("x1", R2)}), star, 2),
        (inner + extra_term(R2, 2, (1, 1), order=4), star, 2),
        (inner + extra_term(R2, 4, (1, 0), order=4), star, 2),
        (invert(gauge_pair).compose(gauge_pair.t_derivative("t1")), fam.star, 2),
    ]
    verdicts = []
    for B, s, d in cases:
        got = is_derivation(B, s, d)
        assert got == derivation_by_pairs(B, s, d)
        verdicts.append(got[0])
    assert verdicts == [True, True, True, False, False, True, True]


@pytest.fixture(scope="module")
def twisted_f3(bundle_f3):
    """(A, s) of bundle_f3 with beta twisted by a t2-dependent closed form in
    the t1 slot: a connection with genuine curvature."""
    fam = bundle_f3.family
    twist = WeylForm.from_poly(fam.sym, 8, parse_poly("t2*x1^2*x2", R2)).d_x().shift_h(1)
    beta2 = bundle_f3.beta.shifted_by_closed("t1", twist)
    s2 = {p: solve_s(fam, beta2, p) for p in fam.params}
    return connection_form(fam, s2), s2


def test_derivation_identity_matches_the_section_loop(bundle_f1, bundle_f2, bundle_f3,
                                                      twisted_f3):
    f1, f3 = bundle_f1.family, bundle_f3.family
    # d1^3 has a coboundary of slot orders (1, 2) and (2, 1): terms remain
    # at basis degree 2, outside the first half of the basis, degree <= 1
    outside = bundle_f1.A.shifted("t1", extra_term(R2, 2, (3, 0)))
    assert (f1.star.bracket(outside["t1"], 2) - f1.star.t_derivative("t1")).basis_witness(2)
    cases = [
        (f1, bundle_f1.A), (bundle_f2.family, bundle_f2.A), (f3, bundle_f3.A),
        (f3, twisted_f3[0]),
        (f1, bundle_f1.A.shifted("t1", extra_term(R2, 2, (1, 1)))),
        (f1, outside),
        # the second direction fails
        (f3, bundle_f3.A.shifted("t2", extra_term(R2, 2, (1, 1), "t2*x1"))),
    ]
    verdicts = []
    for fam, A in cases:
        for d in (1, 2):
            got = derivation_identity(fam, A, d)
            assert got == derivation_by_sections(fam, A, d), d
        verdicts.append(got)
    assert [ok for ok, _ in verdicts] == [True, True, True, True, False, False, False]
    assert verdicts[4][1] == "direction t1, f = (t1 + 1)*x2, g = x1"
    assert verdicts[5][1] == "direction t1, f = (t1 + 1)*x1, g = x1^2"
    assert verdicts[6][1].startswith("direction t2, ")


def test_curvature_matches_the_basis_loop(bundle_f1, bundle_f2, bundle_f3, twisted_f3):
    f3 = bundle_f3.family
    A2, s2 = twisted_f3
    cases = [
        (bundle_f1.family, bundle_f1.A, bundle_f1.s), (bundle_f2.family, bundle_f2.A, bundle_f2.s),
        (f3, bundle_f3.A, bundle_f3.s), (f3, A2, s2),
        (f3, bundle_f3.A.shifted("t1", extra_term(R2, 1, (1, 0), "t2*x2")), bundle_f3.s),
        (f3, A2.shifted("t2", extra_term(R2, 2, (0, 2), "t1")), s2),
        # slot order 4 is invisible on the basis, at both degrees
        (f3, A2.shifted("t1", extra_term(R2, 3, (4, 0), "t2*x2")), s2),
    ]
    verdicts = []
    for fam, A, s in cases:
        for d in (2, 3):
            got = verify_curvature(fam, A, s, d)
            assert got == curvature_by_basis(fam, A, s, d), d
        verdicts.append(got)
    assert [ok for ok, _ in verdicts] == [True, True, True, True, False, False, True]
    assert verdicts[4][1] == "directions (t1,t2), f = x2: h^3*1/3*t1*t2*x2^3 != 0"


# -- the identity itself, and no evaluation on passing data -------------------------------

@pytest.mark.parametrize("name", ["family_r2.scn", "family2_r2.scn"])
def test_compatibility_holds_as_an_operator_identity(name):
    sc = Scenario.load(SCENARIOS / name)
    sc.order = 3
    family = sc.build_family()
    beta = sc.build_beta(family)
    A = connection_form(family, {p: solve_s(family, beta, p) for p in family.params})
    for p in family.params:
        assert (family.star.bracket(A[p]) - family.star.t_derivative(p)).is_zero(), p


def test_passing_pair_checks_evaluate_no_operator(bundle_f1, bundle_f3, gauge_pair, monkeypatch):
    phi = parallel_transport(bundle_f1.family, bundle_f1.A, "t1")
    # extracting the star evaluates operators, so it is done before counting
    for bundle in (bundle_f1, bundle_f3):
        assert bundle.family.star.order == 3
    calls = count_evaluations(monkeypatch)
    for bundle in (bundle_f1, bundle_f3):
        assert lowest_order_identity(bundle.family, bundle.A, bundle.beta, 3) == (True, None)
        assert verify_compatibility(bundle.family, bundle.A, 3) == (True, None)
        assert derivation_identity(bundle.family, bundle.A, 2) == (True, None)
        assert verify_curvature(bundle.family, bundle.A, bundle.s, 3) == (True, None)
    assert self_equivalence_check(bundle_f1.family, gauge_pair, 2) == (True, None)
    assert conjugation_check(bundle_f1.family, phi, "t1") == (True, None)
    assert calls == []
    # a failing check evaluates its difference operator for the witness
    ok, _ = self_equivalence_check(bundle_f1.family,
                                   gauge_pair + extra_term(R2, 2, (1, 1)), 2)
    assert not ok and calls


# -- Kahler's order-1 checks against their pair loop ---------------------------------------

neg_matrix = functools.partial(mat_map, operator.neg)


def a1_matrices(fam, p, F, delta_factor=Fraction(1, 4)):
    """(Q, w) with A1(V) = Delta_Q + w^b d_b, from the family's matrices."""
    F = F.with_roster(fam.sym.roster)
    v = fam.variation(p)
    w = zip(contract(fam, fam.c1_matrix(), F.differentiate(p)), contract(fam, v.Mdot, F))
    return mat_map(lambda x: x * -Scalar(delta_factor), v.G), [a + b for a, b in w]


def p1_matrices(fam, F, delta_factor=Fraction(1, 4)):
    F = F.with_roster(fam.sym.roster)
    return (mat_map(lambda x: x * -Scalar(delta_factor), fam.gtilde),
            [-c for c in contract(fam, fam.c1_matrix(), F)])


def apply_a1(fam, data, f):
    Q, w = data
    roster = fam.sym.roster
    f = f.with_roster(roster)
    out = delta_Z(fam, Q, f)
    for b in range(fam.sym.dim):
        if not w[b].is_zero():
            out = out + w[b] * f.differentiate(roster[b])
    return out


def matrices_operator(fam, Q, w):
    """Delta_Q + w^b d_b as an operator, term by term."""
    roster, n = fam.sym.roster, fam.sym.dim
    unit = unit_vectors(n)
    terms = {}
    for a, b in itertools.product(range(n), repeat=2):
        slot = tuple(x + y for x, y in zip(unit[a], unit[b]))
        add_term(terms, (0, (slot,)), Poly.const(roster, Q[a][b]))
    for b in range(n):
        add_term(terms, (0, (unit[b],)), w[b])
    return MultiDiffOp(roster, 1, 0, terms)


def order1_by_pairs(fam, F, basis_degree, delta_factor=Fraction(1, 4), shift=None):
    """The three order-1 verdicts by the loops the operator checks replaced.

    The Leibniz identity is evaluated on every pair of basis monomials, with
    V[c1] by the evaluator ``v_c1`` (which raises VariationError where its two routes
    disagree); flatness and closedness compare (Q, w) coefficientwise.
    ``shift`` maps a direction to a (dQ, dw) added to its (Q, w)."""
    directions = family_directions(fam, F)
    basis = monomials_up_to(fam.sym.roster, basis_degree)
    a1 = {}
    for p in directions:
        Q, w = a1_matrices(fam, p, F, delta_factor)
        if shift and p in shift:
            dQ, dw = shift[p]
            Q, w = mat_map(operator.add, Q, dQ), [a + b for a, b in zip(w, dw)]
        a1[p] = Q, w
    checks = []

    ok, wit = True, None
    for p, data in a1.items():
        applied = [apply_a1(fam, data, f) for f in basis]
        for (f, Af), (g, Ag) in itertools.product(zip(basis, applied), repeat=2):
            lhs = v_c1(fam, p, f, g)
            if lhs != -apply_a1(fam, data, f * g) + Af * g + f * Ag:
                ok, wit = False, f"direction {p}, ({f},{g})"
                break
        if not ok:
            break
    checks.append(("order-1 derivation identity", ok, wit))

    ok, wit = True, None
    Qp, wp = p1_matrices(fam, F, delta_factor)
    for p, (Q1, w1) in a1.items():
        Qd = neg_matrix(mat_deriv(Qp, p))
        wd = [-c.differentiate(p) for c in wp]
        if Qd != Q1 or any(a != b for a, b in zip(wd, w1)):
            ok, wit = False, f"direction {p}"
            break
    checks.append(("flatness potential V[-P1] = A1(V)", ok, wit))

    ok, wit = True, None
    for v, w in itertools.combinations(directions, 2):
        (Qv, wv), (Qw, ww) = a1[v], a1[w]
        dQ = mat_map(operator.sub, mat_deriv(Qw, v), mat_deriv(Qv, w))
        dw = [cw.differentiate(v) - cv.differentiate(w) for cw, cv in zip(ww, wv)]
        if any(not x.is_zero() for row in dQ for x in row) or any(not c.is_zero() for c in dw):
            ok, wit = False, f"directions ({v},{w})"
    checks.append(("closedness d_T A1 = 0", ok, wit))
    return checks


def outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except VariationError as exc:
        return "VariationError", str(exc)


def shift_a1(monkeypatch, shift):
    """Add each direction's (dQ, dw) of ``shift`` to the operator a1_data returns."""
    a1_data = LinearKahlerFamily.a1_data

    def shifted(self, p, F):
        out = a1_data(self, p, F)
        return out + matrices_operator(self, *shift[p]) if p in shift else out

    monkeypatch.setattr(LinearKahlerFamily, "a1_data", shifted)


def fresh(fam, **perturbed):
    """A family with empty caches whose variation data has fields replaced,
    each field by a function of the computed one."""
    cold = LinearKahlerFamily(fam.sym, fam.I)
    variation = cold.variation

    def mutated(p):
        v = variation(p)
        return v._replace(**{name: fn(getattr(v, name)) for name, fn in perturbed.items()})

    cold.variation = mutated
    return cold


@pytest.fixture(scope="module")
def kahler_cases(shear2, rational2, block4):
    """(name, family, [F]): the fixture families with F = 0 and random F, and
    the shipped Kahler scenarios with their own F."""
    rng = random.Random(1200)
    cases = []
    for name, fam in (("shear2", shear2), ("rational2", rational2), ("block4", block4)):
        params = ("t1",) if fam.sym.dim == 2 else ("t1", "t2")
        Fs = [Poly.zero(fam.sym.roster)] + [
            random_poly(fam.sym.roster, rng, degree=3, terms=3, params=params) for _ in range(2)]
        cases.append((name, fam, Fs))
    for name in ("kahler_r2.scn", "kahler_r4.scn"):
        sc = Scenario.load(SCENARIOS / name)
        fam = sc.build_kahler()
        cases.append((name, fam, [sc.build_F(fam.sym)]))
    return cases


def zero_shift(fam):
    n = fam.sym.dim
    return [[pr("0")] * n for _ in range(n)], [Poly.zero(fam.sym.roster)] * n


def test_order1_operators_match_their_matrices(kahler_cases):
    for name, fam, Fs in kahler_cases:
        for F in Fs:
            for p in family_directions(fam, F):
                assert fam.a1_data(p, F) == matrices_operator(fam, *a1_matrices(fam, p, F)), name
                vc1, half_G = fam.variation_operators(p)
                assert vc1 == half_G and fam.variation_operators(p) == (vc1, half_G)
            assert fam.p1_data(F) == matrices_operator(fam, *p1_matrices(fam, F)), name


def test_order1_matches_the_pair_loop(kahler_cases):
    for name, fam, Fs in kahler_cases:
        for F in Fs:
            for d in (1, 2):
                got = order1_hitchin_check(fam, F, d)
                assert got == order1_by_pairs(fam, F, d), (name, F, d)
                assert all(ok for _, ok, _ in got), (name, got)
            # the quarter factor mutated to a half, in A1 and P1 alike: only
            # the Leibniz identity fails
            with pytest.MonkeyPatch.context() as m:
                m.setattr(kahler, "DELTA_FACTOR", Fraction(1, 2))
                got = order1_hitchin_check(fam, F, 2)
            assert got == order1_by_pairs(fam, F, 2, delta_factor=Fraction(1, 2)), name
            assert [ok for _, ok, _ in got] == [False, True, True], (name, got)
            if name == "kahler_r4.scn":
                assert got[0][2] == "direction t1, (x4,x3)"


def verdicts(checks):
    return checks if checks[0] == "VariationError" else [ok for _, ok, _ in checks]


@pytest.mark.parametrize("mutant", ["Q entry", "w", "mixed w"])
def test_order1_shift_mutants_match_the_pair_loop(kahler_cases, monkeypatch, mutant):
    expect = {"Q entry": [False, False, True], "w": [True, False, True],
              "mixed w": [True, False, False]}[mutant]
    seen = 0
    for name, fam, Fs in kahler_cases:
        directions = family_directions(fam, Fs[-1])
        if mutant == "mixed w" and len(directions) < 2:
            continue
        dQ, dw = zero_shift(fam)
        r = fam.sym.roster
        if mutant == "Q entry":
            dQ[0][1] = pr("t1 + 1")
        else:
            dw = [parse_poly("x2" if mutant == "w" else "t2*x1", r)] + dw[1:]
        shift = {directions[0]: (dQ, dw)}
        with monkeypatch.context() as m:
            shift_a1(m, shift)
            for F in Fs:
                got = order1_hitchin_check(fam, F, 2)
                assert got == order1_by_pairs(fam, F, 2, shift=shift), (name, F)
                assert verdicts(got) == expect, (name, got)
                seen += 1
    assert seen


def test_order1_variation_mutants_match_the_pair_loop(kahler_cases):
    for name, fam, Fs in kahler_cases:
        # V[c1] by V[M] negated: the routes disagree at the same first pair
        # as the Leibniz identity, and the tie goes to VariationError
        for F in Fs:
            negated = fresh(fam, Mdot=neg_matrix)
            got = outcome(order1_hitchin_check, negated, F, 2)
            assert got == outcome(order1_by_pairs, fresh(fam, Mdot=neg_matrix), F, 2), name
            assert got[0] == "VariationError" and "V[c1] disagrees" in got[1], (name, got)


def test_order1_reports_the_earlier_of_two_failures(shear2, monkeypatch):
    # V[M] perturbed on one diagonal entry and Q on the other: the failure at
    # the earlier pair in the loop order wins, either way round
    F = parse_poly("t1*x1^2*x2", shear2.sym.roster)
    one = pr("1")
    kinds = set()
    for a, b in ((0, 1), (1, 0)):
        def bump(M, a=a):
            return mat_map(operator.add, M, [[one if (i, j) == (a, a) else pr("0")
                                              for j in range(2)] for i in range(2)])
        dQ, dw = zero_shift(shear2)
        dQ[b][b] = one
        shift = {"t1": (dQ, dw)}
        with monkeypatch.context() as m:
            shift_a1(m, shift)
            got = outcome(order1_hitchin_check, fresh(shear2, Mdot=bump), F, 2)
            assert got == outcome(order1_by_pairs, fresh(shear2, Mdot=bump), F, 2, shift=shift)
        kinds.add(got[0] if got[0] == "VariationError" else got[0][0])
    assert kinds == {"VariationError", "order-1 derivation identity"}


def test_variation_lemma_matches_the_pair_loop(monkeypatch, kahler_cases):
    # passing, with the factor mutated to a half, and with V[c1] by V[M]
    # negated, where the two routes disagree at the lemma's first failing pair
    for name, fam, Fs in kahler_cases:
        for p in sorted({p for F in Fs for p in family_directions(fam, F)}):
            for d in (1, 2):
                assert verify_lemma_vc1(fam, p, d) == lemma_by_pairs(fam, p, d) == (True, None)
                half = Fraction(1, 2)
                with monkeypatch.context() as m:
                    m.setattr(kahler, "LEMMA_FACTOR", half)
                    got = verify_lemma_vc1(fam, p, d)
                assert got == lemma_by_pairs(fam, p, d, factor=half), (name, p, d)
                assert not got[0] and " != " in got[1], (name, got)
            got = outcome(verify_lemma_vc1, fresh(fam, Mdot=neg_matrix), p, 2)
            assert got == outcome(lemma_by_pairs, fresh(fam, Mdot=neg_matrix), p, 2), name
            assert got[0] == "VariationError" and "V[c1] disagrees" in got[1], (name, got)


def test_variation_lemma_reports_the_earlier_of_two_failures(monkeypatch, shear2):
    # V[M] perturbed on one diagonal entry, the factor mutated to a half: the
    # routes first disagree on (x1, x1) or on (x2, x2), the lemma fails at (x1, x1)
    kinds = set()
    for a in (0, 1):
        def bump(M, a=a):
            return mat_map(operator.add, M, [[pr("1") if (i, j) == (a, a) else pr("0")
                                              for j in range(2)] for i in range(2)])
        half = Fraction(1, 2)
        with monkeypatch.context() as m:
            m.setattr(kahler, "LEMMA_FACTOR", half)
            got = outcome(verify_lemma_vc1, fresh(shear2, Mdot=bump), "t1", 2)
        assert got == outcome(lemma_by_pairs, fresh(shear2, Mdot=bump), "t1", 2, half)
        kinds.add(got[0])
    assert kinds == {"VariationError", False}


@pytest.fixture(scope="module")
def family_cases(bundle_f1, bundle_f2, bundle_f3):
    """(name, family, beta, A): the three fixture bundles and the shipped
    family scenarios at order 3."""
    cases = [(name, b.family, b.beta, b.A)
             for name, b in (("f1", bundle_f1), ("f2", bundle_f2), ("f3", bundle_f3))]
    for name in ("family_r2.scn", "family2_r2.scn"):
        sc = Scenario.load(SCENARIOS / name)
        sc.order = 3
        family = sc.build_family()
        beta = sc.build_beta(family)
        A = connection_form(family, {p: solve_s(family, beta, p) for p in family.params})
        cases.append((name, family, beta, A))
    return cases


def test_low_order_identity_matches_the_loop(family_cases):
    # passing, and with h x2 d1 or h^2 x1 d2 added to A(V) in one direction:
    # only the h^1 term is seen
    for name, family, beta, A in family_cases:
        for d in (1, 3):
            got = lowest_order_identity(family, A, beta, d)
            assert got == lowest_order_by_loops(family, A, beta, d) == (True, None), name
        roster = family.sym.roster
        for p in family.params:
            for k, slot, coeff, fails in ((1, (1, 0), "x2", True), (2, (0, 1), "x1", False)):
                extra = MultiDiffOp(roster, 1, A[p].order,
                                    {(k, (slot,)): parse_poly(coeff, roster)})
                mutant = A.shifted(p, extra)
                got = lowest_order_identity(family, mutant, beta, 3)
                assert got == lowest_order_by_loops(family, mutant, beta, 3), (name, p, k)
                assert got[0] is not fails, (name, p, got)
                if fails:
                    assert got[1].startswith(f"direction {p}, f = x1: h^1 part "), got


# -- the star axioms against their loops ----------------------------------------------------

def poisson_by_loop(sym, f, g):
    """{f, g} = pi^{ij} d_i f d_j g, summed entry by entry of pi."""
    roster = sym.roster
    out = Poly.zero(roster)
    for i, j, v in sym._pi_entries:
        out = out + (f.differentiate(roster[i]) * g.differentiate(roster[j])).scale(v)
    return out


def star_axioms_by_loops(star, sym, basis_degree, poisson=poisson_by_loop, associativity=True):
    """The four star axioms by evaluation, pair by pair and triple by triple
    over the basis; without ``associativity``, the first three alone."""
    roster = star.roster
    checks = []
    basis = monomials_up_to(roster, basis_degree)
    one = Poly.const(roster, 1)

    ok, wit = True, None
    for f in basis:
        lhs = star.apply(f, one)
        rhs = star.apply(one, f)
        expect = MultiDiffOp.function(roster, f, star.order)
        if lhs != expect or rhs != expect:
            ok, wit = False, f"unit fails on {f}"
            break
    checks.append(("unitality f*1 = f = 1*f", ok, wit))

    ok, wit = True, None
    for f in basis:
        for g in basis:
            if star.h_coefficient(0).apply(f, g).poly(0) != f * g:
                ok, wit = False, f"c0({f},{g}) != product"
                break
        if not ok:
            break
    checks.append(("c0 is the pointwise product", ok, wit))

    c1 = star.h_coefficient(1)
    ok, wit = True, None
    for f in basis:
        for g in basis:
            lhs = (c1.apply(f, g) - c1.apply(g, f)).poly(0)
            if lhs != poisson(sym, f, g).scale(I):
                ok, wit = False, f"c1 antisymmetry fails on ({f},{g})"
                break
        if not ok:
            break
    checks.append(("c1(f,g) - c1(g,f) = i{f,g}", ok, wit))
    if not associativity:
        return checks

    # every triple, f outermost; each pair product is formed once
    n = len(basis)
    pairs = {(a, b): star.apply(basis[a], basis[b]) for a in range(n) for b in range(n)}
    ok, wit = True, None
    for a, b, c in itertools.product(range(n), repeat=3):
        if star.apply(pairs[a, b], basis[c]) != star.apply(basis[a], pairs[b, c]):
            ok, wit = False, f"associativity fails on ({basis[a]},{basis[b]},{basis[c]})"
            break
    checks.append(("associativity mod h^(K+1)", ok, wit))
    return checks


@pytest.fixture(scope="module")
def quantized(tmp_path_factory):
    """(name, star, symplectic data, basis degree): the shipped curved and flat
    R^2 at their orders and the benchmark's generated curved R^4 at order 2."""
    cases = []
    for name in ("curved_r2.scn", "flat_r2.scn"):
        sc = Scenario.load(SCENARIOS / name)
        setup = sc.build_setup(2 * sc.order + 2)
        cases.append((name, setup.extract_star(sc.order), setup.sym, sc.basis_degree))
    setup = generated_curved_r4(tmp_path_factory.mktemp("r4"))
    cases.append(("curved_r4", setup.extract_star(2), setup.sym, 2))
    return cases


def derivative(n, i):
    """The multi-index on R^n of d_i, of the product of the d_j for j in a
    tuple i, or of no derivative for i = None."""
    indices = () if i is None else i if isinstance(i, tuple) else (i,)
    return tuple(indices.count(q) for q in range(n))


ASSOCIATIVITY = "associativity mod h^(K+1)"
# extra terms (h-power, slot of f, slot of g) -> (failing axiom, witness on
# curved_r2); a mutant of the first three breaks associativity as well
STAR_MUTANTS = {
    "c1": ([(1, 0, 1)], "c1(f,g) - c1(g,f) = i{f,g}", "c1 antisymmetry fails on (x2,x1)"),
    "c0": ([(0, 0, 0)], "c0 is the pointwise product", "c0(x1,x1) != product"),
    "unit, right": ([(2, None, 1)], "unitality f*1 = f = 1*f", "unit fails on x2"),
    # the left side fails first on x1, the right side on x2, which comes first
    "unit, both sides": ([(2, 0, None), (2, None, 1)], "unitality f*1 = f = 1*f",
                         "unit fails on x2"),
    # h^2 d_1 (x) d_1^2: unit, c0 and c1 hold; the witness is at the basis
    # degree, 2 (at 3, (x2,x1,x1^3) comes first)
    "associativity": ([(2, 0, (0, 0))], ASSOCIATIVITY, "associativity fails on (x1,x1,x1)"),
}


def mutated(star, extra):
    roster, n = star.roster, len(star.roster)
    terms = {(k, (derivative(n, i), derivative(n, j))): Poly.const(roster, 1) for k, i, j in extra}
    return star + MultiDiffOp(roster, 2, star.order, terms)


@pytest.mark.parametrize("mutant", [None, *STAR_MUTANTS])
def test_star_axioms_match_the_loops(quantized, mutant):
    for name, star, sym, degree in quantized:
        if mutant is not None:
            extra, axiom, witness = STAR_MUTANTS[mutant]
            star = mutated(star, extra)
        for d in (degree, degree + 1):
            got = validate_star_axioms(star, sym, d)
            # R^4 has 42,875 basis triples at degree 3: there the loops stop
            # at the first three axioms, and associativity is compared at degree 2
            whole = name != "curved_r4" or d == degree
            expect = star_axioms_by_loops(star, sym, d, associativity=whole)
            assert got[:len(expect)] == expect, (name, d)
            failed = {n: wit for n, ok, wit in got if not ok}
            if mutant is None:
                assert not failed, (name, got)
            else:
                assert set(failed) == {axiom, ASSOCIATIVITY}, (name, d, got)
                if name == "curved_r2.scn" and (axiom != ASSOCIATIVITY or d == degree):
                    assert failed[axiom] == witness


def test_star_axioms_match_the_loops_with_a_negated_poisson_bracket(quantized, monkeypatch):
    # SymplecticData.poisson applies the operator, so it is negated with it;
    # the loops negate their own bracket
    operator = SymplecticData.poisson_operator
    monkeypatch.setattr(SymplecticData, "poisson_operator", lambda self: -operator(self))
    for name, star, sym, degree in quantized:
        i, j, _ = sym._pi_entries[0]
        f, g = Poly.var(sym.roster, sym.roster[i]), Poly.var(sym.roster, sym.roster[j])
        assert sym.poisson(f, g) == -poisson_by_loop(sym, f, g) != 0
        got = validate_star_axioms(star, sym, degree)
        assert got == star_axioms_by_loops(star, sym, degree,
                                           poisson=lambda *a: -poisson_by_loop(*a)), name
        assert [n for n, ok, _ in got if not ok] == ["c1(f,g) - c1(g,f) = i{f,g}"]


def test_quantize_fails_the_associativity_mutant_at_every_seed(monkeypatch, capsys):
    # h^2 d_1 (x) d_1^2 added to the star of curved_r2 fails on few basis
    # triples, so five sampled ones pass it at most seeds; the verdict reads none
    extract_star = FedosovSetup.extract_star
    extra, _, _ = STAR_MUTANTS["associativity"]
    monkeypatch.setattr(FedosovSetup, "extract_star",
                        lambda self, order: mutated(extract_star(self, order), extra))
    for seed in range(20):
        code = main(["quantize", "--scenario", str(SCENARIOS / "curved_r2.scn"),
                     "--seed", str(seed)])
        out = capsys.readouterr().out
        assert code == 1, seed
        fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert fails == ["[FAIL] star axioms: associativity mod h^(K+1)"], (seed, out)
        assert "[FAIL] star axioms: associativity mod h^(K+1)\n" \
               "       witness: associativity fails on (x1,x1,x1)\n" in out, seed


def test_passing_quantize_applies_operators_only_for_the_probe(monkeypatch, capsys, tmp_path):
    # extract_star's 4 probe pairs; every star axiom is decided on operator terms
    calls = []
    apply = MultiDiffOp.apply

    def counting(self, *args):
        calls.append(self.arity)
        return apply(self, *args)

    monkeypatch.setattr(MultiDiffOp, "apply", counting)
    for scenario, order in ((SCENARIOS / "curved_r2.scn", "3"),
                            (generated_curved_r4_scenario(tmp_path), "2")):
        calls.clear()
        assert main(["quantize", "--scenario", str(scenario), "--order", order]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        assert calls == [2] * 4, scenario.name


def test_kahler_c1_antisymmetry_holds_on_every_basis_pair(kahler_cases):
    for name, fam, _ in kahler_cases:
        for d in (1, 2, 3):
            assert c1_antisymmetry_witness(fam.c1_operator(), fam.sym, d) is None, (name, d)


def test_kahler_c1_antisymmetry_failure_has_a_witness(monkeypatch, capsys):
    # c1 gains d3 (x) d4 on kahler_r4: the one pair (x1, x4^2) checked before
    # cannot see it, every basis pair can
    c1_operator = LinearKahlerFamily.c1_operator
    extra = MultiDiffOp.pairing(x_roster(4), [(2, 3, 1)])
    monkeypatch.setattr(LinearKahlerFamily, "c1_operator", lambda self: c1_operator(self) + extra)
    fam = Scenario.load(SCENARIOS / "kahler_r4.scn").build_kahler()
    f0, g0 = parse_poly("x1", fam.sym.roster), parse_poly("x4^2", fam.sym.roster)
    c1 = fam.c1_operator()
    assert (c1.apply(f0, g0) - c1.apply(g0, f0)).poly(0) == fam.sym.poisson(f0, g0).scale(I)
    code = main(["kahler", "--scenario", str(SCENARIOS / "kahler_r4.scn")])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "") and "Traceback" not in out
    assert "[FAIL] c1 antisymmetry: c1(f,g) - c1(g,f) = i{f,g}\n" \
           "       witness: c1 antisymmetry fails on (x4,x3)\n" in out
    assert cli.CHECKS["kahler"][1][0] == "c1 antisymmetry"
