"""The pair checks as identities between operators, against their pair loops.

``verify_compatibility``, ``self_equivalence_check``, ``conjugation_check``
and ``is_derivation`` form one difference operator by partial composition
(``MultiDiffOp.compose_at``) and read its verdict off its terms.  The
functions below are the evaluation loops they replaced: every pair of basis
monomials, in the same order, with the same witness text.
"""

import itertools
import math
import random
from pathlib import Path

import pytest

from fedconn.polynomials import FormalFunction, parse_poly, x_roster, monomials_up_to, add_term
from fedconn.weylforms import WeylForm
from fedconn.multidiff import MultiDiffOp, StarTruncation, hochschild_d1, is_derivation
from fedconn.families import connection_form, solve_s, verify_compatibility
from fedconn.transport import (
    parallel_transport, gauge_equivalence, self_equivalence_check, conjugation_check, invert,
)
from fedconn.properties import random_multidiffop, random_poly
from fedconn.scenario import Scenario

R2 = x_roster(2)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- the pair loops -------------------------------------------------------------------

def compatibility_by_pairs(family, A, basis_degree=3):
    star = family.star
    basis = monomials_up_to(family.sym.roster, basis_degree)
    for p in family.params:
        Ap = A[p]
        BV = family.variation_star(p)
        applied = [Ap.apply(f) for f in basis]
        for f, Af in zip(basis, applied):
            for g, Ag in zip(basis, applied):
                lhs = star.apply(Af, g) + star.apply(f, Ag) - Ap.apply(star.apply(f, g))
                rhs = BV.apply(f, g)
                if lhs != rhs:
                    d = lhs - rhs
                    k = min(d.coeffs)
                    return False, (
                        f"direction {p}: (d_H A - V[star])({f}, {g}) has h^{k} "
                        f"coefficient {d.coefficient(k)}"
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
                k = min(k for k in lhs.coeffs)
                return False, f"d_H B ({f}, {g}) has h^{k} coefficient {lhs.coefficient(k)}"
    return True, None


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
    assert not (hochschild_d1(tall["t1"], fam.star.op) - fam.variation_star("t1")).is_zero()
    assert verify_compatibility(fam, tall, 2) == compatibility_by_pairs(fam, tall, 2) == (True, None)
    # a term of slot order basis_degree + 1 in V[star] is invisible on the basis
    variation = fam.variation_star
    high = MultiDiffOp(r, 2, 3, {(1, ((3, 0), (0, 0))): parse_poly("x2", r)})
    monkeypatch.setattr(fam, "variation_star", lambda p: variation(p) + high)
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
    star = StarTruncation.moyal(sym2, 4)
    inner = star.ad_over_h(FormalFunction.from_poly(parse_poly("x1^2*x2 + x1", R2), 4, h_power=1))
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


# -- the identity itself, and no evaluation on passing data -------------------------------

@pytest.mark.parametrize("name", ["family_r2.scn", "family2_r2.scn"])
def test_compatibility_holds_as_an_operator_identity(name):
    sc = Scenario.load(SCENARIOS / name)
    sc.order = 3
    sc.truncation = max(sc.truncation, 2 * sc.order + 2)
    family = sc.build_family()
    beta = sc.build_beta(family)
    A = connection_form(family, {p: solve_s(family, beta, p) for p in family.params})
    for p in family.params:
        assert (hochschild_d1(A[p], family.star.op) - family.variation_star(p)).is_zero(), p


def test_passing_pair_checks_evaluate_no_operator(bundle_f1, bundle_f3, gauge_pair, monkeypatch):
    phi = parallel_transport(bundle_f1.family, bundle_f1.A, "t1")
    # extracting the star evaluates operators, so it is done before counting
    for bundle in (bundle_f1, bundle_f3):
        assert bundle.family.star.order == 3
    calls = []
    apply = MultiDiffOp.apply

    def counting(self, *args):
        calls.append(self.arity)
        return apply(self, *args)

    monkeypatch.setattr(MultiDiffOp, "apply", counting)
    for bundle in (bundle_f1, bundle_f3):
        assert verify_compatibility(bundle.family, bundle.A, 3) == (True, None)
    assert self_equivalence_check(bundle_f1.family, gauge_pair, 2) == (True, None)
    assert conjugation_check(bundle_f1.family, phi, "t1") == (True, None)
    assert calls == []
    # a failing check evaluates its difference operator for the witness
    ok, _ = self_equivalence_check(bundle_f1.family,
                                   gauge_pair + extra_term(R2, 2, (1, 1)), 2)
    assert not ok and calls
