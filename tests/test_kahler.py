import random
from fractions import Fraction

import pytest

from fedconn.scalars import Scalar, I
from fedconn.polynomials import Poly, parse_poly, monomials_up_to
from fedconn import kahler
from fedconn.kahler import (
    LinearKahlerFamily, verify_lemma_vc1, order1_hitchin_check, family_directions,
    rigidity_check, rigidity_report, mat, mat_map, mat_mul, mat_inverse, mat_identity,
    mat_deriv, _leading_minors_positive,
)
from fedconn.cli import list_checks

from generators import random_poly
from conftest import count_evaluations, pr
from reference_kernels import (
    delta_Z, df_M_dg, v_c1, lemma_at, lemma_by_pairs, operator_E_by_loops, operator_H_by_loops,
)


def test_family_validation_rejects_bad_structures(sym2):
    with pytest.raises(ValueError):
        LinearKahlerFamily(sym2, [[pr("1"), pr("0")], [pr("0"), pr("1")]])  # I^2 != -Id
    with pytest.raises(ValueError):
        # compatible as a complex structure but negative-definite metric
        LinearKahlerFamily(sym2, [[pr("0"), pr("-1")], [pr("1"), pr("0")]], samples=[{"t1": 0}])


def laplace_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * laplace_det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)))


def test_leading_minors_match_laplace_expansion():
    # the minors read off one elimination are the Laplace determinants, with
    # the same first failure, a zero minor (a zero pivot) included
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        vals = [[Fraction(rng.randint(-2, 3), rng.randint(1, 2)) + 2 * (r == c) for c in range(n)]
                for r in range(n)]
        expect = True, None
        for k in range(1, n + 1):
            d = laplace_det([row[:k] for row in vals[:k]])
            if d <= 0:
                expect = False, f"leading {k}x{k} minor is {d}"
                break
        assert _leading_minors_positive(mat(vals)) == expect, vals


def test_metric_and_inverse(shear2):
    assert mat_mul(shear2.g, shear2.gtilde) == mat_identity(2)
    # gtilde = -I pi
    minus_I_pi = mat_mul(shear2.I, shear2.pi_mat)
    assert shear2.gtilde == [[-v for v in row] for row in minus_I_pi]


def test_variation_two_routes(shear2, rational2, block4):
    for fam, direction in ((shear2, "t1"), (rational2, "t1"), (block4, "t1"), (block4, "t2")):
        G, Gh, Ga = fam.gtilde_variation(direction)
        # the cross-checks live inside; assert the decomposition shape here
        assert G == [list(row) for row in zip(*G)]


def test_t_constant_family_variation_vanishes(sym2):
    fam = LinearKahlerFamily(sym2, [[pr("0"), pr("1")], [pr("-1"), pr("0")]])
    G, _, _ = fam.gtilde_variation("t1")
    assert all(v.is_zero() for row in G for v in row)
    f = parse_poly("x1^2", sym2.roster)
    assert v_c1(fam, "t1", f, f).is_zero()
    vc1, half_G = fam.variation_operators("t1")
    assert vc1.is_zero() and half_G.is_zero()
    assert verify_lemma_vc1(fam, "t1", 2) == (True, None)


def test_delta_Z_examples(sym2):
    # Delta_Z = Z^{ab} d_a d_b as an operator, against the evaluator it replaced
    fam = LinearKahlerFamily(sym2, [[pr("0"), pr("1")], [pr("-1"), pr("0")]])
    f = parse_poly("x1^3*x2^2", sym2.roster)
    Z = mat([[1, 0], [0, 0]])
    assert fam._second_order(Z).apply(f).poly(0) == f.differentiate("x1").differentiate("x1")
    lap = f.differentiate("x1").differentiate("x1") + f.differentiate("x2").differentiate("x2")
    laplacian = fam._second_order(fam.gtilde)
    assert laplacian.apply(f).poly(0) == lap == delta_Z(fam, fam.gtilde, f)
    assert laplacian.apply(Poly.const(sym2.roster, 7)).is_zero()
    Z = mat([[pr("t1"), 2], [2, pr("-1/(1+t1)")]])
    assert fam._second_order(Z).apply(f).poly(0) == delta_Z(fam, Z, f)


def test_c1_poisson_compatibility(shear2, sym2):
    rng = random.Random(1)
    for _ in range(6):
        f = random_poly(sym2.roster, rng)
        g = random_poly(sym2.roster, rng)
        c1 = shear2.c1_operator()
        assert (c1.apply(f, g) - c1.apply(g, f)).poly(0) == sym2.poisson(f, g).scale(I)
        assert c1.apply(f, g).poly(0) == df_M_dg(shear2, shear2.c1_matrix(), f, g)


def test_c1_closed_form(shear2):
    # M = (i pi - gtilde)/2
    M = shear2.c1_matrix()
    for a in range(2):
        for b in range(2):
            expect = (shear2.pi_mat[a][b] * I - shear2.gtilde[a][b]) * Scalar(Fraction(1, 2))
            assert M[a][b] == expect


def test_vc1_symmetry_and_routes(shear2, sym2):
    rng = random.Random(2)
    for _ in range(6):
        f = random_poly(sym2.roster, rng)
        g = random_poly(sym2.roster, rng)
        assert v_c1(shear2, "t1", f, g) == v_c1(shear2, "t1", g, f)
        vc1, half_G = shear2.variation_operators("t1")
        assert vc1.apply(f, g) == vc1.apply(g, f) == half_G.apply(f, g)
        assert vc1.apply(f, g).poly(0) == v_c1(shear2, "t1", f, g)


def test_lemma_randomized(shear2, rational2, block4, sym2, sym4):
    # decided on the terms for all f and g; the evaluators agree on random pairs
    rng = random.Random(3)
    for fam, sym in ((shear2, sym2), (rational2, sym2), (block4, sym4)):
        directions = ("t1",) if sym is sym2 else ("t1", "t2")
        for direction in directions:
            for d in (1, 2):
                assert verify_lemma_vc1(fam, direction, d) == (True, None)
        for _ in range(8):
            f = random_poly(sym.roster, rng, degree=3)
            g = random_poly(sym.roster, rng, degree=3)
            for direction in directions:
                ok, wit = lemma_at(fam, direction, f, g)
                assert ok, wit


def test_lemma_trivial_and_mutated(monkeypatch, shear2, sym2):
    g = parse_poly("x1*x2", sym2.roster)
    assert lemma_at(shear2, "t1", Poly.const(sym2.roster, 5), g) == (True, None)
    assert not lemma_at(shear2, "t1", parse_poly("x1^2", sym2.roster), g, Fraction(1, 2))[0]
    assert verify_lemma_vc1(shear2, "t1", 2) == (True, None)
    # a basis degree of 0 is raised to 1, where the lemma is decided
    assert verify_lemma_vc1(shear2, "t1", 0) == (True, None)
    monkeypatch.setattr(kahler, "LEMMA_FACTOR", Fraction(1, 2))
    got = verify_lemma_vc1(shear2, "t1", 2)
    assert not got[0]
    assert got == lemma_by_pairs(shear2, "t1", 2, factor=Fraction(1, 2))
    assert verify_lemma_vc1(shear2, "t1", 0) == \
        lemma_by_pairs(shear2, "t1", 1, factor=Fraction(1, 2))


def test_order1_checks(shear2, rational2, block4, sym2, sym4):
    rng = random.Random(4)
    for fam, sym in ((shear2, sym2), (rational2, sym2), (block4, sym4)):
        for F in [Poly.zero(sym.roster)] + [
            random_poly(sym.roster, rng, degree=3, terms=3, params=("t1",))
            for _ in range(3)
        ]:
            for name, ok, wit in order1_hitchin_check(fam, F, basis_degree=2):
                assert ok, (name, wit)


def test_order1_mutation_fails(monkeypatch, shear2, sym2):
    F = parse_poly("t1*x1^2*x2", sym2.roster)
    monkeypatch.setattr(kahler, "DELTA_FACTOR", Fraction(1, 2))
    checks = order1_hitchin_check(shear2, F, basis_degree=2)
    assert not checks[0][1]


def test_rigidity(shear2):
    assert rigidity_check(shear2, "t1") == ("pass", None)
    status, wit = rigidity_report([[parse_poly("x1", ("x1", "x2"))]])
    assert status == "n/a"


def test_rigidity_cannot_fail_and_its_listed_row_says_so(sym2):
    # the two outcomes of rigidity_report: x-constant entries pass, any
    # x-dependent entry is n/a; neither is a FAIL, and --list-checks says so
    one, t1 = Poly.const(sym2.roster, 1), parse_poly("t1", sym2.roster)
    assert rigidity_report([[one, t1], [t1, one]]) == ("pass", None)
    assert rigidity_report([[one, parse_poly("t1*x2", sym2.roster)]]) == (
        "n/a", "x-dependent bivector fields are not handled here")
    assert ("  rigidity: holomorphic variation part is covariantly constant; never FAIL: holds "
            "identically for x-constant (linear) families, n/a for x-dependent input\n"
            in list_checks())


def test_E_H_relation(shear2, sym2):
    F = parse_poly("t1*x2^2", sym2.roster)
    one = Poly.const(sym2.roster, 1)
    assert shear2.operator_E("t1", F, one) == shear2.operator_H("t1", F)
    x1 = Poly.var(sym2.roster, "x1")
    for f in (one, x1, parse_poly("x1^2*x2 - t1*x2", sym2.roster)):
        assert shear2.operator_E("t1", F, f) == operator_E_by_loops(shear2, "t1", F, f)
    assert shear2.operator_H("t1", F) == operator_H_by_loops(shear2, "t1", F)


def test_variation_cache_matches_fresh_computation(shear2, rational2, block4):
    half = Scalar(Fraction(1, 2))
    rng = random.Random(5)
    for fam in (shear2, rational2, block4):
        roster = fam.sym.roster
        # M = (i pi - gtilde)/2, the closed form of the c1 matrix
        M = [[(p * I - g) * half for p, g in zip(rp, rg)] for rp, rg in zip(fam.pi_mat, fam.gtilde)]
        assert fam.c1_matrix() is fam.c1_matrix() and fam.c1_matrix() == M
        directions = family_directions(fam, Poly.zero(roster))
        assert directions == (["t1", "t2"] if fam is block4 else ["t1"])
        for p in directions:
            v = fam.variation(p)
            assert fam.variation(p) is v
            G, Gh, Ga = fam.gtilde_variation(p)  # uncached: every cross-check runs again
            for cached, fresh in zip(v, (G, Gh, Ga, mat_deriv(M, p),
                                         mat_map(lambda x: x * half, G))):
                assert cached == fresh
        # a new family starts with empty caches; its verdicts match the warm one's
        cold = LinearKahlerFamily(fam.sym, fam.I)
        F = random_poly(roster, rng, degree=3, terms=3, params=("t1",))
        warm = order1_hitchin_check(fam, F, basis_degree=2)
        assert order1_hitchin_check(cold, F, basis_degree=2) == warm
        assert all(ok for _, ok, _ in warm)
        f, g = random_poly(roster, rng, degree=3), random_poly(roster, rng, degree=3)
        for p in directions:
            assert verify_lemma_vc1(cold, p, 2) == verify_lemma_vc1(fam, p, 2) == (True, None)
            assert lemma_at(cold, p, f, g) == (True, None)


def test_passing_order1_checks_evaluate_no_operator(monkeypatch, block4, sym4):
    # all three verdicts and the variation lemma are read off operator terms;
    # nothing is evaluated
    F = parse_poly("t1*x1^2*x3 + t2*x4", sym4.roster)
    calls = count_evaluations(monkeypatch)
    checks = order1_hitchin_check(block4, F, basis_degree=2)
    assert all(ok for _, ok, _ in checks)
    for p in ("t1", "t2"):
        assert verify_lemma_vc1(block4, p, 2) == (True, None)
    assert calls == []


def test_failing_order1_check_evaluates_pairs_up_to_its_witness(monkeypatch, block4, sym4):
    # a failing derivation identity evaluates its difference operator on the
    # basis pairs in loop order, one first argument's block at a time, up to
    # and including the witness's block, and no further
    F = parse_poly("t1*x1^2*x3 + t2*x4", sym4.roster)
    calls = count_evaluations(monkeypatch)
    monkeypatch.setattr(kahler, "DELTA_FACTOR", Fraction(1, 2))
    checks = order1_hitchin_check(block4, F, basis_degree=2)
    name, ok, wit = checks[0]
    assert not ok and wit.startswith("direction t1, (")
    f, g = (parse_poly(m, sym4.roster) for m in wit.split("(")[1].rstrip(")").split(","))
    basis = monomials_up_to(sym4.roster, 2)
    assert calls == [2] * ((basis.index(f) + 1) * len(basis))
    assert len(calls) < len(basis) ** 2
