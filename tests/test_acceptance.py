"""Acceptance criteria, one test per criterion.

Every assertion is an exact equality of rational coefficients (zero
tolerance), at desk scale: R^2 and R^4, h-order <= 4, polynomial degree <= 4.
Each test prints one PASS line on success; a failure surfaces as an ordinary
pytest failure with the offending witness.
"""

import random
from fractions import Fraction

import pytest

from fedconn.scalars import Scalar, I
from fedconn.polynomials import Poly, parse_poly, monomials_up_to
from fedconn.weylforms import WeylForm
from fedconn.symplectic import ConnectionFamily
from fedconn.fedosov import FedosovSetup
from fedconn.multidiff import moyal_star, MultiDiffOp, is_derivation, inner_potential
from fedconn.families import (
    FamilyContext, TrivializationBeta,
    solve_s, connection_form, verify_compatibility, lowest_order_identity,
    verify_curvature, curvature_ops,
)
from fedconn.transport import (
    parallel_transport, conjugation_check, gauge_equivalence, self_equivalence_check,
)
from fedconn import kahler
from fedconn.kahler import LinearKahlerFamily, verify_lemma_vc1, order1_hitchin_check
from fedconn.properties import weyl_battery, cochain_battery

from generators import random_poly
from conftest import connection_from_T, series
from reference_kernels import hamiltonian_vf, lemma_at


def verdict(n, text):
    print(f"[criterion {n:2d}] PASS  {text}")


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_moyal_recovery(sym2, sym4):
    for sym in (sym2, sym4):
        setup = FedosovSetup(ConnectionFamily(sym), None, trunc=8)
        extracted = setup.extract_star(4)
        assert extracted == moyal_star(sym, 4)
    verdict(1, "flat R^2 and R^4 recover the closed-form Moyal coefficients c^0..c^4 exactly")


# -- 2 -----------------------------------------------------------------------

def _curved_setups(sym2):
    r = sym2.roster
    specs = [
        ({(0, 0, 0): parse_poly("x2", r), (0, 0, 1): Poly.const(r, 1)},
         {(1, 0, 1): parse_poly("x1", r), (2, 0, 1): Poly.const(r, 2)}),
        ({(0, 0, 0): parse_poly("1 + x1", r)},
         {(1, 0, 1): parse_poly("2*x2", r), (2, 0, 1): parse_poly("x1", r)}),
        ({(0, 0, 1): parse_poly("x1", r), (1, 1, 1): parse_poly("x2", r)},
         {(1, 0, 1): parse_poly("x1 + x2", r), (2, 0, 1): Poly.const(r, 5)}),
    ]
    for T, atable in specs:
        conn = connection_from_T(sym2, T)
        alpha = WeylForm.omega_form(sym2, 8) + WeylForm.two_form(sym2, 8, atable)
        yield FedosovSetup(conn, alpha, trunc=8)


def test_criterion_02_fedosov_correctness(sym2):
    rng = random.Random(2024)
    basis = monomials_up_to(sym2.roster, 3)
    for setup in _curved_setups(sym2):
        assert setup.r.delta_star().is_zero()
        diff = setup.weyl_curvature(setup.r) - setup.alpha
        for d in range(setup.trunc):
            assert diff.homogeneous(d).is_zero()
        for _ in range(3):
            f = random_poly(sym2.roster, rng, degree=3, terms=3)
            defect = setup.D_r(setup.tau(f))
            for d in range(setup.trunc - 1):
                assert defect.homogeneous(d).is_zero()
        star = setup.extract_star(3)
        for _ in range(20):
            f, g, k = (rng.choice(basis) for _ in range(3))
            assert star.apply(star.apply(f, g), k) == star.apply(f, star.apply(g, k))
    verdict(2, "three curved setups: delta* r = 0, Weyl curvature = alpha, flat sections, "
               "associativity mod h^4 on 20 random triples each")


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_existence_pipeline(bundle_f1, bundle_f2, bundle_f3):
    for bundle in (bundle_f1, bundle_f2, bundle_f3):
        fam = bundle.family
        for p in fam.params:
            assert bundle.beta[p].d_x() == fam.alpha.t_derivative(p)
            assert bundle.s[p].delta_star().is_zero()
        ok, wit = verify_compatibility(fam, bundle.A, basis_degree=2)
        assert ok, wit
    verdict(3, "three families: auto-trivialized beta valid, s postconditions hold, "
               "d_H A(V) = V[star] mod h^4 on the monomial basis")


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_lowest_order_formula(bundle_f1, bundle_f2, bundle_f3):
    rng = random.Random(4)
    for bundle in (bundle_f1, bundle_f2, bundle_f3):
        fam = bundle.family
        ok, wit = lowest_order_identity(fam, bundle.A, bundle.beta, basis_degree=3)
        assert ok, wit
        for p in fam.params:
            beta1 = {key: c for key, c in bundle.beta[p].terms.items() if key[0] == 1}
            for _ in range(5):
                f = random_poly(fam.sym.roster, rng, degree=3, terms=3)
                X = hamiltonian_vf(fam.sym, f)
                expect = Poly.zero(fam.sym.roster)
                for (k, a, J), c in beta1.items():
                    expect = expect - c * X[J[0]]
                assert bundle.A[p].apply(f).poly(1) == expect
    verdict(4, "A(V)(f) = -h i_V i_{X_f} beta_1 mod h^2 exactly, for random f in every family")


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_curvature_consistency(bundle_f1, bundle_f2, bundle_f3):
    # two-parameter family: both computations agree (here the connection from a
    # global potential is flat, so they agree at zero)
    ok, wit = verify_curvature(bundle_f3.family, bundle_f3.A, bundle_f3.s, basis_degree=3)
    assert ok, wit
    # a twisted trivialization gives genuine curvature; the two computations
    # must still agree on every basis monomial
    fam = bundle_f3.family
    twist = WeylForm.from_poly(fam.sym, 8, parse_poly("t2*x1^2*x2", fam.sym.roster)).d_x().shift_h(1)
    beta2 = bundle_f3.beta.shifted_by_closed("t1", twist)
    s2 = {p: solve_s(fam, beta2, p) for p in fam.params}
    A2 = connection_form(fam, s2)
    direct, _ = curvature_ops(fam, A2, s2, "t1", "t2")
    assert not direct.is_zero()
    ok, wit = verify_curvature(fam, A2, s2, basis_degree=2)
    assert ok, wit
    # one-parameter families: both computations vanish
    for bundle in (bundle_f1, bundle_f2):
        direct, via_s = curvature_ops(bundle.family, bundle.A, bundle.s, "t1", "t1")
        assert direct.is_zero()
        assert via_s(2).is_zero()
    verdict(5, "curvature from A and from s agree mod h^4 (two-parameter family, including a "
               "curved twist); one-parameter curvature vanishes")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_gauge_equivalence(bundle_f1, bundle_f2):
    for bundle, shift_text in ((bundle_f1, "x1^2*x2"), (bundle_f2, "x1*x2^2")):
        fam = bundle.family
        shift = WeylForm.from_poly(fam.sym, 8, parse_poly(shift_text, fam.sym.roster)).d_x().shift_h(1)
        beta2 = bundle.beta.shifted_by_closed("t1", shift)
        A2 = connection_form(fam, {"t1": solve_s(fam, beta2, "t1")})
        P = gauge_equivalence(fam, bundle.A, A2, 3)
        defect = P.t_derivative("t1") - (P.compose(A2["t1"]) - bundle.A["t1"].compose(P))
        assert defect.is_zero()
        ok, wit = self_equivalence_check(fam, P, basis_degree=2)
        assert ok, wit
    verdict(6, "gauge equivalence for two one-parameter pairs: induction to h^3, gauge "
               "equation and self-equivalence hold mod h^4")


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_parallel_transport(bundle_f1):
    phi = parallel_transport(bundle_f1.family, bundle_f1.A, "t1")
    ok, wit = conjugation_check(bundle_f1.family, phi, "t1", basis_degree=2)
    assert ok, wit
    verdict(7, "parallel transport conjugates star_0 to star_t mod h^4 on the basis")


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_inner_potentials(sym2, bundle_f1):
    rng = random.Random(8)
    curved = next(iter(_curved_setups(sym2)))
    stars = [moyal_star(sym2, 4), curved.extract_star(4)]
    for star in stars:
        for _ in range(5):
            coeffs = {}
            for k in range(1, 4):
                p = random_poly(sym2.roster, rng, degree=3, terms=2)
                coeffs[k] = p - Poly.const(sym2.roster, p.constant_coefficient())
            b = series(sym2.roster, 4, coeffs)
            back = inner_potential(star.ad_over_h(b), star, sym2)
            for k in range(1, 4):
                assert back.poly(k) == b.poly(k)
    # difference of two compatible connections is a derivation, and its
    # h-layers have symplectic first-order parts
    fam = bundle_f1.family
    shift = WeylForm.from_poly(fam.sym, 8, parse_poly("x2^3", fam.sym.roster)).d_x().shift_h(1)
    beta2 = bundle_f1.beta.shifted_by_closed("t1", shift)
    A2 = connection_form(fam, {"t1": solve_s(fam, beta2, "t1")})
    diff = A2["t1"] - bundle_f1.A["t1"]
    ok, wit = is_derivation(diff, fam.star, basis_degree=3)
    assert ok, wit
    for k in range(1, 4):
        comps, _ = diff.first_order_part(k)
        eta = fam.sym.gradient_of_potential(comps)
        for a in range(fam.sym.dim):
            for b_idx in range(a + 1, fam.sym.dim):
                assert eta[b_idx].differentiate(fam.sym.roster[a]) == \
                    eta[a].differentiate(fam.sym.roster[b_idx])
    verdict(8, "inner-potential round trip exact to h^3 for 5 random b on two star products; "
               "difference of compatible connections is a derivation")


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_order1_hitchin(sym2, sym4):
    def pr(expr):
        return parse_poly(expr, ())

    fam2 = LinearKahlerFamily(
        sym2, [[pr("-t1"), pr("1+t1^2")], [pr("-1"), pr("t1")]],
        samples=[{"t1": 0}, {"t1": Fraction(1, 2)}],
    )
    z = pr("0")

    def shear(uexpr):
        u = pr(uexpr)
        return [[-u, u * u + 1], [pr("-1"), u]]

    B1, B2 = shear("t1 + t2"), shear("t1*t2")
    fam4 = LinearKahlerFamily(
        sym4,
        [
            [B1[0][0], B1[0][1], z, z],
            [B1[1][0], B1[1][1], z, z],
            [z, z, B2[0][0], B2[0][1]],
            [z, z, B2[1][0], B2[1][1]],
        ],
        samples=[{"t1": 0, "t2": 0}],
    )
    rng = random.Random(9)
    for fam, sym, dirs in ((fam2, sym2, ("t1",)), (fam4, sym4, ("t1", "t2"))):
        for p in dirs:
            ok, wit = verify_lemma_vc1(fam, p, 2)
            assert ok, wit
        for _ in range(20):
            f = random_poly(sym.roster, rng, degree=3)
            g = random_poly(sym.roster, rng, degree=3)
            for p in dirs:
                ok, wit = lemma_at(fam, p, f, g)
                assert ok, wit
        Fs = [Poly.zero(sym.roster)] + [
            random_poly(sym.roster, rng, degree=3, terms=3, params=("t1",)) for _ in range(3)
        ]
        for F in Fs:
            for name, ok, wit in order1_hitchin_check(fam, F, basis_degree=2,
                                                      directions=list(dirs)):
                assert ok, (name, wit)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(kahler, "DELTA_FACTOR", Fraction(1, 2))
            mutated = order1_hitchin_check(fam, Fs[1], basis_degree=2, directions=list(dirs))
        assert not mutated[0][1]
    verdict(9, "order-1 variation lemma as an operator identity and on 20 random pairs, "
               "derivation + flatness for F = 0 "
               "and 3 random F on R^2 and R^4 families; quarter-factor mutation fails")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_infrastructure(sym2):
    for name, ok, wit in weyl_battery(sym2, 8, 3):
        assert ok, (name, wit)
    for name, ok, wit in cochain_battery(sym2, 3, random.Random(10), count=50):
        assert ok, (name, wit)
    verdict(10, "homotopy identity, differentials, Moyal associativity, h-divisibility: "
                "decided exactly on the basis of fiber degree <= 3; "
                "d_H^2 = 0, graded Jacobi: 50 randomized exact instances each")
