import random

import pytest

from fedconn.scalars import Scalar
from fedconn.polynomials import Poly, parse_poly
from fedconn.weylforms import WeylForm
from fedconn.symplectic import ConnectionFamily
from fedconn.properties import random_weyl_form, random_poly

from conftest import connection_from_T
from reference_kernels import hamiltonian_vf


def test_poisson_convention(sym2):
    r = sym2.roster
    assert sym2.poisson(parse_poly("x1", r), parse_poly("x2", r)) == Poly.const(r, 1)


def test_poisson_antisymmetry_and_jacobi(sym2):
    rng = random.Random(1)
    for _ in range(10):
        f = random_poly(sym2.roster, rng)
        g = random_poly(sym2.roster, rng)
        k = random_poly(sym2.roster, rng)
        assert sym2.poisson(f, f).is_zero()
        jac = (
            sym2.poisson(f, sym2.poisson(g, k))
            + sym2.poisson(g, sym2.poisson(k, f))
            + sym2.poisson(k, sym2.poisson(f, g))
        )
        assert jac.is_zero()


def test_hamiltonian_field_and_potential(sym2):
    # X_f is the Poisson operator with f frozen in slot 0, read as a vector field
    rng = random.Random(2)
    for _ in range(8):
        f = random_poly(sym2.roster, rng)
        X = hamiltonian_vf(sym2, f)
        comps, rest = sym2.poisson_operator().partial_apply(0, f).first_order_part(0)
        assert comps == X and rest.is_zero()
        # defining property X_f(g) = {f, g}
        g = random_poly(sym2.roster, rng)
        Xg = Poly.zero(sym2.roster)
        for j, comp in enumerate(X):
            Xg = Xg + comp * g.differentiate(sym2.roster[j])
        assert Xg == sym2.poisson(f, g)


def test_potential_rejects_non_closed(sym2):
    r = sym2.roster
    eta = (parse_poly("x2^2", r), Poly.zero(r))
    with pytest.raises(ValueError):
        sym2.potential_of_gradient(eta)


def test_validate_flat_and_structured(sym2):
    assert ConnectionFamily(sym2).validate() == (True, None)
    conn = connection_from_T(sym2, {(0, 0, 0): parse_poly("1 + x2", sym2.roster)})
    assert conn.validate() == (True, None)


def test_validate_failure_with_witness(sym2):
    bad = ConnectionFamily(sym2, {(0, 0, 0): Poly.const(sym2.roster, 1)})
    ok, witness = bad.validate()
    assert not ok
    assert "omega" in witness


def test_gamma_stated_as_zero_must_match_its_mirror(sym2):
    # 0 is an entry like any other, in either order; 0 on both sides is no entry
    x1, zero = parse_poly("x1", sym2.roster), Poly.zero(sym2.roster)
    for table in ({(0, 0, 1): zero, (0, 1, 0): x1}, {(0, 0, 1): x1, (0, 1, 0): zero}):
        with pytest.raises(ValueError, match=r"Gamma\^1_\{[12],[12]\} breaks the \(i,j\) symmetry"):
            ConnectionFamily(sym2, table)
    conn = ConnectionFamily(sym2, {(0, 0, 1): zero, (0, 1, 0): zero, (1, 0, 0): x1})
    assert conn.gamma == {(1, 0, 0): x1}


def test_cov_deriv_flat_is_de_rham(sym2):
    f = parse_poly("x1^3*x2 - x2^2", sym2.roster)
    a = WeylForm.from_poly(sym2, 8, f)
    d = ConnectionFamily(sym2).cov_deriv(a)
    expect = WeylForm.from_poly(sym2, 8, f.differentiate("x1"), J=(0,)) + WeylForm.from_poly(
        sym2, 8, f.differentiate("x2"), J=(1,)
    )
    assert d == expect


def test_cov_deriv_derivation_property(sym2):
    conn = connection_from_T(sym2, {(0, 0, 0): parse_poly("x2", sym2.roster)})
    rng = random.Random(3)
    for _ in range(6):
        a = random_weyl_form(sym2, 8, rng, max_form=0)
        b = random_weyl_form(sym2, 8, rng, max_form=0)
        lhs = conn.cov_deriv(a.mw(b))
        assert lhs == conn.cov_deriv(a).mw(b) + a.mw(conn.cov_deriv(b))


def test_cov_deriv_graded_leibniz(sym2):
    conn = connection_from_T(sym2, {(0, 0, 1): Poly.const(sym2.roster, 1)})
    rng = random.Random(4)
    for _ in range(6):
        a = random_weyl_form(sym2, 8, rng)
        b = random_weyl_form(sym2, 8, rng)
        out = conn.cov_deriv(a.mw(b)) - conn.cov_deriv(a).mw(b)
        for qa in a.form_degrees():
            ap = WeylForm(sym2, 8, {k: v for k, v in a.terms.items() if len(k[2]) == qa})
            term = ap.mw(conn.cov_deriv(b))
            out = out - (term if qa % 2 == 0 else -term)
        assert out.is_zero()


def test_cov_deriv_anticommutes_with_delta(sym2):
    conn = connection_from_T(sym2, {(0, 0, 0): parse_poly("x2", sym2.roster)})
    rng = random.Random(5)
    for _ in range(8):
        a = random_weyl_form(sym2, 8, rng)
        assert (conn.cov_deriv(a.delta()) + conn.cov_deriv(a).delta()).is_zero()


def test_curvature_defining_identity(sym2):
    conn = connection_from_T(
        sym2, {(0, 0, 0): parse_poly("x2", sym2.roster), (0, 0, 1): Poly.const(sym2.roster, 1)}
    )
    R = conn.curvature_weyl(8)
    rng = random.Random(6)
    for _ in range(6):
        a = random_weyl_form(sym2, 8, rng)
        assert (conn.cov_deriv(conn.cov_deriv(a)) + R.ad_over_h(a)).is_zero()


def test_curvature_flat_and_constant(sym2):
    assert ConnectionFamily(sym2).curvature_weyl(8).is_zero()
    conn = connection_from_T(sym2, {(0, 0, 0): Poly.const(sym2.roster, 2)})
    R = conn.curvature_weyl(8)
    # constant T on R^2: quadratic Christoffels vanish only if T is degree 0,
    # here d Gamma = 0 so R comes from the Gamma*Gamma term with constant coefficients
    assert all(c.is_constant() for c in R.terms.values())


def test_variation_identity(sym2):
    conn = connection_from_T(
        sym2, {(0, 0, 0): parse_poly("t1*x2", sym2.roster), (0, 0, 1): parse_poly("t1", sym2.roster)}
    )
    ivS = conn.variation_S("t1", 8)
    # symmetric in the two y indices: built that way, check it is nonzero and quadratic
    assert not ivS.is_zero()
    assert all(sum(alpha) == 2 and len(J) == 1 for (_, alpha, J) in ivS.terms)
    dconn = ConnectionFamily(sym2, conn.t_derivative_table("t1"))
    rng = random.Random(7)
    for _ in range(6):
        a = random_weyl_form(sym2, 8, rng)
        lhs = dconn.cov_deriv(a) - a.d_x()  # variation touches only the Gamma part
        assert lhs == ivS.ad_over_h(a).scale(Scalar(1) / 2)


def test_variation_of_constant_family(sym2):
    conn = connection_from_T(sym2, {(0, 0, 0): parse_poly("x2", sym2.roster)})
    assert conn.variation_S("t1", 8).is_zero()


def symplectic_pair_difference_symmetric(c1, c2) -> bool:
    """Whether omega-contraction of (Gamma1 - Gamma2) is totally symmetric in
    all three indices (the affine-space parametrization of symplectic
    connections)."""
    sym = c1.sym
    n = sym.dim
    zero = Poly.zero(sym.roster)

    def T(l, i, j):
        acc = zero
        for m in range(n):
            w = sym.omega[l][m]
            if w.is_zero():
                continue
            g1 = c1.gamma.get((m, i, j))
            g2 = c2.gamma.get((m, i, j))
            if g1 is not None:
                acc = acc + g1.scale(w)
            if g2 is not None:
                acc = acc - g2.scale(w)
        return acc

    for l in range(n):
        for i in range(n):
            for j in range(n):
                t = T(l, i, j)
                if t != T(i, l, j) or t != T(l, j, i):
                    return False
    return True


def test_affine_space_of_connections(sym2):
    c1 = connection_from_T(sym2, {(0, 0, 0): parse_poly("x2", sym2.roster)})
    c2 = connection_from_T(sym2, {(0, 0, 1): parse_poly("x1", sym2.roster)})
    assert symplectic_pair_difference_symmetric(c1, c2)
    # Gamma^1_11 = 1 alone is not omega-symmetric: T_211 != T_121
    assert not symplectic_pair_difference_symmetric(
        c1, ConnectionFamily(sym2, {(0, 0, 0): Poly.const(sym2.roster, 1)}))
