import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fedconn.scalars import Scalar, I
from fedconn.polynomials import (
    Poly, parse_poly, x_roster, monomials_up_to, merge_rosters, add_term,
)
from fedconn.multidiff import (
    MultiDiffOp, moyal_star, is_derivation, inner_potential, operator_from_symbol,
)
from fedconn.properties import random_multidiffop, cochain_battery
from fedconn.cli import main

from generators import random_poly
from conftest import series
from reference_cochains import gerstenhaber, hochschild_d, materialize, operator_from_callable
from reference_kernels import terms_on

R2 = x_roster(2)
Z = (0, 0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def d_op(a, coeff=1, h=0, order=4):
    return MultiDiffOp(R2, 1, order, {(h, (a,)): Poly.const(R2, coeff)})


def test_map_coefficients_drops_zero_images_and_keeps_the_shape():
    roster = R2 + ("xi1",)
    op = MultiDiffOp(roster, 2, 3, {
        (0, ((0, 0, 0), (1, 0, 0))): parse_poly("x1*t1 + xi1", roster),
        (2, ((0, 1, 0), (0, 0, 0))): parse_poly("x2", roster),
    })
    d = op.map_coefficients(lambda c: c.differentiate("t1"))
    assert (d.roster, d.arity, d.order) == (roster, 2, 3)
    assert d.terms == {(0, ((0, 0, 0), (1, 0, 0))): parse_poly("x1", roster)}
    zero = op.map_coefficients(lambda c: c.scale(0))
    assert zero.is_zero() and (zero.roster, zero.arity, zero.order) == (roster, 2, 3)
    assert op.t_derivative("t1") == d and op.scale(0) == zero


def test_pointwise_self_bracket_vanishes():
    m0 = MultiDiffOp.pointwise(R2, 4)
    br = gerstenhaber(m0, m0)
    f, g, k = parse_poly("x1^2", R2), parse_poly("x2", R2), parse_poly("x1*x2", R2)
    assert br.apply(f, g, k).is_zero()


def test_bracket_commutator_specialization():
    psi = d_op((1, 0))
    phi = MultiDiffOp(R2, 1, 4, {(0, (Z,)): parse_poly("x1", R2)})
    br = materialize(gerstenhaber(psi, phi), R2)
    assert br == MultiDiffOp.identity(R2, 4)
    # arity-1 brackets are plain commutators
    assert br == psi.compose(phi) - phi.compose(psi)


def test_graded_jacobi_and_antisymmetry(sym2):
    rng = random.Random(1)
    results = cochain_battery(sym2, 3, rng, count=8)
    for name, ok, wit in results:
        assert ok, (name, wit)


def flawed_bracket(flaw):
    """MultiDiffOp.bracket with one sign or one composition left out."""
    def bracket(self, phi, max_slot=None):
        r, s = self.arity - 1, phi.arity - 1
        out = MultiDiffOp.zero(self.roster, r + s + 1, min(self.order, phi.order))
        for i in range(r + 1):
            if not (flaw == "psi o_r phi dropped" and i == r):
                sign = 1 if flaw == "(-1)^{is} dropped" else (-1) ** (i * s)
                out = out + self.compose_at(i, phi, max_slot).scale(sign)
        for j in range(s + 1):
            if not (flaw == "phi o_s psi dropped" and j == s):
                sign = (-1) ** (j * r + (0 if flaw == "(-1)^{rs} dropped" else r * s))
                out = out - phi.compose_at(j, self, max_slot).scale(sign)
        return out
    return bracket


# each identity of the cochain battery, with a flaw of the bracket that breaks it
BATTERY_MUTANTS = {
    "[star, star] vanishes": "(-1)^{is} dropped",
    "d_H squared vanishes": "(-1)^{rs} dropped",
    "graded Jacobi identity": "psi o_r phi dropped",
    "graded antisymmetry": "phi o_s psi dropped",
}


@pytest.mark.parametrize("identity", BATTERY_MUTANTS)
def test_cochain_battery_fails_on_a_flawed_bracket(sym2, monkeypatch, capsys, identity):
    monkeypatch.setattr(MultiDiffOp, "bracket", flawed_bracket(BATTERY_MUTANTS[identity]))
    results = {name: (ok, wit) for name, ok, wit in cochain_battery(sym2, 3, random.Random(0), 5)}
    ok, wit = results[identity]
    assert not ok and wit.startswith("failed on seeded instance ")
    # through verify-all it is a FAIL line with that witness, and exit 1
    code = main(["verify-all", "--scenario", str(SCENARIOS / "flat_r2.scn")])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "") and "Traceback" not in out
    line = out.index(f"[FAIL] cochain battery: {identity}\n")
    assert out[line:].splitlines()[1].startswith("       witness: failed on seeded instance ")


def test_hochschild_formula():
    m0 = MultiDiffOp.pointwise(R2, 4)
    phi = MultiDiffOp(R2, 1, 4, {(0, ((1, 1),)): parse_poly("x2", R2)})
    dh = hochschild_d(phi, m0)
    f, g = parse_poly("x1^2*x2", R2), parse_poly("x2^3 - x1", R2)
    lhs = dh.apply(f, g)

    def value(x):
        # phi has an h^0 layer only
        return phi.apply(x).poly(0)

    rhs = f * value(g) + value(f) * g - value(f * g)
    assert lhs == MultiDiffOp.function(R2, rhs, 4) and lhs.order == 4


def test_hochschild_square_zero(sym2):
    star = moyal_star(sym2, 4)
    rng = random.Random(2)
    basis = monomials_up_to(R2, 2)
    for _ in range(6):
        phi = random_multidiffop(R2, rng, 1, 4)
        ddphi = gerstenhaber(star, gerstenhaber(star, phi))
        args = [rng.choice(basis) for _ in range(3)]
        assert ddphi.apply(*args).is_zero()


def test_inner_derivations_are_derivations(sym2):
    star = moyal_star(sym2, 4)
    b = series(R2, 4, {1: parse_poly("x1", R2)})
    B = star.ad_over_h(b)
    # (1/h) ad(h x1) acts at lowest order as i d/dx2
    assert B.h_coefficient(1) == d_op((0, 1), coeff=I, order=0)
    ok, wit = is_derivation(B, star, basis_degree=3)
    assert ok, wit
    ok, wit = is_derivation(MultiDiffOp.zero(R2, 1, 4), star, basis_degree=2)
    assert ok


def test_multiplication_operator_fails_with_witness(sym2):
    star = moyal_star(sym2, 4)
    B = MultiDiffOp(R2, 1, 4, {(1, (Z,)): parse_poly("x1", R2)})
    ok, wit = is_derivation(B, star, basis_degree=2)
    assert not ok
    assert "h^1" in wit


def test_inner_potential_examples(sym2):
    star = moyal_star(sym2, 4)
    B = star.ad_over_h(series(R2, 4, {1: parse_poly("x1", R2)}))
    b = inner_potential(B, star, sym2)
    assert b.poly(1) == parse_poly("x1", R2)
    assert inner_potential(MultiDiffOp.zero(R2, 1, 4), star, sym2).is_zero()


def test_inner_potential_round_trip(sym2):
    star = moyal_star(sym2, 4)
    rng = random.Random(3)
    for _ in range(5):
        coeffs = {}
        for k in range(1, 4):
            p = random_poly(R2, rng, degree=3, terms=2)
            coeffs[k] = p - Poly.const(R2, p.constant_coefficient())
        b = series(R2, 4, coeffs)
        B = star.ad_over_h(b)
        back = inner_potential(B, star, sym2)
        for k in range(1, 4):
            assert back.poly(k) == b.poly(k)


def test_subs_params_keeps_the_symplectic_data(sym2, curved_setup):
    # a substituted star still recovers inner potentials with the symplectic
    # data it was built from: the Moyal star has no Fedosov setup, and an
    # extracted one is read with its setup's
    b = series(R2, 4, {1: parse_poly("x1^2*x2", R2)})
    for star, sym in ((moyal_star(sym2, 4), sym2),
                      (curved_setup.extract_star(4), curved_setup.sym)):
        for s in (star, star.subs_params({}), star.subs_params({"t1": 1})):
            assert inner_potential(s.ad_over_h(b), s, sym) == b


def test_inner_potential_rejects_non_derivation(sym2):
    star = moyal_star(sym2, 4)
    B = MultiDiffOp(R2, 1, 4, {(1, ((2, 0),)): Poly.const(R2, 1)})
    with pytest.raises(ValueError):
        inner_potential(B, star, sym2)


def test_evaluation_completeness():
    rng = random.Random(4)
    for arity in (1, 2):
        op = random_multidiffop(R2, rng, arity, 2, slot_degree=2, terms=4)
        rebuilt = operator_from_callable(
            op.apply, R2, arity, 2, lambda k, op=op: op.slot_order()
        )
        assert rebuilt == op


def test_compose_and_leibniz():
    p = MultiDiffOp(R2, 1, 4, {(0, ((2, 0),)): parse_poly("x2", R2)})
    q = MultiDiffOp(R2, 1, 4, {(0, ((0, 1),)): parse_poly("x1", R2)})
    f = parse_poly("x1^2*x2^2", R2)
    assert p.compose(q).apply(f) == p.apply(q.apply(f).poly(0))
    comm = p.bracket(q)
    assert comm.apply(f) == p.apply(q.apply(f).poly(0)) - q.apply(p.apply(f).poly(0))


def test_partial_apply(sym2):
    star = moyal_star(sym2, 3)
    b = parse_poly("x1^2", R2)
    left = star.partial_apply(0, b)
    f = parse_poly("x2^2", R2)
    assert left.apply(f) == star.apply(b, f)


def test_operator_serialization_golden():
    op = MultiDiffOp(R2, 2, 2, {
        (1, ((1, 0), (0, 1))): parse_poly("1/2*x1", R2),
        (0, (Z, Z)): Poly.const(R2, 1),
    })
    assert op.serialize() == "\n".join([
        "h^0 * 1 * D[(0,0),(0,0)]",
        "h^1 * 1/2*x1 * D[(1,0),(0,1)]",
    ])


def test_moyal_matches_pointwise_at_h0(sym2):
    star = moyal_star(sym2, 3)
    assert star.h_coefficient(0).apply(parse_poly("x1", R2), parse_poly("x2", R2)).poly(0) \
        == parse_poly("x1*x2", R2)


def test_inner_potential_rejects_non_symplectic_field(sym2):
    star = moyal_star(sym2, 4)
    # h x1 d/dx1 is a vector field, but i_X omega is not closed
    B = MultiDiffOp(R2, 1, 4, {(1, ((1, 0),)): parse_poly("x1", R2)})
    with pytest.raises(ValueError, match="not symplectic|not closed"):
        inner_potential(B, star, sym2)


def series_product(a, b, order):
    """The product of two h-series {k: Poly}, truncated at h^order."""
    out = {}
    for k1, p1 in a.items():
        for k2, p2 in b.items():
            if k1 + k2 <= order:
                add_term(out, k1 + k2, p1 * p2)
    return out


def apply_termwise(op, *args):
    """MultiDiffOp.apply as first written: one series product per term, with
    the operator's slots and the arguments moved onto the merged roster."""
    roster = functools.reduce(merge_rosters, (a.roster for a in args), op.roster)
    ffs = []
    order = op.order
    for a in args:
        if isinstance(a, Poly):
            a = MultiDiffOp.function(a.roster, a, order)
        order = min(order, a.order)
        ffs.append({k: p.with_roster(roster) for (k, _), p in a.terms.items()})
    out = {}
    for (k, slots), c in terms_on(op, roster).items():
        if k > order:
            continue
        acc = {0: c}
        for s, coeffs in zip(slots, ffs):
            acc = series_product(acc, {kk: p.deriv_multi(s) for kk, p in coeffs.items()}, order - k)
        for kk, p in acc.items():
            add_term(out, k + kk, p)
    return series(roster, order, out)


def test_apply_matches_termwise_reference():
    rng = random.Random(7)
    R3 = x_roster(3)
    t1 = Poly.var((), "t1")
    for trial in range(12):
        arity = 1 + trial % 2
        order = rng.randint(2, 4)
        op_roster = R3 if trial % 4 == 1 else R2
        op = random_multidiffop(op_roster, rng, arity, order, slot_degree=3, terms=6)
        if trial % 3 == 0:
            # t-dependent coefficients
            op = MultiDiffOp(op_roster, arity, order,
                             {key: c.scale(t1 + trial) for key, c in op.terms.items()})
        args = []
        for _ in range(arity):
            # formal functions in x1..x3 and polynomials in x1, x2: the
            # rosters differ from the operator's
            if rng.random() < 0.7:
                roster = R3 if rng.random() < 0.4 else R2
                coeffs = {k: random_poly(roster, rng, degree=4, terms=3, params=("t1",))
                          for k in range(rng.randint(1, 3))}
                args.append(series(roster, rng.randint(1, 4), coeffs))
            else:
                args.append(random_poly(R2, rng, degree=4, terms=3, params=("t1",)))
        if trial % 3:
            # formal functions with coefficients rational in t
            over = parse_poly("(2 - i)/(t1^2 + 2)", ())
            args = [series(a.roster, a.order, {k: p * over for (k, _), p in a.terms.items()})
                    if isinstance(a, MultiDiffOp) else a for a in args]
        got, expect = op.apply(*args), apply_termwise(op, *args)
        assert got == expect
        assert (got.order, str(got)) == (expect.order, str(expect))


# operands on different rosters: slots are read along each operand's own roster
D1 = MultiDiffOp(R2, 1, 0, {(0, ((1, 0),)): Poly.const(R2, 1)})
DX2 = MultiDiffOp(("x2",), 1, 0, {(0, ((1,),)): Poly.const(("x2",), 1)})


def test_apply_reads_slots_along_the_operator_roster():
    x2 = series(("x2",), 0, {0: parse_poly("x2", ("x2",))})
    assert D1.apply(x2).is_zero()
    R3 = x_roster(3)
    d3 = MultiDiffOp(R3, 1, 0, {(0, ((0, 0, 1),)): Poly.const(R3, 1)})
    x1x2 = series(R2, 0, {0: parse_poly("x1*x2", R2)})
    assert d3.apply(x1x2).is_zero()
    assert d3.partial_apply(0, x1x2).is_zero()


def test_compose_and_sum_align_slots_on_the_merged_roster():
    x1 = MultiDiffOp(R2, 1, 0, {(0, (Z,)): parse_poly("x1", R2)})
    assert DX2.compose(x1).serialize() == "h^0 * x1 * D[(0,1)]"
    for total in (DX2 + D1, D1 + DX2):
        assert total.apply(parse_poly("x2^2", R2)) == series(R2, 0, {0: parse_poly("2*x2", R2)})
        assert total.terms.keys() == {(0, ((0, 1),)), (0, ((1, 0),))}


def test_with_roster_moves_slots_and_coefficients():
    op = MultiDiffOp(("x2",), 2, 1, {(1, ((1,), (2,))): parse_poly("x2^2", ("x2",))})
    moved = op.with_roster(x_roster(3))
    assert moved.roster == x_roster(3) and (moved.arity, moved.order) == (2, 1)
    assert moved.terms == {(1, ((0, 1, 0), (0, 2, 0))): parse_poly("x2^2", x_roster(3))}
    assert op.with_roster(("x2",)) is op
    # equality reads the slots along each roster too
    assert DX2 == MultiDiffOp(R2, 1, 0, {(0, ((0, 1),)): Poly.const(R2, 1)})
    assert DX2 != MultiDiffOp(("x1",), 1, 0, {(0, ((1,),)): Poly.const(("x1",), 1)})
    with pytest.raises(ValueError, match="lacks"):
        D1.with_roster(("x2",))


def test_operators_of_different_order_differ():
    # x1 known to h^1 is not x1 known to h^4, though their terms agree
    x1 = parse_poly("x1", R2)
    assert MultiDiffOp.function(R2, x1, 1) != MultiDiffOp.function(R2, x1, 4)
    assert MultiDiffOp.function(R2, x1, 4).truncate(1) == MultiDiffOp.function(R2, x1, 1)
    assert D1 != MultiDiffOp(R2, 1, 3, D1.terms) and D1 == MultiDiffOp(R2, 1, D1.order, D1.terms)


def test_functions_are_arity_0_operators():
    b = series(("x2",), 2, {0: parse_poly("x2", ("x2",)), 2: parse_poly("x2^2", ("x2",))})
    f = MultiDiffOp.function(R2, b, 1)
    assert (f.roster, f.arity, f.order, f.slot_order()) == (R2, 0, 1, 0)
    assert f.terms == {(0, ()): parse_poly("x2", R2)}
    assert MultiDiffOp.function(R2, b, 3).order == 2
    assert f.apply() is f and f == series(R2, 1, {0: parse_poly("x2", R2)})
    assert MultiDiffOp.function(R2, parse_poly("x1", R2), 4).h_coefficient(0).slot_order() == 0
    assert MultiDiffOp.zero(R2, 0, 2).slot_order() == 0
    # composing a function into a slot is partial_apply
    assert D1.compose_at(0, MultiDiffOp.function(R2, parse_poly("x1^2", R2), 0)).apply() \
        == series(R2, 0, {0: parse_poly("2*x1", R2)})


def test_operator_from_symbol():
    # h^1 (x1 xi2 + 3 xi1 eta1^2) + h^2 x2: arity 2 in the jets (xi1, xi2), (eta1, eta2)
    roster = ("eta1", "eta2", "x1", "x2", "xi1", "xi2")
    sym = series(roster, 2, {1: parse_poly("x1", roster) * Poly.var(roster, "xi2")
                             + Poly.monomial(roster, (2, 0, 0, 0, 1, 0), 3),
                             2: Poly.var(roster, "x2")})
    jets = (("xi1", "xi2"), ("eta1", "eta2"))
    op = operator_from_symbol(R2, 2, sym, jets)
    assert op == MultiDiffOp(R2, 2, 2, {
        (1, ((0, 1), Z)): parse_poly("x1", R2),
        (1, ((1, 0), (2, 0))): Poly.const(R2, 3),
        (2, (Z, Z)): parse_poly("x2", R2),
    })
    assert operator_from_symbol(R2, 1, sym, jets).terms.keys() == {
        (1, ((0, 1), Z)), (1, ((1, 0), (2, 0)))}
    with pytest.raises(ValueError, match="outside x and the jets"):
        operator_from_symbol(R2, 2, sym, jets[:1])
