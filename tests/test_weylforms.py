import itertools
import random

import pytest

from fedconn.scalars import Scalar, I
from fedconn.polynomials import Poly, parse_poly
from fedconn.weylforms import (
    WeylForm, omega_tilde, poincare_potential, wedge, dx_wedges, interiors,
)
from fedconn.properties import random_weyl_form

from reference_kernels import _contract, wedge_by_inversions


def y(sym, *alpha):
    return WeylForm.y_monomial(sym, 8, alpha)


def test_moyal_on_generators(sym2):
    prod = y(sym2, 1, 0).mw(y(sym2, 0, 1))
    expect = WeylForm.y_monomial(sym2, 8, (1, 1)) + WeylForm.y_monomial(
        sym2, 8, (0, 0), coeff=Poly.const(sym2.roster, I * Scalar(1) / 2), h_power=1
    )
    assert prod == expect


def test_commutator_of_generators(sym2):
    comm = y(sym2, 1, 0).mw(y(sym2, 0, 1)) - y(sym2, 0, 1).mw(y(sym2, 1, 0))
    assert comm == WeylForm.y_monomial(sym2, 8, (0, 0), coeff=Poly.const(sym2.roster, I), h_power=1)


def test_ad_over_h_examples(sym2):
    assert y(sym2, 1, 0).ad_over_h(y(sym2, 0, 1)) == WeylForm.from_poly(sym2, 8, Poly.const(sym2.roster, -1))
    a = random_weyl_form(sym2, 8, random.Random(1))
    one = WeylForm.unit(sym2, 8)
    assert a.ad_over_h(one).is_zero()
    f = WeylForm.from_poly(sym2, 8, parse_poly("x1^2*x2", sym2.roster))
    g = WeylForm.from_poly(sym2, 8, parse_poly("x2^3", sym2.roster))
    assert f.ad_over_h(g).is_zero()


def test_unit_of_product(sym2):
    rng = random.Random(2)
    one = WeylForm.unit(sym2, 8)
    for _ in range(5):
        a = random_weyl_form(sym2, 8, rng)
        assert one.mw(a) == a
        assert a.mw(one) == a


def test_moyal_associativity_randomized(sym2):
    rng = random.Random(3)
    for _ in range(10):
        a = random_weyl_form(sym2, 8, rng, terms=3)
        b = random_weyl_form(sym2, 8, rng, terms=3)
        c = random_weyl_form(sym2, 8, rng, terms=3)
        assert a.mw(b).mw(c) == a.mw(b.mw(c))


def test_dimension_mismatch(sym2, sym4):
    with pytest.raises(ValueError):
        WeylForm.unit(sym2, 8).mw(WeylForm.unit(sym4, 8))


def test_delta_examples(sym2):
    d = y(sym2, 1, 1).delta()
    expect = WeylForm.y_monomial(sym2, 8, (0, 1), J=(0,)) + WeylForm.y_monomial(sym2, 8, (1, 0), J=(1,))
    assert d == expect


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_form_index_rules_match_the_inversion_count(dim):
    # every pair of disjoint index sets, every dx^i ^ dx^J and every iota_i dx^J;
    # iota_i dx^J is the sign of moving dx^i to the front of dx^J
    sets = [J for size in range(dim + 1) for J in itertools.combinations(range(dim), size)]
    for J1 in sets:
        for J2 in sets:
            if not set(J1) & set(J2):
                assert wedge(J1, J2) == wedge_by_inversions(J1, J2), (J1, J2)
    for J in sets:
        assert dx_wedges(J, dim) == tuple(
            (i, *wedge_by_inversions((i,), J)) for i in range(dim) if i not in J), J
        expect = []
        for i in J:
            rest = tuple(j for j in J if j != i)
            sign, merged = wedge_by_inversions((i,), rest)
            assert merged == J
            expect.append((i, sign, rest))
        assert interiors(J) == tuple(expect), J


def test_delta_nilpotency(sym2):
    rng = random.Random(4)
    for _ in range(10):
        a = random_weyl_form(sym2, 8, rng)
        assert a.delta().delta().is_zero()
        assert a.delta_star().delta_star().is_zero()


def test_homotopy_hand_example(sym2):
    a = WeylForm.y_monomial(sym2, 8, (0, 1), J=(0,))  # y^2 dx^1
    inv = a.delta_inv()
    assert inv == WeylForm.y_monomial(sym2, 8, (1, 1), coeff=Poly.const(sym2.roster, Scalar(1) / 2))
    half = Poly.const(sym2.roster, Scalar(1) / 2)
    expect = WeylForm.y_monomial(sym2, 8, (0, 1), J=(0,), coeff=half) - WeylForm.y_monomial(
        sym2, 8, (1, 0), J=(1,), coeff=half
    )
    assert a.delta().delta_inv() == expect
    assert a.delta().delta_inv() + a.delta_inv().delta() == a


def test_homotopy_randomized(sym2):
    rng = random.Random(5)
    for _ in range(20):
        a = random_weyl_form(sym2, 8, rng)
        assert a.center_part() + a.delta().delta_inv() + a.delta_inv().delta() == a


def test_delta_equals_minus_ad_of_omega_tilde(sym2):
    rng = random.Random(6)
    ot = omega_tilde(sym2, 8)
    for _ in range(10):
        a = random_weyl_form(sym2, 8, rng)
        assert a.delta() == -(ot.ad_over_h(a))


def test_h_divisibility_of_commutators(sym2):
    rng = random.Random(7)
    for _ in range(10):
        a = random_weyl_form(sym2, 8, rng, max_form=0)
        b = random_weyl_form(sym2, 8, rng, max_form=0)
        comm = a.mw(b) - b.mw(a)
        assert all(k >= 1 for (k, _, _) in comm.terms)


def test_truncation_soundness(sym2):
    rng = random.Random(8)
    for _ in range(10):
        a = random_weyl_form(sym2, 8, rng, terms=4)
        b = random_weyl_form(sym2, 8, rng, terms=4)
        assert a.mw(b).truncate(6) == a.truncate(6).mw(b.truncate(6))


def test_projection(sym2):
    r = sym2.roster
    f = parse_poly("x1^2 - 3*x2", r)
    a = WeylForm.from_poly(sym2, 8, f) + WeylForm.y_monomial(sym2, 8, (1, 0), coeff=parse_poly("x2", r))
    assert a.project_function(3).poly(0) == f
    hterm = WeylForm.from_poly(sym2, 8, parse_poly("x1", r), h_power=2)
    assert hterm.project_function(3).poly(2) == parse_poly("x1", r)
    dx_form = WeylForm.y_monomial(sym2, 8, (0, 0), J=(0,))
    with pytest.raises(ValueError):
        dx_form.project_function(3)
    with pytest.raises(ValueError):
        dx_form.projected_mw(a, 3)
    with pytest.raises(ValueError):
        a.projected_ad_over_h(dx_form, 3)


def test_projected_pairings_match_full_products(sym2, sym4):
    # the direct projections against the full product, then project_function
    rng = random.Random(10)
    t_poly = Poly.var((), "t1") + 2
    h_powers = set()
    for sym in (sym2, sym4):
        x1 = WeylForm.from_poly(sym, 8, Poly.var(sym.roster, "x1"))  # reaches h^0
        for trial in range(12):
            a = random_weyl_form(sym, 8, rng, terms=8, max_form=0) + x1
            b = random_weyl_form(sym, 6, rng, terms=8, max_form=0) + x1
            if trial % 2:
                a = a.scale(t_poly)
            for order in (2, 3, 4):  # below, at and above min(trunc) // 2
                for fast, full in ((a.projected_mw(b, order), a.mw(b)),
                                   (a.projected_ad_over_h(b, order), a.ad_over_h(b))):
                    full = full.project_function(order)
                    assert fast == full and fast.order == full.order
                    h_powers.update(k for k, _ in full.terms)
    assert h_powers == {0, 1, 2, 3}


def low_parts(form, cap):
    """The terms of total degree <= cap: the reference for a capped pairing."""
    return WeylForm(form.ctx, form.trunc, {
        key: c for key, c in form.terms.items() if 2 * key[0] + sum(key[1]) <= cap})


def test_capped_pairings_match_full_products(sym2, sym4):
    # max_degree keeps exactly the parts of degree <= cap of the full pairing,
    # on forms with dx parts and t-dependent coefficients
    rng = random.Random(11)
    t_poly = Poly.var((), "t1") + 2
    dropped = 0
    for sym in (sym2, sym4):
        max_y = 2 if sym.dim == 2 else 1
        for trial in range(6):
            a = random_weyl_form(sym, 8, rng, terms=8, max_y=max_y, max_form=1)
            b = random_weyl_form(sym, 7, rng, terms=8, max_y=max_y, max_form=1)
            if trial % 2:
                a = a.scale(t_poly)
            for name in ("mw", "graded_comm", "ad_over_h"):
                full = getattr(a, name)(b)
                assert getattr(a, name)(b, max_degree=None) == full
                for cap in range(-1, 9):
                    capped = getattr(a, name)(b, max_degree=cap)
                    assert capped == low_parts(full, cap), (name, cap)
                    assert capped.trunc == full.trunc
                    dropped += len(full.terms) - len(capped.terms)
    assert dropped > 1000


def test_map_coefficients_drops_zero_images_and_keeps_the_truncation(sym2):
    roster = sym2.roster
    a = WeylForm(sym2, 6, {(0, (1, 0), ()): parse_poly("x1 + t1", roster),
                           (1, (0, 2), (0,)): parse_poly("x2", roster),
                           (0, (0, 0), (0, 1)): parse_poly("t1^2", roster)})
    d = a.map_coefficients(lambda c: c.differentiate("t1"))
    assert d.trunc == 6
    assert d.terms == {(0, (1, 0), ()): parse_poly("1", roster),
                       (0, (0, 0), (0, 1)): parse_poly("2*t1", roster)}
    zero = a.map_coefficients(lambda c: c.scale(0))
    assert zero.is_zero() and zero.trunc == 6
    assert a.t_derivative("t1") == d and a.scale(0) == zero


def test_select_keeps_the_accepted_terms_at_the_truncation(sym2):
    a = random_weyl_form(sym2, 7, random.Random(11), terms=10)
    ones = a.select(lambda key: len(key[2]) == 1)
    rest = a.select(lambda key: len(key[2]) != 1)
    assert ones.trunc == rest.trunc == 7
    assert ones.form_degrees() == [1] and 1 not in rest.form_degrees()
    assert ones + rest == a


def test_poincare_potential(sym2):
    om = WeylForm.omega_form(sym2, 8)
    pot = poincare_potential(om)
    assert pot.d_x() == om
    rng = random.Random(9)
    # random closed 2-form on R^2 (top degree, so closed automatically)
    c = parse_poly("x1^2*x2 - x2", sym2.roster)
    form = WeylForm.two_form(sym2, 8, {(1, 0, 1): c})
    assert poincare_potential(form).d_x() == form
    with pytest.raises(ValueError):
        poincare_potential(WeylForm.y_monomial(sym2, 8, (1, 0), J=(0,)))


def test_serialization_golden(sym2):
    r = sym2.roster
    a = (
        WeylForm.y_monomial(sym2, 8, (0, 1), J=(0,), coeff=parse_poly("1/2*x1", r), h_power=1)
        + WeylForm.y_monomial(sym2, 8, (2, 0), coeff=parse_poly("-x2", r))
    )
    assert a.serialize() == "\n".join([
        "h^0 * -x2 * y^(2,0) * dx{}",
        "h^1 * 1/2*x1 * y^(0,1) * dx{1}",
    ])
    assert WeylForm.zero(sym2, 8).serialize() == "0"


@pytest.mark.parametrize("seed", range(6))
def test_ad_over_h_of_one_forms_is_symmetric(sym2, sym4, seed):
    # the graded commutator of two odd forms is symmetric, which lets r be
    # bracketed with itself once per unordered pair of parts
    rng = random.Random(seed)
    sym = sym2 if seed % 2 else sym4
    t_poly = Poly.var((), "t1") + 2

    def one_form():
        form = random_weyl_form(sym, 8, rng, terms=6, max_form=1)
        return WeylForm(sym, 8, {key: c for key, c in form.terms.items() if len(key[2]) == 1})

    a, b = one_form(), one_form().scale(t_poly)
    assert not a.is_zero() and not b.is_zero()
    assert a.ad_over_h(b) == b.ad_over_h(a)
    assert a.ad_over_h(b, max_degree=4) == b.ad_over_h(a, max_degree=4)
    # an even form is antisymmetric with a 1-form, so the shortcut is for 1-forms only
    c = random_weyl_form(sym, 8, rng, terms=6, max_form=0)
    assert c.ad_over_h(a) == -a.ad_over_h(c)


def mw_pair_by_states(self, key1, c1, key2, c2, out, commutator, over_h):
    """``WeylForm._mw_pair`` as a loop over the contraction states, one
    weighted product per state into the ``PolySums`` out: the reference for
    the cached contractions."""
    (k1, a1, J1), (k2, a2, J2) = key1, key2
    if set(J1) & set(J2):
        return
    ctx = self.ctx
    sign, J = wedge_by_inversions(J1, J2)
    cc = c1 * c2
    kmax = min(sum(a1), sum(a2))
    state = {(a1, a2): Scalar(1)}
    for k in range(kmax + 1):
        if state and (k % 2 == 1 or not commutator):
            factor = ctx.moyal_factor(k) * (2 if commutator else 1) * (I if over_h else 1)
            h_power = k1 + k2 + k - (1 if over_h else 0)
            for (b1, b2), w in state.items():
                key = (h_power, tuple(e1 + e2 for e1, e2 in zip(b1, b2)), J)
                out.add(key, cc, w * factor * sign)
        state = _contract(ctx, state)


@pytest.mark.parametrize("seed", range(4))
def test_cached_contractions_match_the_state_loop(sym2, sym4, seed, monkeypatch):
    rng = random.Random(30 + seed)
    sym = sym4 if seed % 2 else sym2
    t_poly = Poly.var((), "t1") + 2
    pairs = []
    for _ in range(3):
        a = random_weyl_form(sym, 8, rng, terms=6, max_y=2, max_form=1)
        b = random_weyl_form(sym, 8, rng, terms=6, max_y=2, max_form=1).scale(t_poly)
        pairs.append((a, b, [a.mw(b), a.graded_comm(b), a.ad_over_h(b), a.mw(b, max_degree=5)]))
    monkeypatch.setattr(WeylForm, "_mw_pair", mw_pair_by_states)
    assert any(not cached[0].is_zero() for _, _, cached in pairs)
    assert any(not cached[2].is_zero() for _, _, cached in pairs)
    for a, b, cached in pairs:
        assert cached == [a.mw(b), a.graded_comm(b), a.ad_over_h(b), a.mw(b, max_degree=5)]
