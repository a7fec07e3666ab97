"""The packed term keys of ``Poly`` against the tuple-key product loop.

A key of ``Poly.terms`` is one int: the x exponents along the roster in
16-bit fields, the exponents of t, t1, t2, ... in the fields above them.
``acc_product_by_tuples`` (``reference_kernels``) is the product loop on
(x exponents, t monomial) tuples; ``_acc_product`` must give the same terms,
in the same order, with every packed key read back through ``tuple_terms``.
The cases cover the empty, a one-variable, an unsorted and a mixed
x/xi/eta roster, the parameters t; t1 and t2; and t, t1 and t2,
t-polynomial and t-rational coefficients, and sums that cancel.  The last
tests drive an exponent to the field limit: past it, every route raises,
none carries, and the command line reports it as bad input.
"""

import random
from fractions import Fraction

import pytest

from fedconn.scalars import Scalar
from fedconn.polynomials import (
    MAX_EXPONENT, T_ONE, ExponentOverflowError, ExprError, Poly, PolySums, is_param_name,
    parse_poly, pp_gcd, _acc_product,
)
from fedconn.cli import main
from fedconn.fedosov import jet_names, star_depth

from reference_kernels import acc_product_by_tuples, tuple_terms

ROSTERS = [(), ("x1",), ("x1", "x2", "x3"), ("x2", "x1"), ("xi2", "x1", "eta1", "x3")]
PARAMS = [("t",), ("t1", "t2"), ("t", "t1", "t2")]
DENOMINATORS = ["t + 1", "t1^2 + t2", "t2 - 3", "2*t1 + i"]
WEIGHTS = [(1, 0), (-3, 0), (2, 5), (0, -1)]


def random_ring_poly(rng, roster, params, rational):
    p = Poly.zero(roster)
    for _ in range(rng.randint(1, 4)):
        c = Poly.const((), Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                  Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
        for name in rng.sample(params, rng.randint(0, len(params))):
            c = c * Poly.var((), name) ** rng.randint(1, 3)
        p = p + Poly.monomial(roster, tuple(rng.randint(0, 3) for _ in roster), c)
    if rational:
        p = p / parse_poly(rng.choice(DENOMINATORS), ())
    return p


def case(seed):
    rng = random.Random(seed)
    roster = ROSTERS[seed % len(ROSTERS)]
    params = PARAMS[seed % len(PARAMS)]
    a = random_ring_poly(rng, roster, params, rational=seed % 4 == 3)
    b = random_ring_poly(rng, roster, params, rational=seed % 5 == 4)
    return rng, roster, a, b


@pytest.mark.parametrize("seed", range(30))
def test_product_loop_matches_tuple_keys(seed):
    rng, roster, a, b = case(seed)
    c, d = rng.choice(WEIGHTS)
    ref, out = {}, {}
    acc_product_by_tuples(ref, tuple_terms(a), tuple_terms(b), c, d)
    _acc_product(out, a.terms, b.terms, c, d)
    assert list(tuple_terms(Poly._new(roster, out, 1, T_ONE)).items()) == list(ref.items())
    # the product Poly is the reference product, reduced over both denominators
    ref = {}
    acc_product_by_tuples(ref, tuple_terms(a), tuple_terms(b), 1, 0)
    expect = Poly(roster, {key: Scalar._make(x, y, a.q * b.q) for key, (x, y) in ref.items()},
                  a.den * b.den)
    product = a * b
    assert (product.roster, product.terms, product.q, product.den) == \
        (expect.roster, expect.terms, expect.q, expect.den)


@pytest.mark.parametrize("seed", range(12))
def test_sums_that_cancel_match_tuple_keys(seed):
    rng, roster, a, b = case(100 + seed)
    c, d = rng.choice(WEIGHTS)
    ref, out = {}, {}
    for sign in (1, -1):
        acc_product_by_tuples(ref, tuple_terms(a), tuple_terms(b), sign * c, sign * d)
        _acc_product(out, a.terms, b.terms, sign * c, sign * d)
    assert ref == {} and out == {}
    # (a + b)(a - b): the cross terms cancel term by term
    assert (a + b) * (a - b) == a * a - b * b
    assert (a * b - b * a).is_zero() and (a * b - b * a).terms == {}
    sums = PolySums()
    sums.add_product("k", a, b, 1)
    sums.add_product("k", b, a, -1)
    assert sums.polys() == {}


def test_parameter_fields_follow_the_natural_order():
    # t, t1, t2, ... own fields 0, 1, 2, ... above the x fields; t0 and t01
    # would share the fields of t and t1, so they are not parameters, and
    # neither is a name whose field would lie past 9999
    names = ("t", "t1", "t12", "t9999", "t0", "t01", "t10000", "tx", "x1")
    assert [is_param_name(n) for n in names] == [True] * 4 + [False] * 5
    p = Poly.var(("x1",), "t10") * Poly.var(("x1",), "t") * Poly.var(("x1",), "t2")
    assert p.scalar_terms() == {((0,), (("t", 1), ("t2", 1), ("t10", 1))): Scalar(1)}
    assert str(p) == "t*t2*t10" and p.param_variables() == {"t", "t2", "t10"}
    assert p.with_roster(()).scalar_terms() == {((), (("t", 1), ("t2", 1), ("t10", 1))): Scalar(1)}
    for name in ("t01", "t0"):
        with pytest.raises(ExprError):
            parse_poly(f"{name}*x1", ("x1",))
        with pytest.raises(ValueError):
            Poly(("x1",), {((0,), ((name, 1),)): Scalar(1)})


def test_a_parameter_with_a_leading_zero_is_bad_input(tmp_path, capsys):
    text = (SCENARIO_R2 + "F = t01*x1^2\n", SCENARIO_R2 + "samples = t1=0 ; t01=1\n")
    for body in text:
        scenario = tmp_path / "t01.scn"
        scenario.write_text(body)
        code = main(["kahler", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "line 8: " in captured.err and "'t01'" in captured.err
        assert "Traceback" not in captured.err


def test_cross_terms_cancel_on_two_parameters():
    roster = ("x2", "x1")
    x1, x2 = Poly.var(roster, "x1"), Poly.var(roster, "x2")
    t1, t2 = Poly.var(roster, "t1"), Poly.var(roster, "t2")
    p = (x1 + t1 * t2 * x2) * (x1 - t1 * t2 * x2)
    assert tuple_terms(p) == {((0, 2), ()): (1, 0), ((2, 0), (("t1", 2), ("t2", 2))): (-1, 0)}
    assert str(p) == "-t1^2*t2^2*x2^2 + x1^2"


@pytest.mark.parametrize("seed", range(10))
def test_rosters_move_by_name(seed):
    rng, roster, a, b = case(200 + seed)
    wider = tuple(rng.sample(roster + ("y1", "x9"), len(roster) + 2))
    moved = a.with_roster(wider)
    expect = {(tuple(dict(zip(roster, m)).get(v, 0) for v in wider), t): c
              for (m, t), c in tuple_terms(a).items()}
    assert list(tuple_terms(moved).items()) == list(expect.items())
    back = moved.with_roster(roster)
    assert (back.terms, back.q, back.den) == (a.terms, a.q, a.den)
    # products and sums over rosters met in different orders
    other = random_ring_poly(rng, ("x3", "y1"), ("t1",), rational=False)
    sums = PolySums()
    sums.add_product("k", a, other, 1)
    sums.add("k", b, 2)
    assert sums.polys()["k"] == a * other + b.scale(2)


def test_renaming_a_roster_keeps_the_terms(curved_setup):
    # extract_star renames the jets xi -> eta position by position, reusing
    # each coefficient's terms, q and den: the same Poly as one rebuilt from
    # its tuples on the renamed roster
    order = 2
    sigma = curved_setup.tau_symbol(order, star_depth(order))
    etas = jet_names(curved_setup.sym.dim, "eta")
    renamed = tuple(dict(zip(curved_setup.jets, etas)).get(name, name)
                    for name in curved_setup.symbol_roster)
    rng = random.Random(5)
    coefficients = [(renamed, c) for c in sigma.terms.values()] + [
        (("eta2", "x1", "zeta1", "x3"), random_ring_poly(rng, ROSTERS[-1], PARAMS[2], rational))
        for rational in (False, True, True)]
    assert len(coefficients) > 10
    for roster, c in coefficients:
        fast = Poly._new(roster, c.terms, c.q, c.den)
        rebuilt = Poly(roster, c.scalar_terms(), c.den)
        assert (fast.terms, fast.q, fast.den) == (rebuilt.terms, rebuilt.q, rebuilt.den)


def test_exponent_at_the_field_limit():
    R = ("x1", "x2")
    x1 = Poly.var(R, "x1")
    top = Poly.monomial(R, (MAX_EXPONENT - 1, 3)) * x1
    assert tuple_terms(top) == {((MAX_EXPONENT, 3), ()): (1, 0)}
    assert top.degree_in("x1") == MAX_EXPONENT and top.degree_in("x2") == 3
    assert top.differentiate("x1") == Poly.monomial(R, (MAX_EXPONENT - 1, 3), MAX_EXPONENT)
    assert x1 ** MAX_EXPONENT == Poly.monomial(R, (MAX_EXPONENT, 0))
    t = Poly.var(R, "t2") ** MAX_EXPONENT
    assert tuple_terms(t) == {((0, 0), (("t2", MAX_EXPONENT),)): (1, 0)}
    t1_big, t2, t70 = Poly.var((), "t1") ** 20000, Poly.var((), "t2"), Poly.var(R, "t70")
    # one past the limit, by every route that raises an exponent
    routes = {
        "product": lambda: top * x1,
        "square": lambda: top * top,
        "power": lambda: x1 ** (MAX_EXPONENT + 1),
        "antiderivative": lambda: top.antiderivative("x1"),
        "map_x": lambda: top.map_x(lambda m: ((m[0] + 1, m[1]), 1)),
        "t product": lambda: t * Poly.var(R, "t2"),
        "t antiderivative": lambda: t.antiderivative("t2"),
        "t denominator": lambda: t * x1 + Poly.const(R, 1) / parse_poly("t2 + 1", ()),
        "t field past the first 64": lambda: t70 ** MAX_EXPONENT * t70,
        # the pseudo-remainder multiplies t2^2 + t1^20000 by t1^20000
        "pseudo-remainder": lambda: pp_gcd(t2 * t2 + t1_big, t1_big * t2 + 1),
        "constructor": lambda: Poly(R, {((MAX_EXPONENT + 1, 0), ()): Scalar(1)}),
        "constructor t": lambda: Poly(R, {((0, 0), (("t", MAX_EXPONENT + 1),)): Scalar(1)}),
        "monomial": lambda: Poly.monomial(R, (0, 2 ** 16)),
        "negative": lambda: Poly.monomial(R, (-1, 0)),
    }
    for name, route in routes.items():
        with pytest.raises(ExponentOverflowError):
            route()
            pytest.fail(name)
    sums = PolySums()
    sums.add_product("k", top, x1, 1)
    with pytest.raises(ExponentOverflowError):
        sums.polys()


SCENARIO_R2 = ("dimension = 2\nparams = 1\nomega = [[0, -1], [1, 0]]\n"
               "I[1][1] = -t1\nI[1][2] = 1 + t1^2\nI[2][1] = -1\nI[2][2] = t1\n")


def test_exponent_overflow_is_bad_input(tmp_path, capsys):
    R = ("x1", "x2")
    assert issubclass(ExponentOverflowError, ValueError)
    with pytest.raises(ExprError):
        parse_poly("x1^40000", R)
    with pytest.raises(ExprError):
        parse_poly("x1^20000 * x1^20000", R)
    scenario = tmp_path / "big.scn"
    scenario.write_text(SCENARIO_R2 + "F = t1*x1^40000\n")
    code = main(["kahler", "--scenario", str(scenario)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "line 8:" in captured.err and str(MAX_EXPONENT) in captured.err
    assert "Traceback" not in captured.err
