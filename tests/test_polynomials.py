import copy
import pickle
import random
from fractions import Fraction

import pytest

from fedconn.scalars import Scalar
from fedconn.polynomials import (
    T_ONE, Poly,
    parse_poly, x_roster, monomials_up_to, pp_gcd, ExprError,
)
from fedconn.multidiff import MultiDiffOp
from fedconn.properties import random_poly

R2 = x_roster(2)


def test_basic_cancellation():
    x1 = Poly.var(R2, "x1")
    assert (x1 * x1 - x1 ** 2).is_zero()


# t-only values are Polys over the empty roster ()

def test_gcd_normalization():
    t = Poly.var((), "t")
    pr = (t * t - 1) / (t - 1)
    assert pr.den is T_ONE
    assert pr == t + 1


def test_gcd_multivariate():
    t1, t2 = Poly.var((), "t1"), Poly.var((), "t2")
    a = (t1 + t2) * (t1 - t2)
    b = (t1 + t2) * t1
    g = pp_gcd(a, b)
    assert g == t1 + t2


def test_denominator_normalized_monic():
    t = Poly.var((), "t")
    pr = Poly.const((), 1) / (t.scale(2) + 2)
    # denominator is monic, the 1/2 moved into the numerator
    assert pr.den == t + 1
    assert pr.scalar_terms() == {((), ()): Scalar(Fraction(1, 2))}


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(25):
        a = random_poly(R2, rng, params=("t1",))
        b = random_poly(R2, rng, params=("t1",))
        c = random_poly(R2, rng, params=("t1",))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_differentiate_examples():
    p = parse_poly("x1^2*x2", R2)
    assert p.differentiate("x1") == parse_poly("2*x1*x2", R2)
    assert parse_poly("t1*x1", R2).differentiate("t1") == parse_poly("x1", R2)
    assert parse_poly("x1", R2).differentiate("x2").is_zero()
    with pytest.raises(ValueError):
        p.differentiate("z9")


def test_differentiate_leibniz_randomized():
    rng = random.Random(7)
    for _ in range(10):
        a = random_poly(R2, rng)
        b = random_poly(R2, rng)
        lhs = (a * b).differentiate("x1")
        assert lhs == a.differentiate("x1") * b + a * b.differentiate("x1")


def test_antiderivative_examples():
    t_roster = ()
    assert parse_poly("2*t1", t_roster).antiderivative("t1") == parse_poly("t1^2", t_roster)
    assert parse_poly("x1", R2).antiderivative("t1") == parse_poly("t1*x1", R2)


def test_antiderivative_fundamental_theorem():
    rng = random.Random(3)
    for _ in range(10):
        p = random_poly(R2, rng, params=("t1",))
        assert p.antiderivative("x1").differentiate("x1") == p
        # the other order loses only the x1-constant part
        q = p.differentiate("x1").antiderivative("x1")
        diff = p - q
        assert diff.differentiate("x1").is_zero()


def test_antiderivative_denominator_error():
    p = parse_poly("1/(1+t1)*x1", R2)
    with pytest.raises(ValueError):
        p.antiderivative("t1")
    # a different parameter in the denominator is fine
    q = p.antiderivative("t2")
    assert q.differentiate("t2") == p


def test_division_where_defined():
    p = parse_poly("(x1^2 - x2^2)", R2)
    q = parse_poly("x1 - x2", R2)
    assert p / q == parse_poly("x1 + x2", R2)
    with pytest.raises(ValueError):
        parse_poly("x1", R2) / parse_poly("x2", R2)
    with pytest.raises(ZeroDivisionError):
        p / Poly.zero(R2)


def test_canonical_round_trip_is_byte_identical():
    rng = random.Random(23)
    for _ in range(20):
        p = random_poly(R2, rng, degree=3, terms=4, params=("t1", "t2"))
        text = str(p)
        q = parse_poly(text, R2)
        assert q == p
        assert str(q) == text


def test_grammar_prints_graded_lex():
    p = parse_poly("3/2*x1^2*x2 - i*x2", R2)
    assert str(p) == "3/2*x1^2*x2 - i*x2"


def test_parser_errors():
    with pytest.raises(ExprError):
        parse_poly("x9", R2)
    with pytest.raises(ExprError):
        parse_poly("x1 +", R2)
    with pytest.raises(ExprError):
        parse_poly("x1 ^ t1", R2)


def test_monomials_up_to():
    basis = monomials_up_to(R2, 2)
    assert [str(m) for m in basis] == ["1", "x2", "x1", "x2^2", "x1*x2", "x1^2"]


def test_formal_function_algebra():
    # a formal function is an arity-0 operator, multiplied by the pointwise star
    f = MultiDiffOp.function(R2, parse_poly("x1", R2), 3)
    g = MultiDiffOp.function(R2, parse_poly("x2", R2), 1).shift_h(2)
    prod = MultiDiffOp.pointwise(R2, 3).apply(f + g, f - g)
    assert prod.order == 3
    assert prod.poly(0) == parse_poly("x1^2", R2)
    assert prod.poly(2).is_zero()
    # h^4 term x2^2 is beyond the truncation order 3
    assert prod.poly(4).is_zero()
    with pytest.raises(ValueError):
        g.shift_h(-3)


def test_param_substitution():
    p = parse_poly("(1+t1)*x1 + t1^2*x2", R2)
    q = p.subs_params({"t1": Fraction(1, 2)})
    assert q == parse_poly("3/2*x1 + 1/4*x2", R2)
    with pytest.raises(ZeroDivisionError):
        parse_poly("1/(1+t1)*x1", R2).subs_params({"t1": -1})


@pytest.mark.parametrize("text", ["x1^2 - 2/3*x2 + i", "(t1 + 2)*x1 + i*t1^2*x2 - t2",
                                  "(2 - i)*t1/(t1^2 + 2)*x1 + x2/(t1 + 1)"])
def test_pickle_round_trip_keeps_the_t_one_sentinel(text):
    # T_ONE is recognized by identity: a copy of it as a den would make
    # every den-is-T_ONE test fail and multiplication recurse without end
    p = parse_poly(text, R2)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        q = pickle.loads(pickle.dumps(p, proto))
        assert (q.den is T_ONE) == (p.den is T_ONE)
        assert q == p and str(q) == str(p)
        assert q * q == p * p and q * p + q == p * p + p
    assert copy.deepcopy(p) == p and copy.deepcopy(p).den == p.den
    assert pickle.loads(pickle.dumps(T_ONE)) is T_ONE
