"""Scalar ring tests: Laurent polynomials in v (= q^(1/2)) and their fractions."""

import math
import random
import time
from fractions import Fraction

import pytest

from qlie import qring
from qlie.qring import (
    DenominatorVanishes,
    InvalidRange,
    LaurentPoly,
    MAX_SCALAR_BITS,
    MAX_SCALAR_DEGREE,
    MAX_SCALAR_NESTING,
    RatFunc,
    h_derivative_at_zero,
    laurent_gcd,
    laurent_sqrt,
    parse_scalar,
    q_binomial,
    q_factorial,
    q_int,
    qconjugate,
)

from oracles import classical_limit

V = LaurentPoly.v_power
Q = V(2)           # q = v^2
QINV = V(-2)
ONE = LaurentPoly.constant(1)


# ---------------------------------------------------------------- qconjugate

def test_qconjugate_sends_q_to_its_inverse():
    assert qconjugate(Q) == QINV


@pytest.mark.parametrize("fixed", [ONE, LaurentPoly.constant(3), Q + QINV, V(1) + V(-1)])
def test_qconjugate_fixed_points(fixed):
    assert qconjugate(fixed) == fixed


@pytest.mark.parametrize("p", [Q, Q + ONE, V(3) - 2 * V(-1), LaurentPoly.constant(Fraction(5, 2)) * V(4)])
def test_qconjugate_is_an_involution(p):
    assert qconjugate(qconjugate(p)) == p


def test_qconjugate_is_a_ring_map():
    a = Q + ONE
    b = V(1) - V(-3)
    assert qconjugate(a * b) == qconjugate(a) * qconjugate(b)
    assert qconjugate(a + b) == qconjugate(a) + qconjugate(b)


# ------------------------------------------------------------ classical limit

def test_classical_limit_of_q_minus_qinv_is_zero():
    assert classical_limit(Q - QINV) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_classical_limit_of_q_integer_is_n(n):
    ratio = RatFunc(V(2 * n) - V(-2 * n), Q - QINV)
    assert classical_limit(ratio) == n


def test_classical_limit_pole_raises():
    with pytest.raises(DenominatorVanishes):
        classical_limit(RatFunc(ONE, Q - QINV))


def test_classical_limit_commutes_with_conjugation():
    p = 3 * Q + V(-6) - ONE
    assert classical_limit(p) == classical_limit(qconjugate(p))


# ----------------------------------------------------- substitution derivative

def test_h_derivative_q_minus_qinv():
    # q = e^h, so d/dh (q - q^{-1}) = q + q^{-1} -> 2 at h = 0
    assert h_derivative_at_zero(Q - QINV) == 2


def test_h_derivative_constant():
    assert h_derivative_at_zero(LaurentPoly.constant(7)) == 0


def test_h_derivative_q():
    assert h_derivative_at_zero(Q) == 1


def test_h_derivative_quotient_rule():
    # q/(q+1) = e^h/(e^h+1); derivative at 0 is 1/4
    assert h_derivative_at_zero(RatFunc(Q, Q + ONE)) == Fraction(1, 4)


# ------------------------------------------------------------------ q-numbers

def test_two_bracket():
    assert q_int(2, 1) == Q + QINV


def test_one_bracket():
    assert q_int(1, 1) == ONE


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (4, 2), (5, 3)])
def test_q_int_classical_value(n, d):
    assert q_int(n, d).eval_at_one() == n


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (6, 1)])
def test_q_int_bar_invariant(n, d):
    assert qconjugate(q_int(n, d)) == q_int(n, d)


def test_q_factorial_small():
    assert q_factorial(0) == ONE
    assert q_factorial(2) == q_int(2, 1)
    assert q_factorial(3) == q_int(2, 1) * q_int(3, 1)


def test_q_factorial_rejects_negative():
    with pytest.raises(InvalidRange):
        q_factorial(-1)


# --------------------------------------------------------------- q-binomials

def gauss_binomial(a, b, d):
    """Independent oracle via the q-Pascal recursion
    binom(a,b) = q^b binom(a-1,b) + q^(b-a) binom(a-1,b-1),  q = v^(2d)."""
    if b < 0 or b > a:
        raise ValueError
    if b == 0 or b == a:
        return ONE
    return V(2 * d * b) * gauss_binomial(a - 1, b, d) + V(2 * d * (b - a)) * gauss_binomial(a - 1, b - 1, d)


def test_q_binomial_worked_example():
    assert q_binomial(3, 1) == Q * Q + ONE + QINV * QINV


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("a", range(7))
def test_q_binomial_matches_pascal_recursion(a, d):
    for b in range(a + 1):
        assert q_binomial(a, b, d) == gauss_binomial(a, b, d)


@pytest.mark.parametrize("a,b", [(4, 1), (5, 2), (6, 3)])
def test_q_binomial_symmetry(a, b):
    assert q_binomial(a, b) == q_binomial(a, a - b)


@pytest.mark.parametrize("a,b", [(3, 1), (5, 2), (6, 4)])
def test_q_binomial_bar_invariant(a, b):
    p = q_binomial(a, b)
    assert qconjugate(p) == p


@pytest.mark.parametrize("a,b", [(3, 1), (5, 2), (7, 3)])
def test_q_binomial_classical_value(a, b):
    assert q_binomial(a, b).eval_at_one() == math.comb(a, b)


@pytest.mark.parametrize("a,b", [(3, 4), (3, -1), (-1, 0)])
def test_q_binomial_range_errors(a, b):
    with pytest.raises(InvalidRange):
        q_binomial(a, b)


# ------------------------------------------------------------------ RatFunc

def test_ratfunc_cancels_common_factors():
    assert RatFunc(Q - QINV, Q - QINV) == RatFunc(ONE, ONE)


def test_ratfunc_equality_is_cross_multiplicative():
    a, b, c = Q + ONE, V(1) - V(-1), V(4) + LaurentPoly.constant(2)
    assert RatFunc(a * c, b * c) == RatFunc(a, b)


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(DenominatorVanishes):
        RatFunc(ONE, LaurentPoly.constant(0))


def test_ratfunc_arithmetic():
    x = RatFunc(ONE, Q - QINV)
    assert x - x == RatFunc(0)
    assert x * (Q - QINV) == RatFunc(1)
    assert (x + x) == RatFunc(LaurentPoly.constant(2), Q - QINV)


@pytest.mark.parametrize("x", [
    RatFunc(1),
    RatFunc(Q * Q + ONE, Q - QINV),
    RatFunc(LaurentPoly.constant(Fraction(-3, 2)) * V(-5), V(2) + ONE),
])
def test_ratfunc_json_round_trip(x):
    assert RatFunc.from_json(x.to_json()) == x


# ------------------------------------- differential tests of the Z kernel
#
# Seeded random RatFuncs with cyclotomic and non-cyclotomic denominator
# factors and fractional content.  The oracle is exact evaluation of the
# input LaurentPolys at rational points, which never touches RatFunc.

FACTORS = [
    2 * Q - ONE,                          # 2q - 1
    Q * Q + Q + 3 * ONE,                  # q^2 + q + 3
    Q + 2 * ONE,                          # q + 2
    Q - QINV,                             # q - q^-1
    V(1) + V(-1),                         # v + v^-1
    Q + ONE + QINV,                       # [3]
    LaurentPoly.constant(Fraction(3, 2)) * V(3),
    V(3) - Fraction(2, 5) * V(-1),
]
POINTS = [Fraction(2), Fraction(3, 2), Fraction(-5, 3)]
COEFFS = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def random_poly(rng, terms):
    return LaurentPoly({rng.randint(-4, 4): rng.choice(COEFFS) for _ in range(terms)})


def random_factors(rng, count):
    out = ONE
    for _ in range(count):
        out = out * rng.choice(FACTORS)
    return out


def random_pair(rng):
    """(num, den) sharing a random factor about half the time."""
    common = random_factors(rng, rng.randint(0, 1))
    num = random_poly(rng, rng.randint(1, 4)) * random_factors(rng, rng.randint(0, 2)) * common
    den = random_poly(rng, 1) * random_factors(rng, rng.randint(0, 3)) * common
    return num, den


def value(x, v):
    return x.num.eval(v) / x.den.eval(v)


def canonical(x):
    """Re-normalizing through the constructor changes nothing: equality
    and hashing are structural, so this holds only for the canonical form."""
    y = RatFunc(x.num, x.den)
    return y == x and hash(y) == hash(x) and y.to_json() == x.to_json()


def random_operands(seed, count):
    rng = random.Random(seed)
    pairs = [random_pair(rng) for _ in range(count)]
    return [(RatFunc(n, d), {v: n.eval(v) / d.eval(v) for v in POINTS}) for n, d in pairs]


@pytest.mark.parametrize("seed", range(8))
def test_ratfunc_arithmetic_matches_evaluation(seed):
    ops = random_operands(seed, 10)
    for (x, xv), (y, yv) in zip(ops, ops[1:] + ops[:1]):
        results = {"+": (x + y, lambda v: xv[v] + yv[v]),
                   "-": (x - y, lambda v: xv[v] - yv[v]),
                   "*": (x * y, lambda v: xv[v] * yv[v])}
        if not y.is_zero():
            results["/"] = (x / y, lambda v: xv[v] / yv[v])
        if not x.is_zero():
            results["inverse"] = (x.inverse(), lambda v: 1 / xv[v])
        for name, (z, expected) in results.items():
            assert canonical(z), name
            for v in POINTS:
                assert value(z, v) == expected(v), (name, v)


@pytest.mark.parametrize("seed", range(8))
def test_ratfunc_sum_cancels_to_canonical_form(seed):
    """x + (z - x) must reduce to z itself: its numerator shares a factor
    with the common part of the two denominators."""
    ops = random_operands(400 + seed, 10)
    for (x, _), (z, zv) in zip(ops, ops[1:] + ops[:1]):
        w = x + (z - x)
        assert w == z and canonical(w)
        assert all(value(w, v) == zv[v] for v in POINTS)


@pytest.mark.parametrize("seed", range(8))
def test_ratfunc_qconjugate_matches_evaluation(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        n, d = random_pair(rng)
        z = RatFunc(n, d).qconjugate()
        assert canonical(z)
        for v in POINTS:
            assert value(z, v) == n.eval(1 / v) / d.eval(1 / v)


@pytest.mark.parametrize("seed", range(8))
def test_ratfunc_common_factor_cancels_to_the_same_value(seed):
    rng = random.Random(200 + seed)
    for _ in range(10):
        n, d = random_pair(rng)
        g = random_poly(rng, 2) * random_factors(rng, rng.randint(1, 2))
        reduced, scaled = RatFunc(n, d), RatFunc(n * g, d * g)
        assert scaled == reduced
        assert scaled.to_json() == reduced.to_json()
        assert hash(scaled) == hash(reduced)
        assert laurent_gcd(reduced.num, reduced.den) == ONE


def test_exact_division_failure_raises_value_error():
    with pytest.raises(ValueError):
        (Q + 2 * ONE).exact_div(2 * Q - ONE)


# --------------------------------------------------------------- square roots

def test_laurent_sqrt_of_perfect_square():
    p = V(1) + V(-1)
    root = laurent_sqrt(p * p)
    assert root is not None and root * root == p * p


def test_laurent_sqrt_rejects_odd_power():
    assert laurent_sqrt(V(1)) is None


def test_laurent_sqrt_rejects_non_square_constant():
    # 2q has no square root over the rationals
    assert laurent_sqrt(2 * Q) is None


# ------------------------------------------------------------------- parsing

@pytest.mark.parametrize("text,value", [
    ("q", RatFunc(Q, ONE)),
    ("1", RatFunc(1)),
    ("0", RatFunc(0)),
    ("q^2 - q^-2", RatFunc(V(4) - V(-4), ONE)),
    ("q^{-2}", RatFunc(QINV * QINV, ONE)),
    ("3/2*q", RatFunc(LaurentPoly.constant(Fraction(3, 2)) * Q, ONE)),
    ("(q^3) / (q^6 + q^4 + q^2 + 1)", RatFunc(V(6), V(12) + V(8) + V(4) + ONE)),
    ("v + v^-1", RatFunc(V(1) + V(-1), ONE)),
])
def test_parse_scalar_examples(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("x", [
    RatFunc(Q + QINV, ONE),
    RatFunc(V(6), V(12) + V(8) + V(4) + ONE),
    RatFunc(LaurentPoly.constant(2), Q - QINV),
    RatFunc(-V(-3), ONE),
] + [x for x, _ in random_operands(300, 40)])
def test_printed_scalars_parse_back(x):
    assert parse_scalar(str(x)) == x


@pytest.mark.parametrize("bad", ["q^", "1//2", "(q", "w+1", ""])
def test_parse_scalar_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("big", ["(q+1)^1025", "q^99999999999"])
def test_parse_scalar_rejects_large_degrees_at_once(big):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_scalar(big)
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("text", ["q^513", "q^-513", "(q^300)^2", "(q+1)^300*(q+1)^300",
                                  "1/(v^1025+1)"])
def test_parse_scalar_bounds_every_intermediate_value(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_parse_scalar_accepts_values_at_the_degree_bound():
    x = parse_scalar("(q+1)^512")
    assert x.num.degree() == MAX_SCALAR_DEGREE and x.eval_at_one() == 2 ** 512
    assert parse_scalar("v^1024 + v^-1024") == RatFunc(V(1024) + V(-1024), ONE)


@pytest.mark.parametrize("big", ["(" + "9" * 1000 + ")^1024", "(" + "9" * 300 + ")^4",
                                 "(" + "9" * 300 + "*q+1)^-4", "3^700"])
def test_parse_scalar_rejects_large_integers_at_once(big):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bits"):
        parse_scalar(big)
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("text", ["2^1000*2^1000", "1/(2^600*3^600)", "(2^1000+q)*(2^1000-q)"])
def test_parse_scalar_bounds_every_intermediate_integer(text):
    with pytest.raises(ValueError, match="bits"):
        parse_scalar(text)


@pytest.mark.parametrize("text,message", [
    ("(q+1", "parse error in '(q+1' at token 4: expected ), got None"),
    ("q^q", "exponent must be an integer in 'q^q'"),
    ("1/(q-q)", "division by zero in '1/(q-q)'"),
    ("q)", "trailing input in 'q)'"),
    ("3^700", "power in '3^700' has integers above 1024 bits"),
])
def test_parse_scalar_quotes_short_inputs_whole(text, message):
    with pytest.raises(ValueError) as info:
        parse_scalar(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["(q+" + "9" * 300 + "1", "(" + "9" * 1000 + ")^1024",
                                  "(q " + "9" * 1000 + ")"], ids=["unclosed", "power", "token"])
def test_parse_scalar_cuts_long_inputs_in_messages(text):
    with pytest.raises(ValueError) as info:
        parse_scalar(text)
    message = str(info.value)
    assert len(message) < 200 and "..." in message


DEEP_SCALARS = {"parentheses": "(" * 400 + "1" + ")" * 400, "signs": "-" * 3000 + "1"}


@pytest.mark.parametrize("text", DEEP_SCALARS.values(), ids=DEEP_SCALARS.keys())
def test_parse_scalar_rejects_deep_nesting_before_recursing(text):
    with pytest.raises(ValueError, match=f"nests deeper than {MAX_SCALAR_NESTING} "):
        parse_scalar(text)


def test_parse_scalar_accepts_nesting_at_the_bound():
    k = MAX_SCALAR_NESTING
    assert parse_scalar("(" * k + "q" + ")" * k) == RatFunc(Q)
    assert parse_scalar("-" * k + "q") == RatFunc(Q)
    assert parse_scalar("-" * (k // 2) + "(" * (k // 2) + "q" + ")" * (k // 2)) == RatFunc(Q)
    with pytest.raises(ValueError, match="nests deeper"):
        parse_scalar("-" * (k // 2) + "(" * (k // 2 + 1) + "q" + ")" * (k // 2 + 1))


def test_parse_scalar_accepts_integers_at_the_size_bound():
    assert parse_scalar("2^1023").eval_at_one() == 2 ** (MAX_SCALAR_BITS - 1)
    assert parse_scalar("-1/(2^1023*q)") == RatFunc(LaurentPoly.constant(Fraction(-1, 2 ** 1023)), Q)


# ------------------------------------------------- the int-or-Fraction content
#
# RatFunc.c is an int exactly when the content is integral, and a Fraction
# with denominator > 1 otherwise; num and den always carry Fractions.

def content_is_canonical(x):
    return type(x.c) is int or (type(x.c) is Fraction and x.c.denominator > 1)


def views_are_fractions(x):
    return all(type(a) is Fraction
               for a in (*x.num.coeffs.values(), *x.den.coeffs.values()))


HALF_Q = RatFunc(LaurentPoly.constant(Fraction(1, 2)) * Q)

CONTENT_CASES = {
    "int": (RatFunc(3), int),
    "integral Fraction": (RatFunc(Fraction(4, 2)), int),
    "Fraction": (RatFunc(Fraction(1, 2)), Fraction),
    "zero": (RatFunc(0), int),
    "integral quotient": (RatFunc(LaurentPoly.constant(6) * Q, LaurentPoly.constant(3)), int),
    "fractional coefficients": (RatFunc(LaurentPoly({0: Fraction(1, 3), 2: Fraction(2, 3)})), Fraction),
    "clears to int": (RatFunc(LaurentPoly({0: Fraction(1, 3), 2: Fraction(2, 3)}),
                              LaurentPoly.constant(Fraction(1, 3))), int),
    "parse int": (parse_scalar("4/2*q"), int),
    "parse Fraction": (parse_scalar("q/6 + 1/3"), Fraction),
    "parse rational function": (parse_scalar("(2*q+2)/(4*q-2)"), int),
    "from_json": (RatFunc.from_json(RatFunc(Fraction(-3, 2)).to_json()), Fraction),
    "from_json integral": (RatFunc.from_json({"num": {"0": "6"}, "den": {"0": "3"}}), int),
    "sum to int": (HALF_Q + HALF_Q, int),
    "sum of Fractions": (RatFunc(Fraction(1, 2)) + RatFunc(Fraction(1, 3)), Fraction),
    "difference to int": (RatFunc(Fraction(5, 2)) - RatFunc(Fraction(1, 2)), int),
    "difference to zero": (HALF_Q - HALF_Q, int),
    "product to int": (HALF_Q * RatFunc(Fraction(4)), int),
    "product of Fractions to int": (RatFunc(Fraction(2, 3)) * RatFunc(Fraction(3, 2)), int),
    "product of Fractions": (HALF_Q * HALF_Q, Fraction),
    "quotient to int": (RatFunc(Fraction(3, 2)) / RatFunc(Fraction(1, 2)), int),
    "quotient to Fraction": (RatFunc(3) / RatFunc(2), Fraction),
    "inverse of an int": (RatFunc(4).inverse(), Fraction),
    "inverse of a unit": (RatFunc(-1).inverse(), int),
    "inverse to int": (RatFunc(Fraction(-1, 7)).inverse(), int),
    "qconjugate": (RatFunc(Fraction(-5, 3) * V(3), Q + ONE).qconjugate(), Fraction),
    "qconjugate int": (RatFunc(2 * V(3), Q - ONE).qconjugate(), int),
    "times int": (HALF_Q * 2, int),
    "int times": (2 * HALF_Q, int),
    "times Fraction": (RatFunc(Q) * Fraction(6, 4), Fraction),
    "times integral Fraction": (HALF_Q * Fraction(6, 3), int),
    "plus Fraction": (RatFunc(Q) + Fraction(1, 2), Fraction),
    "plus bool": (RatFunc(Q) + True, int),
    "zero plus integral Fraction": (RatFunc(0) + Fraction(4, 2), int),
    "integral Fraction minus zero": (Fraction(-6, 3) - RatFunc(0), int),
    "zero plus Fraction": (Fraction(3, 4) + RatFunc(0), Fraction),
    "power": (RatFunc(Fraction(1, 2)) ** -3, int),
    "negative power": (RatFunc(Fraction(2, 3) * Q) ** -2, Fraction),
}


@pytest.mark.parametrize("x,kind", CONTENT_CASES.values(), ids=CONTENT_CASES.keys())
def test_content_is_an_int_exactly_when_integral(x, kind):
    assert type(x.c) is kind and content_is_canonical(x)
    assert views_are_fractions(x)


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_keeps_the_content_canonical(seed):
    ops = random_operands(500 + seed, 10)
    for (x, _), (y, _) in zip(ops, ops[1:] + ops[:1]):
        results = [x, x + y, x - y, x * y, x.qconjugate(), -x, x * 3, Fraction(2, 3) * x]
        if y:
            results.append(x / y)
        if x:
            results.append(x.inverse())
        for z in results:
            assert content_is_canonical(z) and views_are_fractions(z)
            if z.is_regular_at_one():
                assert z.eval_at_one() == value(z, Fraction(1))


@pytest.mark.parametrize("group", [
    [RatFunc(2), RatFunc(Fraction(2)), RatFunc(Fraction(4, 2)), parse_scalar("4/2"),
     RatFunc(Fraction(1, 2)) * 4, RatFunc(1) + RatFunc(1), RatFunc(Fraction(1, 2)).inverse(),
     RatFunc.from_json({"num": {"0": "6"}, "den": {"0": "3"}}), RatFunc(3) - Fraction(1)],
    [RatFunc(2 * Q + 2 * ONE), parse_scalar("2*q+2"), RatFunc(Q + ONE) * 2,
     HALF_Q * 4 + RatFunc(2), RatFunc(Fraction(1, 2) * QINV + Fraction(1, 2) * ONE).qconjugate() * 4,
     RatFunc((Q + ONE) * (Q - ONE), Fraction(1, 2) * (Q - ONE))],
    [RatFunc(Fraction(1, 3) * Q, Q + 2 * ONE), parse_scalar("q/(3*q+6)"),
     RatFunc(Q, Q + 2 * ONE) / 3, RatFunc(3 * Q + 6 * ONE, Q).inverse(),
     RatFunc(Fraction(1, 6) * Q, Q + 2 * ONE) + RatFunc(Fraction(1, 6) * Q, Q + 2 * ONE)],
], ids=["integer", "integral polynomial", "fractional content"])
def test_equal_values_built_differently_hash_and_serialize_alike(group):
    first = group[0]
    for x in group[1:]:
        assert x == first and hash(x) == hash(first)
        assert x.to_json() == first.to_json()
        assert type(x.c) is type(first.c)


# -------------------------------------------- monomial products and the memo

def random_monomial(rng):
    c = rng.choice(COEFFS + [Fraction(6, 3), Fraction(-4, 2), 7])
    return RatFunc(LaurentPoly.v_power(rng.randint(-6, 6), c))


@pytest.mark.parametrize("seed", range(8))
def test_monomial_products_match_the_general_product(seed):
    rng = random.Random(600 + seed)
    ops = random_operands(600 + seed, 12)
    for x, _ in ops:
        m = random_monomial(rng)
        general = RatFunc(x.num * m.num, x.den * m.den)
        for z in (m * x, x * m):
            assert z == general and hash(z) == hash(general)
            assert z.to_json() == general.to_json()
            assert content_is_canonical(z) and canonical(z)


def random_primitive(rng, length):
    """A primitive integer tuple with nonzero constant term and positive
    leading coefficient."""
    while True:
        t = [rng.randint(-9, 9) for _ in range(length)]
        t[0] = t[0] or 1
        t[-1] = abs(t[-1]) or 1
        if math.gcd(*t) == 1:
            return tuple(t)


def random_gcd_pair(rng):
    """Two nonconstant primitive tuples that share a factor about half the time."""
    common = random_primitive(rng, rng.randint(1, 3)) if rng.random() < 0.5 else (1,)
    a = random_primitive(rng, rng.randint(2, 5))
    b = random_primitive(rng, rng.randint(2, 5))
    return tuple(qring._zmul(a, common)), tuple(qring._zmul(b, common)), common


def test_memoized_gcd_matches_the_remainder_sequence():
    rng = random.Random(7)
    uncached = qring._zgcd_memo.__wrapped__
    for _ in range(200):
        a, b, common = random_gcd_pair(rng)
        for x, y in ((a, b), (b, a), (list(a), list(b))):
            got = qring._zgcd(x, y)
            assert got == uncached(tuple(x), tuple(y))
            g, ag, bg = got
            assert qring._zmul(g, ag) == list(x) and qring._zmul(g, bg) == list(y)
            assert not qring._zdivmod(g, common)[2]


def test_memoized_gcd_results_are_tuples():
    a, b = (1, 0, 1), (1, 2, 1)         # 1 + v^2 and (1 + v)^2: coprime
    c, d = (-1, 0, 1), (1, 2, 1)        # share 1 + v
    for x, y in ((a, b), (c, d), (d, c), ([2, 3, 1], [1, 1])):
        got = qring._zgcd(x, y)
        assert all(type(part) is tuple for part in got)
        assert qring._zgcd(list(x), list(y)) is got      # a repeat is a memo hit
    assert qring._zgcd(c, d) == ((1, 1), (-1, 1), (1, 1))


def test_gcd_memo_stays_within_its_size():
    for k in range(qring.GCD_MEMO_SIZE + 50):
        qring._zgcd((k + 2, 1), (1, 1))
    info = qring._zgcd_memo.cache_info()
    assert info.maxsize == qring.GCD_MEMO_SIZE
    assert info.currsize <= qring.GCD_MEMO_SIZE
