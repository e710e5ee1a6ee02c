"""Scalar ring tests: rational functions in v (= q^(1/2)) and their
Laurent-polynomial views.  Expected values are built as Fraction dicts with
the oracle arithmetic of ``oracles``, never with the integer kernel."""

import json
import math
import operator
import random
import time
from fractions import Fraction
from pathlib import Path

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
    laurent_gcd,
    parse_scalar,
    q_binomial,
    q_factorial,
    q_int,
    rf_sqrt,
    rf_vpow,
)

from qlie.table import QuantumLieAlgebra

from oracles import (classical_limit, h_derivative, h_derivative_at_zero, mono, padd, peval, pmul,
                     reference_from_json, rf, writer_mismatches)

V = mono
Q = V(2)           # q = v^2
QINV = V(-2)
ONE = V(0)


def neg(p):
    return pmul(p, V(0, -1))


# ---------------------------------------------------------------- qconjugate

def test_qconjugate_sends_q_to_its_inverse():
    assert rf(Q).qconjugate() == rf(QINV)


@pytest.mark.parametrize("fixed", [rf(ONE), rf(V(0, 3)), rf(padd(Q, QINV)), rf(padd(V(1), V(-1)))])
def test_qconjugate_fixed_points(fixed):
    assert fixed.qconjugate() == fixed


@pytest.mark.parametrize("p", [rf(Q), rf(padd(Q, ONE)), rf(padd(V(3), V(-1, -2))),
                               rf(V(4, Fraction(5, 2)))])
def test_qconjugate_is_an_involution(p):
    assert p.qconjugate().qconjugate() == p


def test_qconjugate_is_a_ring_map():
    a = padd(Q, ONE)
    b = padd(V(1), V(-3, -1))

    def bar(p):
        return {-k: c for k, c in p.items()}

    assert (rf(a) * rf(b)).qconjugate() == rf(a).qconjugate() * rf(b).qconjugate() == rf(pmul(bar(a), bar(b)))
    assert (rf(a) + rf(b)).qconjugate() == rf(a).qconjugate() + rf(b).qconjugate() == rf(padd(bar(a), bar(b)))


# ------------------------------------------------------------ classical limit

def test_classical_limit_of_q_minus_qinv_is_zero():
    assert classical_limit(padd(Q, neg(QINV))) == 0
    assert classical_limit(rf(padd(Q, neg(QINV)))) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_classical_limit_of_q_integer_is_n(n):
    ratio = rf(padd(V(2 * n), V(-2 * n, -1)), padd(Q, neg(QINV)))
    assert classical_limit(ratio) == n


def test_classical_limit_pole_raises():
    with pytest.raises(DenominatorVanishes):
        classical_limit(rf(ONE, padd(Q, neg(QINV))))


def test_classical_limit_commutes_with_conjugation():
    p = rf(padd(V(2, 3), V(-6), V(0, -1)))
    assert classical_limit(p) == classical_limit(p.qconjugate())


# ----------------------------------------------------- substitution derivative

def test_h_derivative_q_minus_qinv():
    # q = e^h, so d/dh (q - q^{-1}) = q + q^{-1} -> 2 at h = 0
    assert h_derivative_at_zero(LaurentPoly(padd(Q, neg(QINV)))) == 2


def test_h_derivative_constant():
    assert h_derivative_at_zero(LaurentPoly.constant(7)) == 0


def test_h_derivative_q():
    assert h_derivative_at_zero(rf_vpow(2)) == 1


def test_h_derivative_quotient_rule():
    # q/(q+1) = e^h/(e^h+1); derivative at 0 is 1/4
    assert h_derivative_at_zero(rf(Q, padd(Q, ONE))) == Fraction(1, 4)


# ------------------------------------------------------------------ q-numbers

def test_two_bracket():
    assert q_int(2, 1) == rf(padd(Q, QINV))


def test_one_bracket():
    assert q_int(1, 1) == rf(ONE)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (4, 2), (5, 3)])
def test_q_int_classical_value(n, d):
    assert q_int(n, d).eval_at_one() == n


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (6, 1)])
def test_q_int_bar_invariant(n, d):
    assert q_int(n, d).qconjugate() == q_int(n, d)


def test_q_factorial_small():
    assert q_factorial(0) == rf(ONE)
    assert q_factorial(2) == q_int(2, 1)
    assert q_factorial(3) == rf(pmul(padd(Q, QINV), padd(V(4), ONE, V(-4))))


def test_q_factorial_rejects_negative():
    with pytest.raises(InvalidRange):
        q_factorial(-1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_q_int_is_the_quotient_of_q_powers(d):
    # [n] = (q_d^n - q_d^-n) / (q_d - q_d^-1) on the dict oracle, signs included
    for n in range(-5, 8):
        x = q_int(n, d)
        assert type(x) is RatFunc and x.is_polynomial()
        assert x == rf(padd(V(2 * d * n), V(-2 * d * n, -1)), padd(V(2 * d), V(-2 * d, -1)))


# --------------------------------------------------------------- q-binomials

def gauss_binomial(a, b, d):
    """Independent oracle via the q-Pascal recursion
    binom(a,b) = q^b binom(a-1,b) + q^(b-a) binom(a-1,b-1),  q = v^(2d)."""
    if b < 0 or b > a:
        raise ValueError
    if b == 0 or b == a:
        return ONE
    return padd(pmul(V(2 * d * b), gauss_binomial(a - 1, b, d)),
                pmul(V(2 * d * (b - a)), gauss_binomial(a - 1, b - 1, d)))


def test_q_binomial_worked_example():
    assert q_binomial(3, 1) == rf(padd(V(4), ONE, V(-4)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("a", range(7))
def test_q_binomial_matches_pascal_recursion(a, d):
    for b in range(a + 1):
        x = q_binomial(a, b, d)
        assert type(x) is RatFunc and x.is_polynomial()
        assert x == rf(gauss_binomial(a, b, d))


@pytest.mark.parametrize("a,b", [(4, 1), (5, 2), (6, 3)])
def test_q_binomial_symmetry(a, b):
    assert q_binomial(a, b) == q_binomial(a, a - b)


@pytest.mark.parametrize("a,b", [(3, 1), (5, 2), (6, 4)])
def test_q_binomial_bar_invariant(a, b):
    p = q_binomial(a, b)
    assert p.qconjugate() == p


@pytest.mark.parametrize("a,b", [(3, 1), (5, 2), (7, 3)])
def test_q_binomial_classical_value(a, b):
    assert q_binomial(a, b).eval_at_one() == math.comb(a, b)


@pytest.mark.parametrize("a,b", [(3, 4), (3, -1), (-1, 0)])
def test_q_binomial_range_errors(a, b):
    with pytest.raises(InvalidRange):
        q_binomial(a, b)


# ------------------------------------------------------------------ RatFunc

def test_ratfunc_cancels_common_factors():
    x = padd(Q, neg(QINV))
    assert rf(x, x) == rf(ONE, ONE)


def test_ratfunc_equality_is_cross_multiplicative():
    a, b, c = padd(Q, ONE), padd(V(1), V(-1, -1)), padd(V(4), V(0, 2))
    assert rf(pmul(a, c), pmul(b, c)) == rf(a, b)


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(DenominatorVanishes):
        RatFunc(LaurentPoly(ONE), LaurentPoly.constant(0))


def test_ratfunc_arithmetic():
    q_minus = padd(Q, neg(QINV))
    x = rf(ONE, q_minus)
    assert x - x == RatFunc(0)
    assert x * LaurentPoly(q_minus) == RatFunc(1)
    assert (x + x) == rf(V(0, 2), q_minus)


# every way a foreign operand o meets a RatFunc x: the constructor, then
# each operator with x on the left and on the right
FOREIGN_USES = ["RatFunc(o)", "RatFunc(1, o)"] + [
    f"{a} {op} {b}" for op in ("+", "-", "*", "/", "**") for a, b in (("x", "o"), ("o", "x"))]


@pytest.mark.parametrize("use", FOREIGN_USES)
@pytest.mark.parametrize("other", [0.5, 2.0, 1j, "1"], ids=repr)
def test_ratfunc_refuses_float_complex_and_str_operands(use, other):
    # a message that names an operator names the one written (0.5 - x
    # once reported +), and none is an AttributeError from inside qring
    with pytest.raises(TypeError) as exc:
        eval(use, {"RatFunc": RatFunc}, {"x": rf(padd(Q, ONE)), "o": other})
    if "operand type(s) for" in str(exc.value):
        assert f"for {use.split()[1]}:" in str(exc.value) or "pow()" in str(exc.value)


@pytest.mark.parametrize("other", [0.5, 1.0, 1j], ids=repr)
def test_ratfunc_equality_refuses_floats(other):
    # RatFunc(1) == 1.0 read False, though the values are equal
    for a, b in ((RatFunc(1), other), (other, RatFunc(1))):
        with pytest.raises(TypeError):
            a == b


def test_ratfunc_operands_skip_coercion_and_unit_inverses_build_no_fraction(monkeypatch):
    x, y = rf(padd(Q, ONE), padd(V(1), ONE)), rf(V(0, -1), padd(Q, V(0, 3)))
    z = rf(padd(Q, ONE), padd(V(1), ONE))
    want = (x / y, y / x, 3 / x)
    coerced, built = [], []
    coerce, fraction = qring._coerce_rf, qring.Fraction

    class Recording(fraction):
        def __new__(cls, *args):
            built.append(args)
            return fraction(*args)

    monkeypatch.setattr(qring, "_coerce_rf", lambda o: coerced.append(o) or coerce(o))
    monkeypatch.setattr(qring, "Fraction", Recording)
    assert (x / y, y / x) == want[:2] and not coerced and not built
    assert 3 / x == want[2] and coerced == [3]
    assert x != y and x == z and coerced == [3]
    assert x.inverse().c == 1 and y.inverse().c == -1 and not built


@pytest.mark.parametrize("x", [
    RatFunc(1),
    rf(padd(V(4), ONE), padd(Q, neg(QINV))),
    rf(V(-5, Fraction(-3, 2)), padd(V(2), ONE)),
])
def test_ratfunc_json_round_trip(x):
    assert RatFunc.from_json(x.to_json()) == x


# ------------------------------------------------------------ stored scalars

STORED = [*sorted((Path(__file__).parent / "golden").glob("*.json")),
          *sorted((Path(__file__).parent.parent / "perfbench" / "reference" / "tables")
                  .glob("*.json"))]


def stored_scalars(blob):
    """Every {"num", "den"} scalar in a JSON blob."""
    if isinstance(blob, dict):
        if set(blob) == {"num", "den"}:
            yield blob
            return
        blob = list(blob.values())
    if isinstance(blob, list):
        for x in blob:
            yield from stored_scalars(x)


def reads_as_reference(d):
    """from_json(d) is the value, part by part, that the Fraction reader
    reads, with a content of the same type."""
    x, y = RatFunc.from_json(d), reference_from_json(d)
    return (x.c, x.s, x.n, x.d) == (y.c, y.s, y.n, y.d) and type(x.c) is type(y.c)


@pytest.mark.parametrize("path", STORED, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_stored_tables_read_as_the_fraction_reader(path):
    with open(path, encoding="utf-8") as fh:
        scalars = list(stored_scalars(json.load(fh)))
    assert scalars and all(reads_as_reference(d) for d in scalars)


@pytest.mark.parametrize("path", STORED, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_stored_tables_write_as_the_view_writer(path):
    # each stored scalar is written back as it was stored, as the view-based
    # writer writes it, and its text and JSON read back as the same value
    with open(path, encoding="utf-8") as fh:
        scalars = list(stored_scalars(json.load(fh)))
    values = [RatFunc.from_json(d) for d in scalars]
    assert all(x.to_json() == d for x, d in zip(values, scalars))
    assert not writer_mismatches(values)


def scalar(num, den=None):
    return {"num": num, "den": {"0": "1"} if den is None else den}


READ_CASES = {
    "0-then-00": scalar({"0": "3", "00": "5"}),
    "00-then-0": scalar({"00": "5", "0": "3"}),
    "0-then-zero-00": scalar({"0": "3", "00": "0"}),
    "zero-00-then-0": scalar({"00": "0", "0": "3"}),
    "0-then--0": scalar({"0": "3", "-0": "7"}),
    "-0-then-0": scalar({"-0": "7", "0": "3"}),
    "zero-coefficients": scalar({"0": "0", "2": "-4", "5": "0/7"}, {"-1": "0", "1": "6"}),
    "zero-numerator": scalar({"0": "0", "3": "-0"}, {"0": "1", "2": "5"}),
    "empty-numerator": scalar({}, {"4": "3"}),
    "unreduced": scalar({"1": "6/4"}),
    "unreduced-den": scalar({"0": "10/15", "2": "-4/6"}, {"0": "6/4"}),
    "negative-leading-den": scalar({"0": "1"}, {"0": "1", "2": "-3"}),
    "negative-den": scalar({"3": "2/3"}, {"0": "-1"}),
    "integral-content": scalar({"0": "2/3", "2": "4/3"}, {"0": "1/3"}),
    "fractional-content": scalar({"0": "1/2"}, {"0": "3"}),
    "fractional-den-content": scalar({"0": "5"}, {"-2": "2/7", "1": "4/7"}),
    "shared-factor": scalar({"0": "-1", "4": "1"}, {"0": "1", "2": "1"}),
    "negative-valuations": scalar({"-3": "-5/6", "1": "10/9"}, {"-1": "-4", "3": "2"}),
    "int-values": scalar({"0": 5}, {0: "2"}),
    "int-keys-and-values": scalar({1: 3, -2: "1/2"}, {0: 7}),
    "reduces-into-bounds": scalar({"0": f"{2 ** 1024}/2"}),
    "at-the-bounds": scalar({"-1024": "1", "1024": str(2 ** 1024 - 1)}, {"1024": "1"}),
}


@pytest.mark.parametrize("d", READ_CASES.values(), ids=READ_CASES)
def test_stored_scalar_reads_as_the_fraction_reader(d):
    assert reads_as_reference(d)


REFUSED_CASES = {
    "coefficient-denominator-0": scalar({"0": "1/0"}),
    "coefficient-denominator-00": scalar({"0": "-05/00"}),
    "zero-denominator": scalar({"0": "1"}, {"0": "0"}),
    "empty-denominator": scalar({"0": "1"}, {}),
    "numerator-refused-first": scalar({"0": "x"}, {"0": "0"}),
    "numerator-before-denominator": scalar({"0": "1.5"}, {"0": "1/0"}),
    "denominator-refused": scalar({"0": "1"}, {"1": "2", "y": "1"}),
    "exponent-literal-first": scalar({"1e9": "1e9"}),
    "exponent-bound-before-coefficient": scalar({"99999": "x"}),
    "long-exponent": scalar({"1" * 6: "1"}),
    "long-coefficient": scalar({"0": "7" * 700}),
    "literal-before-bits": scalar({"0": "+" + "7" * 400}),
    "bits": scalar({"0": f"{2 ** 1024}/1"}),
    "bits-of-denominator": scalar({"0": f"1/{2 ** 1024}"}),
    "first-pair-first": scalar({"0": "1.5", "2000": "1"}),
    "bool-value": scalar({"0": True}),
    "float-value": scalar({"0": 1.0}),
    "bool-key": scalar({True: "1"}),
    "unhashable-value": scalar({"0": [1]}),
}


def refusal(read, d):
    with pytest.raises((ValueError, ZeroDivisionError)) as info:
        read(d)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("d", REFUSED_CASES.values(), ids=REFUSED_CASES)
def test_stored_scalar_refused_as_the_fraction_reader_refuses(d):
    assert refusal(RatFunc.from_json, d) == refusal(reference_from_json, d)


def test_each_distinct_stored_view_is_laid_out_once(laid_out):
    path = Path(__file__).parent / "golden" / "explicit_a2_s1_tq.json"
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    views = [v for d in stored_scalars(blob) for v in (d["num"], d["den"])]
    assert (len(views), len({tuple(v.items()) for v in views})) == (116, 36)
    A = QuantumLieAlgebra.from_json(blob)
    assert len(laid_out) == 36
    assert QuantumLieAlgebra.from_json(blob).constants == A.constants
    assert len(laid_out) == 36


def test_refused_view_is_not_kept(laid_out):
    bad = scalar({"0": "3", "1": "x"})
    first = refusal(RatFunc.from_json, bad)
    assert first == (ValueError, "invalid literal for a coefficient: 'x'")
    assert refusal(RatFunc.from_json, bad) == first
    good = scalar({"0": "3", "1": "2"})
    assert RatFunc.from_json(good) == reference_from_json(good) == parse_scalar("3 + 2*v")


def test_values_that_compare_equal_are_read_apart(laid_out):
    # 1, 1.0 and True are equal keys to a dict, but only 1 reads as a coefficient
    assert RatFunc.from_json(scalar({"0": 1})) == RatFunc.from_json(scalar({"0": "1"})) == 1
    for odd in (1.0, True):
        assert refusal(RatFunc.from_json, scalar({"0": odd})) == (
            ValueError, f"invalid literal for a coefficient: '{odd}'")


# ------------------------------------------------------------ the view

def test_view_has_no_arithmetic():
    p = LaurentPoly(padd(Q, ONE))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__",
               "exact_div", "shift", "qconjugate", "derivative", "eval", "eval_at_one"):
        assert not hasattr(p, op), op


def test_equal_numbers_hash_equal():
    # an int, a Fraction, a RatFunc and a view of the same number are equal,
    # so they hash equal, and each finds the others in a set
    forms = [f(x) for x in (0, 1, -1, 3, Fraction(1, 2)) for f in (
        lambda x: x, Fraction, RatFunc, lambda x: LaurentPoly.constant(x) if x else LaurentPoly())]
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b) and a in {b}, (a, b)
    assert 3 in {RatFunc(3)} and Fraction(1, 2) in {RatFunc(Fraction(1, 2))}


def test_view_equals_and_hashes_as_its_value():
    p = LaurentPoly(padd(Q, V(-1, Fraction(1, 2))))
    assert p == rf(padd(Q, V(-1, Fraction(1, 2)))) and hash(p) == hash(RatFunc(p))
    assert p in {RatFunc(p)} and RatFunc(p) in {p}
    assert LaurentPoly.constant(3) == 3 and LaurentPoly() == 0


def test_harness_entry_points_keep_their_behaviour():
    # laurent_gcd and _divmod_laurent: monic gcd and ordinary-polynomial division
    a = LaurentPoly(pmul(padd(Q, ONE), V(3, 2)))
    b = LaurentPoly(pmul(padd(Q, ONE), padd(V(1), V(0, 3))))
    assert laurent_gcd(a, b) == LaurentPoly(padd(Q, ONE))
    assert laurent_gcd(LaurentPoly(), LaurentPoly()).is_zero()
    quo, rem = qring._divmod_laurent(LaurentPoly(padd(V(3), ONE)), LaurentPoly(padd(Q, ONE)))
    assert quo == LaurentPoly(V(1)) and rem == LaurentPoly(padd(V(1, -1), ONE))
    # a dividend of lower degree than the divisor is its own remainder
    # (_zdivmod's early return)
    quo, rem = qring._divmod_laurent(LaurentPoly(V(1)), LaurentPoly(padd(Q, ONE)))
    assert quo.is_zero() and rem == LaurentPoly(V(1))


# ------------------------------------------------------------ the writer

WRITER_CASES = {
    "zero": RatFunc(0),
    "one": RatFunc(1),
    "minus one": RatFunc(-1),
    "negative content": rf(padd(V(2, -3), V(0, -6))),
    "Fraction content": rf(padd(V(4, Fraction(2, 3)), V(0, Fraction(-1, 3)))),
    "Fraction constant": RatFunc(Fraction(-5, 7)),
    "odd v-exponents": rf(padd(V(3), V(1, -2), V(-1))),
    "negative v-exponents": rf(padd(V(-2), V(-6, Fraction(3, 2)))),
    "odd negative monomial": rf(V(-7, -1)),
    "constant quotient": rf(V(0, 2), V(0, 3)),
    "over a constant numerator": rf(ONE, padd(Q, ONE)),
    "coefficients above 2^64": rf(padd(V(2, 2 ** 70 + 1), V(0, -(3 ** 50))),
                                  padd(V(1, 2 ** 65), V(0, Fraction(1, 3)))),
    "negative leading denominator": rf(padd(V(1), ONE), padd(V(0, 1), V(2, -3))),
    "negative constant denominator": rf(V(3, Fraction(2, 3)), V(0, -1)),
    "non-monic denominator": rf(V(-1, 5), padd(V(4, 6), V(1, 4), V(0, 2))),
}


@pytest.mark.parametrize("x", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_writer_matches_the_view_writer(x):
    assert not writer_mismatches([x])


def test_writer_matches_the_view_writer_on_computed_values():
    values = [x for x, _ in random_operands(700, 60)] + [x for x, _ in CONTENT_CASES.values()]
    values += [x * y for x, y in zip(values, values[1:])]
    assert not writer_mismatches(values)


@pytest.mark.parametrize("text", ["1/(q+1)", "(2*q - 1)/(q^2 + q + 3)", "v/(3*v^3 - 1)",
                                  "q + 1", "-v^{-3}/2", "0", "5/7", "q^2 - q^{-1}"])
def test_repr_reads_back_as_the_same_value(text):
    x = parse_scalar(text)
    shown = repr(x)
    assert shown.startswith("RatFunc(") and shown.endswith(")")
    assert parse_scalar(shown[len("RatFunc("):-1]) == x


def test_repr_of_a_quotient_keeps_its_parentheses():
    assert repr(parse_scalar("1/(q+1)")) == "RatFunc((1) / (q + 1))"
    assert repr(parse_scalar("q + 1")) == "RatFunc(q + 1)"


# ------------------------------------- differential tests of the Z kernel
#
# Seeded random RatFuncs with cyclotomic and non-cyclotomic denominator
# factors and fractional content.  The oracle is exact evaluation of the
# input Fraction dicts at rational points, which never touches RatFunc.

FACTORS = [
    padd(V(2, 2), neg(ONE)),              # 2q - 1
    padd(V(4), Q, V(0, 3)),               # q^2 + q + 3
    padd(Q, V(0, 2)),                     # q + 2
    padd(Q, neg(QINV)),                   # q - q^-1
    padd(V(1), V(-1)),                    # v + v^-1
    padd(Q, ONE, QINV),                   # [3]
    V(3, Fraction(3, 2)),
    padd(V(3), V(-1, Fraction(-2, 5))),
]
POINTS = [Fraction(2), Fraction(3, 2), Fraction(-5, 3)]
COEFFS = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def random_poly(rng, terms):
    return padd({rng.randint(-4, 4): rng.choice(COEFFS) for _ in range(terms)})


def random_factors(rng, count):
    return pmul(*(rng.choice(FACTORS) for _ in range(count)))


def random_pair(rng):
    """(num, den) sharing a random factor about half the time."""
    common = random_factors(rng, rng.randint(0, 1))
    num = pmul(random_poly(rng, rng.randint(1, 4)), random_factors(rng, rng.randint(0, 2)), common)
    den = pmul(random_poly(rng, 1), random_factors(rng, rng.randint(0, 3)), common)
    return num, den


def value(x, v):
    return peval(x.num.coeffs, v) / peval(x.den.coeffs, v)


def canonical(x):
    """Re-normalizing through the constructor changes nothing: equality
    and hashing are structural, so this holds only for the canonical form."""
    y = RatFunc(x.num, x.den)
    return y == x and hash(y) == hash(x) and y.to_json() == x.to_json()


def random_operands(seed, count):
    rng = random.Random(seed)
    pairs = [random_pair(rng) for _ in range(count)]
    return [(rf(n, d), {v: peval(n, v) / peval(d, v) for v in POINTS}) for n, d in pairs]


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
        z = rf(n, d).qconjugate()
        assert canonical(z)
        for v in POINTS:
            assert value(z, v) == peval(n, 1 / v) / peval(d, 1 / v)


@pytest.mark.parametrize("seed", range(8))
def test_ratfunc_common_factor_cancels_to_the_same_value(seed):
    rng = random.Random(200 + seed)
    for _ in range(10):
        n, d = random_pair(rng)
        g = pmul(random_poly(rng, 2), random_factors(rng, rng.randint(1, 2)))
        reduced, scaled = rf(n, d), rf(pmul(n, g), pmul(d, g))
        assert scaled == reduced
        assert scaled.to_json() == reduced.to_json()
        assert hash(scaled) == hash(reduced)
        assert qring._zgcd(reduced.n, reduced.d)[0] == (1,)


def test_exact_division_failure_raises_value_error():
    # q + 2 is not a multiple of 2q - 1 over Z (ascending coefficients)
    with pytest.raises(ValueError):
        qring._zexact([2, 0, 1], [-1, 0, 2])
    assert qring._zexact([-1, 0, 0, 0, 4], [-1, 0, 2]) == [1, 0, 2]


@pytest.mark.parametrize("seed", range(4))
def test_h_derivative_matches_the_quotient_rule(seed):
    rng = random.Random(700 + seed)
    checked = 0
    for n, d in (random_pair(rng) for _ in range(20)):
        if peval(d, 1) == 0:
            continue                      # the oracle needs d(1) != 0
        checked += 1
        assert h_derivative_at_zero(rf(n, d)) == h_derivative(n, d)
        if d == ONE:
            assert h_derivative_at_zero(LaurentPoly(n)) == h_derivative(n, ONE)
    assert checked >= 5
    with pytest.raises(DenominatorVanishes):
        h_derivative_at_zero(rf(Q, padd(Q, neg(ONE))))


def test_h_derivative_rejects_what_is_not_a_scalar():
    with pytest.raises(TypeError):
        h_derivative_at_zero("q")


# --------------------------------------------------------------- square roots

def test_rf_sqrt_of_perfect_square():
    p = padd(V(1), V(-1))
    assert rf_sqrt(rf(pmul(p, p))) == rf(p)


def test_rf_sqrt_rejects_odd_power():
    assert rf_sqrt(rf_vpow(1)) is None


def test_rf_sqrt_rejects_non_square_constant():
    # 2q has no square root over the rationals
    assert rf_sqrt(rf(V(2, 2))) is None


@pytest.mark.parametrize("poly", [padd(V(1), ONE), padd(V(2, 2), ONE), padd(V(2), ONE)],
                         ids=["1+v: even length", "1+2q: leading 2", "1+q: no root"])
def test_rf_sqrt_rejects_non_square_polynomials(poly):
    # a square content and an even shift, but N is not the square of an
    # integer polynomial; each case leaves _zsqrt at another return
    assert rf_sqrt(rf(poly)) is None and rf_sqrt(rf(ONE, poly)) is None


@pytest.mark.parametrize("seed", range(4))
def test_rf_sqrt_of_a_square_picks_the_positive_root(seed):
    rng = random.Random(800 + seed)
    squarefree = rf(padd(V(4), Q, V(0, 3)))          # q^2 + q + 3, irreducible
    for n, d in (random_pair(rng) for _ in range(10)):
        x = rf(n, d)
        square = rf(pmul(n, n), pmul(d, d))       # squared on the dict oracle
        root = rf_sqrt(square)
        assert root == (x if x.c > 0 else -x) and root.c > 0 and canonical(root)
        assert rf_sqrt(square * rf_vpow(1)) is None           # odd shift
        assert rf_sqrt(square * 2) is None                    # non-square content
        assert rf_sqrt(square * squarefree) is None           # non-square N or D
    assert rf_sqrt(RatFunc(0)) == 0


# ------------------------------------------------------------------- parsing

@pytest.mark.parametrize("text,value", [
    ("q", rf(Q, ONE)),
    ("1", RatFunc(1)),
    ("0", RatFunc(0)),
    ("q^2 - q^-2", rf(padd(V(4), V(-4, -1)), ONE)),
    ("q^{-2}", rf(pmul(QINV, QINV), ONE)),
    ("3/2*q", rf(V(2, Fraction(3, 2)), ONE)),
    ("(q^3) / (q^6 + q^4 + q^2 + 1)", rf(V(6), padd(V(12), V(8), V(4), ONE))),
    ("v + v^-1", rf(padd(V(1), V(-1)), ONE)),
    ("+q", rf(Q, ONE)),
    ("-+-q", rf(Q, ONE)),
])
def test_parse_scalar_examples(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("x", [
    rf(padd(Q, QINV), ONE),
    rf(V(6), padd(V(12), V(8), V(4), ONE)),
    rf(V(0, 2), padd(Q, neg(QINV))),
    rf(V(-3, -1), ONE),
] + [x for x, _ in random_operands(300, 40)])
def test_printed_scalars_parse_back(x):
    assert parse_scalar(str(x)) == x


@pytest.mark.parametrize("bad", ["q^", "1//2", "(q", "w+1", ""])
def test_parse_scalar_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("text,char", [("\u0661", "\u0661"), ("\u00b2", "\u00b2"),
                                       ("q^\u0662", "\u0662"), ("1\uff11", "\uff11")],
                         ids=["arabic-indic one", "superscript two", "arabic-indic exponent",
                              "fullwidth digit"])
def test_parse_scalar_reads_ascii_digits_only(text, char):
    # str.isdigit holds for all four, and int() reads the first as 1
    with pytest.raises(ValueError) as info:
        parse_scalar(text)
    assert str(info.value) == f"bad character {char!r} in scalar expression"


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
    assert max(x.num.coeffs) == MAX_SCALAR_DEGREE and x.eval_at_one() == 2 ** 512
    assert parse_scalar("v^1024 + v^-1024") == rf(padd(V(1024), V(-1024)), ONE)


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


DEEP_SCALARS = {"parentheses": "(" * 400 + "1" + ")" * 400, "signs": "-" * 3000 + "1",
                "plus-signs": "+" * 3000 + "1"}


@pytest.mark.parametrize("text", DEEP_SCALARS.values(), ids=DEEP_SCALARS.keys())
def test_parse_scalar_rejects_deep_nesting_before_recursing(text):
    with pytest.raises(ValueError, match=f"nests deeper than {MAX_SCALAR_NESTING} "):
        parse_scalar(text)


def test_parse_scalar_accepts_nesting_at_the_bound():
    k = MAX_SCALAR_NESTING
    assert parse_scalar("(" * k + "q" + ")" * k) == rf(Q)
    assert parse_scalar("-" * k + "q") == rf(Q)
    assert parse_scalar("-" * (k // 2) + "(" * (k // 2) + "q" + ")" * (k // 2)) == rf(Q)
    with pytest.raises(ValueError, match="nests deeper"):
        parse_scalar("-" * (k // 2) + "(" * (k // 2 + 1) + "q" + ")" * (k // 2 + 1))


def test_parse_scalar_accepts_integers_at_the_size_bound():
    assert parse_scalar("2^1023").eval_at_one() == 2 ** (MAX_SCALAR_BITS - 1)
    assert parse_scalar("-1/(2^1023*q)") == rf(V(0, Fraction(-1, 2 ** 1023)), Q)


# ------------------------------------------------- the int-or-Fraction content
#
# RatFunc.c is an int exactly when the content is integral, and a Fraction
# with denominator > 1 otherwise; num and den always carry Fractions.

def content_is_canonical(x):
    return type(x.c) is int or (type(x.c) is Fraction and x.c.denominator > 1)


def views_are_fractions(x):
    return all(type(a) is Fraction
               for a in (*x.num.coeffs.values(), *x.den.coeffs.values()))


HALF_Q = rf(V(2, Fraction(1, 2)))

CONTENT_CASES = {
    "int": (RatFunc(3), int),
    "integral Fraction": (RatFunc(Fraction(4, 2)), int),
    "Fraction": (RatFunc(Fraction(1, 2)), Fraction),
    "zero": (RatFunc(0), int),
    "integral quotient": (rf(V(2, 6), V(0, 3)), int),
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
    "qconjugate": (rf(V(3, Fraction(-5, 3)), padd(Q, ONE)).qconjugate(), Fraction),
    "qconjugate int": (rf(V(3, 2), padd(Q, neg(ONE))).qconjugate(), int),
    "times int": (HALF_Q * 2, int),
    "int times": (2 * HALF_Q, int),
    "times Fraction": (rf(Q) * Fraction(6, 4), Fraction),
    "times integral Fraction": (HALF_Q * Fraction(6, 3), int),
    "plus Fraction": (rf(Q) + Fraction(1, 2), Fraction),
    "plus bool": (rf(Q) + True, int),
    "zero plus integral Fraction": (RatFunc(0) + Fraction(4, 2), int),
    "integral Fraction minus zero": (Fraction(-6, 3) - RatFunc(0), int),
    "zero plus Fraction": (Fraction(3, 4) + RatFunc(0), Fraction),
    "power": (RatFunc(Fraction(1, 2)) ** -3, int),
    "negative power": (rf(V(2, Fraction(2, 3))) ** -2, Fraction),
    # RatFunc by RatFunc, through the fast paths of the arithmetic
    "int by int": (rf(padd(Q, ONE), padd(Q, V(0, 2))) * rf(padd(V(2, 3), V(0, -6))), int),
    "int by int monomial": (rf(padd(Q, ONE)) * rf(V(-3, -4)), int),
    "Fraction by Fraction to int": (rf(padd(V(2, Fraction(2, 3)), V(0, Fraction(2, 3))))
                                    * rf(V(0, Fraction(3, 2)), padd(Q, V(0, 2))), int),
    "Fraction plus Fraction to int": (rf(padd(V(2, Fraction(1, 2)), V(0, Fraction(1, 2))))
                                      + rf(padd(V(2, Fraction(1, 2)), V(0, Fraction(3, 2)))), int),
    "Fraction minus Fraction to int": (rf(V(1, Fraction(5, 6)), padd(Q, ONE))
                                       - rf(V(1, Fraction(-1, 6)), padd(Q, ONE)), int),
    "monomial by Fraction content": (rf(V(3, 4)) * rf(padd(Q, ONE), V(0, 6)), Fraction),
    "monomial by Fraction content to int": (rf(V(3, 6)) * rf(padd(Q, ONE), V(0, 6)), int),
    "Fraction content by monomial": (rf(padd(Q, ONE), V(0, 6)) * rf(V(-1, 4)), Fraction),
    "zero by RatFunc": (RatFunc(0) * rf(V(0, Fraction(1, 2)), padd(Q, ONE)), int),
    "RatFunc by zero": (rf(V(0, Fraction(1, 2)), padd(Q, ONE)) * RatFunc(0), int),
    "zero plus RatFunc": (RatFunc(0) + rf(V(0, Fraction(1, 2)), padd(Q, ONE)), Fraction),
    "RatFunc minus zero": (rf(V(0, Fraction(1, 2)), padd(Q, ONE)) - RatFunc(0), Fraction),
    "zero minus RatFunc": (RatFunc(0) - rf(V(0, 3), padd(Q, ONE)), int),
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


# Mixed operands: an int, a bool, a Fraction or a view on either side of a
# RatFunc is coerced, and gives the value of the same operation on two
# RatFuncs.  X has an int content and shares the factor q + 2 with the
# Fraction-content operand, so products cancel across the two sides.
X = rf(padd(Q, V(0, 2)), padd(Q, ONE))
MIXED = {
    "int": 3, "zero": 0, "bool": True, "Fraction": Fraction(-2, 3),
    "integral Fraction": Fraction(4, 2), "view": LaurentPoly({2: Fraction(1, 2), -1: 3}),
    "monomial": rf(V(-3, 5)), "polynomial": rf(padd(Q, neg(ONE))),
    "RatFunc": rf(padd(V(2, Fraction(3, 4)), V(0, -1)), padd(Q, V(0, 2))), "X": X,
}
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
MIXED_CASES = [(kind, op, left) for kind in MIXED for op in ARITHMETIC for left in (True, False)
               if not (op == "/" and left and not MIXED[kind]) and (left or kind != "X")]


@pytest.mark.parametrize("kind,op,x_left", MIXED_CASES,
                         ids=[f"{'X' if left else kind}{op}{kind if left else 'X'}"
                              for kind, op, left in MIXED_CASES])
def test_mixed_operands_give_the_value_of_two_ratfuncs(kind, op, x_left):
    y = MIXED[kind]
    a, b = (X, y) if x_left else (y, X)
    z = ARITHMETIC[op](a, b)
    want = ARITHMETIC[op](*(w if isinstance(w, RatFunc) else RatFunc(w) for w in (a, b)))
    assert type(z) is RatFunc and z == want and hash(z) == hash(want)
    assert z.to_json() == want.to_json() and canonical(z) and content_is_canonical(z)


@pytest.mark.parametrize("group", [
    [RatFunc(2), RatFunc(Fraction(2)), RatFunc(Fraction(4, 2)), parse_scalar("4/2"),
     RatFunc(Fraction(1, 2)) * 4, RatFunc(1) + RatFunc(1), RatFunc(Fraction(1, 2)).inverse(),
     RatFunc.from_json({"num": {"0": "6"}, "den": {"0": "3"}}), RatFunc(3) - Fraction(1)],
    [rf(padd(V(2, 2), V(0, 2))), parse_scalar("2*q+2"), rf(padd(Q, ONE)) * 2,
     HALF_Q * 4 + RatFunc(2), rf(padd(V(-2, Fraction(1, 2)), V(0, Fraction(1, 2)))).qconjugate() * 4,
     rf(pmul(padd(Q, ONE), padd(Q, neg(ONE))), padd(V(2, Fraction(1, 2)), V(0, Fraction(-1, 2))))],
    [rf(V(2, Fraction(1, 3)), padd(Q, V(0, 2))), parse_scalar("q/(3*q+6)"),
     rf(Q, padd(Q, V(0, 2))) / 3, rf(padd(V(2, 3), V(0, 6)), Q).inverse(),
     rf(V(2, Fraction(1, 6)), padd(Q, V(0, 2))) + rf(V(2, Fraction(1, 6)), padd(Q, V(0, 2)))],
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
    return RatFunc(LaurentPoly({rng.randint(-6, 6): c}))


@pytest.mark.parametrize("seed", range(8))
def test_monomial_products_match_the_general_product(seed):
    rng = random.Random(600 + seed)
    ops = random_operands(600 + seed, 12)
    for x, _ in ops:
        m = random_monomial(rng)
        general = rf(pmul(x.num.coeffs, m.num.coeffs), pmul(x.den.coeffs, m.den.coeffs))
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
