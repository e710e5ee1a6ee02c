"""Clearing denominators of RatFunc vectors, the step behind every
nullspace basis vector."""

import random
from fractions import Fraction

import pytest

from qlie import linalg, qring
from qlie.linalg import clear_denominators
from qlie.monodromy import monodromy_on_tensor
from qlie.qliealg import generic_pipeline
from qlie.repbuild import build_irrep
from qlie.rootdata import build_cartan

from oracles import mono, padd, pmul, rf


def assert_cleared(vec, out):
    """Polynomial entries with gcd 1 and lowest v-power v^0, forming a
    Q(v)-multiple of vec."""
    assert len(out) == len(vec) and [bool(x) for x in vec] == [bool(y) for y in out]
    assert all(y.is_polynomial() for y in out)
    nonzero = [y for y in out if y]
    if not nonzero:
        return
    g = nonzero[0].n
    for y in nonzero[1:]:
        g = qring._zgcd(g, y.n)[0]
    assert tuple(g) == (1,)
    assert min(y.s for y in nonzero) == 0
    k = next(i for i, x in enumerate(vec) if x)
    scale = out[k] / vec[k]
    assert all(y == x * scale for x, y in zip(vec, out))


FACTORS = [
    padd(mono(2, 2), mono(0, -1)),                    # 2q - 1
    padd(mono(4), mono(2), mono(0, 3)),               # q^2 + q + 3
    padd(mono(2), mono(-2, -1)),                      # q - q^-1
    padd(mono(1), mono(-1)),                          # v + v^-1
    padd(mono(2), mono(0), mono(-2)),                 # [3]
    padd(mono(3), mono(-1, Fraction(-2, 5))),
]
COEFFS = [-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def random_entry(rng):
    if rng.random() < 0.2:
        return rf({})
    num = pmul(mono(rng.randint(-4, 4), rng.choice(COEFFS)),
               *(rng.choice(FACTORS) for _ in range(rng.randint(0, 2))))
    den = pmul(mono(rng.randint(-4, 4), rng.choice(COEFFS)),
               *(rng.choice(FACTORS) for _ in range(rng.randint(0, 2))))
    return rf(num, den)


def test_cleared_scale_is_pinned():
    # times the monic lcm q + 1/3, divided by the monic gcd q - 1/2: the
    # leading coefficients 3 and 2 of their integer forms set the scale
    two_q_minus_one = padd(mono(2, 2), mono(0, -1))
    vec = [rf(pmul(mono(0, 3), two_q_minus_one), padd(mono(2, 3), mono(0))),
           rf(pmul(mono(1), two_q_minus_one)), rf({})]
    out = clear_denominators(vec)
    assert out == [rf(mono(0, 2)), rf(padd(mono(3, 2), mono(1, Fraction(2, 3)))), rf({})]
    assert [type(y.c) for y in out] == [int, Fraction, int]
    assert_cleared(vec, out)


@pytest.mark.parametrize("seed", range(6))
def test_cleared_random_vectors(seed):
    rng = random.Random(900 + seed)
    for _ in range(10):
        vec = [random_entry(rng) for _ in range(rng.randint(1, 5))]
        common = rf(pmul(*(rng.choice(FACTORS) for _ in range(rng.randint(0, 2)))))
        for v in (vec, [x * common for x in vec]):
            assert_cleared(v, clear_denominators(v))


def test_cleared_vectors_of_the_pipeline_and_the_monodromy(monkeypatch):
    seen = []

    def recording(vec):
        out = clear_denominators(vec)
        seen.append((vec, out))
        return out

    monkeypatch.setattr(linalg, "clear_denominators", recording)
    for name, rank in (("A", 2), ("A", 3), ("B", 2)):
        generic_pipeline(build_cartan(name, rank))
    V = build_irrep(build_cartan("G", 2), (1, 0))
    monodromy_on_tensor(V, V)
    assert len(seen) >= 9
    for vec, out in seen:
        assert_cleared(vec, out)
