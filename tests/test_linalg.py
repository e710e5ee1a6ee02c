"""The dense Gauss-Jordan routines against a textbook reference, and
clearing denominators of RatFunc vectors, the step behind every
highest-weight vector."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qlie import qring, tensorcg
from qlie.linalg import inverse, nullspace, rank, rref, solve, sp_diff
from qlie.qring import clear_denominators
from qlie.monodromy import monodromy_on_tensor
from qlie.qliealg import generic_pipeline
from qlie.repbuild import build_irrep
from qlie.rootdata import build_cartan

from oracles import (mono, padd, pmul, reference_inverse, reference_nullspace, reference_rref,
                     reference_solve, rf)


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

    monkeypatch.setattr(tensorcg, "clear_denominators", recording)
    for name, rank in (("A", 2), ("A", 3), ("B", 2)):
        generic_pipeline(build_cartan(name, rank))
    V = build_irrep(build_cartan("G", 2), (1, 0))
    monodromy_on_tensor(V, V)
    assert len(seen) >= 9
    for vec, out in seen:
        assert_cleared(vec, out)


# ------------------------------------------------------------ Gauss-Jordan

FRACTIONS = [Fraction(0)] * 3 + [Fraction(k, m) for k in (-3, -1, 1, 2, 5) for m in (1, 2, 3)]


def random_matrix(rng, rows, cols, entry, rank_at_most=None):
    """A rows x cols matrix; with rank_at_most, every row past that many is a
    combination of the rows before it."""
    mat = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rank_at_most is not None:
        for r in range(rank_at_most, rows):
            row = [0 * x for x in mat[0]] if mat else []
            for k in range(rank_at_most):
                f = entry(rng)
                row = [x + f * y for x, y in zip(row, mat[k])]
            mat[r] = row
    return mat


def shapes(rng):
    """(rows, cols, rank bound): square, wide, tall, rank-deficient,
    zero-row and empty."""
    out = [(0, 0, None), (0, 3, None), (2, 0, None)]
    for n in (1, 2, 3, 4):
        out += [(n, n, None), (n, n, rng.randint(0, n - 1)), (n, n + rng.randint(1, 3), None),
                (n + 1, n, None), (n + 1, n + 2, rng.randint(0, n))]
    return out


def fraction_entry(rng):
    return rng.choice(FRACTIONS)


def ratfunc_entry(rng):
    return random_entry(rng) if rng.random() < 0.5 else rf(mono(0, rng.choice(COEFFS)))


@pytest.mark.parametrize("field", ["Fraction", "RatFunc"])
@pytest.mark.parametrize("seed", range(4))
def test_dense_routines_equal_the_textbook_reference(field, seed):
    rng = random.Random(1700 + seed)
    entry, one = ((fraction_entry, Fraction(1)) if field == "Fraction"
                  else (ratfunc_entry, rf(mono(0))))
    for rows, cols, low in shapes(rng):
        mat = random_matrix(rng, rows, cols, entry, low)
        before = [list(row) for row in mat]
        red, pivots = reference_rref(mat)

        work = list(mat)
        assert rref(work) == pivots and work == red
        assert rank(mat) == len(pivots)
        assert nullspace(mat, cols, one) == reference_nullspace(mat, cols, one)
        if rows == cols:
            b = [entry(rng) for _ in range(rows)]
            if len(pivots) == rows:
                assert solve(mat, b) == reference_solve(mat, b)
                assert inverse(mat) == reference_inverse(mat, one)
            else:
                with pytest.raises(ZeroDivisionError):
                    solve(mat, b)
                with pytest.raises(ZeroDivisionError):
                    inverse(mat)
        # the caller's row lists are left as they were
        assert mat == before


@pytest.mark.parametrize("one", [Fraction(1), qring.RF_ONE], ids=["Fraction", "RatFunc"])
def test_sp_diff_lists_the_differing_keys_in_order(one):
    # an explicit zero on one side equals a missing key on the other
    zero = one - one
    a = {(3, 3): one, (2, 0): one, (0, 1): one * 2, (1, 1): zero}
    b = {(1, 2): one, (2, 0): one * 3, (0, 1): one * 2, (0, 0): zero}
    assert sp_diff(a, b) == sp_diff(b, a) == [(1, 2), (2, 0), (3, 3)]
    assert sp_diff(a, {k: x for k, x in a.items() if x}) == []


def test_each_number_format_has_one_home():
    """linalg serves any field and imports nothing from qring; only qring
    builds a RatFunc from its parts; the integer form of the module-map
    check is defined in tensorcg, beside the check."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(Path(qring.__file__).parent.glob("*.py"))}
    imported = [node.module or "" for node in ast.walk(trees["linalg.py"])
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(trees["linalg.py"])
                 if isinstance(node, ast.Import) for alias in node.names]
    assert not [m for m in imported if "qring" in m], imported
    makers = {name for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "_make"}
    assert makers == {"qring.py"}, makers
    defined = {node.name for node in trees["tensorcg.py"].body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert {"IntForm", "sp_int_form", "sp_int_eval"} <= defined
