"""Monodromy-type operators on tensor products and the submodule extraction."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from qlie import monodromy
from qlie.linalg import sp_matmul, sp_eq, sp_scale
from qlie.qring import LaurentPoly, RatFunc, h_derivative_at_zero, rf_vpow
from qlie.rootdata import build_cartan, highest_root
from qlie.repbuild import adjoint_module, build_irrep
from qlie.classical import build_classical_module
from qlie.monodromy import (
    Monodromy,
    ObstructionDetected,
    adjoint_in_dual_tensor,
    casimir_exponent,
    dual_data,
    extract_A,
    monodromy_on_tensor,
    verify_ad_submodule,
)

from oracles import classical_split_casimir_a1, mono, padd, rf

A1 = build_cartan("A", 1)
A2 = build_cartan("A", 2)


@pytest.fixture(scope="module")
def a1_fund():
    return build_irrep(A1, (1,))


@pytest.fixture(scope="module")
def a1_mono(a1_fund):
    return monodromy_on_tensor(a1_fund, a1_fund)


# ------------------------------------------------------------ Casimir exponents

@pytest.mark.parametrize("lam,value", [
    ((1,), Fraction(3, 2)),
    ((2,), Fraction(4)),
    ((0,), Fraction(0)),
    ((3,), Fraction(15, 2)),
])
def test_rank_one_casimir_exponents(lam, value):
    assert casimir_exponent(A1, lam) == value


@pytest.mark.parametrize("name,value", [
    (("A", 1), 4),   # simply laced: twice the dual Coxeter number
    (("A", 2), 6),
    (("A", 3), 8),
    (("B", 2), 12),  # scaled by (theta, theta)/2 when theta is long
    (("G", 2), 24),
])
def test_adjoint_casimir_exponents(name, value):
    cd = build_cartan(*name)
    assert casimir_exponent(cd, highest_root(cd)) == value


# ------------------------------------------------------------ operator structure

def test_two_by_two_eigenvalue_exponents(a1_mono):
    assert a1_mono.eigenvalue_q_exponents() == {Fraction(1), Fraction(-3)}
    assert a1_mono.shift == 0


def test_two_by_two_oracle_checks(a1_mono):
    assert a1_mono.checks == {"commutes": True, "vanishes_at_one": True}


def test_two_by_two_matrix_values(a1_mono):
    # diagonal blocks: scalar q on the triplet line, q^{-3} on the singlet part
    m = a1_mono.matrix
    q = RatFunc(LaurentPoly.v_power(2))
    assert m[(0, 0)] == q
    assert m[(3, 3)] == q
    # middle 2x2 block has trace q + q^{-3} and determinant q^{-2}
    tr = m[(1, 1)] + m[(2, 2)]
    det = m[(1, 1)] * m[(2, 2)] - m[(1, 2)] * m[(2, 1)]
    assert tr == q + RatFunc(LaurentPoly.v_power(-6))
    assert det == RatFunc(LaurentPoly.v_power(-4))


def test_mixed_factors_eigenvalues(a1_fund):
    W = build_irrep(A1, (2,))
    M = monodromy_on_tensor(a1_fund, W)
    assert M.eigenvalue_q_exponents() == {Fraction(2), Fraction(-4)}
    assert M.checks["commutes"] and M.checks["vanishes_at_one"]


def test_minimal_polynomial_annihilates(a1_mono):
    # scalar on each isotypic piece: (M - q)(M - q^{-3}) = 0
    m = a1_mono.matrix
    q = RatFunc(LaurentPoly.v_power(2))
    qm3 = RatFunc(LaurentPoly.v_power(-6))
    first = {p: x for p, x in m.items()}
    for d in range(4):
        first[(d, d)] = first.get((d, d), RatFunc(0)) - q
    second = {p: x for p, x in m.items()}
    for d in range(4):
        second[(d, d)] = second.get((d, d), RatFunc(0)) - qm3
    prod = sp_matmul(first, second)
    assert all(x.is_zero() for x in prod.values())


def test_fractional_exponents_are_recorded_as_a_shift():
    V = build_irrep(A2, (1, 0))
    M = monodromy_on_tensor(V, V)
    assert M.shift == Fraction(2, 3)
    assert M.eigenvalue_q_exponents() == {Fraction(4, 3), Fraction(-8, 3)}
    assert M.checks["commutes"] and M.checks["vanishes_at_one"]


def test_adjoint_square_exponent_spectrum(pipelines):
    V = pipelines["A2"].module
    M = monodromy_on_tensor(V, V)
    assert M.shift == 0
    assert M.eigenvalue_q_exponents() == {
        Fraction(4), Fraction(0), Fraction(-6), Fraction(-12)}
    assert M.checks["commutes"] and M.checks["vanishes_at_one"]


def test_convention_record(a1_mono):
    for key in ("eigenvalue", "pairing", "coproduct", "base", "shift"):
        assert key in a1_mono.convention


# ------------------------------------------------------------ classical content

def test_difference_vanishes_classically(a1_mono):
    m1, classical = extract_A(a1_mono)
    for x in m1.values():
        assert x.eval_at_one() == 0
    assert any(classical.values())


def test_classical_part_is_the_split_casimir(a1_fund, a1_mono):
    _, classical = extract_A(a1_mono)
    W = build_classical_module(A1, (1,))
    oracle = classical_split_casimir_a1(W, W)
    assert classical == oracle


def test_classical_part_is_swap_symmetric(a1_mono):
    _, classical = extract_A(a1_mono)
    for (r, c), x in classical.items():
        ra, rb = divmod(r, 2)
        ca, cb = divmod(c, 2)
        assert classical.get((rb * 2 + ra, cb * 2 + ca)) == x


def test_entrywise_derivative_matches_extract(a1_mono):
    m1, classical = extract_A(a1_mono)
    for p, x in m1.items():
        assert h_derivative_at_zero(x) == classical.get(p, Fraction(0))


# ----------------------------------------------------------- submodule extraction

def test_dual_module_satisfies_the_relations(a1_fund):
    star = dual_data(a1_fund)
    E, F = star.E[0], star.F[0]
    lhs = {}
    for (r, c), x in sp_matmul(E, F).items():
        lhs[(r, c)] = lhs.get((r, c), RatFunc(0)) + x
    for (r, c), x in sp_matmul(F, E).items():
        lhs[(r, c)] = lhs.get((r, c), RatFunc(0)) - x
    lhs = {p: x for p, x in lhs.items() if not x.is_zero()}
    for (r, c), x in lhs.items():
        assert r == c
        w = star.weights[r][0]
        assert x == rf(padd(mono(2 * w), mono(-2 * w, -1)), padd(mono(2), mono(-2, -1)))


def test_dual_weights_are_negated(a1_fund):
    star = dual_data(a1_fund)
    assert star.weights == [(-1,), (1,)]


def test_adjoint_sits_inside_dual_tensor(a1_fund):
    adj, table = adjoint_in_dual_tensor(a1_fund)
    assert adj.dim == 3
    assert len(table) == 3
    for col in table:
        assert any(not x.is_zero() for x in col.values())


@pytest.mark.parametrize("factors", [((1,), (1,)), ((1,), (2,))])
def test_rank_one_submodule_spans_the_adjoint(factors, a1_fund):
    lam, mu = factors
    V = a1_fund if lam == (1,) else build_irrep(A1, lam)
    W = a1_fund if mu == (1,) else build_irrep(A1, mu)
    M = monodromy_on_tensor(V, W)
    rep = verify_ad_submodule(M, V, W)
    assert rep["all"], rep
    assert rep["span_dim"] == 3


def test_rank_two_vector_submodule(pipelines):
    V = build_irrep(A2, (1, 0))
    M = monodromy_on_tensor(V, V)
    rep = verify_ad_submodule(M, V, V)
    assert rep["all"], rep
    assert rep["span_dim"] == 8


def test_submodule_check_takes_no_derivative(monkeypatch):
    # verify_ad_submodule needs only M - 1, not its classical limit
    V = build_irrep(A2, (1, 0))
    M = monodromy_on_tensor(V, V)
    expected = verify_ad_submodule(M, V, V)

    def refuse(x):
        raise AssertionError("h-derivative taken")

    monkeypatch.setattr(monodromy, "h_derivative_at_zero", refuse)
    with pytest.raises(AssertionError, match="h-derivative taken"):
        extract_A(M)
    assert verify_ad_submodule(M, V, V) == expected


def test_rank_two_adjoint_submodule(pipelines):
    V = pipelines["A2"].module
    M = monodromy_on_tensor(V, V)
    rep = verify_ad_submodule(M, V, V)
    assert rep["ad_e"] and rep["ad_f"] and rep["ad_k"]
    assert rep["span_dim"] == 8


def test_budget_guard():
    V = build_irrep(A2, (1, 1))
    with pytest.raises(Exception):
        monodromy_on_tensor(V, V, budget_dim=3)


# ------------------------------------------------------------ Jimbo's R-matrix

def jimbo_braid(n):
    """P R_J on C^n (x) C^n with index a*n + b, from Jimbo's closed form

        R_J = q sum_i e_ii (x) e_ii + sum_{i != j} e_ii (x) e_jj
              + (q - q^-1) sum_{i > j} e_ij (x) e_ji,

    where e_ij (x) e_kl sends e_j (x) e_l to e_i (x) e_k and P is the flip."""
    q, qinv = rf_vpow(2), rf_vpow(-2)
    rj = {}
    for i in range(n):
        for j in range(n):
            rj[(i * n + j, i * n + j)] = q if i == j else RatFunc(1)
            if i > j:
                rj[(i * n + j, j * n + i)] = q - qinv
    flip = {(b * n + a, a * n + b): RatFunc(1) for a in range(n) for b in range(n)}
    return sp_matmul(flip, rj)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vector_square_is_jimbo_braid_squared(n):
    # On V (x) V the universal R-matrix is q^(-1/n) R_J, so the operator is
    # q^(-2/n) (P R_J)^2 and the stored matrix carries a further v^(-shift).
    cd = build_cartan("A", n - 1)
    V = build_irrep(cd, (1,) + (0,) * (n - 2))
    M = monodromy_on_tensor(V, V)
    scale = -M.shift - Fraction(4, n)
    assert scale.denominator == 1
    braid = jimbo_braid(n)
    assert M.matrix == sp_scale(sp_matmul(braid, braid), rf_vpow(int(scale)))


# ------------------------------------------------------------ pinned assembly

@pytest.mark.parametrize("name,entries,digest", [
    ("B2", 594, "fdfd2826124508ade03323532cc4924a50a3e04cbe9bef5f9dfeacbedc103966"),
    ("G2", 1444, "96596c90eec1837862ad394f76799837aee2bf9b59ce18784aa3e10c3b40f3f2"),
])
def test_adjoint_square_matrix_digest(name, entries, digest):
    V = adjoint_module(build_cartan(name[0], int(name[1:])))
    M = monodromy_on_tensor(V, V)
    text = "\n".join(f"{r} {c} {x}" for (r, c), x in sorted(M.matrix.items()))
    assert len(M.matrix) == entries
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_singular_isotypic_basis_is_an_obstruction(monkeypatch):
    # repeat one highest vector where adj (x) adj of A2 has multiplicity 2
    real = monodromy.joint_highest_vectors

    def repeated(T, lam):
        hws = real(T, lam)
        return [hws[0], hws[0]] if len(hws) == 2 else hws

    monkeypatch.setattr(monodromy, "joint_highest_vectors", repeated)
    V = adjoint_module(A2)
    with pytest.raises(ObstructionDetected, match="singular isotypic basis"):
        monodromy_on_tensor(V, V)


# ------------------------------------------------- the submodule check itself

SQUARES = {
    "A3": [(1, 0, 0)],
    "B2": [(1, 0), (0, 1)],
    "B3": [(1, 0, 0)],
    "C3": [(1, 0, 0)],
    "D4": [(1, 0, 0, 0)],
    "G2": [(1, 0)],
}
ADJOINT_DIM = {"A3": 15, "B2": 10, "B3": 21, "C3": 21, "D4": 28, "G2": 14}


def vector_square(name, lam):
    V = build_irrep(build_cartan(name[0], int(name[1:])), lam)
    return V, monodromy_on_tensor(V, V)


def with_entry_added(M, key, x):
    """M with x added to one entry of its stored matrix."""
    matrix = dict(M.matrix)
    matrix[key] = matrix.get(key, RatFunc(0)) + x
    return dataclasses.replace(M, matrix=matrix)


@pytest.mark.parametrize("name,lam", [(n, lam) for n, lams in SQUARES.items() for lam in lams])
def test_vector_square_submodule_spans_the_adjoint(name, lam):
    V, M = vector_square(name, lam)
    rep = verify_ad_submodule(M, V, V)
    assert rep["all"], rep
    assert rep["span_dim"] == ADJOINT_DIM[name]


@pytest.mark.parametrize("name,lam", [("A2", (1, 0)), ("B2", (0, 1)), ("G2", (1, 0))])
def test_perturbed_entry_breaks_the_twisted_action(name, lam):
    # an off-diagonal entry stays inside its weight block, so only the
    # E and F conditions can notice it
    V, M = vector_square(name, lam)
    key = min(k for k in M.matrix if k[0] != k[1])
    rep = verify_ad_submodule(with_entry_added(M, key, RatFunc(1)), V, V)
    assert (rep["all"], rep["ad_e"], rep["ad_f"], rep["ad_k"]) == (False, False, False, True)


def test_entry_across_weights_breaks_the_grading():
    V, M = vector_square("A2", (1, 0))
    d = V.dim
    _, ktable = adjoint_in_dual_tensor(V)
    # a diagonal first-slot pair (i, i) that the adjoint embedding uses
    i = next(p // d for col in ktable for p in col if p // d == p % d)
    low = next(l for l in range(d) if V.weights[l] != V.weights[0])
    rep = verify_ad_submodule(with_entry_added(M, (i * d, i * d + low), RatFunc(1)), V, V)
    assert not rep["ad_k"] and not rep["all"]
