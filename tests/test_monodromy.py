"""Monodromy-type operators on tensor products and the submodule extraction."""

import hashlib
import json
from fractions import Fraction

import pytest

import oracles
from qlie import monodromy, qring, tensorcg
from qlie.linalg import sp_matmul, sp_sub
from qlie.qliealg import build_generic
from qlie.qring import RatFunc, rf_vpow
from qlie.rootdata import VerificationFailed, build_cartan, highest_root, is_dominant
from qlie.repbuild import adjoint_module, build_irrep
from qlie.tensorcg import EmptySpace
from qlie.classical import build_classical_module
from qlie.monodromy import (
    Monodromy,
    adjoint_family,
    adjoint_in_dual_tensor,
    casimir_exponent,
    check_concrete,
    concrete_bracket,
    dual_data,
    monodromy_on_tensor,
    verify_ad_submodule,
)

from conftest import name_to_cartan
from oracles import (classical_split_casimir_a1, eigenvalue_q_exponents, extract_A,
                     h_derivative_at_zero, mono, padd, replaced, rf, tensor_decompose)

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
    assert eigenvalue_q_exponents(a1_mono) == {Fraction(1), Fraction(-3)}
    assert a1_mono.shift == 0


def test_two_by_two_oracle_checks(a1_mono):
    assert a1_mono.checks == {"commutes": True, "vanishes_at_one": True}


def test_two_by_two_matrix_values(a1_mono):
    # diagonal blocks: scalar q on the triplet line, q^{-3} on the singlet part
    m = a1_mono.matrix
    q = rf_vpow(2)
    assert m[(0, 0)] == m[(3, 3)] == q
    # middle 2x2 block has trace q + q^{-3} and determinant q^{-2}
    tr = m[(1, 1)] + m[(2, 2)]
    det = m[(1, 1)] * m[(2, 2)] - m[(1, 2)] * m[(2, 1)]
    assert tr == q + rf_vpow(-6)
    assert det == rf_vpow(-4)


def test_mixed_factors_eigenvalues(a1_fund):
    W = build_irrep(A1, (2,))
    M = monodromy_on_tensor(a1_fund, W)
    assert eigenvalue_q_exponents(M) == {Fraction(2), Fraction(-4)}
    assert M.checks["commutes"] and M.checks["vanishes_at_one"]


def test_minimal_polynomial_annihilates(a1_mono):
    # scalar on each isotypic piece: (M - q)(M - q^{-3}) = 0
    first, second = (sp_sub(a1_mono.matrix, {(d, d): rf_vpow(k) for d in range(4)})
                     for k in (2, -6))
    assert sp_matmul(first, second) == {}


def test_fractional_exponents_are_recorded_as_a_shift():
    V = build_irrep(A2, (1, 0))
    M = monodromy_on_tensor(V, V)
    assert M.shift == Fraction(2, 3)
    assert eigenvalue_q_exponents(M) == {Fraction(4, 3), Fraction(-8, 3)}
    assert M.checks["commutes"] and M.checks["vanishes_at_one"]


def test_adjoint_square_exponent_spectrum(pipelines):
    V = pipelines["A2"].module
    M = monodromy_on_tensor(V, V)
    assert M.shift == 0
    assert eigenvalue_q_exponents(M) == {
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
    for (r, c), x in sp_sub(sp_matmul(E, F), sp_matmul(F, E)).items():
        assert r == c
        w = star.weights[r][0]
        assert x == rf(padd(mono(2 * w), mono(-2 * w, -1)), padd(mono(2), mono(-2, -1)))


def test_dual_weights_are_negated(a1_fund):
    star = dual_data(a1_fund)
    assert star.weights == [(-1,), (1,)]


def dominant_in_orbit(cd, mu):
    """The dominant weight in the Weyl orbit of mu, by simple reflections."""
    mu = list(mu)
    while (i := next((j for j, x in enumerate(mu) if x < 0), -1)) >= 0:
        mu = [m - mu[i] * cd.cartan[j][i] for j, m in enumerate(mu)]
    return tuple(mu)


@pytest.mark.parametrize("name,lam", [
    ("A2", (2, 1)), ("A3", (0, 1, 1)), ("B2", (1, 0)), ("B2", (0, 1)), ("G2", (1, 0)),
])
def test_dual_highest_weight_is_minus_w0_lambda(name, lam):
    cd = name_to_cartan(name)
    hw = dual_data(build_irrep(cd, lam)).highest_weight
    assert is_dominant(hw)
    assert hw == dominant_in_orbit(cd, tuple(-x for x in lam))


def test_adjoint_sits_inside_dual_tensor(a1_fund):
    adj, table = adjoint_in_dual_tensor(a1_fund)
    assert adj.dim == 3
    assert len(table) == 3
    for col in table:
        assert any(not x.is_zero() for x in col.values())


def test_adjoint_absent_from_trivial_dual_tensor():
    with pytest.raises(EmptySpace):
        adjoint_in_dual_tensor(build_irrep(A2, (0, 0)))


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
    # verify_ad_submodule needs only M - 1, not its classical limit: the
    # h-derivative is a test oracle, which the package does not hold
    assert not hasattr(qring, "h_derivative_at_zero") and not hasattr(monodromy, "extract_A")
    V = build_irrep(A2, (1, 0))
    M = monodromy_on_tensor(V, V)
    expected = verify_ad_submodule(M, V, V)

    def refuse(x):
        raise AssertionError("h-derivative taken")

    monkeypatch.setattr(oracles, "h_derivative_at_zero", refuse)
    with pytest.raises(AssertionError, match="h-derivative taken"):
        extract_A(M)
    assert verify_ad_submodule(M, V, V) == expected


def test_rank_two_adjoint_submodule(pipelines):
    V = pipelines["A2"].module
    M = monodromy_on_tensor(V, V)
    rep = verify_ad_submodule(M, V, V)
    assert rep["ad_e"] and rep["ad_f"] and rep["ad_k"]
    assert rep["span_dim"] == 8


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
    vs = rf_vpow(int(scale))
    assert M.matrix == {k: x * vs for k, x in sp_matmul(braid, braid).items()}


# ------------------------------------------------------------ pinned assembly

def recorded_square(V):
    """monodromy_on_tensor(V, V) and the components it used: every weight
    it asked highest_weight_space for, with the number of vectors found."""
    real = monodromy.highest_weight_space
    used = {}

    def record(T, lam):
        hws = real(T, lam)
        used[tuple(lam)] = len(hws)
        return hws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monodromy, "highest_weight_space", record)
        M = monodromy_on_tensor(V, V)
    return M, used


@pytest.fixture(scope="module")
def adjoint_squares():
    return {name: recorded_square(adjoint_module(name_to_cartan(name)))
            for name in ("A2", "A3", "B2", "G2")}


def matrix_digest(M):
    """The number of stored entries of M and the sha256 of their text."""
    text = "\n".join(f"{r} {c} {x}" for (r, c), x in sorted(M.matrix.items()))
    return len(M.matrix), hashlib.sha256(text.encode()).hexdigest()


# the A2 and A3 pins, and the vector-square pins below, were recorded from an
# independent construction of M: one row reduction of [C^T | (C D)^T] per
# weight block, C the lowered isotypic columns and D their eigen-scalars
@pytest.mark.parametrize("name,entries,digest", [
    ("A2", 330, "e6d1b9f6e02514a131f39911bb6935d04d7a185e1e280b9654f0a06f00348bea"),
    ("A3", 1599, "03be4c23696494f08fe06a04497b67e06d7fbbae830d5e7bb052bb2fa09bdfdd"),
    ("B2", 594, "fdfd2826124508ade03323532cc4924a50a3e04cbe9bef5f9dfeacbedc103966"),
    ("G2", 1444, "96596c90eec1837862ad394f76799837aee2bf9b59ce18784aa3e10c3b40f3f2"),
])
def test_adjoint_square_matrix_digest(name, entries, digest, adjoint_squares):
    M = adjoint_squares[name][0]
    assert matrix_digest(M) == (entries, digest)
    assert not oracles.writer_mismatches(M.matrix.values())


def test_singular_isotypic_basis_is_an_obstruction(monkeypatch):
    # repeat one highest vector where adj (x) adj of A2 has multiplicity 2
    real = monodromy.highest_weight_space

    def repeated(T, lam):
        hws = real(T, lam)
        return [hws[0], hws[0]] if len(hws) == 2 else hws

    monkeypatch.setattr(monodromy, "highest_weight_space", repeated)
    V = adjoint_module(A2)
    with pytest.raises(VerificationFailed, match="singular isotypic basis"):
        monodromy_on_tensor(V, V)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_adjoint_square_components_match_the_decomposition(name, adjoint_squares):
    cd = name_to_cartan(name)
    theta = highest_root(cd)
    assert adjoint_squares[name][1] == tensor_decompose(cd, theta, theta)


def test_wrong_eigen_scalar_is_caught_by_the_eigen_check(monkeypatch, a1_fund):
    # H of the singlet scaled by v^-2 scales its seed coordinates by v^2: M
    # then acts there by v^2 + (v^-6 - v^2) v^2, a module map that is 1 at
    # v = 1, so only M u = v^e u on its highest-weight vector fails
    real_pair, real_defects = monodromy.pair_matrix, monodromy.module_map_defects
    seen = []

    def scaled(T, us):
        paired, pair = real_pair(T, us)
        return paired, [[x * rf_vpow(-2) for x in row] for row in pair]

    def recorded(M, source, target):
        seen.append(M)
        return real_defects(M, source, target)

    monkeypatch.setattr(monodromy, "pair_matrix", scaled)
    monkeypatch.setattr(monodromy, "module_map_defects", recorded)
    with pytest.raises(VerificationFailed,
                       match=r"^M is not v\^e on a highest-weight vector of \(0,\)$"):
        monodromy_on_tensor(a1_fund, a1_fund)
    (m,) = seen
    T = tensorcg.tensor_product(a1_fund, a1_fund)
    assert real_defects(m, T, T) == []
    assert all((p, p) in m for p in range(T.dim))
    assert all(x.eval_at_one() == (1 if r == c else 0) for (r, c), x in m.items())


def test_miscounted_component_fails_verification(monkeypatch, a1_fund):
    # the count that highest_weight_space checks against, one too many
    real = tensorcg.tensor_multiplicity
    monkeypatch.setattr(tensorcg, "tensor_multiplicity", lambda *args: real(*args) + 1)
    with pytest.raises(VerificationFailed, match=r"^the joint kernel of the Delta\(E_i\) at weight"
                       r" \(0,\) has dimension 1, but the Brauer-Klimyk count is 2$"):
        monodromy_on_tensor(a1_fund, a1_fund)


def _doubled_vpow(k):
    return RatFunc(2) * rf_vpow(k)


def test_operator_not_one_at_v_equal_one_is_an_obstruction(monkeypatch, a1_fund):
    # every eigen-scalar doubled: 2M still commutes, but 2M - 1 is 1 at v = 1
    monkeypatch.setattr(monodromy, "rf_vpow", _doubled_vpow)
    with pytest.raises(VerificationFailed, match="^M - 1 does not vanish at v = 1$"):
        monodromy_on_tensor(a1_fund, a1_fund)


def test_commuting_is_checked_before_vanishing(monkeypatch, a1_fund):
    monkeypatch.setattr(monodromy, "rf_vpow", _doubled_vpow)
    monkeypatch.setattr(monodromy, "module_map_defects", lambda M, source, target: [["E", 0]])
    with pytest.raises(VerificationFailed,
                       match="^operator fails to commute with the coproduct action$"):
        monodromy_on_tensor(a1_fund, a1_fund)


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
    return replaced(M, matrix=matrix)


@pytest.mark.parametrize("name,lam,entries,digest", [
    ("A3", (1, 0, 0), 28, "c62c4053931de12a4fbbd99bbaf6c97449e0996c3b750869894bf53c7081323d"),
    ("B2", (1, 0), 61, "e52de95d311865e39d6563ac1ea4a14308fac9f61df9f2a9fdc60d0ef4d21588"),
    ("G2", (1, 0), 175, "b0afce786746af8a3b6206d068cf9d129ce06a48b03c09aba77449be74c01bf1"),
])
def test_vector_square_matrix_digest(name, lam, entries, digest):
    M = vector_square(name, lam)[1]
    assert matrix_digest(M) == (entries, digest)
    assert not oracles.writer_mismatches(M.matrix.values())


@pytest.mark.parametrize("name,lam", [(n, lam) for n, lams in SQUARES.items() for lam in lams])
def test_vector_square_submodule_spans_the_adjoint(name, lam):
    V, M = vector_square(name, lam)
    rep = verify_ad_submodule(M, V, V)
    assert rep["all"], rep
    assert rep["span_dim"] == ADJOINT_DIM[name]


@pytest.mark.parametrize("name,lam", [(n, lam) for n, lams in SQUARES.items() for lam in lams])
def test_vector_square_components_match_the_decomposition(name, lam):
    V = build_irrep(name_to_cartan(name), lam)
    assert recorded_square(V)[1] == tensor_decompose(V.cd, lam, lam)


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


def test_swapped_factors_are_refused():
    # dim V (x) W = dim W (x) V, and the swapped family even passes the
    # module-map check, so only the factor check can refuse it
    V, W = build_irrep(A2, (1, 0)), build_irrep(A2, (0, 1))
    M = monodromy_on_tensor(V, W)
    assert verify_ad_submodule(M, V, W)["all"]
    with pytest.raises(ValueError, match="^V and W are not the factors of M$"):
        verify_ad_submodule(M, W, V)


def test_monodromy_records_its_factors(a1_fund, a1_mono):
    assert (a1_mono.tensor.left, a1_mono.tensor.right) == (a1_fund, a1_fund)
    assert a1_mono.dim == 4


def test_factors_over_different_algebras_are_refused():
    V, W = build_irrep(A2, (1, 0)), build_irrep(build_cartan("B", 2), (1, 0))
    with pytest.raises(ValueError, match="^tensor factors over different algebras: A2 and B2$"):
        monodromy_on_tensor(V, W)


# ------------------------------------------ the concrete bracket against the abstract one

def concrete_side(name, lam):
    """M = monodromy_on_tensor(V, W) with V = V(lam) and W = adjoint_module(cd),
    and the abstract table build_generic(cd), which is written on W's basis."""
    cd = name_to_cartan(name)
    V = build_irrep(cd, lam)
    budget = V.dim ** 2
    return monodromy_on_tensor(V, adjoint_module(cd, budget)), build_generic(cd, budget_dim=budget)


@pytest.mark.parametrize("name,lam,m_V,at_one", [
    ("A1", (1,), -1, 8),
    ("A1", (2,), 2, 16),
    ("B2", (1, 0), 2, 48),
    ("B2", (0, 1), -2, -48),
    ("B2", (0, 2), 12, -144),
    ("G2", (1, 0), -1, 96),
    ("G2", (0, 1), 22, -128),
    ("B3", (1, 0, 0), 2, 80),
    ("C3", (1, 0, 0), -2, 32),
    ("D4", (1, 0, 0, 0), 1, 48),
])
def test_concrete_bracket_is_a_multiple_of_the_abstract_one(name, lam, m_V, at_one):
    rep = check_concrete(*concrete_side(name, lam))
    assert rep["all"] and rep["witness"] is None, rep
    assert (rep["m_V"], rep["lambda_prime_at_one"]) == (m_V, str(at_one))
    assert not rep["q_antisymmetry_raw"]["ok"] and rep["q_antisymmetry_normalized"]["ok"]
    assert json.loads(json.dumps(rep)) == rep


def test_a2_vector_bracket_is_not_one_multiple():
    # Hom(adj (x) adj, adj) is 2-dimensional for A_n, n >= 2: the concrete
    # support is 51 of the abstract 56 entries, with nine ratios on it
    M, A = concrete_side("A2", (1, 0))
    rep = check_concrete(M, A)
    assert (rep["lambda_V"], rep["witness"], rep["m_V"], rep["all"]) == (None, [0, 4, 0], None, False)
    C = concrete_bracket(M)
    assert set(C) < set(A.constants) and (len(C), len(A.constants)) == (51, 56)
    assert len({x / A.constants[k] for k, x in C.items()}) == 9


def test_corrupted_entry_breaks_the_proportionality():
    M, A = concrete_side("B2", (1, 0))
    key = min(k for k in M.matrix if k[0] != k[1])
    rep = check_concrete(with_entry_added(M, key, RatFunc(1)), A)
    assert (rep["lambda_V"], rep["witness"], rep["all"]) == (None, [6, 1, 2], False)


def test_concrete_check_refuses_another_basis_and_another_w():
    M, A = concrete_side("B2", (1, 0))
    with pytest.raises(ValueError, match=r"^A is not graded like W = M.tensor.right$"):
        check_concrete(M, build_generic(name_to_cartan("G2")))
    with pytest.raises(ValueError, match=r"^A is not graded like W = M.tensor.right$"):
        check_concrete(M, replaced(A, basis=A.basis[::-1]))
    with pytest.raises(ValueError, match=r"^W = M.tensor.right is not the adjoint module$"):
        concrete_bracket(vector_square("A2", (1, 0))[1])
