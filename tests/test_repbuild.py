"""Highest-weight module construction over the deformed enveloping algebra."""

import hashlib
import json
from collections import Counter

import pytest

from qlie.linalg import sp_matmul, sp_sub, sp_diff
from qlie.qring import LaurentPoly, RatFunc, q_int
from qlie.rootdata import build_cartan, highest_root, weight_multiplicities, weyl_dim
from qlie.repbuild import BudgetExceeded, adjoint_module, build_irrep, verify_module
from qlie.classical import build_classical_module

from conftest import CLASSICAL_MODULES, CORE, module_id, name_to_cartan
from oracles import replaced


def test_a1_spin_one_commutator_is_diagonal():
    V = build_irrep(build_cartan("A", 1), (2,))
    assert V.dim == 3
    assert V.weights == [(2,), (0,), (-2,)]
    two = q_int(2, 1)
    ef_fe = sp_sub(sp_matmul(V.E[0], V.F[0]), sp_matmul(V.F[0], V.E[0]))
    assert not sp_diff(ef_fe, {(0, 0): two, (2, 2): -two})


@pytest.mark.parametrize("name", CORE)
def test_adjoint_modules_verify(name, pipelines):
    report = verify_module(pipelines[name].module)
    assert report["all"], report


@pytest.mark.parametrize("name,dim", [("A1", 3), ("A2", 8), ("A3", 15), ("B2", 10), ("G2", 14)])
def test_adjoint_dimensions(name, dim, pipelines):
    assert pipelines[name].module.dim == dim


@pytest.mark.parametrize("name,lam", [("A2", (1, 0)), ("B2", (1, 0)), ("A1", (3,))])
def test_non_adjoint_modules_verify(name, lam):
    cd = name_to_cartan(name)
    V = build_irrep(cd, lam)
    assert V.dim == weyl_dim(cd, lam)
    assert verify_module(V)["all"]


@pytest.mark.parametrize("name", CORE)
def test_weight_strings_match_freudenthal(name, pipelines):
    V = pipelines[name].module
    expected = weight_multiplicities(V.cd, V.highest_weight)
    assert dict(Counter(V.weights)) == expected


def test_k_action_grades_the_raising_operators():
    V = build_irrep(build_cartan("B", 2), highest_root(build_cartan("B", 2)))
    cd = V.cd
    for i in range(cd.rank):
        for j in range(cd.rank):
            for (r, c) in V.E[j]:
                # conjugation by K_i rescales E_j by v^(d_i a_ij)
                assert V.kexp[i][r] - V.kexp[i][c] == cd.d[i] * cd.cartan[i][j]


def test_highest_vector_is_killed_by_raising():
    V = build_irrep(build_cartan("A", 2), (1, 1))
    for i in range(2):
        assert all(c != 0 for (r, c) in V.E[i])


def test_module_entries_are_bar_invariant():
    V = adjoint_module(build_cartan("A", 2))
    for mats in (V.E, V.F):
        for i in mats:
            for x in mats[i].values():
                assert x.qconjugate() == x


def test_mutated_module_fails_verification():
    V = build_irrep(build_cartan("A", 1), (2,))
    bad_e = {i: dict(m) for i, m in V.E.items()}
    (r, c), val = next(iter(bad_e[0].items()))
    bad_e[0][(r, c)] = val + RatFunc(LaurentPoly.constant(1))
    broken = replaced(V, E=bad_e)
    assert not verify_module(broken)["all"]


def test_entry_across_weights_fails_k_conjugation():
    # one E_1 entry moved to a target basis vector of another weight
    V = build_irrep(build_cartan("A", 2), (1, 1))
    bad_e = {i: dict(m) for i, m in V.E.items()}
    r, c = min(bad_e[0])
    other = next(a for a in range(V.dim)
                 if V.weights[a] != V.weights[r] and (a, c) not in bad_e[0])
    bad_e[0][(other, c)] = bad_e[0].pop((r, c))
    assert verify_module(replaced(V, E=bad_e))["k_conjugation"] is False
    assert verify_module(V)["k_conjugation"] is True


def test_budget_is_enforced():
    cd = build_cartan("A", 3)
    with pytest.raises(BudgetExceeded):
        build_irrep(cd, highest_root(cd), budget_dim=10)


# all but C3 (1,0,0) and G2 (1,0) have weight multiplicities >= 2, and at some
# of their weights the candidates F_j v_b outnumber the basis, so the others
# get their coordinates from the [G | R] reduction
NONPIVOT_MODULES = [
    ("A2", (1, 1)), ("A3", (1, 0, 1)), ("B2", (1, 1)), ("C3", (1, 0, 0)),
    ("G2", (1, 0)), ("G2", (0, 1)), ("B3", (1, 1, 0)),
]


SPECIALIZED = [("A2", None), ("B2", None), ("A1", (2,))] + NONPIVOT_MODULES


@pytest.mark.parametrize("name,lam", SPECIALIZED + [
    pytest.param(*m, id=module_id(*m)) for m in CLASSICAL_MODULES if m not in SPECIALIZED])
def test_classical_specialization_matches_classical_builder(name, lam):
    # entry for entry, pivots included: check_classical_limit numbers the H
    # slots in basis order on both sides
    cd = name_to_cartan(name)
    if lam is None:
        lam = highest_root(cd)
    V = build_irrep(cd, lam, budget_dim=248)
    W = build_classical_module(cd, lam, budget_dim=248)
    assert _at_one(V) == (W.labels, W.parent, W.weights, W.E, W.F, W.gram, W.weight_basis)


def _at_one(V):
    """V's labels, parents, weights, E, F, Gram blocks and weight bases, each
    scalar at v = 1."""
    def mats(ms):
        return {i: {k: x.eval_at_one() for k, x in m.items()} for i, m in ms.items()}
    gram = {w: [[x.eval_at_one() for x in row] for row in g] for w, g in V.gram.items()}
    return V.labels, V.parent, V.weights, mats(V.E), mats(V.F), gram, V.weight_basis


def test_adjoint_of_a1_specializes_to_sl2():
    V = adjoint_module(build_cartan("A", 1))
    e1 = {p: x.eval_at_one() for p, x in V.E[0].items()}
    f1 = {p: x.eval_at_one() for p, x in V.F[0].items()}
    # ad(e) and ad(f) on the basis (e, h-monomial, f): rank-2 nilpotents
    assert sorted(p for p, x in e1.items() if x) == [(0, 1), (1, 2)]
    assert sorted(p for p, x in f1.items() if x) == [(1, 0), (2, 1)]


def test_module_serializes_to_json():
    V = build_irrep(build_cartan("A", 1), (1,))
    blob = json.dumps(V.to_json(), sort_keys=True)
    assert "highest_weight" in blob


@pytest.mark.parametrize("name,lam", NONPIVOT_MODULES)
def test_basis_labels_match_the_classical_build(name, lam):
    # two independent constructions; both take each weight space's basis
    # from the pivot columns of rref on a Fraction pair matrix, which in
    # build_irrep is the v = 1 value of its Q(v) pair matrix
    cd = name_to_cartan(name)
    V = build_irrep(cd, lam, budget_dim=200)
    assert V.labels == build_classical_module(cd, lam, budget_dim=200).labels


@pytest.mark.parametrize("name,lam,digest", [
    ("A2", (1, 1), "a530595f484ecc76d7423622f106e15941331843f74fe79ff99eec3a469c987a"),
    ("A3", (1, 0, 1), "c7a1696065c69fc3005b090ecb07ec8b5043165e86a1fe90664daf9229e411c9"),
    ("B2", (1, 1), "8e766966092faff5e8a899bbd5a798bed8482b261d0b1eb1214fdffaec527ab4"),
    ("C3", (1, 0, 0), "bac56e6ffa0d24e7612f5d8fd40d8c39e0f10fff750a86d6bffc77678795bde8"),
    ("G2", (1, 0), "aba1d92923de9c73d23165e77a9c63625a7d2696a0305cb77374254155b8a7a6"),
    ("G2", (0, 1), "9f6883295f8984cf444400a96b1b811d73ca8d72d0dd0bce821eb88e4c8b4868"),
    ("B3", (1, 1, 0), "507a8d764bb0c8ee90b0b5213d8e7b5ee162d373eede8741a348bcf406a7ba1b"),
    ("A3", (1, 1, 1), "7b622ec219f6de956c0a758a88bb2d20694763fbf7cce247bcfee7f884d067ae"),
])
def test_module_json_digest(name, lam, digest):
    # the exact module, entry for entry: any change to the basis choice, the
    # Gram reduction or the scalar kernel's canonical form shows here
    V = build_irrep(name_to_cartan(name), lam, budget_dim=200)
    text = json.dumps(V.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
