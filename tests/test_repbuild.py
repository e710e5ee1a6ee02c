"""Highest-weight module construction over the deformed enveloping algebra."""

import dataclasses
from collections import Counter

import pytest

from qlie.linalg import sp_matmul, sp_sub, sp_eq
from qlie.qring import LaurentPoly, RatFunc, q_int, qconjugate
from qlie.rootdata import build_cartan, highest_root, weight_multiplicities, weyl_dim
from qlie.repbuild import BudgetExceeded, adjoint_module, build_irrep, verify_module
from qlie.classical import build_classical_module

from conftest import CORE, name_to_cartan


def test_a1_spin_one_commutator_is_diagonal():
    V = build_irrep(build_cartan("A", 1), (2,))
    assert V.dim == 3
    assert V.weights == [(2,), (0,), (-2,)]
    two = q_int(2, 1)
    ef_fe = sp_sub(sp_matmul(V.E[0], V.F[0]), sp_matmul(V.F[0], V.E[0]))
    assert sp_eq(ef_fe, {(0, 0): two, (2, 2): -two})


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
    broken = dataclasses.replace(V, E=bad_e)
    assert not verify_module(broken)["all"]


def test_budget_is_enforced():
    cd = build_cartan("A", 3)
    with pytest.raises(BudgetExceeded):
        build_irrep(cd, highest_root(cd), budget_dim=10)


@pytest.mark.parametrize("name,lam", [("A2", None), ("B2", None), ("A1", (2,))])
def test_classical_specialization_matches_classical_builder(name, lam):
    cd = name_to_cartan(name)
    if lam is None:
        lam = highest_root(cd)
    V = build_irrep(cd, lam)
    W = build_classical_module(cd, lam)
    assert V.labels == W.labels
    assert V.weights == W.weights
    for i in range(cd.rank):
        for mats_q, mats_c in ((V.E, W.E), (V.F, W.F)):
            ev = {p: x.eval_at_one() for p, x in mats_q[i].items() if x.eval_at_one() != 0}
            cl = {p: x for p, x in mats_c[i].items() if x != 0}
            assert ev == cl


def test_adjoint_of_a1_specializes_to_sl2():
    V = adjoint_module(build_cartan("A", 1))
    e1 = {p: x.eval_at_one() for p, x in V.E[0].items()}
    f1 = {p: x.eval_at_one() for p, x in V.F[0].items()}
    # ad(e) and ad(f) on the basis (e, h-monomial, f): rank-2 nilpotents
    assert sorted(p for p, x in e1.items() if x) == [(0, 1), (1, 2)]
    assert sorted(p for p, x in f1.items() if x) == [(1, 0), (2, 1)]


def test_module_serializes_to_json():
    import json

    V = build_irrep(build_cartan("A", 1), (1,))
    blob = json.dumps(V.to_json(), sort_keys=True)
    assert "highest_weight" in blob
