"""Acceptance suite: one test per shipped criterion, exact arithmetic only.

Each test prints a single `criterion N (...): PASS|FAIL` line (visible with
-s, and in the captured output on failure) and enforces the stated wall-clock
budget where one applies.  Everything here is checked with exact rational
function arithmetic; there are no numeric tolerances anywhere.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qlie.cli import main
from qlie.qring import parse_scalar
from qlie.rootdata import build_cartan, highest_root, tensor_multiplicity
from qlie.repbuild import verify_module
from qlie.qliealg import (
    QuantumLieAlgebra,
    build_generic,
    build_sln_explicit,
    check_ad_invariance,
    check_classical_limit,
    check_gradation,
    check_lr_identity,
    check_q_antisymmetry,
    check_tau_sln,
    compare_to_explicit,
    same_algebra,
)
from qlie.monodromy import monodromy_on_tensor, verify_ad_submodule
from qlie.repbuild import build_irrep

from conftest import CORE, GRID, GRID_RANKS, load_golden
from oracles import eigenvalue_q_exponents, fraction_jacobi


@contextmanager
def criterion(n, name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        print(f"criterion {n} ({name}): FAIL")
        raise AssertionError(f"budget exceeded: {elapsed:.1f}s > {budget}s")
    print(f"criterion {n} ({name}): PASS")


def test_criterion_01_normalized_rank_one_standard_model(capsys, golden_dir, tmp_path):
    out = tmp_path / "accept_sl2q.json"
    with capsys.disabled(), criterion(1, "normalized rank-one table via CLI", budget=5.0):
        code = main(["build", "--algebra", "A1", "--construction", "generic",
                     "--normalize", "--format", "json", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            blob = json.load(fh)
        A = QuantumLieAlgebra.from_json(blob)
        golden = QuantumLieAlgebra.from_json(load_golden(golden_dir, "sl2q.json"))
        assert same_algebra(A, golden)

        pos = {lab.name(): a for a, lab in enumerate(A.basis)}
        xp, xm, h = pos["X_{(2)}"], pos["X_{(-2)}"], pos["H_1"]
        f = A.constants
        q = parse_scalar("q")
        assert f[(xp, xm, h)] == parse_scalar("1")
        assert f[(xm, xp, h)] == parse_scalar("-1")
        assert f[(h, xp, xp)] == parse_scalar("2") * q
        assert f[(h, xm, xm)] == parse_scalar("-2") / q
        assert f[(xp, h, xp)] == parse_scalar("-2") / q
        assert f[(xm, h, xm)] == parse_scalar("2") * q
        assert f[(h, h, h)] == parse_scalar("2") * (q - 1 / q)
        assert len(f) == 7


def test_criterion_02_explicit_family_well_defined(capsys):
    with capsys.disabled(), criterion(2, "explicit tables satisfy the bracket laws"):
        for n in GRID_RANKS:
            for s, t in GRID:
                start = time.monotonic()
                E = build_sln_explicit(n, parse_scalar(s), parse_scalar(t))
                assert check_lr_identity(E)["ok"], (n, s, t)
                assert check_gradation(E)["ok"], (n, s, t)
                assert time.monotonic() - start < 10.0, (n, s, t)


def test_criterion_03_q_antisymmetry(capsys, cartan):
    with capsys.disabled(), criterion(3, "deformed antisymmetry", budget=1800.0):
        for name in CORE:
            A = build_generic(cartan[name])
            assert check_q_antisymmetry(A)["ok"], name
        for n in GRID_RANKS:
            for s, t in GRID:
                E = build_sln_explicit(n, parse_scalar(s), parse_scalar(t))
                ratio_symmetric = (s, t) != ("1", "q")
                assert check_q_antisymmetry(E)["ok"] is ratio_symmetric, (n, s, t)


def test_criterion_04_uniqueness_cross_check(capsys, generics):
    with capsys.disabled(), criterion(4, "generic output matches the explicit family", budget=300.0):
        rep = compare_to_explicit(generics["A2"])
        assert rep["applicable"] and rep["match"]
        assert rep["eps_bar_invariant"] is True
        eps = parse_scalar(rep["epsilon"])
        assert eps.qconjugate() == eps
        assert eps == parse_scalar("(q^3) / (q^6 + q^4 + q^2 + 1)")

        rep = compare_to_explicit(generics["A3"])
        assert rep["applicable"] and rep["match"]
        assert rep["epsilon"] == "0"


def test_criterion_05_involution(capsys, explicit_grid):
    with capsys.disabled(), criterion(5, "transpose-conjugate involution"):
        for n in (3, 4):
            balanced = check_tau_sln(explicit_grid[n, "1", "1"])
            assert balanced["applicable"] and balanced["ok"], n
            lopsided = check_tau_sln(explicit_grid[n, "1", "0"])
            assert lopsided["applicable"] and not lopsided["ok"], n


def test_criterion_06_classical_limit(capsys, generics, explicit_grid):
    with capsys.disabled(), criterion(6, "classical limit of every constructed algebra"):
        for name in CORE:
            rep = check_classical_limit(generics[name])
            assert rep["all"], (name, rep)
            assert rep["oracle_match"] is True, name
            assert fraction_jacobi(generics[name].constants), name
        for key, E in explicit_grid.items():
            rep = check_classical_limit(E)
            assert rep["all"], (key, rep)
            assert fraction_jacobi(E.constants), key


def test_criterion_07_module_correctness(capsys, pipelines):
    with capsys.disabled(), criterion(7, "adjoint modules satisfy the defining relations"):
        dims = {"A1": 3, "A2": 8, "A3": 15, "B2": 10, "G2": 14}
        for name in CORE:
            V = pipelines[name].module
            assert V.dim == dims[name], name
            report = verify_module(V)
            assert report["all"], (name, report)


def test_criterion_08_highest_weight_multiplicity(capsys, pipelines, cartan):
    with capsys.disabled(), criterion(8, "highest-weight space dimension"):
        expected = {"A1": 1, "A2": 2, "A3": 2, "B2": 1, "G2": 1}
        for name in CORE:
            cd = cartan[name]
            theta = highest_root(cd)
            hw_dim = len(pipelines[name].hw_basis)
            assert hw_dim == expected[name], name
            assert hw_dim == tensor_multiplicity(cd, theta, theta, theta), name


def test_criterion_09_ad_invariance(capsys, generics, pipelines, explicit_grid):
    with capsys.disabled(), criterion(9, "ad-invariance of every constructed table"):
        for name in CORE:
            rep = check_ad_invariance(generics[name], pipe=pipelines[name])
            assert rep["applicable"] and rep["ok"], name
        for (n, s, t), E in explicit_grid.items():
            rep = check_ad_invariance(E, pipe=pipelines[f"A{n - 1}"])
            assert rep["applicable"] and rep["ok"], (n, s, t)


def test_criterion_10_monodromy_and_submodule(capsys, pipelines):
    with capsys.disabled(), criterion(10, "monodromy spectrum and extracted submodule", budget=600.0):
        cd = build_cartan("A", 1)
        V = build_irrep(cd, (1,))
        M = monodromy_on_tensor(V, V)
        assert M.checks["commutes"] and M.checks["vanishes_at_one"]
        assert eigenvalue_q_exponents(M) == {Fraction(1), Fraction(-3)}
        rep = verify_ad_submodule(M, V, V)
        assert rep["all"] and rep["span_dim"] == 3, rep

        W = pipelines["A2"].module
        M2 = monodromy_on_tensor(W, W)
        assert M2.checks["commutes"] and M2.checks["vanishes_at_one"]
        rep2 = verify_ad_submodule(M2, W, W)
        assert rep2["all"] and rep2["span_dim"] == 8, rep2
