"""Tensor squares, highest-weight spaces, antisymmetrization and inversion."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

import qlie
from qlie import tensorcg
from qlie.linalg import rf_rank, sp_matvec
from qlie.qliealg import generic_pipeline
from qlie.qring import RatFunc, q_int
from qlie.rootdata import VerificationFailed, build_cartan, highest_root, tensor_multiplicity
from qlie.repbuild import adjoint_module, build_irrep
from qlie.tensorcg import (
    ClassicallyZero,
    EmptySpace,
    SingularSystem,
    antisymmetrize_hw,
    cg_embedding,
    highest_weight_space,
    invert_cg,
    symmetrize_hw,
    tensor_product,
    tensor_square,
    verify_embedding,
)

from conftest import CORE, load_golden, name_to_cartan


@pytest.fixture(scope="module")
def a1_tensor():
    return tensor_square(adjoint_module(build_cartan("A", 1)))


def dense_rank(mat, dim):
    rows = {}
    for (r, c), x in mat.items():
        rows.setdefault(r, {})[c] = x
    return rf_rank([[rows.get(r, {}).get(c, RatFunc(0)) for c in range(dim)] for r in sorted(rows)])


def test_a1_coproduct_raising_rank(a1_tensor):
    # 3x3 -> 5 + 3 + 1: the raising operator has a 3-dimensional kernel
    assert dense_rank(a1_tensor.dE[0], 9) == 6


def test_tensor_weights_are_sums(a1_tensor):
    V = adjoint_module(build_cartan("A", 1))
    for a in range(3):
        for b in range(3):
            p = 3 * a + b
            assert a1_tensor.weights[p] == (V.weights[a][0] + V.weights[b][0],)


def test_coproduct_commutator_identity(a1_tensor):
    from qlie.linalg import sp_matmul, sp_sub, sp_eq

    T = a1_tensor
    lhs = sp_sub(sp_matmul(T.dE[0], T.dF[0]), sp_matmul(T.dF[0], T.dE[0]))
    rhs = {}
    for p in range(9):
        w = T.weights[p][0]
        if w:
            rhs[(p, p)] = q_int(w, 1)
    assert sp_eq(lhs, rhs)


@pytest.mark.parametrize("name", CORE)
def test_highest_weight_space_dimension(name, pipelines, cartan):
    cd = cartan[name]
    theta = highest_root(cd)
    assert len(pipelines[name].hw_basis) == tensor_multiplicity(cd, theta, theta, theta)


@pytest.mark.parametrize("name", CORE)
def test_highest_weight_vectors_are_killed(name, pipelines):
    pipe = pipelines[name]
    for vec in pipe.hw_basis:
        for i in pipe.tensor.dE:
            assert sp_matvec(pipe.tensor.dE[i], vec) == {}


@pytest.mark.parametrize("name", CORE)
def test_highest_weight_vectors_are_regular_at_one(name, pipelines):
    for vec in pipelines[name].hw_basis:
        vals = [x.eval_at_one() for x in vec.values()]
        assert any(vals)


@pytest.mark.parametrize("name,mu,nu", [("A1", (1,), (2,)), ("A2", (1, 0), (0, 1))])
def test_highest_weight_space_of_unequal_factors(name, mu, nu):
    cd = name_to_cartan(name)
    T = tensor_product(build_irrep(cd, mu), build_irrep(cd, nu))
    dominant = [w for w in sorted(T.weight_blocks) if all(x >= 0 for x in w)]
    assert dominant
    for w in dominant:
        mult = tensor_multiplicity(cd, mu, nu, w)
        if mult:
            assert len(highest_weight_space(T, w).basis) == mult
        else:
            with pytest.raises(EmptySpace):
                highest_weight_space(T, w)


@pytest.mark.parametrize("w", [(-2,), (5,)])
def test_empty_highest_weight_space(w, a1_tensor):
    with pytest.raises(EmptySpace):
        highest_weight_space(a1_tensor, w)


def test_antisymmetrize_fixed_line_for_multiplicity_one(a1_tensor):
    hs = highest_weight_space(a1_tensor, (2,))
    assert len(hs.basis) == 1
    u = hs.basis[0]
    anti = antisymmetrize_hw(a1_tensor, u)
    # multiplicity one: the antisymmetrization stays on the same line
    pairs = set(u) | set(anti)
    items = sorted(pairs)
    p0 = items[0]
    for p in items[1:]:
        lhs = u.get(p0, RatFunc(0)) * anti.get(p, RatFunc(0))
        rhs = u.get(p, RatFunc(0)) * anti.get(p0, RatFunc(0))
        assert lhs == rhs


def test_antisymmetrize_rejects_classically_symmetric_input(a1_tensor):
    V = adjoint_module(build_cartan("A", 1))
    sym = {3 * 0 + 1: RatFunc(1), 3 * 1 + 0: RatFunc(1)}  # v0 (x) v1 + v1 (x) v0
    with pytest.raises(ClassicallyZero):
        antisymmetrize_hw(a1_tensor, sym)


def test_symmetrize_vanishes_on_the_antisymmetric_line(a1_tensor):
    # multiplicity one: the highest-weight line is classically antisymmetric
    hs = highest_weight_space(a1_tensor, (2,))
    with pytest.raises(ClassicallyZero):
        symmetrize_hw(a1_tensor, hs.basis[0])


def test_symmetric_member_is_swap_bar_even(pipelines):
    pipe = pipelines["A2"]
    dim = pipe.module.dim
    assert len(pipe.others) == 1
    sym = pipe.others[0]
    for p, x in sym.items():
        a, b = divmod(p, dim)
        q = dim * b + a
        assert sym[q].qconjugate() == x


def test_antisym_vector_is_swap_bar_odd(a1_tensor):
    hs = highest_weight_space(a1_tensor, (2,))
    anti = antisymmetrize_hw(a1_tensor, hs.basis[0])
    for p, x in anti.items():
        a, b = divmod(p, 3)
        q = 3 * b + a
        assert anti[q].qconjugate() == -x


def test_a2_antisymmetrized_vector_matches_golden(pipelines, golden_dir):
    golden = load_golden(golden_dir, "a2_antisym_hw.json")
    anti = pipelines["A2"].antisym
    assert {str(p): x.to_json() for p, x in sorted(anti.items())} == golden


@pytest.mark.parametrize("name", CORE)
def test_embedding_intertwines(name, pipelines):
    assert verify_embedding(pipelines[name].embedding)


@pytest.mark.parametrize("name", CORE)
def test_embedding_table_is_q_antisymmetric(name, pipelines):
    pipe = pipelines[name]
    dim = pipe.module.dim
    for a in range(dim):
        col = pipe.embedding.table[a]
        for p, x in col.items():
            b, c = divmod(p, dim)
            swapped = col.get(dim * c + b, RatFunc(0))
            assert swapped.qconjugate() == -x


@pytest.mark.parametrize("name", CORE)
def test_embedding_is_classically_nonzero(name, pipelines):
    pipe = pipelines[name]
    for a in range(pipe.module.dim):
        assert any(x.eval_at_one() != 0 for x in pipe.embedding.table[a].values())


def test_inversion_left_inverts_the_embedding(pipelines):
    pipe = pipelines["A2"]
    dim = pipe.module.dim
    constants = pipe.constants
    for a in range(dim):
        out = {}
        for p, x in pipe.embedding.table[a].items():
            b, c = divmod(p, dim)
            for d in range(dim):
                f = constants.get((b, c, d))
                if f is not None:
                    out[d] = out.get(d, RatFunc(0)) + x * f
        for d in range(dim):
            expect = RatFunc(1) if d == a else RatFunc(0)
            assert out.get(d, RatFunc(0)) == expect


def test_duplicate_complement_members_are_singular(pipelines):
    pipe = pipelines["A1"]
    with pytest.raises(SingularSystem):
        invert_cg(pipe.module, pipe.embedding, [pipe.antisym])


def test_multiplicity_two_complement_annihilates(pipelines):
    # rank >= 2 A-series: bracket of the symmetric member must vanish
    pipe = pipelines["A2"]
    dim = pipe.module.dim
    constants = pipe.constants
    assert pipe.others
    for other in pipe.others:
        for d in range(dim):
            acc = RatFunc(0)
            for p, x in other.items():
                b, c = divmod(p, dim)
                f = constants.get((b, c, d))
                if f is not None:
                    acc = acc + x * f
            assert acc == RatFunc(0)


def _patch_rf_solve(monkeypatch, change):
    true_solve = tensorcg.rf_solve
    monkeypatch.setattr(tensorcg, "rf_solve", lambda P, rhs: change(P, true_solve(P, rhs)))


@pytest.mark.parametrize("name", ["A2", "G2"])
def test_doubled_bracket_fails_normalization(monkeypatch, name):
    # 2B is still a module map, so only B o beta = id can catch it
    _patch_rf_solve(monkeypatch, lambda P, x: [2 * y for y in x])
    with pytest.raises(VerificationFailed, match="B o beta != id"):
        generic_pipeline(name_to_cartan(name))


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_bracket_leaking_onto_the_complement_fails(monkeypatch, name):
    # keeps P[0] . x = 1, so B(v0) = e_0, but B(u) = -det(P) e_0 on the complement
    _patch_rf_solve(monkeypatch, lambda P, x: [x[0] + P[0][1], x[1] - P[0][0]])
    with pytest.raises(VerificationFailed, match="B nonzero on a complement submodule"):
        generic_pipeline(name_to_cartan(name))


def test_corrupted_lowering_entry_is_caught(pipelines):
    pipe = pipelines["A2"]
    V = pipe.module
    a = 1
    lab = V.labels[a]
    F = {i: dict(m) for i, m in V.F.items()}
    F[lab[0]][(a, V.labels.index(lab[1:]))] = RatFunc(2)
    with pytest.raises(VerificationFailed, match="F does not lower basis vector 1"):
        invert_cg(dataclasses.replace(V, F=F), pipe.embedding, pipe.others)


def test_embedding_json_friendly(pipelines):
    table = pipelines["A1"].embedding.table
    blob = json.dumps({str(a): {str(p): x.to_json() for p, x in col.items()} for a, col in enumerate(table)})
    assert blob


def test_inversion_checks_raise_under_python_O():
    """One negated entry of the embedding's adjoint must be caught by the
    re-verification in invert_cg, with asserts compiled out."""
    script = textwrap.dedent("""
        import sys
        from qlie import qliealg, rootdata, tensorcg
        if __debug__:
            sys.exit("asserts are active")
        true_adjoint = tensorcg._adjoint_of_embedding

        def corrupted(V, T, table):
            dag = true_adjoint(V, T, table)
            key = min(dag)
            dag[key] = -dag[key]
            return dag

        tensorcg._adjoint_of_embedding = corrupted
        try:
            qliealg.generic_pipeline(rootdata.build_cartan("A", 2))
        except rootdata.VerificationFailed as exc:
            print("caught:", exc)
        else:
            sys.exit("no VerificationFailed")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qlie.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("caught:")
