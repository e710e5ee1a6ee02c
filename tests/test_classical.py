"""Undeformed (Fraction-valued) oracle pipeline and sl_n tables."""

import ast
import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qlie import classical
from qlie.qliealg import check_ad_invariance, check_classical_limit
from qlie.rootdata import BudgetExceeded, VerificationFailed, build_cartan, highest_root
from qlie.classical import (
    build_classical_module,
    classical_bracket,
    classical_sln_table,
    integral_multiple,
    intertwines,
)

from conftest import CLASSICAL_MODULES, module_id, name_to_cartan
from oracles import (classical_split_casimir_a1, fraction_classical_bracket, fraction_intertwines,
                     reference_classical_module)


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_classical_bracket_is_a_lie_algebra(name):
    cd = name_to_cartan(name)
    V, f = classical_bracket(cd)
    dim = V.dim

    def bracket(a, b):
        return {c: f[(a, b, c)] for c in range(dim) if (a, b, c) in f}

    # antisymmetry
    for a in range(dim):
        for b in range(dim):
            ab = bracket(a, b)
            ba = bracket(b, a)
            assert set(ab) == set(ba)
            for c in ab:
                assert ab[c] == -ba[c]

    # Jacobi
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                acc = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for e, v in bracket(y, z).items():
                        for g, w in bracket(x, e).items():
                            acc[g] = acc.get(g, Fraction(0)) + v * w
                assert all(v == 0 for v in acc.values())


def _patch_after_build(monkeypatch, name, change_solve=None, change_module=None):
    """Patch classical.solve (its bracket solve only) or the built
    module, once build_classical_module has returned."""
    true_build, true_solve = classical.build_classical_module, classical.solve

    def build_then_patch(*args):
        V = true_build(*args)
        if change_solve:
            monkeypatch.setattr(classical, "solve",
                                lambda P, rhs: change_solve(P, true_solve(P, rhs)))
        return change_module(V) if change_module else V

    monkeypatch.setattr(classical, "build_classical_module", build_then_patch)
    return name_to_cartan(name)


@pytest.mark.parametrize("name", ["A2", "G2"])
def test_classical_doubled_bracket_fails_normalization(monkeypatch, name):
    cd = _patch_after_build(monkeypatch, name, change_solve=lambda P, x: [2 * y for y in x])
    with pytest.raises(VerificationFailed, match="classical B o beta != id"):
        classical_bracket(cd)


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_classical_bracket_leaking_onto_the_complement_fails(monkeypatch, name):
    cd = _patch_after_build(monkeypatch, name,
                            change_solve=lambda P, x: [x[0] + P[0][1], x[1] - P[0][0]])
    with pytest.raises(VerificationFailed, match="classical B nonzero on the complement"):
        classical_bracket(cd)


def test_classical_corrupted_lowering_entry_is_caught(monkeypatch):
    def corrupt(V):
        lab = V.labels[1]
        V.F[lab[0]][(1, V.parent[1])] = Fraction(2)
        return V

    cd = _patch_after_build(monkeypatch, "A2", change_module=corrupt)
    with pytest.raises(VerificationFailed, match="classical f does not lower"):
        classical_bracket(cd)


def _with_entry(V, kind, i, key, value):
    """A copy of V whose E_i or F_i has value at key."""
    W = copy.copy(V)
    mats = dict(getattr(V, kind))
    mats[i] = {**mats[i], key: value}
    setattr(W, kind, mats)
    return W


def _corrupt_e_on_lowest(V):
    # E_i on the lowest weight vector: the weight-theta block of V (x) V never
    # reaches it, so the kernel, the lowered tables and B are unchanged
    low = V.weight_basis[tuple(-t for t in highest_root(V.cd))][0]
    i, key = next((i, key) for i, mat in V.E.items() for key in mat if key[1] == low)
    return _with_entry(V, "E", i, key, 2 * V.E[i][key])


def _corrupt_f_off_the_lowering(V):
    # an F_i entry that is not f_{i_1} e_parent = e_a for any label (i_1, parent)
    lowering = {(lab[0], (a, b)) for a, (lab, b) in enumerate(zip(V.labels, V.parent)) if lab}
    i, key = next((i, key) for i, mat in V.F.items() for key in mat if (i, key) not in lowering)
    return _with_entry(V, "F", i, key, 2 * V.F[i][key])


@pytest.mark.parametrize("corrupt", [_corrupt_e_on_lowest, _corrupt_f_off_the_lowering])
@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_classical_corrupted_generator_fails_intertwining(monkeypatch, name, corrupt):
    cd = _patch_after_build(monkeypatch, name, change_module=corrupt)
    with pytest.raises(VerificationFailed, match="classical intertwining fails"):
        classical_bracket(cd)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_integer_intertwining_matches_the_fraction_reference(name):
    """The integer check, on the integer multiple of a table, and the
    stored-coproduct Fraction check, on the table itself, give one verdict
    on B, on B scaled by 2/3, and on seeded single-entry corruptions of B,
    E_i and F_i."""
    V, f = classical_bracket(name_to_cartan(name))
    rng = random.Random(name)
    bump = Fraction(rng.randint(1, 2), rng.choice((3, 5, 7)))
    key = rng.choice(sorted(f))
    i = rng.randrange(V.cd.rank)
    e_key, f_key = rng.choice(sorted(V.E[i])), rng.choice(sorted(V.F[i]))
    cases = [
        (V, f, True),
        (V, {k: Fraction(2, 3) * v for k, v in f.items()}, True),
        (V, {**f, key: f[key] + bump}, False),
        (_with_entry(V, "E", i, e_key, V.E[i][e_key] + bump), f, False),
        (_with_entry(V, "F", i, f_key, V.F[i][f_key] + bump), f, False),
    ]
    for W, table, expected in cases:
        assert intertwines(W, integral_multiple(table)) is fraction_intertwines(W, table) is expected


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_integer_bracket_matches_the_fraction_reference(name):
    """The same module and the same Fraction constants as the bracket
    lowered, paired and assembled over Fractions throughout."""
    cd = name_to_cartan(name)
    V, f = classical_bracket(cd)
    V0, f0 = fraction_classical_bracket(cd)
    assert V.labels == V0.labels and f == f0
    assert all(type(x) is Fraction for x in f.values())


BUILDER_MODULES = CLASSICAL_MODULES + [("E6", (1, 1, 0, 0, 0, 0))]


@pytest.mark.parametrize("name,lam", BUILDER_MODULES,
                         ids=[module_id(*m) for m in BUILDER_MODULES])
def test_classical_module_matches_the_reference_builder(name, lam):
    """The one-pass builder gives the module of the level-by-level reference,
    parent, Gram blocks and weight bases included.  E6 (1,1,0,0,0,0) has
    weight spaces of dimension up to 16."""
    cd = name_to_cartan(name)
    lam = lam or highest_root(cd)
    W = build_classical_module(cd, lam, budget_dim=1728)
    assert vars(W) == vars(reference_classical_module(cd, lam, budget_dim=1728))


def test_a_gram_block_the_reduction_finds_singular_raises(monkeypatch):
    # a reduction of [G | R] (wider than tall) that misses a column of G
    true_rref = classical.rref
    monkeypatch.setattr(classical, "rref",
                        lambda mat: true_rref(mat)[:len(mat) - (len(mat[0]) > len(mat))])
    with pytest.raises(VerificationFailed, match=r"^singular Gram block at weight \(.*\)$"):
        build_classical_module(name_to_cartan("G2"), (0, 1))


@pytest.mark.parametrize("lcm_of", [(), (Fraction(1, 6), Fraction(-5, 4), 3)])
def test_integral_multiple_takes_the_lcm_of_the_denominators(lcm_of):
    mat = dict(enumerate(lcm_of))
    q = 12 if mat else 1
    assert integral_multiple(mat) == integral_multiple(mat, q) == {k: x * q for k, x in mat.items()}
    assert integral_multiple(mat, 2 * q) == {k: 2 * q * x for k, x in mat.items()}


def test_classical_module_is_independent_of_the_deformed_pipeline():
    """Criterion 6 compares the deformed pipeline against classical.py, so the
    oracle may use only exact rationals, integer lcms (math), the root
    datum and the dense Gauss-Jordan routines of linalg: no scalar ring,
    module, tensor or bracket code."""
    path = Path(classical.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module == ".linalg":
                found += [f".linalg.{alias.name}" for alias in node.names
                          if alias.name not in ("rref", "solve", "inverse", "nullspace")]
            elif module not in ("__future__", "fractions", "math", ".rootdata"):
                found.append(module)
    assert not found, found


def test_classical_oracle_and_ad_invariance_share_the_budget_exception(generics):
    # B2's adjoint module has dimension 10; the oracle once raised a bare
    # RuntimeError here, which the CLI does not map to one error line
    A = generics["B2"]
    with pytest.raises(BudgetExceeded, match=r"^dim V\(\(0, 2\)\) = 10 exceeds budget 5$"):
        build_classical_module(A.cd, highest_root(A.cd), 5)
    with pytest.raises(BudgetExceeded, match="= 10 exceeds budget 5$"):
        check_classical_limit(A, 5)
    with pytest.raises(BudgetExceeded, match="= 10 exceeds budget 5$"):
        check_ad_invariance(A, budget_dim=5)


def test_classical_bracket_weights_grade(name="A2"):
    cd = name_to_cartan(name)
    V, f = classical_bracket(cd)
    for (a, b, c), val in f.items():
        if val != 0:
            wa, wb, wc = V.weights[a], V.weights[b], V.weights[c]
            assert tuple(x + y for x, y in zip(wa, wb)) == wc


def test_sl3_table_brackets():
    labels, f = classical_sln_table(3)
    pos = {lab: a for a, lab in enumerate(labels)}
    ih1 = pos[("H", 1)]
    ix12 = pos[("X", 1, 2)]
    ix21 = pos[("X", 2, 1)]
    ix23 = pos[("X", 2, 3)]
    ix13 = pos[("X", 1, 3)]

    # [e_12, e_21] = h_1
    assert f.get((ix12, ix21, ih1)) == 1
    # [e_12, e_23] = e_13
    assert f.get((ix12, ix23, ix13)) == 1
    # [e_23, e_12] = -e_13
    assert f.get((ix23, ix12, ix13)) == -1
    # [h_1, e_12] = 2 e_12
    assert f.get((ih1, ix12, ix12)) == 2


def test_sl3_table_satisfies_jacobi():
    labels, f = classical_sln_table(3)
    dim = len(labels)

    def bracket(a, b):
        return {c: f[(a, b, c)] for c in range(dim) if (a, b, c) in f}

    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                acc = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for e, v in bracket(y, z).items():
                        for g, w in bracket(x, e).items():
                            acc[g] = acc.get(g, Fraction(0)) + v * w
                assert all(v == 0 for v in acc.values()), (a, b, c)


def test_split_casimir_on_two_by_two():
    cd = build_cartan("A", 1)
    V = build_classical_module(cd, (1,))
    om = classical_split_casimir_a1(V, V)
    assert om == {
        (0, 0): Fraction(1),
        (1, 1): Fraction(-1),
        (1, 2): Fraction(2),
        (2, 1): Fraction(2),
        (2, 2): Fraction(-1),
        (3, 3): Fraction(1),
    }


def test_split_casimir_commutes_with_the_action():
    cd = build_cartan("A", 1)
    V = build_classical_module(cd, (1,))
    W = build_classical_module(cd, (2,))
    om = classical_split_casimir_a1(V, W)

    # build the coproduct action x (x) 1 + 1 (x) x and check commutation
    def embed(mat_v, mat_w):
        out = {}
        dv, dw = V.dim, W.dim
        for (r, c), x in mat_v.items():
            for b in range(dw):
                p, q = r * dw + b, c * dw + b
                out[(p, q)] = out.get((p, q), Fraction(0)) + x
        for (r, c), x in mat_w.items():
            for a in range(dv):
                p, q = a * dw + r, a * dw + c
                out[(p, q)] = out.get((p, q), Fraction(0)) + x
        return {k: v for k, v in out.items() if v}

    def mul(a, b):
        out = {}
        cols = {}
        for (r, c), x in b.items():
            cols.setdefault(r, []).append((c, x))
        for (r, c), x in a.items():
            for c2, y in cols.get(c, []):
                out[(r, c2)] = out.get((r, c2), Fraction(0)) + x * y
        return {k: v for k, v in out.items() if v}

    for op in (embed(V.E[0], W.E[0]), embed(V.F[0], W.F[0])):
        assert mul(op, om) == mul(om, op)


def test_classical_adjoint_matches_structure_table():
    # ad(x)y = [x, y]: columns of ad matrices are brackets of basis vectors
    cd = build_cartan("A", 2)
    V, f = classical_bracket(cd)
    dim = V.dim
    # the adjoint action of the Chevalley generators must reproduce f-columns
    # through the module's own E/F matrices acting on basis indices
    for i in range(cd.rank):
        for (r, c), x in V.E[i].items():
            assert x != 0
