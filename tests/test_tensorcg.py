"""Tensor squares, highest-weight spaces, antisymmetrization and inversion."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from types import SimpleNamespace

import pytest

import qlie
from qlie import monodromy, qliealg, tensorcg
from qlie.linalg import rank, sp_eq, sp_matmul, sp_matvec, sp_transpose
from qlie.monodromy import monodromy_on_tensor, verify_ad_submodule
from qlie.qliealg import (build_generic, build_sln_explicit, check_ad_invariance,
                          check_ad_invariance_explicit, generic_pipeline)
from qlie.qring import RF_ONE, RatFunc, q_int, rf_vpow
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
    module_map_defects,
    symmetrize_hw,
    tensor_product,
    tensor_square,
    verify_embedding,
)

from conftest import CORE, load_golden, name_to_cartan
from oracles import form_square, generators, reference_invert_cg


@pytest.fixture(scope="module")
def a1_tensor():
    return tensor_square(adjoint_module(build_cartan("A", 1)))


def dense_rank(mat, dim):
    rows = {}
    for (r, c), x in mat.items():
        rows.setdefault(r, {})[c] = x
    return rank([[rows.get(r, {}).get(c, RatFunc(0)) for c in range(dim)] for r in sorted(rows)])


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
            assert len(highest_weight_space(T, w)) == mult
        else:
            with pytest.raises(EmptySpace):
                highest_weight_space(T, w)


@pytest.mark.parametrize("w", [(-2,), (5,)])
def test_empty_highest_weight_space(w, a1_tensor):
    with pytest.raises(EmptySpace):
        highest_weight_space(a1_tensor, w)


def test_antisymmetrize_fixed_line_for_multiplicity_one(a1_tensor):
    hw = highest_weight_space(a1_tensor, (2,))
    assert len(hw) == 1
    u = hw[0]
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
    hw = highest_weight_space(a1_tensor, (2,))
    with pytest.raises(ClassicallyZero):
        symmetrize_hw(a1_tensor, hw[0])


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
    hw = highest_weight_space(a1_tensor, (2,))
    anti = antisymmetrize_hw(a1_tensor, hw[0])
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
    pipe = pipelines[name]
    assert verify_embedding(pipe.tensor, pipe.embedding)


@pytest.mark.parametrize("name", CORE)
def test_embedding_table_is_q_antisymmetric(name, pipelines):
    pipe = pipelines[name]
    dim = pipe.module.dim
    for a in range(dim):
        col = pipe.embedding[a]
        for p, x in col.items():
            b, c = divmod(p, dim)
            swapped = col.get(dim * c + b, RatFunc(0))
            assert swapped.qconjugate() == -x


@pytest.mark.parametrize("name", CORE)
def test_embedding_is_classically_nonzero(name, pipelines):
    pipe = pipelines[name]
    for a in range(pipe.module.dim):
        assert any(x.eval_at_one() != 0 for x in pipe.embedding[a].values())


def test_inversion_left_inverts_the_embedding(pipelines):
    pipe = pipelines["A2"]
    dim = pipe.module.dim
    constants = pipe.constants
    for a in range(dim):
        out = {}
        for p, x in pipe.embedding[a].items():
            b, c = divmod(p, dim)
            for d in range(dim):
                f = constants.get((b, c, d))
                if f is not None:
                    out[d] = out.get(d, RatFunc(0)) + x * f
        for d in range(dim):
            expect = RatFunc(1) if d == a else RatFunc(0)
            assert out.get(d, RatFunc(0)) == expect


def test_inversion_pairs_its_generating_vectors_once(monkeypatch, pipelines):
    # one pairing gives the whole pair matrix and the top row of B; the other
    # rows are raised from it
    pipe = pipelines["A2"]
    calls = []
    true_paired = tensorcg._paired_with_form

    def recorded(V, vecs):
        calls.append(vecs)
        return true_paired(V, vecs)

    monkeypatch.setattr(tensorcg, "_paired_with_form", recorded)
    assert invert_cg(pipe.tensor, pipe.antisym, pipe.others) == pipe.constants
    assert calls == [[pipe.embedding[0], *pipe.others]]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_inversion_matches_the_whole_adjoint_construction(name, pipelines):
    pipe = pipelines[name] if name in pipelines else generic_pipeline(name_to_cartan(name))
    assert pipe.constants == reference_invert_cg(pipe.tensor, pipe.antisym, pipe.others)


@pytest.mark.parametrize("name,lam", [("A2", None), ("B2", None), ("G2", None), ("G2", (1, 0))])
def test_form_square_turns_raising_into_transposed_lowering(name, lam):
    # (S (x) S) Delta(E_i) = Delta(F_i)^T (S (x) S), which invert_cg raises rows by
    cd = name_to_cartan(name)
    T = tensor_square(adjoint_module(cd) if lam is None else build_irrep(cd, lam))
    SS = form_square(T.left)
    for i in T.dE:
        assert sp_eq(sp_matmul(SS, T.dE[i]), sp_matmul(sp_transpose(T.dF[i]), SS))


def test_duplicate_complement_members_are_singular(pipelines):
    pipe = pipelines["A1"]
    with pytest.raises(SingularSystem):
        invert_cg(pipe.tensor, pipe.antisym, [pipe.antisym])


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


def _patch_solve(monkeypatch, change):
    true_solve = tensorcg.solve
    monkeypatch.setattr(tensorcg, "solve", lambda P, rhs: change(P, true_solve(P, rhs)))


@pytest.mark.parametrize("name", ["A2", "G2"])
def test_doubled_bracket_fails_normalization(monkeypatch, name):
    # 2B is still a module map, so only B o beta = id can catch it
    _patch_solve(monkeypatch, lambda P, x: [2 * y for y in x])
    with pytest.raises(VerificationFailed, match="B o beta != id"):
        generic_pipeline(name_to_cartan(name))


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_bracket_leaking_onto_the_complement_fails(monkeypatch, name):
    # keeps P[0] . x = 1, so B(v0) = e_0, but B(u) = -det(P) e_0 on the complement
    _patch_solve(monkeypatch, lambda P, x: [x[0] + P[0][1], x[1] - P[0][0]])
    with pytest.raises(VerificationFailed, match="B nonzero on a complement submodule"):
        generic_pipeline(name_to_cartan(name))


def test_corrupted_lowering_entry_is_caught(pipelines):
    pipe = pipelines["A2"]
    V = pipe.module
    a = 1
    lab = V.labels[a]
    F = {i: dict(m) for i, m in V.F.items()}
    F[lab[0]][(a, V.parent[a])] = RatFunc(2)
    with pytest.raises(VerificationFailed, match="F does not lower basis vector 1"):
        invert_cg(tensor_square(dataclasses.replace(V, F=F)), pipe.antisym, pipe.others)


def test_module_with_a_doubled_e_entry_fails_intertwining(pipelines):
    # B(v0) = e_0 still holds; only the full module-map check sees that the
    # E of T's module no longer acts as a representation
    pipe = pipelines["A1"]
    V = pipe.module
    E = {i: dict(m) for i, m in V.E.items()}
    key = min(E[0])
    E[0][key] = 2 * E[0][key]
    with pytest.raises(VerificationFailed, match="^intertwining fails$"):
        invert_cg(tensor_square(dataclasses.replace(V, E=E)), pipe.antisym, pipe.others)


def test_embedding_json_friendly(pipelines):
    table = pipelines["A1"].embedding
    blob = json.dumps({str(a): {str(p): x.to_json() for p, x in col.items()} for a, col in enumerate(table)})
    assert blob


def test_inversion_checks_raise_under_python_O():
    """One negated entry of the bracket matrix must be caught by the
    re-verification in invert_cg, with asserts compiled out."""
    script = textwrap.dedent("""
        import sys
        from qlie import qliealg, rootdata, tensorcg
        if __debug__:
            sys.exit("asserts are active")
        true_bracket = tensorcg._bracket_from_covector

        def corrupted(V, top):
            bmat = true_bracket(V, top)
            key = min(bmat)
            bmat[key] = -bmat[key]
            return bmat

        tensorcg._bracket_from_covector = corrupted
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


# ------------------------------------------------ the integer module-map check

def ratfunc_defects(M, source, target):
    """The module-map check over Q(v), one RatFunc product per side, with a
    tensor-product side's generators the dense coproduct matrices of
    oracles.generators: the oracle of the integer check in
    module_map_defects."""
    (src_e, src_f), (dst_e, dst_f) = generators(source), generators(target)
    defects = []
    for i in sorted(src_e):
        for name, src, dst in (("E", src_e, dst_e), ("F", src_f, dst_f)):
            if not sp_eq(sp_matmul(dst[i], M), sp_matmul(M, src[i])):
                defects.append([name, i])
    cross = next(((r, c) for r, c in M if target.weights[r] != source.weights[c]), None)
    if cross is not None:
        defects.append(["K", *cross])
    return defects


@pytest.fixture(scope="module")
def checked_maps():
    """Every (M, source, target) that the package checks while it builds and
    checks A1-A3, B2 and G2 (the embedding beta and the bracket B), checks
    ad-invariance of those tables and of explicit sl_3, assembles the A2
    adjoint and B2/G2 vector monodromy operators, and checks the A2 ad
    family; recorded where each caller looks the routine up."""
    seen = []

    def record(M, source, target):
        seen.append((M, source, target))
        return module_map_defects(M, source, target)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (tensorcg, qliealg, monodromy):
            mp.setattr(mod, "module_map_defects", record)
        for name in CORE:
            cd = name_to_cartan(name)
            pipe = generic_pipeline(cd)
            check_ad_invariance(build_generic(cd, pipe=pipe), pipe)
        check_ad_invariance_explicit(build_sln_explicit(3, RF_ONE, RF_ONE))
        a2 = name_to_cartan("A2")
        adj = adjoint_module(a2)
        monodromy_on_tensor(adj, adj)
        for name in ("B2", "G2"):
            V = build_irrep(name_to_cartan(name), (1, 0))
            monodromy_on_tensor(V, V)
        V = build_irrep(a2, (1, 0))
        verify_ad_submodule(monodromy_on_tensor(V, V), V, V)
    return seen


def test_every_checked_map_is_recorded(checked_maps):
    # 5 x (beta, B, ad-invariance); explicit sl_3 rebuilds the A2 pipeline
    # (beta, B) before its own check; 3 monodromy operators; then the A2
    # vector operator and its ad family
    assert len(checked_maps) == 15 + 3 + 3 + 2


def test_integer_check_matches_the_ratfunc_oracle(checked_maps):
    for M, source, target in checked_maps:
        assert module_map_defects(M, source, target) == ratfunc_defects(M, source, target) == []


CORRUPTIONS = {
    "times q": lambda x: x * rf_vpow(2),
    "times v": lambda x: x * rf_vpow(1),
    "times 2": lambda x: x * 2,
    "plus 1": lambda x: x + 1,
    "dropped": None,
}


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_integer_check_matches_the_oracle_on_corrupted_maps(how, checked_maps):
    change = CORRUPTIONS[how]
    for k, (M, source, target) in enumerate(checked_maps):
        key = random.Random(k).choice(sorted(M))
        bad = dict(M)
        if change is None:
            del bad[key]
        else:
            bad[key] = change(M[key])
        expect = ratfunc_defects(bad, source, target)
        assert expect, (k, key)
        assert module_map_defects(bad, source, target) == expect, (k, key)


def test_integer_check_on_negative_shifts_and_fraction_contents(checked_maps):
    # a nonzero scalar multiple of a module map is one; one entry off is not
    scale = RatFunc(Fraction(-2, 3)) * rf_vpow(-5) / (1 + rf_vpow(2) + RatFunc(Fraction(1, 7)) * rf_vpow(6))
    for k, (M, source, target) in enumerate(checked_maps):
        scaled = {key: x * scale for key, x in M.items()}
        assert module_map_defects(scaled, source, target) == []
        key = random.Random(k).choice(sorted(scaled))
        scaled[key] = scaled[key] * RatFunc(Fraction(5, 4)) * rf_vpow(-3)
        expect = ratfunc_defects(scaled, source, target)
        assert expect and module_map_defects(scaled, source, target) == expect, (k, key)


def _random_scalar(rng):
    num = RatFunc(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))) * rf_vpow(rng.randint(-8, 4))
    den = 1 + RatFunc(Fraction(rng.randint(-3, 3), rng.randint(1, 5))) * rf_vpow(rng.randint(1, 4))
    return num / den if den else num


def test_integer_check_on_random_maps():
    # maps V(2) -> V(2) of A1: a scalar multiple of the identity plus, for
    # most seeds, a few random entries with negative shifts and fractions
    V = build_irrep(name_to_cartan("A1"), (2,))
    for seed in range(40):
        rng = random.Random(seed)
        c = _random_scalar(rng)
        M = {(a, a): c for a in range(V.dim)}
        for _ in range(rng.randint(0, 3)):
            key = (rng.randrange(V.dim), rng.randrange(V.dim))
            M[key] = M.get(key, 0) + _random_scalar(rng)
            if not M[key]:
                del M[key]
        assert module_map_defects(M, V, V) == ratfunc_defects(M, V, V), seed


def _line(e):
    """A one-dimensional module of A1 on which E acts by e and F by 0."""
    return SimpleNamespace(weights=[(0,)], E={0: {(0, 0): e}}, F={0: {}})


def test_evaluation_base_comes_from_the_bound():
    # v - 2^k vanishes at v = 2^k: a base fixed in advance at 2^k would
    # report this map as intertwining
    for k in range(1, 201):
        defects = module_map_defects({(0, 0): RF_ONE}, _line(rf_vpow(1)), _line(RatFunc(2 ** k)))
        assert defects == [["E", 0]], k


def test_module_map_check_uses_no_ratfunc_product():
    names = module_map_defects.__code__.co_names
    assert "sp_matmul" not in names and "sp_eq" not in names


# ------------------------------------------------ the coproduct from the factors

def _action_cases():
    a2, b2, g2 = (name_to_cartan(n) for n in ("A2", "B2", "G2"))
    adj = adjoint_module(a2)
    g2v = build_irrep(g2, (1, 0))
    return {"A2 adj x adj": (adj, adj),
            "B2 (1,0) x (0,1)": (build_irrep(b2, (1, 0)), build_irrep(b2, (0, 1))),
            "G2 V* x V": (monodromy.dual_data(g2v), g2v)}


@pytest.mark.parametrize("case", ["A2 adj x adj", "B2 (1,0) x (0,1)", "G2 V* x V"])
def test_coproduct_action_equals_the_dense_reference(case):
    T = tensor_product(*_action_cases()[case])
    dense = dict(zip("EF", generators(T)))
    for name, mats in dense.items():
        lower, raise_ = (tensorcg.coproduct_action(T, name, transpose) for transpose in (False, True))
        for i, mat in mats.items():
            cols, rows = {}, {}
            for (r, c), x in mat.items():
                cols.setdefault(c, {})[r] = x
                rows.setdefault(r, {})[c] = x
            for p in range(T.dim):
                assert lower(i, {p: RF_ONE}) == cols.get(p, {}), (name, i, p)
                assert raise_(i, {p: RF_ONE}) == rows.get(p, {}), (name, i, p)
    assert (T.dE, T.dF) == generators(T)


def _rescaled(M, scale):
    """M on the basis scale[a] e_a: E and F become D^-1 E D, D = diag(scale)."""
    def conj(mats):
        return {i: {(r, c): x * scale[c] / scale[r] for (r, c), x in m.items()}
                for i, m in mats.items()}
    return dataclasses.replace(M, E=conj(M.E), F=conj(M.F))


def _transported(M, source, target, scales):
    """(M', source', target') with every module factor rescaled by its entry
    in scales (a function of the factor's dimension), so that M' is a module
    map exactly when M is: M'[r, c] = M[r, c] s_source[c] / s_target[r]."""
    def side(S):
        if isinstance(S, tensorcg.TensorProduct):
            s1, s2 = scales(S.left.dim, 0), scales(S.right.dim, 1)
            return (tensor_product(_rescaled(S.left, s1), _rescaled(S.right, s2)),
                    [x * y for x in s1 for y in s2])
        s = scales(S.dim, 0)
        return _rescaled(S, s), s
    (src, ss), (dst, st) = side(source), side(target)
    return {(r, c): x * ss[c] / st[r] for (r, c), x in M.items()}, src, dst


def _scales(dim, slot):
    # non-integral contents and polynomial denominators, different per slot
    return [RatFunc(Fraction(2 * a + 3, 5 + slot)) * rf_vpow(a - slot)
            / (1 + RatFunc(Fraction(a + 1, 3)) * rf_vpow(a % 3 + 1 + slot)) for a in range(dim)]


@pytest.fixture(scope="module")
def tensor_side_maps():
    """The module-map checks with a tensor-product side: the A2 embedding
    beta: V -> V (x) V and bracket B: V (x) V -> V, the B2 monodromy matrix
    on V(1,0) (x) V(0,1), and the A2 ad family adj -> W (x) W*, each as
    checked and transported to rescaled factors."""
    seen = {}

    def record(M, source, target):
        seen.setdefault(len(seen), (M, source, target))
        return module_map_defects(M, source, target)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (tensorcg, monodromy):
            mp.setattr(mod, "module_map_defects", record)
        generic_pipeline(name_to_cartan("A2"))
        b2 = name_to_cartan("B2")
        monodromy_on_tensor(build_irrep(b2, (1, 0)), build_irrep(b2, (0, 1)))
        V = build_irrep(name_to_cartan("A2"), (1, 0))
        M = monodromy_on_tensor(V, V)
        verify_ad_submodule(M, V, V)
    maps = dict(zip(("beta", "B", "monodromy V x W", "A2 vector monodromy", "ad family"),
                    seen.values()))
    del maps["A2 vector monodromy"]
    assert isinstance(maps["ad family"][2].right, monodromy.ModuleData)
    maps.update({f"{k} rescaled": _transported(*m, _scales) for k, m in list(maps.items())})
    return maps


def _moved(M, key, weights):
    """M with the entry at key moved to the first row of another weight."""
    r, c = key
    r2 = next(p for p in range(len(weights)) if weights[p] != weights[r] and (p, c) not in M)
    out = dict(M)
    out[r2, c] = out.pop(key)
    return out


TENSOR_CORRUPTIONS = {
    "doubled": lambda M, key, w: {**M, key: 2 * M[key]},
    "negated": lambda M, key, w: {**M, key: -M[key]},
    "dropped": lambda M, key, w: {k: x for k, x in M.items() if k != key},
    "moved across weights": _moved,
}


@pytest.mark.parametrize("how", sorted(TENSOR_CORRUPTIONS))
def test_tensor_sides_match_the_ratfunc_oracle(how, tensor_side_maps):
    corrupt = TENSOR_CORRUPTIONS[how]
    for label, (M, source, target) in sorted(tensor_side_maps.items()):
        assert module_map_defects(M, source, target) == ratfunc_defects(M, source, target) == []
        for seed in range(3):
            key = random.Random(seed).choice(sorted(M))
            bad = corrupt(M, key, target.weights)
            expect = ratfunc_defects(bad, source, target)
            assert expect, (label, key)
            assert module_map_defects(bad, source, target) == expect, (label, key)


def test_tensor_side_factors_need_a_common_denominator(tensor_side_maps):
    _, _, T = tensor_side_maps["beta rescaled"]
    dens = {x.d for m in T.left.E.values() for x in m.values()}
    contents = {x.c.denominator for m in T.right.F.values() for x in m.values()
                if not isinstance(x.c, int)}
    assert len(dens) > 1 and contents


def test_no_library_path_builds_a_product_matrix(monkeypatch):
    # dE and dF are for the tracer and the tests; the pipeline, the stored
    # table's ad-invariance, the monodromy and the ad family read the factors
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference",
                           "tables", "generic_G2.json"), encoding="utf-8") as fh:
        stored = qliealg.QuantumLieAlgebra.from_json(json.load(fh))

    def refuse(T, name):
        raise AssertionError(f"Delta({name}) built on a {T.dim}-dimensional product")

    monkeypatch.setattr(tensorcg, "_dense_coproduct", refuse)
    generic_pipeline(name_to_cartan("B3"))
    assert check_ad_invariance(stored)["ok"] is True
    g2v = build_irrep(name_to_cartan("G2"), (1, 0))
    assert monodromy_on_tensor(g2v, g2v).checks["commutes"]
    V = build_irrep(name_to_cartan("A2"), (1, 0))
    assert verify_ad_submodule(monodromy_on_tensor(V, V), V, V)["all"]
    with pytest.raises(AssertionError, match="built on a 49-dimensional product"):
        tensor_square(g2v).dE


@pytest.mark.parametrize("swap", [antisymmetrize_hw, symmetrize_hw])
def test_swap_needs_a_tensor_square(swap):
    # on V(1,0) (x) adj of A2 the swap of (a, b) has no meaning; it used to
    # return an index beyond dim T = 24, or raise ClassicallyZero about it
    cd = name_to_cartan("A2")
    T = tensor_product(build_irrep(cd, (1, 0)), adjoint_module(cd))
    for w in ((1, 0), (0, 2)):
        v0 = highest_weight_space(T, w)[0]
        with pytest.raises(ValueError, match="tensor square") as info:
            swap(T, v0)
        assert info.type is ValueError
