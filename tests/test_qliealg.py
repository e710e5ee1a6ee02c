"""Deformed Lie algebra construction, normalization, checks and comparisons."""

import dataclasses
import hashlib
import json

import pytest

from qlie.cli import build_text, parse_text_algebra
from qlie.linalg import sp_eq
from qlie.qring import RatFunc, parse_scalar, qconjugate
from qlie.rootdata import build_cartan
from qlie import qliealg
from qlie.qliealg import (
    BasisLabel,
    GaugeObstruction,
    InvalidParams,
    QuantumLieAlgebra,
    ad_invariance_of_table,
    build_generic,
    build_sln_explicit,
    canonical_normalize,
    change_basis,
    check_ad_invariance,
    check_ad_invariance_explicit,
    check_classical_limit,
    check_gradation,
    check_lr_identity,
    check_q_antisymmetry,
    check_tau_sln,
    compare_to_explicit,
    extract_roots,
    labeled_constants,
    same_algebra,
    transport_explicit_constants,
)

from conftest import CORE, GRID, GRID_RANKS, load_golden, name_to_cartan
from oracles import fraction_jacobi


def positions(A):
    return {lab.name(): a for a, lab in enumerate(A.basis)}


def sc(text):
    return parse_scalar(text)


# ------------------------------------------------------ explicit family values

def test_rank_one_cartan_self_bracket():
    E = build_sln_explicit(2, sc("1"), sc("0"))
    pos = positions(E)
    h = pos["H_1"]
    assert E.constants[(h, h, h)] == sc("q^2 - q^{-2}")


def test_rank_one_cartan_self_bracket_scales_with_parameters():
    E = build_sln_explicit(2, sc("1"), sc("1"))
    pos = positions(E)
    h = pos["H_1"]
    assert E.constants[(h, h, h)] == sc("2") * sc("q^2 - q^{-2}")


def test_rank_one_left_root_value():
    E = build_sln_explicit(2, sc("1"), sc("0"))
    pos = positions(E)
    assert E.constants[(pos["H_1"], pos["X_{12}"], pos["X_{12}"])] == sc("1 + q^2")


def test_rank_one_right_root_value():
    E = build_sln_explicit(2, sc("1"), sc("0"))
    pos = positions(E)
    assert E.constants[(pos["X_{12}"], pos["H_1"], pos["X_{12}"])] == sc("-1 - q^{-2}")


def test_rank_one_root_pairing():
    E = build_sln_explicit(2, sc("1"), sc("0"))
    pos = positions(E)
    assert E.constants[(pos["X_{12}"], pos["X_{21}"], pos["H_1"])] == sc("1")
    assert E.constants[(pos["X_{21}"], pos["X_{12}"], pos["H_1"])] == sc("-1")


def test_composite_root_coefficient():
    E = build_sln_explicit(3, sc("1"), sc("0"))
    pos = positions(E)
    assert E.constants[(pos["X_{12}"], pos["X_{23}"], pos["X_{13}"])] == sc("v^-3")
    assert E.constants[(pos["X_{23}"], pos["X_{12}"], pos["X_{13}"])] == -sc("v^3")


def test_explicit_dimension_and_grading():
    for n in GRID_RANKS:
        E = build_sln_explicit(n, sc("1"), sc("1"))
        assert E.dim == n * n - 1
        assert check_gradation(E)["ok"]


def test_degenerate_parameters_rejected():
    with pytest.raises(InvalidParams):
        build_sln_explicit(3, sc("1"), sc("-1"))


def test_zero_parameters_rejected():
    with pytest.raises(InvalidParams):
        build_sln_explicit(2, sc("0"), sc("0"))


# ----------------------------------------------------------- structural checks

@pytest.mark.parametrize("name", CORE)
def test_generic_gradation(name, generics):
    assert check_gradation(generics[name])["ok"]


@pytest.mark.parametrize("name", CORE)
def test_generic_lr_identity(name, generics):
    assert check_lr_identity(generics[name])["ok"]


@pytest.mark.parametrize("name", CORE)
def test_generic_q_antisymmetry(name, generics):
    assert check_q_antisymmetry(generics[name])["ok"]


@pytest.mark.parametrize("n", GRID_RANKS)
@pytest.mark.parametrize("s,t", GRID)
def test_explicit_lr_identity(n, s, t, explicit_grid):
    assert check_lr_identity(explicit_grid[n, s, t])["ok"]


@pytest.mark.parametrize("n", GRID_RANKS)
@pytest.mark.parametrize("s,t,expected", [
    ("1", "0", True),
    ("0", "1", True),
    ("1", "1", True),
    ("1", "q", False),   # bar(t/s) != t/s: the deformed antisymmetry must fail
])
def test_explicit_q_antisymmetry(n, s, t, expected, explicit_grid):
    assert check_q_antisymmetry(explicit_grid[n, s, t])["ok"] is expected


def test_q_antisymmetry_witness_names_basis_elements(explicit_grid):
    rep = check_q_antisymmetry(explicit_grid[2, "1", "q"])
    assert not rep["ok"] and rep["witness"]


# -------------------------------------------------------------- classical limit

def classical_report(A):
    """check_classical_limit, with its integer Jacobi flag held against the
    Fraction sum of the oracle."""
    rep = check_classical_limit(A)
    if rep["regular_at_one"]:
        assert rep["jacobi"] is fraction_jacobi(A.constants)
    return rep


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_generic_classical_limit(name, generics):
    rep = classical_report(generics[name])
    assert rep["all"], rep
    assert rep["oracle_match"] is True


def test_raw_generic_rank_one_scale():
    rep = classical_report(build_generic(build_cartan("A", 1)))
    assert str(rep["kappa"]) == "-1/4"


def test_explicit_classical_limit_scales():
    rep = classical_report(build_sln_explicit(3, sc("1"), sc("1")))
    assert rep["all"]
    assert str(rep["kappa"]) == "2"


def test_explicit_classical_limit_with_q_parameter():
    # t = q commutes with nothing at the deformed level but still
    # degenerates to the classical table with scale s(1) + t(1) = 2
    rep = classical_report(build_sln_explicit(3, sc("1"), sc("q")))
    assert rep["all"]
    assert str(rep["kappa"]) == "2"


CLASSICAL_OK = {"regular_at_one": True, "antisymmetric": True, "jacobi": True,
                "cartan_abelian": True, "l_equals_r": True, "roots_classical": True,
                "oracle_match": True, "all": True}
FAILED = {"oracle_match": False, "all": False}


def with_constants(A, update):
    return dataclasses.replace(A, constants={**A.constants, **update})


@pytest.mark.parametrize("corruption,flags", [
    ("intact", {}),
    ("one_doubled", {**FAILED, "antisymmetric": False, "jacobi": False}),
    ("one_dropped", {**FAILED, "antisymmetric": False, "jacobi": False,
                     "roots_classical": False}),
    ("swapped_entry_copied", {**FAILED, "antisymmetric": False, "jacobi": False}),
    ("pair_doubled", {**FAILED, "jacobi": False}),
    ("cartan_bracket_added", {**FAILED, "jacobi": False, "cartan_abelian": False}),
    ("right_action_doubled", {**FAILED, "antisymmetric": False, "jacobi": False,
                              "l_equals_r": False}),
    ("root_action_doubled", {**FAILED, "jacobi": False, "kappa": None,
                             "roots_classical": False}),
    ("table_doubled", {**FAILED, "kappa": "4"}),
    ("one_plus_third", {**FAILED, "antisymmetric": False, "jacobi": False}),
    ("pair_plus_third", {**FAILED, "jacobi": False}),
    ("table_thirded", {**FAILED, "kappa": "2/3"}),
])
def test_corrupted_sl3_table_reports_each_classical_flag(corruption, flags, explicit_grid):
    E = explicit_grid[3, "1", "1"]
    K = E.constants
    p = positions(E)
    e12, e21, e13, e23, h1, h2 = (p[n] for n in ("X_{12}", "X_{21}", "X_{13}", "X_{23}", "H_1", "H_2"))
    two, third = RatFunc(2), sc("1/3")
    update = {
        "intact": {},
        "one_doubled": {(e12, e21, h1): two * K[e12, e21, h1]},
        "one_dropped": {(e12, e21, h1): RatFunc(0)},
        "swapped_entry_copied": {(e23, e12, e13): K[e12, e23, e13]},
        "pair_doubled": {(e12, e21, h1): two * K[e12, e21, h1],
                         (e21, e12, h1): two * K[e21, e12, h1]},
        "cartan_bracket_added": {(h1, h2, h1): RatFunc(1), (h2, h1, h1): RatFunc(-1)},
        "right_action_doubled": {(e12, h1, e12): two * K[e12, h1, e12]},
        "root_action_doubled": {(e12, h1, e12): two * K[e12, h1, e12],
                                (h1, e12, e12): two * K[h1, e12, e12]},
        "table_doubled": {k: two * v for k, v in K.items()},
        "one_plus_third": {(e12, e21, h1): K[e12, e21, h1] + third},
        "pair_plus_third": {(e12, e21, h1): K[e12, e21, h1] + third,
                            (e21, e12, h1): K[e21, e12, h1] - third},
        "table_thirded": {k: third * v for k, v in K.items()},
    }[corruption]
    rep = classical_report(with_constants(E, update))
    assert rep == {**CLASSICAL_OK, "kappa": "2", **flags}


def test_cartan_action_off_the_root_clears_kappa(explicit_grid):
    # X_14 has root (1, 0, 1): H_2 must act on it by 0 for l_a = kappa * alpha
    E = explicit_grid[4, "1", "1"]
    p = positions(E)
    e14, h2 = p["X_{14}"], p["H_2"]
    rep = classical_report(with_constants(E, {(h2, e14, e14): RatFunc(1),
                                              (e14, h2, e14): RatFunc(-1)}))
    assert rep == {**CLASSICAL_OK, **FAILED, "jacobi": False, "kappa": None,
                   "roots_classical": False}


def test_pole_at_one_stops_the_classical_limit(explicit_grid):
    E = explicit_grid[3, "1", "1"]
    key = min(E.constants)
    rep = classical_report(with_constants(E, {key: E.constants[key] / (sc("q") - 1)}))
    assert rep == {"regular_at_one": False, "all": False}


@pytest.mark.parametrize("name,normalize,corruption,flags", [
    ("A1", False, "root_action_doubled", {**FAILED, "jacobi": False, "kappa": None,
                                          "roots_classical": False}),
    ("A1", False, "table_doubled", {**FAILED, "kappa": "-1/2"}),
    ("A1", True, "table_doubled", {**FAILED, "kappa": "2"}),
    ("A2", False, "pair_doubled", {**FAILED, "jacobi": False, "kappa": None}),
    ("G2", False, "root_action_doubled", {**FAILED, "jacobi": False, "kappa": None,
                                          "roots_classical": False}),
])
def test_corrupted_generic_table_reports_each_classical_flag(name, normalize, corruption, flags,
                                                             generics):
    A = canonical_normalize(generics[name]) if normalize else generics[name]
    K = A.constants
    roots = A.root_index()
    top = max(roots, key=lambda r: (sum(r), r))
    x, y, h = roots[top], roots[tuple(-c for c in top)], A.h_indices()[0]
    two = RatFunc(2)
    picked = {
        "pair_doubled": lambda k: k[:2] in ((x, y), (y, x)),
        "root_action_doubled": lambda k: k in ((h, x, x), (x, h, x)),
        "table_doubled": lambda k: True,
    }[corruption]
    rep = classical_report(with_constants(A, {k: two * v for k, v in K.items() if picked(k)}))
    assert rep == {**CLASSICAL_OK, **flags}


# ----------------------------------------------------------------- normalization

def test_normalized_rank_one_is_the_standard_model(generics, golden_dir):
    A = canonical_normalize(generics["A1"])
    golden = QuantumLieAlgebra.from_json(load_golden(golden_dir, "sl2q.json"))
    assert same_algebra(A, golden)


def test_normalization_is_idempotent(generics):
    A = canonical_normalize(generics["A1"])
    B = canonical_normalize(A)
    assert same_algebra(A, B)


def test_normalized_flag_and_relabel(generics):
    A = canonical_normalize(generics["A1"])
    assert A.normalized
    assert sorted(lab.kind for lab in A.basis) == ["H", "X", "X"]


@pytest.mark.parametrize("s,t", GRID)
def test_explicit_rank_one_normalizes_to_the_standard_model(s, t, explicit_grid, golden_dir):
    A = canonical_normalize(explicit_grid[2, s, t])
    golden = QuantumLieAlgebra.from_json(load_golden(golden_dir, "sl2q.json"))
    assert same_algebra(A, golden)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_higher_rank_gauge_obstruction(name, generics):
    # the required rescaling involves square roots outside Q(v)
    with pytest.raises(GaugeObstruction):
        canonical_normalize(generics[name])


def test_normalized_rank_one_relations(generics):
    A = canonical_normalize(generics["A1"])
    pos = positions(A)
    xp = pos["X_{(2)}"]
    xm = pos["X_{(-2)}"]
    h = pos["H_1"]
    q = sc("q")
    assert A.constants[(xp, xm, h)] == sc("1")
    assert A.constants[(xm, xp, h)] == sc("-1")
    assert A.constants[(h, xp, xp)] == sc("2") * q
    assert A.constants[(h, xm, xm)] == sc("-2") / q
    assert A.constants[(xp, h, xp)] == -sc("2") / q
    assert A.constants[(xm, h, xm)] == sc("2") * q
    assert A.constants[(h, h, h)] == sc("2") * (q - 1 / q)


def test_extract_roots_on_the_standard_model(generics):
    A = canonical_normalize(generics["A1"])
    l, r = extract_roots(A)
    pos = positions(A)
    xp, h = pos["X_{(2)}"], 0
    assert l[(xp, h)] == sc("2") * sc("q")
    assert r[(xp, h)] == sc("2") / sc("q")


@pytest.mark.parametrize("n", [3, 4])
def test_explicit_higher_rank_normalization_needs_a_square_root(n, explicit_grid):
    with pytest.raises(GaugeObstruction, match="square root missing from Q"):
        canonical_normalize(explicit_grid[n, "1", "0"])


def test_normalized_rank_one_matches_the_normalized_classical_oracle(generics):
    rep = classical_report(canonical_normalize(generics["A1"]))
    assert rep["oracle_match"] is True and rep["all"] is True


def test_change_basis_round_trip_on_a_cartan_rebase(generics):
    A = generics["A2"]
    h1, h2 = A.h_indices()
    one, two = RatFunc(1), RatFunc(2)
    # H'_1 = H_1 + 2 H_2, H'_2 = H_2, so H_1 = H'_1 - 2 H'_2
    cols = {a: {a: one} for a in A.x_indices()}
    inv = dict(cols)
    cols[h1], cols[h2] = {h1: one, h2: two}, {h2: one}
    inv[h1], inv[h2] = {h1: one, h2: -two}, {h2: one}
    rebased = change_basis(A.constants, cols, inv)
    assert not sp_eq(rebased, A.constants)
    x = A.x_indices()[0]
    assert rebased.get((h1, x, x), RatFunc(0)) == (
        A.structure_constant(h1, x, x) + two * A.structure_constant(h2, x, x))
    assert sp_eq(change_basis(rebased, inv, cols), A.constants)


@pytest.mark.parametrize("name", ["A2"])
def test_roots_conjugate_under_q_antisymmetry(name, generics):
    # when the table is q-antisymmetric the right roots are the bar of the left
    l, r = extract_roots(generics[name])
    assert set(l) == set(r)
    for key, val in l.items():
        assert r[key] == val.qconjugate()


# -------------------------------------------------------------------- comparison

def test_compare_fits_rank_two(generics):
    rep = compare_to_explicit(generics["A2"])
    assert rep["applicable"] and rep["match"]
    assert rep["epsilon"] == "(q^3) / (q^6 + q^4 + q^2 + 1)"
    assert rep["eps_bar_invariant"] is True
    eps = parse_scalar(rep["epsilon"])
    assert eps.qconjugate() == eps


def test_compare_fits_rank_three(generics):
    rep = compare_to_explicit(generics["A3"])
    assert rep["applicable"] and rep["match"]
    assert rep["epsilon"] == "0"


def test_compare_fits_rank_one(generics):
    rep = compare_to_explicit(generics["A1"])
    assert rep["applicable"] and rep["match"]


def test_compare_with_pinned_wrong_parameters_mismatches(generics):
    rep = compare_to_explicit(generics["A2"], s=sc("1"), t=sc("1"))
    assert rep["applicable"] and not rep["match"]
    assert rep["mismatches"]


def test_compare_pins_every_mismatch_of_one_corrupted_entry(generics):
    # f[0,14]^6 of A3 times q: the pairs recorded from the per-pair loop
    # that change_basis replaced
    A = generics["A3"]
    constants = dict(A.constants)
    constants[0, 14, 6] = constants[0, 14, 6] * parse_scalar("q")
    rep = compare_to_explicit(dataclasses.replace(A, constants=constants))
    assert not rep["match"]
    assert rep["mismatches"] == [[0, 14], [1, 14], [2, 14], [4, 14], [5, 14], [9, 13], [10, 12],
                                 [12, 10], [13, 9], [14, 0], [14, 1], [14, 2], [14, 4], [14, 5]]


def _corrupted(A, entries=(), labels=()):
    """A with the given constants replaced (None deletes one) and basis labels."""
    constants = dict(A.constants)
    for key, val in entries:
        if val is None:
            constants.pop(key, None)
        else:
            constants[key] = val
    basis = list(A.basis)
    for a, lab in labels:
        basis[a] = lab
    return dataclasses.replace(A, constants=constants, basis=basis)


def _failed_fit(intact, mismatch):
    """The report of an exit after the (s, t) fit: the intact fit, no gauge scalars."""
    rep = {k: v for k, v in intact.items() if k != "scalars"}
    return {**rep, "match": False, "mismatches": [mismatch]}


# The early exits of compare_to_explicit that one corrupted entry or label of
# the A2 table reaches (none further on A2 or A3), pinned as recorded before
# the epsilon fit lost its duplicated ratio check.
def test_compare_exit_for_a_relabelled_root_vector(generics):
    A = _corrupted(generics["A2"], labels=[(0, BasisLabel("H", index=9))])
    assert compare_to_explicit(A) == {"applicable": True, "match": False,
                                      "mismatches": ["root systems differ"]}


def test_compare_exit_for_a_corrupted_cartan_action(generics):
    A = generics["A2"]
    assert [lab.name() for lab in A.basis[:4]] == ["X_{(1,1)}", "X_{(-1,2)}", "X_{(2,-1)}", "H_1"]
    A = _corrupted(A, entries=[((3, 0, 0), A.constants[3, 0, 0] * sc("q"))])
    assert compare_to_explicit(A) == {"applicable": True, "match": False,
                                      "mismatches": ["Cartan action row 0 unfittable"]}


def test_compare_exit_for_an_entry_the_family_lacks(generics):
    A = generics["A2"]
    assert (1, 0, 5) not in A.constants
    rep = compare_to_explicit(_corrupted(A, entries=[((1, 0, 5), sc("1"))]))
    assert rep == _failed_fit(compare_to_explicit(A),
                              "explicit constant vanishes where f[1,0]^5 does not")


# The remaining exits need more than one corrupted entry.
def test_compare_exit_for_a_non_uniform_parameter_ratio(explicit_grid):
    # the H_2 row of the Cartan action from (s, t) = (1, 1), the rest from (1, q)
    E, F = explicit_grid[3, "1", "q"], explicit_grid[3, "1", "1"]
    h = E.h_indices()[1]
    rows = [((h, x, x), F.constants.get((h, x, x))) for x in E.x_indices()]
    rep = compare_to_explicit(_corrupted(E, entries=rows))
    assert rep == {"applicable": True, "match": False,
                   "mismatches": ["parameter ratio not uniform"]}


def test_compare_exit_for_a_singular_cartan_map(explicit_grid):
    E = explicit_grid[3, "1", "q"]
    h = E.h_indices()[1]
    rep = compare_to_explicit(_corrupted(E, entries=[((h, x, x), None) for x in E.x_indices()]))
    assert rep == {"applicable": True, "match": False,
                   "mismatches": ["Cartan change of basis is singular"],
                   "epsilon": "q", "eps_bar_invariant": False, "fitted_s": "1",
                   "fitted_t": "q", "cartan_map": [["1", "0"], ["0", "0"]]}


def test_compare_exit_for_undetermined_gauge_scalars(generics):
    # no bracket of root vectors reaches X_{(1,1)} or X_{(-1,-1)}
    A = generics["A2"]
    hs = set(A.h_indices())
    cut = [(k, None) for k in A.constants
           if k[2] in (0, 7) and k[0] not in hs and k[1] not in hs]
    assert [A.basis[a].root for a in (0, 7)] == [(1, 1), (-1, -1)]
    rep = compare_to_explicit(_corrupted(A, entries=cut))
    assert rep == _failed_fit(compare_to_explicit(A), "gauge scalars not determined for all roots")


def test_compare_not_applicable_outside_type_a(generics):
    rep = compare_to_explicit(generics["B2"])
    assert rep["applicable"] is False


def test_compare_returns_the_basis_dictionary_on_request(generics):
    rep = compare_to_explicit(generics["A2"], with_map=True)
    assert rep["match"] and "phi" in rep
    dim = generics["A2"].dim
    assert set(rep["phi"]) == set(range(dim))


# ------------------------------------------------------------------ involution

@pytest.mark.parametrize("n", [3, 4])
def test_tau_preserved_for_balanced_parameters(n, explicit_grid):
    rep = check_tau_sln(explicit_grid[n, "1", "1"])
    assert rep["applicable"] and rep["ok"]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("s,t", [("1", "0"), ("0", "1"), ("1", "q")])
def test_tau_broken_for_unbalanced_parameters(n, s, t, explicit_grid):
    rep = check_tau_sln(explicit_grid[n, s, t])
    assert rep["applicable"] and not rep["ok"]


@pytest.mark.parametrize("s,t", GRID)
def test_tau_always_holds_at_rank_one(s, t, explicit_grid):
    rep = check_tau_sln(explicit_grid[2, s, t])
    assert rep["applicable"] and rep["ok"]


def test_tau_not_applicable_to_generic_tables(generics):
    assert check_tau_sln(generics["B2"])["applicable"] is False


# ---------------------------------------------------------------- ad-invariance

@pytest.mark.parametrize("name", CORE)
def test_generic_tables_are_ad_invariant(name, generics, pipelines):
    rep = check_ad_invariance(generics[name], pipe=pipelines[name])
    assert rep["applicable"] and rep["ok"]


def test_corrupted_table_fails_ad_invariance_with_a_generator_witness(pipelines):
    pipe = pipelines["A2"]
    table = dict(pipe.constants)
    key = min(table)
    table[key] = -table[key]
    rep = ad_invariance_of_table(table, pipe.tensor)
    assert rep["ok"] is False
    kind, i = rep["witness"]
    assert kind in ("E", "F") and i in range(2)


def test_ad_invariance_needs_the_construction_basis(generics):
    rep = check_ad_invariance(canonical_normalize(generics["A1"]))
    assert rep["applicable"] is False


@pytest.mark.parametrize("s,t", [("1", "0"), ("1", "q")])
def test_explicit_tables_are_ad_invariant_after_transport(s, t, generics, pipelines, explicit_grid):
    fit = compare_to_explicit(generics["A2"], with_map=True)
    rep = check_ad_invariance_explicit(
        explicit_grid[3, s, t], pipe=pipelines["A2"], fit=fit)
    assert rep["applicable"] and rep["ok"]


def test_transport_preserves_gradation(generics, pipelines, explicit_grid):
    fit = compare_to_explicit(generics["A2"], with_map=True)
    table = transport_explicit_constants(generics["A2"], fit["phi"], explicit_grid[3, "1", "1"])
    A = generics["A2"]
    for (a, b, c), val in table.items():
        if not val.is_zero():
            ga, gb, gc = A.grade(a), A.grade(b), A.grade(c)
            assert tuple(x + y for x, y in zip(ga, gb)) == gc


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_fitted_explicit_table_transports_back_to_the_generic_table(rank, generics):
    A = generics.get(f"A{rank}") or build_generic(build_cartan("A", rank))
    fit = compare_to_explicit(A, with_map=True)
    E = build_sln_explicit(rank + 1, sc(fit["fitted_s"]), sc(fit["fitted_t"]))
    table = transport_explicit_constants(A, fit["phi"], E)
    assert sp_eq(table, A.constants)


# ------------------------------------------------------------- serialization

@pytest.mark.parametrize("key", [("A2", None), (None, (3, "1", "q"))])
def test_json_round_trip(key, generics, explicit_grid):
    name, ex = key
    A = generics[name] if name else explicit_grid[ex]
    B = QuantumLieAlgebra.from_json(A.to_json())
    assert same_algebra(A, B)
    assert B.provenance == A.provenance and B.normalized == A.normalized


@pytest.mark.parametrize("cartan,dim", [({"series": "A", "rank": 1500}, 2253000),
                                        ({"series": "c", "rank": "30"}, 1830),
                                        ({"series": "E", "rank": 8}, 248)])
def test_stored_table_basis_must_span_the_adjoint(monkeypatch, cartan, dim):
    # the basis length is compared with the closed-form adjoint dimension
    # before a classical Cartan matrix is built
    built = []
    true_build = qliealg.build_cartan
    monkeypatch.setattr(qliealg, "build_cartan", lambda *a: built.append(a) or true_build(*a))
    blob = {"cartan": cartan, "basis": [{"label": "H", "index": 1}], "constants": [],
            "provenance": "generic-pipeline"}
    name = cartan["series"].upper() + str(cartan["rank"])
    with pytest.raises(InvalidParams, match=rf"^{name} has a {dim}-dimensional adjoint module, "
                                            "but the table has 1 basis vectors$"):
        QuantumLieAlgebra.from_json(blob)
    assert built == ([("E", 8)] if name == "E8" else [])


def test_explicit_golden_tables(explicit_grid, golden_dir):
    fresh = explicit_grid[3, "1", "q"].to_json()
    assert fresh == load_golden(golden_dir, "explicit_a2_s1_tq.json")
    fresh = explicit_grid[4, "1", "1"].to_json()
    assert fresh == load_golden(golden_dir, "explicit_a3_s1_t1.json")


@pytest.mark.parametrize("name,entries,digest", [
    ("A2", 56, "32d4900d7c5bbf2776a8f26713e12cc48f255179da26bd2f9363521849fb0b24"),
    ("B2", 76, "edbdd08e2512ac061e3aa4cb52f9a817c3044bfffbff85d0def2595f8d293782"),
    ("G2", 132, "fab8ceb051ef6c62ae28063c98a766550135fea90212b8bdc80ed5003d4630fe"),
    ("A1", 7, "3a8d694b12e58f94fbd76a040cfd548347e99972d2ffe447317dd98cc48dc089"),
    ("A3", 148, "9a1a7a85b9133a4d22eb52ee731f3c9e9396cec8747a3ab312a0ce906ee62a19"),
    ("A4", 352, "a494199ea9f38ceb9ffc07e0e873ad56da9a5e8eeb5a7dc2dba590eab3c04fca"),
    ("B3", 279, "11b23b63438d287d7ef7dce49fb7de34abcb1dd5cec99d3b93c9915fa4c95620"),
    ("C3", 279, "083b6e63031f736923bef85c09e70bbc24e38d163945bb36ec608fbc45ca04f3"),
    ("D4", 472, "7f84c0dd242fd59781d159f4b69d3bb494d16f80a40f08ec2d12e8dbb38ced96"),
])
def test_generic_table_canonical_json_digest(name, entries, digest, generics):
    # the bytes of `qlie build --format json`: any change to the scalar
    # kernel's canonical form or to the pipeline's output shows here; F4
    # and E6 are pinned by a CI step
    A = generics[name] if name in generics else build_generic(name_to_cartan(name))
    text = json.dumps(A.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert len(A.constants) == entries
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_labeled_constants_use_display_names(generics):
    table = labeled_constants(generics["A1"])
    assert any(k[2] == ("H", 1) for k in table)


def test_build_text_shows_brackets(generics):
    text = build_text(canonical_normalize(generics["A1"]))
    assert "# algebra A1\n# construction generic-pipeline\n# normalized yes\n" in text
    assert "f[H_1,H_1]^{H_1}" in text


@pytest.mark.parametrize("name", CORE)
def test_printed_generic_tables_parse_back(name, generics):
    # every printed scalar stays inside the parser's degree and size bounds
    A = generics[name]
    assert same_algebra(parse_text_algebra(build_text(A)), A)
