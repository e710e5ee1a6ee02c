"""Deformed Lie algebra construction, normalization, checks and comparisons."""

import hashlib
import importlib.util
import json
import random
import re
from pathlib import Path

import pytest

from qlie.cli import build_text, parse_text_algebra
from qlie.linalg import sp_diff
from qlie.qring import RatFunc, parse_scalar
from qlie.rootdata import build_cartan, root_system
from qlie import qring, table
from qlie.qliealg import (
    GaugeObstruction,
    build_generic,
    build_sln_explicit,
    canonical_normalize,
    check_ad_invariance,
    check_classical_limit,
    check_gradation,
    check_lr_identity,
    check_q_antisymmetry,
    check_tau_sln,
    compare_to_explicit,
    transport_explicit_constants,
)
from qlie.table import (BasisLabel, InvalidParams, QuantumLieAlgebra, change_basis,
                        labeled_constants, same_algebra)

from conftest import CORE, GRID, GRID_RANKS, load_golden, name_to_cartan
from oracles import fraction_classical_limit, fraction_jacobi, replaced


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
    return replaced(A, constants={**A.constants, **update})


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
    A = with_constants(E, {key: E.constants[key] / (sc("q") - 1)})
    rep = classical_report(A)
    assert rep == fraction_classical_limit(A) == {"regular_at_one": False, "all": False}


# ------------------------------------- classical limit: the Fraction reference

REFERENCE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4")


def _perfbench_pairs():
    """The (s, t) strings of the benchmark's explicit tables, some with
    denominators that are not cyclotomic, read from perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PAIRS


def assert_matches_reference(A, rng, corruptions=2):
    """check_classical_limit gives the Fraction reference's report on A and
    on seeded copies of A with one constant scaled, shifted or added."""
    tables = [A]
    for _ in range(corruptions):
        key = rng.choice(sorted(A.constants))
        bump = sc(rng.choice(("2", "-1", "1/3", "q", "1/(q+2)", "(q-3)/(q^2+4)")))
        a, b, _ = rng.choice(sorted(A.constants))
        tables += [with_constants(A, {key: bump * A.constants[key]}),
                   with_constants(A, {key: A.constants[key] + bump}),
                   with_constants(A, {(b, a, rng.randrange(A.dim)): bump})]
    for T in tables:
        assert check_classical_limit(T) == fraction_classical_limit(T)


@pytest.mark.parametrize("name", REFERENCE_TYPES)
def test_classical_limit_matches_the_fraction_reference_on_generic_tables(name, generics):
    """Raw, marked normalized (its oracle goes through _gauge_rebase), and
    for A1 the canonical normalization."""
    A = generics[name] if name in generics else build_generic(name_to_cartan(name))
    rng = random.Random(name)
    assert_matches_reference(A, rng, corruptions=1)
    assert_matches_reference(replaced(A, normalized=True), rng, corruptions=0)
    if name == "A1":
        assert_matches_reference(canonical_normalize(A), rng)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classical_limit_matches_the_fraction_reference_on_explicit_tables(n):
    rng = random.Random(n)
    for s, t in _perfbench_pairs():
        assert_matches_reference(build_sln_explicit(n, sc(s), sc(t)), rng, corruptions=1)


def scaled(A, x):
    return replaced(A, constants={k: x * v for k, v in A.constants.items()})


@pytest.mark.parametrize("factor,flags", [
    ("1/(q^2-3)", {"kappa": "1/8"}),          # sum(D) = -2 < 0
    ("-1/(q^2-3)", {"kappa": "-1/8"}),
    ("1/3", {"kappa": "-1/12"}),              # non-integral content
    ("(q+1)/(6*q)", {"kappa": "-1/12"}),
    ("-5", {"kappa": "5/4"}),
    ("q-1", {"kappa": "0", "roots_classical": False}),   # every constant vanishes at 1
])
def test_classical_limit_common_denominator_edge_cases(factor, flags, generics):
    """A Lie bracket times a scalar x keeps every flag but the oracle match,
    and kappa scales by x(1); the raw A1 kappa is -1/4."""
    A = replaced(generics["A1"], constants={
        k: sc(factor) * v for k, v in generics["A1"].constants.items()})
    rep = check_classical_limit(A)
    assert rep == fraction_classical_limit(A)
    assert rep == {**CLASSICAL_OK, **FAILED, **flags}


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
    assert sp_diff(rebased, A.constants)
    x = A.x_indices()[0]
    assert rebased.get((h1, x, x), RatFunc(0)) == (
        A.structure_constant(h1, x, x) + two * A.structure_constant(h2, x, x))
    assert not sp_diff(change_basis(rebased, inv, cols), A.constants)


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


@pytest.mark.parametrize("given", [{"s": "1"}, {"t": "q"}])
def test_compare_needs_both_parameters_or_neither(given, generics):
    with pytest.raises(InvalidParams, match="give both s and t"):
        compare_to_explicit(generics["A2"], **{k: sc(v) for k, v in given.items()})


def test_compare_refuses_a_pinned_pair_the_explicit_family_refuses(generics):
    # s + t zero, or not regular, at v = 1: build_sln_explicit refuses both
    for s, t in ((1, -1), (sc("1"), sc("1/(q-1)"))):
        with pytest.raises(InvalidParams, match=r"^s \+ t must be regular and nonzero at v = 1$"):
            compare_to_explicit(generics["A2"], s, t)


def test_compare_pins_every_mismatch_of_one_corrupted_entry(generics):
    # f[0,14]^6 of A3 times q: the pairs recorded from the per-pair loop
    # that change_basis replaced
    A = generics["A3"]
    constants = dict(A.constants)
    constants[0, 14, 6] = constants[0, 14, 6] * parse_scalar("q")
    rep = compare_to_explicit(replaced(A, constants=constants))
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
    return replaced(A, constants=constants, basis=basis)


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
    # f[1,0]^5 = 1 where the family has 0.  The gauge pass by height reads
    # no scalar from that pair, so the fit goes through with the intact
    # scalars and the one check of every constant names the pair.  (The
    # early exit "explicit constant vanishes where f[1,0]^5 does not" is
    # gone: it caught this only when the old fixpoint happened to visit
    # the pair, and the check reports the same.)
    A = generics["A2"]
    assert (1, 0, 5) not in A.constants
    rep = compare_to_explicit(_corrupted(A, entries=[((1, 0, 5), sc("1"))]))
    intact = compare_to_explicit(A)
    assert "scalars" in intact
    assert rep == {**intact, "match": False, "mismatches": [[1, 0]]}


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


@pytest.mark.parametrize("name", ["A1", "A3"])
def test_compare_exit_for_a_cut_cartan_part(name, generics):
    # both [X_g, X_-g] and [X_-g, X_g] lose their Cartan part, for each
    # positive root g in turn: the scalar of X_-g would read 0, which makes
    # phi singular and blinds the check, so the fit ends in the gauge exit
    A = generics[name]
    groots, hs = A.root_index(), set(A.h_indices())
    intact = compare_to_explicit(A)
    for _, g in root_system(A.cd).positive_roots:
        pair = {groots[g], groots[tuple(-v for v in g)]}
        A_cut = _corrupted(A, entries=[(k, None) for k in A.constants
                                       if set(k[:2]) == pair and k[2] in hs])
        assert A_cut.constants != A.constants
        rep = compare_to_explicit(A_cut)
        assert rep == _failed_fit(intact, "gauge scalars not determined for all roots"), g


def test_compare_exit_names_the_first_unfittable_cartan_row(generics):
    # f[H_2, X_0]^{X_0} + q: row 0 still fits, so the free fit fails at row
    # 1; with (s, t) pinned to (1, q) row 0 is already unfittable
    A = generics["A2"]
    assert [lab.name() for lab in (A.basis[0], A.basis[4])] == ["X_{(1,1)}", "H_2"]
    A = _corrupted(A, entries=[((4, 0, 0), A.constants[4, 0, 0] + sc("q"))])
    assert compare_to_explicit(A) == {"applicable": True, "match": False,
                                      "mismatches": ["Cartan action row 1 unfittable"]}
    assert compare_to_explicit(A, s=sc("1"), t=sc("q")) == {
        "applicable": True, "match": False, "mismatches": ["Cartan action row 0 unfittable"]}


def _digest(obj):
    return hashlib.sha256((json.dumps(obj, sort_keys=True, separators=(",", ":"))
                           + "\n").encode()).hexdigest()


# The sha256 of the canonical JSON of three outputs on the generic A_n table:
# the report of compare_to_explicit, the report with (s, t) pinned to (1, q),
# and the rows [a, b, c, value] of E(q^2, 1/(q+2)) transported through the
# fitted phi.
FIT_PINS = {
    1: ("4a494195db1e8330b75734c20cfa3aa1e93ab0cab4c6eb5324e829b11d897c31",
        "637cfbf658599e2d9e290df280c558e24d633d130ba80766d782b64dd4ddbdd4",
        "af037ef07cebfdeb1bb13ba7da6c2bacb88c8a654330e527dc79afb61239a18d"),
    2: ("47b276c44f1e96a36fe2679813e7c705fb674f62d720588c619603e931beb4d7",
        "141869a7e7899da045c3d4c8873ba02b23ed6a8f02516f5727160a2e68205590",
        "398d1c62347aa51da8175cb907614ab11e14d749ab7804d7b13ad2a7293bcdf0"),
    3: ("4d7d43e0a04ee3f2b062596dd3326c001fee44ab9d6c92ff561596ba531ad9bd",
        "141869a7e7899da045c3d4c8873ba02b23ed6a8f02516f5727160a2e68205590",
        "c6f5058ef389675c8da6f0a142d56deb9848249e9685f619f0da158065526f44"),
    4: ("b17371e028830fde9e4b4135d0537e34510f0c2d3872cbb8384550c812b9d17a",
        "141869a7e7899da045c3d4c8873ba02b23ed6a8f02516f5727160a2e68205590",
        "3654a59a65e93190069ee5430f1e622980e565d700fc52f6be03c18c66cc2ca2"),
    5: ("a246e48e8c1f117622ea647b829c4d2312eaa5d75cee664279618954401c47bd",
        "141869a7e7899da045c3d4c8873ba02b23ed6a8f02516f5727160a2e68205590",
        "588a512adfb2260bd9dfda93453dffb2de16ec90c05c0f6c4693326d9a031e17"),
}


@pytest.mark.parametrize("rank", sorted(FIT_PINS))
def test_fit_and_transport_digests(rank, generics):
    A = generics.get(f"A{rank}") or build_generic(build_cartan("A", rank))
    fit = compare_to_explicit(A, with_map=True)
    phi = fit.pop("phi", None)
    pinned = compare_to_explicit(A, s=sc("1"), t=sc("q"))
    assert (_digest(fit), _digest(pinned)) == FIT_PINS[rank][:2]
    E = build_sln_explicit(rank + 1, sc("q^2"), sc("1/(q+2)"))
    table = transport_explicit_constants(A, phi, E)
    rows = [[a, b, c, x.to_json()] for (a, b, c), x in sorted(table.items())]
    assert _digest(rows) == FIT_PINS[rank][2]


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


def _negated_first(A):
    """A with its first constant negated."""
    key = min(A.constants)
    return _corrupted(A, entries=[(key, -A.constants[key])])


def test_corrupted_table_fails_ad_invariance_with_a_generator_witness(generics, pipelines):
    rep = check_ad_invariance(_negated_first(generics["A2"]), pipe=pipelines["A2"])
    assert rep["ok"] is False
    kind, i = rep["witness"]
    assert kind in ("E", "F") and i in range(2)


def test_ad_invariance_needs_the_construction_basis(generics):
    rep = check_ad_invariance(canonical_normalize(generics["A1"]))
    assert rep["applicable"] is False


@pytest.mark.parametrize("s,t", [("1", "0"), ("1", "q")])
def test_explicit_tables_are_ad_invariant_after_transport(s, t, pipelines, explicit_grid):
    rep = check_ad_invariance(explicit_grid[3, s, t], pipe=pipelines["A2"])
    assert rep == {"ok": True, "applicable": True}


@pytest.mark.parametrize("scale", ["-1", "q"])
def test_corrupted_explicit_table_fails_ad_invariance(scale, pipelines, explicit_grid):
    # one constant of E(1, q) negated or multiplied by q; at the parent of
    # this check an explicit table was not applicable
    E = explicit_grid[3, "1", "q"]
    key = min(E.constants)
    E = _corrupted(E, entries=[(key, E.constants[key] * sc(scale))])
    rep = check_ad_invariance(E, pipe=pipelines["A2"])
    assert rep == {"ok": False, "witness": ["E", 0], "applicable": True}


def _reordered(A, order):
    """A written to JSON with its basis listed in the given order (new vector
    k is old vector order[k]) and read back with from_json."""
    blob = A.to_json()
    new = {old: k for k, old in enumerate(order)}
    blob["basis"] = [blob["basis"][old] for old in order]
    for e in blob["constants"]:
        e["a"], e["b"], e["c"] = new[e["a"]], new[e["b"]], new[e["c"]]
    return QuantumLieAlgebra.from_json(blob)


# A B2 pipeline table with its basis rotated by one position, and the explicit
# A2 table E(1, 0) with its basis reversed: at the parent of the label reading
# the first failed ad-invariance with witness ["E", 0] and its classical
# limit, and the second failed ad-invariance and raised "basis order mismatch
# against the oracle".
@pytest.mark.parametrize("key", ["B2", (3, "1", "0")], ids=["B2-rotated", "A2-explicit-reversed"])
@pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "corrupted"])
def test_reordered_table_checks_as_its_original(key, corrupt, generics, pipelines, explicit_grid):
    A = generics[key] if key == "B2" else explicit_grid[key]
    pipe = pipelines["B2" if key == "B2" else "A2"]
    if corrupt:
        A = _negated_first(A)
    order = list(range(1, A.dim)) + [0] if key == "B2" else list(range(A.dim))[::-1]
    B = _reordered(A, order)
    assert [lab.name() for lab in B.basis] == [A.basis[a].name() for a in order]
    ad, limit = check_ad_invariance(A, pipe=pipe), check_classical_limit(A)
    assert (ad["ok"], limit["all"]) == ((False, False) if corrupt else (True, True))
    assert check_ad_invariance(B, pipe=pipe) == ad
    assert check_classical_limit(B) == limit


def test_transport_preserves_gradation(generics, pipelines, explicit_grid):
    fit = compare_to_explicit(generics["A2"], with_map=True)
    table = transport_explicit_constants(generics["A2"], fit["phi"], explicit_grid[3, "1", "1"])
    A = generics["A2"]
    for (a, b, c), val in table.items():
        if not val.is_zero():
            ga, gb, gc = A.grade(a), A.grade(b), A.grade(c)
            assert tuple(x + y for x, y in zip(ga, gb)) == gc


@pytest.mark.parametrize("edit,error", [
    (lambda phi: phi[0].update({6: sc("1")}), InvalidParams),     # X_0 onto two vectors
    (lambda phi: phi.update({1: dict(phi[0])}), InvalidParams),   # X_0 and X_1 onto one
    (lambda phi: phi.update({3: {6: sc("1"), 7: sc("1")}, 4: {6: sc("1"), 7: sc("1")}}),
     ZeroDivisionError),                                           # H_1 = H_2
], ids=["not-square", "shared", "singular"])
def test_transport_refuses_a_map_it_cannot_invert_by_weight(edit, error, generics, explicit_grid):
    A = generics["A2"]
    phi = {g: dict(col) for g, col in compare_to_explicit(A, with_map=True)["phi"].items()}
    edit(phi)
    with pytest.raises(error):
        transport_explicit_constants(A, phi, explicit_grid[3, "1", "1"])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_fitted_explicit_table_transports_back_to_the_generic_table(rank, generics):
    A = generics.get(f"A{rank}") or build_generic(build_cartan("A", rank))
    fit = compare_to_explicit(A, with_map=True)
    E = build_sln_explicit(rank + 1, sc(fit["fitted_s"]), sc(fit["fitted_t"]))
    table = transport_explicit_constants(A, fit["phi"], E)
    assert not sp_diff(table, A.constants)


# ------------------------------------------------------------- serialization

@pytest.mark.parametrize("key", [("A2", None), (None, (3, "1", "q"))])
def test_json_round_trip(key, generics, explicit_grid):
    name, ex = key
    A = generics[name] if name else explicit_grid[ex]
    B = QuantumLieAlgebra.from_json(A.to_json())
    assert same_algebra(A, B)
    assert B.provenance == A.provenance and B.normalized == A.normalized


@pytest.mark.parametrize("cartan,dim", [({"series": "A", "rank": 1500}, 2253000),
                                        ({"series": "c", "rank": 30}, 1830),
                                        ({"series": "E", "rank": 8}, 248)])
def test_stored_table_basis_must_span_the_adjoint(monkeypatch, cartan, dim):
    # the basis length is compared with the closed-form adjoint dimension
    # before any Cartan matrix is built, exceptional or not
    built = []
    true_build = table.build_cartan
    monkeypatch.setattr(table, "build_cartan", lambda *a: built.append(a) or true_build(*a))
    blob = {"cartan": cartan, "basis": [{"label": "H", "index": 1}], "constants": [],
            "provenance": "generic-pipeline"}
    name = cartan["series"].upper() + str(cartan["rank"])
    with pytest.raises(InvalidParams, match=rf"^{name} has a {dim}-dimensional adjoint module, "
                                            "but the table has 1 basis vectors$"):
        QuantumLieAlgebra.from_json(blob)
    assert built == []


def edited_sl2q(golden_dir, edit):
    """The stored sl2q golden with edit applied to its JSON blob."""
    blob = load_golden(golden_dir, "sl2q.json")
    edit(blob)
    return blob


@pytest.mark.parametrize("index", [7, -1, "0"])
def test_stored_constant_index_must_lie_in_the_basis(golden_dir, index):
    # before the check, a = 7 of 3 loaded and check_gradation hit a bare IndexError
    def add(blob):
        blob["constants"].append(dict(blob["constants"][0], a=index))

    with pytest.raises(InvalidParams,
                       match=r"^a constant index lies outside the basis range\(0, 3\)$"):
        QuantumLieAlgebra.from_json(edited_sl2q(golden_dir, add))


@pytest.mark.parametrize("roots", [[[2], [4]], [[2], [2]], [[-2], [-2]]])
def test_stored_x_labels_must_be_the_roots_once(golden_dir, roots):
    def relabel(blob):
        blob["basis"][0]["root"], blob["basis"][2]["root"] = roots

    with pytest.raises(InvalidParams,
                       match="^the X labels of the basis are not the roots, each once$"):
        QuantumLieAlgebra.from_json(edited_sl2q(golden_dir, relabel))


@pytest.mark.parametrize("index", [0, 2])
def test_stored_h_labels_must_be_the_cartan_slots(golden_dir, index):
    def relabel(blob):
        blob["basis"][1]["index"] = index

    with pytest.raises(InvalidParams,
                       match=r"^the H labels of the basis are not H_1 \.\. H_1, each once$"):
        QuantumLieAlgebra.from_json(edited_sl2q(golden_dir, relabel))


def explicit_a2_blob(edit):
    """The JSON blob of the explicit A2 table at (1, q) with edit applied to
    its X_{12} label."""
    blob = build_sln_explicit(3, sc("1"), sc("q")).to_json()
    edit(next(lab for lab in blob["basis"] if lab.get("ij") == [1, 2]))
    return blob


@pytest.mark.parametrize("edit,message", [
    # before the check, check_tau_sln raised KeyError ('X', (-5, -3))
    (lambda lab: lab.update(ij=[7, 9]), r"^the ij \(7, 9\) of X_\{\(2,-1\)\} is not a position "
                                        r"1 <= i != j <= 3 with that root$"),
    (lambda lab: lab.update(ij=[2, 1]), r"^the ij \(2, 1\) of X_\{\(2,-1\)\} is not"),
    (lambda lab: lab.update(ij=[1, 1]), r"^the ij \(1, 1\) of X_\{\(2,-1\)\} is not"),
    (lambda lab: lab.update(ij=["1", 2]), r"^the ij \('1', 2\) of X_\{\(2,-1\)\} is not"),
    (lambda lab: lab.update(ij=[True, 2]), r"^the ij \(True, 2\) of X_\{\(2,-1\)\} is not"),
    (lambda lab: lab.update(ij=[1, 2, 3]), r"^the ij \(1, 2, 3\) of X_\{\(2,-1\)\} is not"),
    (lambda lab: lab.update(ij=12), r"^the ij 12 of X_\{\(2,-1\)\} is not"),
    # before the check, check_classical_limit raised a bare TypeError
    (lambda lab: lab.pop("ij"), r"^X_\{\(2,-1\)\} of an explicit-sln table has no ij$"),
], ids=["out-of-range", "other-root", "diagonal", "str", "bool", "three", "not-a-list",
        "missing"])
def test_stored_explicit_labels_must_carry_their_matrix_units(edit, message):
    with pytest.raises(InvalidParams, match=message):
        QuantumLieAlgebra.from_json(explicit_a2_blob(edit))


def _edited_label(a, edit):
    """The JSON blob of the explicit A2 table at (1, 0) with edit applied to
    basis label a, and that label after the edit."""
    blob = build_sln_explicit(3, sc("1"), sc("0")).to_json()
    edit(blob["basis"][a])
    return blob, blob["basis"][a]


@pytest.mark.parametrize("a,edit", [
    (0, lambda lab: lab.update(label="Y")),     # loaded as an X
    (6, lambda lab: lab.update(index="x")),     # a bare ValueError from int()
    (6, lambda lab: lab.update(index=1.5)),     # loaded as H_1
    (0, lambda lab: lab.pop("root")),           # a bare KeyError
], ids=["label-Y", "index-str", "index-float", "no-root"])
def test_stored_label_must_be_an_x_or_an_h_with_int_entries(a, edit):
    blob, label = _edited_label(a, edit)
    with pytest.raises(InvalidParams, match="^the basis label " + re.escape(repr(label))
                                            + " is not an H with an int index or an X"):
        QuantumLieAlgebra.from_json(blob)


def test_stored_explicit_table_must_be_on_an_a_series_algebra(generics):
    blob = dict(generics["B2"].to_json(), provenance="explicit-sln")
    with pytest.raises(InvalidParams, match="^an explicit-sln table must be on an A-series "
                                            "algebra, not B2$"):
        QuantumLieAlgebra.from_json(blob)


OVERSIZED = {
    # 1.6 s and about 100 MB at the parent of the bound: the span is laid out densely
    "two-terms": ({"num": {"0": "1", "3000000": "1"}, "den": {"0": "1"}}, "a power of v beyond"),
    "high-power": ({"num": {"2000000": "1"}, "den": {"0": "1"}}, "a power of v beyond"),
    "low-power": ({"num": {"0": "1"}, "den": {"-1025": "1"}}, "a power of v beyond"),
    "digits": ({"num": {"0": "7" * 4000}, "den": {"0": "1"}}, "integers above 1024 bits"),
    "bits": ({"num": {"0": f"1/{2 ** 1024}"}, "den": {"0": "1"}}, "integers above 1024 bits"),
    # past int()'s 4300-digit limit: refused on their length, before any conversion
    "long-exponent": ({"num": {"1" * 5000: "1"}, "den": {"0": "1"}}, "a power of v beyond"),
    "long-digits": ({"num": {"0": "7" * 100000}, "den": {"0": "1"}}, "integers above 1024 bits"),
}


def within_bounds(views):
    """No power of v beyond +-1024 and no integer above 1024 bits in views,
    each {exponent: (p, q)} as qring._zlayout is handed it."""
    return all(abs(e) <= 1024 and max(abs(p), q).bit_length() <= 1024
               for view in views for e, (p, q) in view.items())


@pytest.mark.parametrize("name", OVERSIZED)
def test_stored_scalar_must_stay_within_the_text_bounds(name, golden_dir, laid_out):
    value, why = OVERSIZED[name]

    def edit(blob):
        blob["constants"][1]["value"] = value

    blob = edited_sl2q(golden_dir, edit)
    e = blob["constants"][1]
    with pytest.raises(InvalidParams, match=re.escape(f"the constant [{e['a']}, {e['b']}, "
                                                      f"{e['c']}]: ") + why):
        QuantumLieAlgebra.from_json(blob)
    assert within_bounds(laid_out)


@pytest.mark.parametrize("name", OVERSIZED)
def test_stored_parameter_must_stay_within_the_text_bounds(name, golden_dir, laid_out):
    value, why = OVERSIZED[name]
    blob = load_golden(golden_dir, "explicit_a2_s1_tq.json")
    blob["params"]["t"] = value
    with pytest.raises(InvalidParams, match=f"^the parameter t: {why}"):
        QuantumLieAlgebra.from_json(blob)
    assert within_bounds(laid_out)


def test_stored_scalars_at_the_bounds_load(golden_dir, laid_out):
    top = {"num": {"-1024": "1", "1024": str(2 ** 1024 - 1)}, "den": {"1024": "1"}}
    blob = edited_sl2q(golden_dir, lambda blob: blob["constants"][1].update(value=top))
    A = QuantumLieAlgebra.from_json(blob)
    assert {-1024: (1, 1), 1024: (2 ** 1024 - 1, 1)} in laid_out and within_bounds(laid_out)
    e = blob["constants"][1]
    assert A.constants[e["a"], e["b"], e["c"]] == RatFunc.from_json(top)
    # JSON numbers, as the reader took them before the bounds
    assert RatFunc.from_json({"num": {"0": 5}, "den": {0: "2"}}) == sc("5/2")


@pytest.mark.parametrize("value,why", [
    ({"num": {"0": "1/0"}, "den": {"0": "1"}}, "Fraction(1, 0)"),
    ({"num": {"0": "1"}, "den": {"0": "0"}}, "zero denominator"),
    ({"num": {"x": "1"}, "den": {"0": "1"}}, "invalid literal"),
], ids=["zero-coefficient-denominator", "zero-denominator", "bad-exponent"])
def test_malformed_stored_scalar_names_its_constant(value, why, golden_dir):
    # each was a bare ZeroDivisionError or ValueError before
    blob = edited_sl2q(golden_dir, lambda blob: blob["constants"][1].update(value=value))
    with pytest.raises(InvalidParams, match=r"^the constant \[0, 2, 1\]: " + re.escape(why)):
        QuantumLieAlgebra.from_json(blob)


EXPONENT_NOTATION = "1e999999999"    # 10^999999999, about 0.4 GB, if Fraction read it


@pytest.mark.parametrize("num,why", [
    ({"0": EXPONENT_NOTATION}, f"invalid literal for a coefficient: '{EXPONENT_NOTATION}'"),
    ({"0": "1.5"}, "invalid literal for a coefficient: '1.5'"),
    ({"0": "+1"}, "invalid literal for a coefficient: '+1'"),
    ({"0": "\u0661"}, "invalid literal for a coefficient: '\u0661'"),
    ({"1e3": "1"}, "invalid literal for a power of v: '1e3'"),
    ({"1_0": "1"}, "invalid literal for a power of v: '1_0'"),
], ids=["exponent-notation", "decimal", "plus-sign", "arabic-indic-digit", "exponent-1e3",
        "exponent-underscore"])
def test_stored_scalar_holds_only_what_to_json_writes(num, why, golden_dir, monkeypatch):
    # int and Fraction read each of these; the exponent notation made Fraction
    # build the whole power of ten before the bit bound looked at it.  The
    # reader converts with int, so the spies watch both names in qring.  The
    # scalar is the first one read, so the spies see it before any other.
    def spy(name, true):
        def convert(*args):
            assert args[:1] != (EXPONENT_NOTATION,), f"{name} was handed the exponent notation"
            return true(*args)
        return convert

    blob = edited_sl2q(golden_dir, lambda blob: blob["constants"][0].update(
        value={"num": num, "den": {"0": "1"}}))
    e = blob["constants"][0]
    monkeypatch.setattr(qring, "Fraction", spy("Fraction", qring.Fraction))
    monkeypatch.setattr(qring, "int", spy("int", int), raising=False)
    with pytest.raises(InvalidParams, match=re.escape(f"the constant [{e['a']}, {e['b']}, "
                                                      f"{e['c']}]: {why}") + "$"):
        QuantumLieAlgebra.from_json(blob)


def test_explicit_golden_tables(explicit_grid, golden_dir):
    fresh = explicit_grid[3, "1", "q"].to_json()
    assert fresh == load_golden(golden_dir, "explicit_a2_s1_tq.json")
    fresh = explicit_grid[4, "1", "1"].to_json()
    assert fresh == load_golden(golden_dir, "explicit_a3_s1_t1.json")


# Every member E(s, t) of the explicit family that the pins below cover.
EXPLICIT_RANKS = (2, 3, 4, 5, 6, 10)
EXPLICIT_PAIRS = (("1", "0"), ("0", "1"), ("1", "q"), ("q^2", "1/(q+2)"))


@pytest.fixture(scope="module")
def explicit_members():
    return {(n, s, t): build_sln_explicit(n, sc(s), sc(t))
            for n in EXPLICIT_RANKS for s, t in EXPLICIT_PAIRS}


# the entry count and the sha256 of the canonical JSON of each member
EXPLICIT_PINS = {
    (2, "1", "0"): (7, "225f4c8dc373d62e12a01ea5324f73a4a73c18856bfd312f84db6d1136272f2b"),
    (2, "0", "1"): (7, "0f959f5b52fd814339655ff3e58e4b35091feabaaba7e3af71c0903860518824"),
    (2, "1", "q"): (7, "422721bb0176709c1470ca0392fdf6ee77f341d2503b9f67fadf5906d2e96877"),
    (2, "q^2", "1/(q+2)"): (7, "48d456fe8cd79664a6a089f7df1f2af46b3a50796d23bde29df40584d6440a0d"),
    (3, "1", "0"): (51, "23cd7c3697b1a7339ebfbaf47c4f4967717b96207b42fb85b6319645a316587d"),
    (3, "0", "1"): (51, "2bde42ca9e581547e3ff393f96270ee4943e41559c4df0fe1ccb0802e42fb5e9"),
    (3, "1", "q"): (56, "99e8cee7dbba852c5c7497d2eac7442b868e34caa1253866475a023abcedc984"),
    (3, "q^2", "1/(q+2)"): (56, "6bc9e4eb6ec6cbb1cfd610ba51fa591be9a3302450027870f9bfaccebaf38ea6"),
    (4, "1", "0"): (148, "c622afaaf34118d5d3f20edfded45e083cd20c38141b2f4ffa834f9b2fb8d68e"),
    (4, "0", "1"): (148, "69e654a5e0aa323d5974ba04ae33b9393a31c5f8b7092f2da58df61722bdfa6b"),
    (4, "1", "q"): (165, "13ad141c3d91634d8a8910f2af4e4e5bca933042edcf1f576fead07418c3d62c"),
    (4, "q^2", "1/(q+2)"): (165, "022ff1b32f8c08b65abb2fcbd08916e01b3ca7bebb371f114a7dc521d7643fd1"),
    (5, "1", "0"): (314, "7731456438e2884e0ff645910f69d75f734164a1340657c715d9aedab1b21622"),
    (5, "0", "1"): (314, "93cb23ca0fc0f9cdb289d2015c4542243263873abc4782af161d9f026bdf3a06"),
    (5, "1", "q"): (352, "bcf0d528fd722e9d26ea2a8d440b4ee0dfb2e55b8b4e7856bda440a2b06faa97"),
    (5, "q^2", "1/(q+2)"): (352, "1ea4f2594cca4bbccae9bd1c2916d277a9a7301d4d95adf7cd4f4ab94e0e27eb"),
    (6, "1", "0"): (565, "643d1e0b9e9e520d788aed5acf42e28a4df5311412157ed898d6b1a26a04110e"),
    (6, "0", "1"): (565, "743f9660202d7309d498ecd005628eef7d5c6aa40590cc303ed6bd7d28cb2617"),
    (6, "1", "q"): (635, "4c764d397bf7f9d83b0370f57342402881c2dd923899aace2c661a3f09cdfc6c"),
    (6, "q^2", "1/(q+2)"): (635, "24d85e7d3d16c447294c20b851075572a19264070646f8fc5ffa25c9bd7b9403"),
    (10, "1", "0"): (2739, "ce5f32125eb5cd4a5a8d0c9017c5ac4c4f8d0171a14b1f88bfb6120f15e8740a"),
    (10, "0", "1"): (2739, "a619bfe236eedac63aef9fe5fec9d564f0f9d7b6351264ffb28606f3383d2220"),
    (10, "1", "q"): (3087, "f624b3028e44fedbfb6aa298bb563995f0aec9c60939dadb987cf8c5b0e09ddd"),
    (10, "q^2", "1/(q+2)"): (3087, "e1253e580a54be5ed761f7a84a85f1711c31944c959f5c1dacf84dd0c4476c13"),
}


@pytest.mark.parametrize("n,s,t", list(EXPLICIT_PINS))
def test_explicit_table_canonical_json_digest(n, s, t, explicit_members):
    # the bytes of `qlie build --construction explicit-sln --format json`
    A = explicit_members[n, s, t]
    text = json.dumps(A.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert (len(A.constants), hashlib.sha256(text.encode()).hexdigest()) == EXPLICIT_PINS[n, s, t]


def flip(A):
    """The flip X_ij -> -X_{n+1-j,n+1-i}, H_k -> H_{n-k} on an explicit
    table's basis, as change_basis columns."""
    n = A.cd.rank + 1
    where = {(lab.kind, lab.ij or lab.index): a for a, lab in enumerate(A.basis)}
    return {a: ({where["X", (n + 1 - lab.ij[1], n + 1 - lab.ij[0])]: -1} if lab.kind == "X"
                else {where["H", n - lab.index]: 1})
            for a, lab in enumerate(A.basis)}


@pytest.mark.parametrize("n", EXPLICIT_RANKS)
@pytest.mark.parametrize("s,t", EXPLICIT_PAIRS)
def test_flip_maps_each_member_onto_its_mirror(n, s, t, explicit_members):
    # tau is an isomorphism E(s, t) -> E(t, s): the table of E(s, t) on the
    # basis tau(x_a) is the table of E(t, s)
    A = explicit_members[n, s, t]
    mirror = explicit_members[n, t, s] if (t, s) in EXPLICIT_PAIRS else build_sln_explicit(
        n, sc(t), sc(s))
    assert not sp_diff(change_basis(A.constants, flip(A), flip(A)), mirror.constants)


def test_rank_ten_table_round_trips_through_text(explicit_members):
    # the X_{i,j} label form of n > 9
    A = explicit_members[10, "q^2", "1/(q+2)"]
    text = build_text(A)
    assert "| X_{1,10} |" in text
    B = parse_text_algebra(text)
    assert same_algebra(B, A) and B.params == A.params and B.provenance == A.provenance


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
