"""Cartan data, root systems, Weyl dimensions and tensor multiplicities."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qlie
from qlie import rootdata
from qlie.qliealg import table_cartan
from qlie.rootdata import (
    CartanDatum,
    InvalidType,
    NonDominant,
    VerificationFailed,
    adjoint_dim,
    build_cartan,
    cartan_to_json,
    highest_root,
    root_system,
    tensor_multiplicity,
    weight_multiplicities,
    weyl_dim,
)

from oracles import tensor_decompose

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]


def cd_of(name):
    return build_cartan(name[0], int(name[1:]))


def dominant_weights(cd, mu, nu):
    """The dominant weights of V(mu) (x) V(nu), ascending."""
    return sorted({w for w in (tuple(a + b for a, b in zip(w1, w2))
                               for w1 in weight_multiplicities(cd, mu)
                               for w2 in weight_multiplicities(cd, nu))
                   if min(w) >= 0})


def library_decomposition(cd, mu, nu):
    """V(mu) (x) V(nu) by the library's single-target count, summed over
    the dominant weights of the product."""
    counts = {lam: tensor_multiplicity(cd, mu, nu, lam) for lam in dominant_weights(cd, mu, nu)}
    return {lam: m for lam, m in counts.items() if m}


# ------------------------------------------------------------- Cartan matrices

def test_a1_matrix():
    cd = build_cartan("A", 1)
    assert cd.cartan == ((2,),)
    assert cd.d == (1,)


def test_a2_matrix():
    cd = build_cartan("A", 2)
    assert cd.cartan == ((2, -1), (-1, 2))
    assert cd.d == (1, 1)


def test_g2_matrix():
    cd = build_cartan("G", 2)
    a = cd.cartan
    assert a[0][0] == a[1][1] == 2
    assert a[0][1] * a[1][0] == 3
    assert sorted(cd.d) == [1, 3]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_symmetrization(name):
    # d_i a_ij must be a symmetric matrix with positive diagonal
    cd = cd_of(name)
    n = len(cd.d)
    for i in range(n):
        assert cd.d[i] > 0 and cd.cartan[i][i] == 2
        for j in range(n):
            assert cd.d[i] * cd.cartan[i][j] == cd.d[j] * cd.cartan[j][i]
            if i != j:
                assert cd.cartan[i][j] <= 0


@pytest.mark.parametrize("letter,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("G", 3), ("G", 1), ("E", 5), ("F", 3), ("Z", 2), ("A", -1)])
def test_unsupported_types_rejected(letter, rank):
    with pytest.raises(InvalidType):
        build_cartan(letter, rank)


def test_cartan_json_round_trip():
    for name in ALL_TYPES:
        cd = cd_of(name)
        back = table_cartan(**cartan_to_json(cd), dim=adjoint_dim(cd))
        assert back.cartan == cd.cartan and back.d == cd.d


# ---------------------------------------------------------------- root systems

@pytest.mark.parametrize("name,count", [("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6)])
def test_positive_root_counts(name, count):
    rs = root_system(cd_of(name))
    assert len(rs.positive_roots) == count


def test_a1_highest_root():
    assert highest_root(build_cartan("A", 1)) == (2,)


def test_a2_highest_root():
    assert highest_root(build_cartan("A", 2)) == (1, 1)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_highest_root_is_dominant(name):
    theta = highest_root(cd_of(name))
    assert all(c >= 0 for c in theta)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_count_matches_adjoint_dimension(name):
    cd = cd_of(name)
    rs = root_system(cd)
    rank = len(cd.d)
    assert weyl_dim(cd, highest_root(cd)) == 2 * len(rs.positive_roots) + rank


def test_rho_is_all_ones():
    rs = root_system(build_cartan("B", 2))
    assert rs.rho == (1, 1)


def test_positive_roots_carry_consistent_coordinates():
    cd = build_cartan("A", 2)
    rs = root_system(cd)
    for simple_coords, weight_coords in rs.positive_roots:
        # weight coords are the simple coordinates pushed through the Cartan matrix
        expect = tuple(
            sum(simple_coords[j] * cd.cartan[j][i] for j in range(2)) for i in range(2)
        )
        assert weight_coords == expect


# ------------------------------------------------------------- Weyl dimensions

@pytest.mark.parametrize("name,lam,dim", [
    ("A1", (2,), 3),
    ("A2", (1, 1), 8),
    ("G2", (1, 0), 7),
    ("A3", (1, 0, 0), 4),
    ("B2", (1, 0), 5),
])
def test_weyl_dim_examples(name, lam, dim):
    cd = cd_of(name)
    if name == "G2" and weyl_dim(cd, (1, 0)) != 7:
        # label order of the short/long simple roots is a convention;
        # accept the other fundamental as the 7-dimensional one
        lam = (0, 1)
    assert weyl_dim(cd, lam) == dim


@pytest.mark.parametrize("name,dim", [
    ("A1", 3), ("A2", 8), ("A3", 15), ("A4", 24),
    ("B2", 10), ("B3", 21), ("C3", 21), ("D4", 28), ("G2", 14),
    ("B4", 36), ("C2", 10), ("C4", 36), ("F4", 52), ("E6", 78), ("A30", 960),
    ("B5", 55), ("C5", 55), ("D5", 45), ("E7", 133), ("E8", 248),
])
def test_adjoint_dimensions(name, dim):
    cd = cd_of(name)
    assert weyl_dim(cd, highest_root(cd)) == dim
    assert adjoint_dim(cd) == dim


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(NonDominant):
        weyl_dim(build_cartan("A", 2), (1, -1))


# ------------------------------------------------------- weight multiplicities

@pytest.mark.parametrize("name,lam", [
    ("A1", (3,)),
    ("A2", (1, 1)),
    ("A2", (2, 0)),
    ("B2", highest_root(build_cartan("B", 2))),
    ("G2", highest_root(build_cartan("G", 2))),
])
def test_multiplicities_sum_to_dimension(name, lam):
    cd = cd_of(name)
    mults = weight_multiplicities(cd, lam)
    assert sum(mults.values()) == weyl_dim(cd, lam)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_zero_weight_of_adjoint_has_rank_multiplicity(name):
    cd = cd_of(name)
    mults = weight_multiplicities(cd, highest_root(cd))
    zero = tuple(0 for _ in cd.d)
    assert mults[zero] == len(cd.d)


def test_a1_string_multiplicities_are_one():
    mults = weight_multiplicities(build_cartan("A", 1), (3,))
    assert mults == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


# ------------------------------------------------------ tensor decompositions

def test_a1_fundamental_square():
    cd = build_cartan("A", 1)
    assert library_decomposition(cd, (1,), (1,)) == {(2,): 1, (0,): 1}


@pytest.mark.parametrize("name,mult", [
    ("A1", 1), ("A2", 2), ("A3", 2), ("B2", 1), ("G2", 1),
])
def test_adjoint_multiplicity_in_its_square(name, mult):
    cd = cd_of(name)
    theta = highest_root(cd)
    assert tensor_multiplicity(cd, theta, theta, theta) == mult


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_tensor_square_dimensions_add_up(name):
    cd = cd_of(name)
    theta = highest_root(cd)
    dec = library_decomposition(cd, theta, theta)
    total = sum(m * weyl_dim(cd, lam) for lam, m in dec.items())
    assert total == weyl_dim(cd, theta) ** 2


def test_tensor_multiplicity_symmetric_in_factors():
    cd = build_cartan("A", 2)
    for lam in [(1, 1), (3, 0), (0, 0), (2, 2)]:
        assert tensor_multiplicity(cd, (1, 0), (0, 1), lam) == tensor_multiplicity(cd, (0, 1), (1, 0), lam)


def test_a2_fundamental_times_dual():
    cd = build_cartan("A", 2)
    assert library_decomposition(cd, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}


def test_tensor_multiplicity_of_absent_component_is_zero():
    cd = build_cartan("A", 1)
    assert tensor_multiplicity(cd, (1,), (1,), (1,)) == 0


BRAUER_KLIMYK_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]


def _factor_pairs(name):
    cd = cd_of(name)
    theta = highest_root(cd)
    return cd, [(theta, theta), (fundamental(cd, 0), theta)]


@pytest.mark.parametrize("name", BRAUER_KLIMYK_TYPES)
def test_single_target_count_matches_the_decomposition(name):
    # every dominant weight of adj (x) adj and of V(omega_1) (x) adj
    cd, pairs = _factor_pairs(name)
    for mu, nu in pairs:
        dec = tensor_decompose(cd, mu, nu)
        dominant = dominant_weights(cd, mu, nu)
        assert set(dec) <= set(dominant)
        for lam in dominant:
            assert tensor_multiplicity(cd, mu, nu, lam) == dec.get(lam, 0), (mu, nu, lam)


@pytest.mark.parametrize("name", BRAUER_KLIMYK_TYPES)
def test_single_target_count_is_zero_outside_the_product(name):
    cd, pairs = _factor_pairs(name)
    box = [()]
    for _ in range(cd.rank):
        box = [w + (x,) for w in box for x in range(3)]
    for mu, nu in pairs:
        dec = tensor_decompose(cd, mu, nu)
        top = tuple(a + b for a, b in zip(mu, nu))
        outside = [lam for lam in box if lam not in dec]
        outside.append(tuple(x + (i == 0) for i, x in enumerate(top)))
        for lam in outside:
            assert tensor_multiplicity(cd, mu, nu, lam) == 0, (mu, nu, lam)


def test_rootdata_has_no_decomposition():
    # the single-target count is the library's only tensor multiplicity;
    # the full decomposition is a test oracle
    assert not [name for name in vars(rootdata) if "decompos" in name]
    for name, mult in [("A2", 2), ("B3", 1), ("F4", 1)]:
        cd = cd_of(name)
        theta = highest_root(cd)
        assert tensor_multiplicity(cd, theta, theta, theta) == mult
    assert tensor_multiplicity(cd_of("A2"), (1, 0), (1, 1), (2, 1)) == 1


# --------------------------------------------- oracles independent of Freudenthal

def fundamental(cd, j):
    return tuple(int(i == j) for i in range(cd.rank))


def reflect(cd, mu, i):
    """s_i mu = mu - mu_i alpha_i; alpha_i has h-coordinates (a_ji)_j."""
    return tuple(m - mu[i] * cd.cartan[j][i] for j, m in enumerate(mu))


def weyl_orbit(cd, lam):
    orbit, todo = {tuple(lam)}, [tuple(lam)]
    while todo:
        mu = todo.pop()
        for i in range(cd.rank):
            nu = reflect(cd, mu, i)
            if nu not in orbit:
                orbit.add(nu)
                todo.append(nu)
    return orbit


def adjoint_character(cd):
    """Every root once (each root is W-conjugate to a simple one), zero rank times."""
    roots = set()
    for i in range(cd.rank):
        roots |= weyl_orbit(cd, tuple(row[i] for row in cd.cartan))
    char = dict.fromkeys(roots, 1)
    char[(0,) * cd.rank] = cd.rank
    return char


def racah_speiser(cd, lam, char):
    """V(lam) (x) V by Brauer-Klimyk, from the character {weight: mult} of V:
    each weight eta adds sign(w) mult to V(w(lam + eta + rho) - rho), and
    nothing when lam + eta + rho lies on a wall."""
    out = {}
    for eta, m in char.items():
        x = tuple(a + b + 1 for a, b in zip(lam, eta))
        sign = 1
        while any(xi < 0 for xi in x):
            x = reflect(cd, x, next(i for i, xi in enumerate(x) if xi < 0))
            sign = -sign
        if 0 not in x:
            w = tuple(xi - 1 for xi in x)
            out[w] = out.get(w, 0) + sign * m
    return {w: m for w, m in out.items() if m}


WEYL_INVARIANCE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
                         "G2", "F4", "E6"]


@pytest.mark.parametrize("name,lam", [
    (name, lam)
    for name in WEYL_INVARIANCE_TYPES
    for lam in dict.fromkeys([fundamental(cd_of(name), j) for j in range(cd_of(name).rank)]
                             + [highest_root(cd_of(name))])
])
def test_multiplicities_are_weyl_invariant(name, lam):
    cd = cd_of(name)
    mults = weight_multiplicities(cd, lam)
    for mu, m in mults.items():
        for i in range(cd.rank):
            assert mults.get(reflect(cd, mu, i)) == m, (mu, i)


@pytest.mark.parametrize("name,lam,dim,zero_mult", [
    ("G2", (1, 0), 7, 1),
    ("G2", (2, 0), 27, 3),
    ("F4", (0, 0, 0, 1), 26, 2),
    ("F4", (1, 0, 0, 0), 52, 4),
    ("E6", (1, 0, 0, 0, 0, 0), 27, 0),
])
def test_zero_weight_multiplicities_from_the_literature(name, lam, dim, zero_mult):
    cd = cd_of(name)
    assert weyl_dim(cd, lam) == dim
    assert weight_multiplicities(cd, lam).get((0,) * cd.rank, 0) == zero_mult


def test_g2_adjoint_square_from_the_literature():
    # 14 (x) 14 = 1 + 14 + 27 + 77 + 77'
    cd = build_cartan("G", 2)
    dec = library_decomposition(cd, (0, 1), (0, 1))
    assert dec == {(0, 0): 1, (0, 1): 1, (2, 0): 1, (3, 0): 1, (0, 2): 1}
    assert sorted(weyl_dim(cd, lam) for lam in dec) == [1, 14, 27, 77, 77]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                                  "D3", "D4", "G2", "F4"])
def test_adjoint_square_matches_racah_speiser(name):
    cd = cd_of(name)
    theta = highest_root(cd)
    char = adjoint_character(cd)
    assert sum(char.values()) == weyl_dim(cd, theta)
    assert library_decomposition(cd, theta, theta) == racah_speiser(cd, theta, char)


def fundamental_character(name, j):
    """A3: all three fundamentals are minuscule.  B3: omega_1 is the vector
    (its orbit plus zero once), omega_2 the adjoint, omega_3 the minuscule spin."""
    cd = cd_of(name)
    if name == "B3" and j == 1:
        return adjoint_character(cd)
    char = dict.fromkeys(weyl_orbit(cd, fundamental(cd, j)), 1)
    if name == "B3" and j == 0:
        char[(0, 0, 0)] = 1
    return char


@pytest.mark.parametrize("name,i,j", [(name, i, j) for name in ("A3", "B3")
                                      for i in range(3) for j in range(3)])
def test_fundamental_products_match_racah_speiser(name, i, j):
    cd = cd_of(name)
    char = fundamental_character(name, j)
    assert sum(char.values()) == weyl_dim(cd, fundamental(cd, j))
    expect = racah_speiser(cd, fundamental(cd, i), char)
    assert library_decomposition(cd, fundamental(cd, i), fundamental(cd, j)) == expect


# ------------------------------------------------------------- self-checks

def test_self_checks_raise_under_python_O():
    """A Weyl dimension off by one must be caught by the multiplicity total,
    with asserts compiled out."""
    script = textwrap.dedent("""
        import sys
        from qlie import rootdata
        if __debug__:
            sys.exit("asserts are active")
        true_dim = rootdata.weyl_dim
        rootdata.weyl_dim = lambda cd, lam: true_dim(cd, lam) + 1
        try:
            rootdata.weight_multiplicities(rootdata.build_cartan("A", 2), (1, 1))
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


def test_verification_failed_is_an_assertion_error():
    assert issubclass(VerificationFailed, AssertionError)


def test_no_assert_statement_in_the_package():
    """Self-checks raise VerificationFailed; an assert would vanish under -O."""
    src = Path(qlie.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
