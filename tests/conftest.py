"""Shared session fixtures.

The generic pipeline is the expensive step (adjoint module, tensor square,
highest-weight space, inversion), so it runs once per algebra for the whole
session and every test module reuses the cached objects.  The explicit-table
grid covers ranks 2..4 against four parameter choices, including the
deliberately non-symmetric pair (1, q) used as a failing control.
"""

import json
from pathlib import Path

import pytest

from qlie import qring
from qlie.qring import parse_scalar
from qlie.rootdata import build_cartan
from qlie.qliealg import build_generic, build_sln_explicit, generic_pipeline

CORE = ("A1", "A2", "A3", "B2", "G2")
GRID = (("1", "0"), ("0", "1"), ("1", "1"), ("1", "q"))
GRID_RANKS = (2, 3, 4)
# (name, highest weight) of the modules on which the two builders of
# classical.py and build_irrep at v = 1 are compared entry for entry; None
# is the adjoint
CLASSICAL_MODULES = [(name, None) for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4",
                                               "G2", "F4", "E6", "E7", "E8")] + [
    ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0)), ("G2", (2, 0)), ("C3", (0, 1, 0)),
    ("A3", (1, 1, 0)), ("B3", (1, 0, 1))]


def module_id(name, lam):
    return name if lam is None else f"{name}{lam}".replace(" ", "")


def name_to_cartan(name):
    return build_cartan(name[0], int(name[1:]))


@pytest.fixture(scope="session")
def cartan():
    return {name: name_to_cartan(name) for name in CORE}


@pytest.fixture(scope="session")
def pipelines(cartan):
    return {name: generic_pipeline(cartan[name]) for name in CORE}


@pytest.fixture(scope="session")
def generics(cartan, pipelines):
    return {
        name: build_generic(cartan[name], pipe=pipelines[name]) for name in CORE
    }


@pytest.fixture(scope="session")
def explicit_grid():
    out = {}
    for n in GRID_RANKS:
        for s, t in GRID:
            out[n, s, t] = build_sln_explicit(n, parse_scalar(s), parse_scalar(t))
    return out


@pytest.fixture(scope="session")
def golden_dir():
    return Path(__file__).parent / "golden"


def load_golden(golden_dir, name):
    with open(golden_dir / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def laid_out(monkeypatch):
    """Every {exponent: (p, q)} whose span qring._zlayout lays out densely,
    a stored view or a view RatFunc reads, with an empty view memo."""
    seen = []
    true_layout = qring._zlayout
    monkeypatch.setattr(qring, "_zlayout", lambda terms: seen.append(terms) or true_layout(terms))
    qring._view_memo.cache_clear()
    return seen
