"""The structure-constant table of a quantum Lie algebra.

A ``QuantumLieAlgebra`` is a basis, each vector labelled X_alpha (a root
vector) or H_k (a Cartan slot), with structure constants f_ab^c over Q(v):
the abstract algebra, whatever construction produced it.  This module holds
the table and its labels, both stored forms (``to_json``/``from_json`` and
``to_text``/``from_text``: each reader parses its encoding, a text label by
looking its name up among those the algebra writes, and passes the pieces
to one constructor, ``stored_table``, which makes every refusal), the
label-keyed comparison of tables, and ``change_basis``, the single
change-of-basis routine for structure-constant tables.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import NamedTuple

from .qring import RatFunc, RF_ZERO, parse_scalar
from .rootdata import CartanDatum, adjoint_dim, build_cartan, cartan_to_json, root_system
from .linalg import sp_add_to, sp_diff, sp_grouped

CONSTRUCTIONS = ("generic-pipeline", "explicit-sln")


class InvalidParams(ValueError):
    """Parameters outside the admissible family (e.g. s + t vanishing at v=1)."""


@contextmanager
def naming(where: str):
    """Raise a ValueError or TypeError met while reading `where` as an
    InvalidParams that names it."""
    try:
        yield
    except InvalidParams:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"cannot parse {where}: {exc}") from exc


def _sln_root(n: int, i: int, j: int) -> tuple:
    """h-coordinates of the weight of X_ij (the root eps_i - eps_j)."""
    return tuple(
        (1 if k == i else 0) - (1 if k == i - 1 else 0)
        - (1 if k == j else 0) + (1 if k == j - 1 else 0)
        for k in range(1, n)
    )


class BasisLabel(NamedTuple):
    kind: str                 # "X" or "H"
    root: tuple = None        # h-coordinates of the root (X only)
    index: int = None         # 1-based Cartan slot (H only)
    ij: tuple = None          # matrix-unit position, explicit family only

    def name(self) -> str:
        if self.kind == "H":
            return f"H_{self.index}"
        if self.ij is not None:
            i, j = self.ij
            if i > 9 or j > 9:
                return "X_{%d,%d}" % (i, j)
            return "X_{%d%d}" % (i, j)
        return "X_{(%s)}" % ",".join(str(c) for c in self.root)

    def to_json(self) -> dict:
        if self.kind == "H":
            return {"label": "H", "index": self.index}
        out = {"label": "X", "root": list(self.root)}
        if self.ij is not None:
            out["ij"] = list(self.ij)
        return out

    @staticmethod
    def from_json(d: dict) -> "BasisLabel":
        """{"label": "H", "index": int} or {"label": "X", "root": [int]},
        checked by type, not converted; anything else raises InvalidParams
        naming the label.  An X's optional "ij" is kept as it is stored, for
        check_basis_labels to check."""
        kind = d.get("label") if isinstance(d, dict) else None
        if kind == "H" and type(d.get("index")) is int:
            return BasisLabel("H", index=d["index"])
        root = d.get("root") if kind == "X" else None
        if isinstance(root, list) and all(type(x) is int for x in root):
            ij = d.get("ij")
            return BasisLabel("X", root=tuple(root), ij=tuple(ij) if isinstance(ij, list) else ij)
        raise InvalidParams(f"the basis label {d!r} is not an H with an int index "
                            "or an X with an int root")


class QuantumLieAlgebra:
    def __init__(self, cd: CartanDatum, basis: list, constants: dict, provenance: str,
                 params: dict = None, normalized: bool = False, checks: dict = None):
        self.cd = cd
        self.basis = basis
        # {(a, b, c): RatFunc}, zero entries dropped
        self.constants = {key: val for key, val in constants.items() if val}
        self.provenance = provenance  # "generic-pipeline" or "explicit-sln"
        self.params = params          # {"s": RatFunc, "t": RatFunc} for the explicit family
        self.normalized = normalized
        self.checks = {} if checks is None else checks

    @property
    def dim(self):
        return len(self.basis)

    def grade(self, a: int) -> tuple:
        lab = self.basis[a]
        if lab.kind == "X":
            return lab.root
        return (0,) * self.cd.rank

    def structure_constant(self, a: int, b: int, c: int) -> RatFunc:
        return self.constants.get((a, b, c), RF_ZERO)

    def x_indices(self):
        return [a for a, lab in enumerate(self.basis) if lab.kind == "X"]

    def h_indices(self):
        return [a for a, lab in enumerate(self.basis) if lab.kind == "H"]

    def root_index(self):
        return {lab.root: a for a, lab in enumerate(self.basis) if lab.kind == "X"}

    def to_json(self) -> dict:
        out = {
            "cartan": cartan_to_json(self.cd),
            "basis": [lab.to_json() for lab in self.basis],
            "constants": [
                {"a": a, "b": b, "c": c, "value": val.to_json()}
                for (a, b, c), val in sorted(self.constants.items())
            ],
            "provenance": self.provenance,
            "normalized": self.normalized,
            "checks": self.checks,
        }
        if self.params is not None:
            out["params"] = {k: v.to_json() for k, v in self.params.items()}
        return out

    @staticmethod
    def from_json(d: dict) -> "QuantumLieAlgebra":
        """The table of a stored JSON blob.  Its cartan, basis and constants
        must be present and every scalar keep the text reader's bounds
        (RatFunc.from_json); stored_table makes the other refusals.  A
        failure raises InvalidParams before any check reads the table."""
        cartan, basis, entries = _fields(d, "the stored table", cartan=dict, basis=list,
                                         constants=list)
        series, rank = _fields(cartan, "the cartan", series=str, rank=object)
        params = d.get("params")
        if isinstance(params, dict):
            params = {k: _stored_scalar(v, f"the parameter {k}") for k, v in params.items()}
        return stored_table(series, rank, basis,
                            lambda labels, cd: [BasisLabel.from_json(lab) for lab in labels],
                            map(_stored_constant, entries), d.get("provenance"),
                            d.get("normalized"), params, d.get("checks"))

    def to_text(self) -> str:
        """The text form: header lines for the algebra, the construction, the
        normalized flag, the basis and the explicit family's params, then
        f[a,b]^{c} = value per constant in key order; from_text inverts it."""
        lines = [
            f"# algebra {self.cd.series}{self.cd.rank}",
            f"# construction {self.provenance}",
            f"# normalized {'yes' if self.normalized else 'no'}",
            "# basis " + " | ".join(lab.name() for lab in self.basis),
        ]
        if self.params is not None:
            lines.append(f"# params s = {self.params['s']} ; t = {self.params['t']}")
        lines += [f"f[{a},{b}]^{{{c}}} = {val}" for a, b, c, val in _nonzero_rows(self)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "QuantumLieAlgebra":
        """The table of a text form (to_text): each header line once, each
        label a name the algebra writes (_labels_named), other "#" lines
        ignored; stored_table makes the other refusals, each an InvalidParams."""
        head, body = {}, []   # head: {key: match of "# key value"}
        for ln in text.splitlines():
            m = re.match(r"# (algebra|construction|normalized|basis|params) (.*)", ln)
            if m and head.setdefault(m[1], m) is not m:
                raise InvalidParams(f"the text table repeats its {m[1]} line: {ln!r}")
            if not m and ln.strip() and not ln.startswith("#"):
                body.append(ln)
        if not {"algebra", "construction", "normalized", "basis"} <= head.keys():
            raise InvalidParams("text table lacks its header lines")
        params, line = None, head.get("params")
        if line:
            m = re.fullmatch(r"s = (.*) ; t = (.*)", line[2])
            if not m:
                raise InvalidParams(f"cannot parse params line {line[0]!r}")
            with naming(f"line {line[0]!r}"):
                params = {"s": parse_scalar(m[1]), "t": parse_scalar(m[2])}
        names, normalized = head["basis"][2].split(" | "), head["normalized"][2].strip()
        return stored_table(*_series_rank(head["algebra"][2]), names, _labels_named,
                            _text_constants(body, names), head["construction"][2].strip(),
                            {"yes": True, "no": False}.get(normalized, normalized), params,
                            where=f"line {head['algebra'][0]!r}")


def _nonzero_rows(A: QuantumLieAlgebra, at_one: bool = False):
    """(name_a, name_b, name_c, value) for each nonzero constant f_ab^c in
    key order; with at_one, the exact value at v = 1, where that is nonzero."""
    names = [lab.name() for lab in A.basis]
    for (a, b, c), val in sorted(A.constants.items()):
        if at_one:
            val = val.eval_at_one()
            if not val:
                continue
        yield names[a], names[b], names[c], val


def _series_rank(text: str) -> tuple:
    """(series letter, rank) of an algebra name like A2; no Cartan datum is
    built."""
    m = re.fullmatch(r"([A-Za-z])\s*([0-9]+)", text.strip())
    if not m:
        raise InvalidParams(f"bad algebra {text!r}; expected a series letter "
                            "and rank, like A2 or G2")
    try:
        return m.group(1).upper(), int(m.group(2))
    except ValueError as exc:
        raise InvalidParams(str(exc)) from exc


def _labels_named(names: list, cd: CartanDatum) -> list:
    """The label of each name among those the algebra writes
    (_algebra_labels); any other name raises InvalidParams."""
    known = {lab.name(): lab for lab in _algebra_labels(cd)}
    for name in names:
        if name not in known:
            raise InvalidParams(f"cannot parse basis label {name!r}")
    return [known[name] for name in names]


def _text_constants(body: list, names: list):
    """((a, b, c), value) of each constant line f[name_a,name_b]^{name_c} = value.
    Each distinct value text is parsed once, at its first line, so a
    malformed one is refused naming that line; a table repeats few values
    (F4's text table: 397 distinct of 1312)."""
    where = {nm: a for a, nm in enumerate(names)}
    values = {}   # value text -> its RatFunc, for this table only
    for ln in body:
        m = re.fullmatch(r"f\[(.*)\]\^\{(.*)\} = (.*)", ln)
        if not m:
            raise InvalidParams(f"cannot parse table line {ln!r}")
        pair, cname, val = m.groups()
        a = b = None
        for cut in range(len(pair)):
            if pair[cut] == "," and pair[:cut] in where and pair[cut + 1:] in where:
                a, b = where[pair[:cut]], where[pair[cut + 1:]]
                break
        if a is None or cname not in where:
            raise InvalidParams(f"unknown basis labels in line {ln!r}")
        x = values.get(val)
        if x is None:
            with naming(f"line {ln!r}"):
                x = values[val] = parse_scalar(val)
        yield (a, b, where[cname]), x


def _fields(d, what: str, **types) -> list:
    """The values of the named fields of the JSON object d, each of its
    type; a missing or mistyped field raises InvalidParams."""
    if not isinstance(d, dict):
        raise InvalidParams(f"{what} is not a JSON object")
    for key, kind in types.items():
        if key not in d or not isinstance(d[key], kind):
            raise InvalidParams(f"{what} has no field {key!r}"
                                + ("" if kind is object else f" of type {kind.__name__}"))
    return [d[key] for key in types]


def _stored_constant(e: dict) -> tuple:
    """((a, b, c), value) of one stored constant."""
    a, b, c, value = _fields(e, "a constant", a=object, b=object, c=object, value=object)
    return (a, b, c), _stored_scalar(value, f"the constant [{a}, {b}, {c}]")


def _stored_scalar(d: dict, name: str) -> RatFunc:
    """RatFunc.from_json(d), its refusal an InvalidParams naming the scalar.
    d must be an object whose num and den are objects before either is
    read."""
    _fields(d, name, num=dict, den=dict)
    try:
        return RatFunc.from_json(d)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"{name}: {exc}") from exc


def stored_table(series, rank, labels: list, read_basis, constants, provenance,
                 normalized, params=None, checks=None,
                 where="the cartan") -> QuantumLieAlgebra:
    """The table a reader has parsed from a stored form: labels as stored,
    read_basis(labels, cd) reading them, and constants an iterable of
    ((a, b, c), RatFunc) consumed once the labels have passed.  Every
    refusal the two forms share is made here, as an InvalidParams: the
    rank must be an int, the basis must span the adjoint (table_cartan,
    before any label is read), the labels pass check_basis_labels, the
    construction is one of CONSTRUCTIONS, normalized is a bool, the params
    are an object holding exactly s and t on an explicit-sln table, passing
    check_sln_params, and None on a generic one, checks is a dict, and each
    constant's (a, b, c) lies in range(dim) and is listed once.  A parse
    error in the algebra names where, where it was read.  A stored zero
    constant is dropped, as QuantumLieAlgebra drops every one."""
    with naming(where):
        if type(rank) is not int:
            raise TypeError(f"the rank {rank!r} is not an int")
        cd = table_cartan(series, rank, len(labels))
    basis = read_basis(labels, cd)
    if provenance not in CONSTRUCTIONS:
        raise InvalidParams(f"the construction {provenance!r} is not one of "
                            + ", ".join(CONSTRUCTIONS))
    check_basis_labels(cd, basis, provenance)
    if type(normalized) is not bool:
        raise InvalidParams(f"the normalized flag {normalized!r} is not a bool "
                            "(yes or no in a text table)")
    if not isinstance(params, (dict, type(None))):
        raise InvalidParams(f"the params of a stored table are not a JSON object: {params!r}")
    keys = None if params is None else sorted(params)
    want = ["s", "t"] if provenance == "explicit-sln" else None
    if keys != want:
        raise InvalidParams(f"{provenance} tables have the params {want}, not {keys!r}")
    if want:
        check_sln_params(params["s"], params["t"])
    if not isinstance(checks, (dict, type(None))):
        raise InvalidParams(f"the checks of a stored table are not a JSON object: {checks!r}")
    table = {}
    for key, val in constants:
        if any(type(i) is not int or not 0 <= i < len(basis) for i in key):
            raise InvalidParams(f"a constant index lies outside the basis range(0, {len(basis)})")
        if key in table:
            raise InvalidParams("the constant [%d, %d, %d] is listed twice" % key)
        table[key] = val
    return QuantumLieAlgebra(cd, basis, table, provenance, params=params,
                             normalized=normalized, checks=dict(checks or {}))


def check_sln_params(s: RatFunc, t: RatFunc) -> None:
    """The explicit family's admissible parameters: s + t regular and
    nonzero at v = 1, or InvalidParams."""
    st = s + t
    if not st.is_regular_at_one() or st.eval_at_one() == 0:
        raise InvalidParams("s + t must be regular and nonzero at v = 1")


def table_cartan(series: str, rank: int, dim: int) -> CartanDatum:
    """The Cartan datum of a stored table with dim basis vectors on the
    algebra series + rank.  dim must be its adjoint dimension, compared in
    closed form (rootdata.adjoint_dim, which refuses an unknown type)
    before the rank x rank Cartan matrix is built, so reading a table costs
    work bounded by the table's own size.  A mismatch raises InvalidParams."""
    expect = adjoint_dim(series, rank)
    if dim != expect:
        raise InvalidParams(f"{series.upper()}{rank} has a {expect}-dimensional adjoint module, "
                            f"but the table has {dim} basis vectors")
    return build_cartan(series, rank)


def check_basis_labels(cd: CartanDatum, basis: list, provenance: str) -> None:
    """The label checks of a stored table (stored_table): each root of the
    algebra labels one X and each Cartan slot 1..rank one H; an
    explicit-sln table is on an A-series algebra and every X label carries
    its matrix unit ij; and an ij is two ints 1 <= i != j <= n = rank + 1
    whose root eps_i - eps_j is the label's.  A failure raises
    InvalidParams."""
    labels = _algebra_labels(cd)
    if sorted(lab.root for lab in basis if lab.kind == "X") != sorted(
            lab.root for lab in labels if lab.kind == "X" and lab.ij is None):
        raise InvalidParams("the X labels of the basis are not the roots, each once")
    if sorted(lab.index for lab in basis if lab.kind == "H") != list(range(1, cd.rank + 1)):
        raise InvalidParams(f"the H labels of the basis are not H_1 .. H_{cd.rank}, each once")
    explicit = provenance == "explicit-sln"
    if explicit and cd.series != "A":
        raise InvalidParams(f"an explicit-sln table must be on an A-series algebra, "
                            f"not {cd.series}{cd.rank}")
    units = {lab.root: lab.ij for lab in labels if lab.ij}
    for lab in basis:
        if lab.kind == "X" and (explicit or lab.ij is not None):
            name = BasisLabel("X", root=lab.root).name()
            if lab.ij is None:
                raise InvalidParams(f"{name} of an explicit-sln table has no ij")
            if units.get(lab.root) != lab.ij or any(type(x) is not int for x in lab.ij):
                raise InvalidParams(f"the ij {lab.ij} of {name} is not a position "
                                    f"1 <= i != j <= {cd.rank + 1} with that root")


def _algebra_labels(cd: CartanDatum) -> list:
    """Every label the algebra has: X_alpha of each root, then on type A
    the explicit family's basis (_sln_basis), or else H_1 .. H_rank."""
    n = cd.rank + 1
    roots = [w for _, w in root_system(cd).positive_roots]
    return [BasisLabel("X", root=w) for w in roots + [tuple(-x for x in w) for w in roots]] + (
        _sln_basis(n) if cd.series == "A" else [BasisLabel("H", index=k) for k in range(1, n)])


def _sln_basis(n: int) -> list:
    """The basis of the explicit family: X_ij for i != j in lexicographic
    order, then H_1 .. H_{n-1}."""
    return ([BasisLabel("X", root=_sln_root(n, i, j), ij=(i, j))
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            + [BasisLabel("H", index=k) for k in range(1, n)])


def _label_keys(basis: list) -> list:
    """Each basis vector's key in any basis order: X by root, H by index."""
    return [("X", lab.root) if lab.kind == "X" else ("H", lab.index) for lab in basis]


def labeled_constants(A: QuantumLieAlgebra) -> dict:
    """Constants keyed by basis labels instead of positions (_label_keys),
    so tables on differently ordered bases can be compared."""
    k = _label_keys(A.basis)
    return {(k[a], k[b], k[c]): val for (a, b, c), val in A.constants.items()}


def _moved(constants: dict, basis: list, onto: list) -> dict:
    """A table on basis rewritten on onto, the same labels (_label_keys) in
    another order: how the checks read a table in any order of its basis."""
    if basis == onto:
        return constants
    where = {key: a for a, key in enumerate(_label_keys(onto))}
    new = [where[key] for key in _label_keys(basis)]
    return {(new[a], new[b], new[c]): val for (a, b, c), val in constants.items()}


def same_algebra(A: QuantumLieAlgebra, B: QuantumLieAlgebra) -> bool:
    """Label-aware exact equality of two structure-constant tables."""
    return not sp_diff(labeled_constants(A), labeled_constants(B))


# ---------------------------------------------------------------------------
# change of basis
# ---------------------------------------------------------------------------

def _by_pair(constants: dict) -> dict:
    """A table grouped by its inputs: {(a, b): {c: value}}."""
    out = {}
    for (a, b, c), val in constants.items():
        out.setdefault((a, b), {})[c] = val
    return out


def change_basis(constants: dict, cols, inv) -> dict:
    """The table of the same bracket on a new basis:

        f'(a, b, c) = sum cols[a][a'] cols[b][b'] f(a', b', c') inv[c'][c].

    cols[a] is new basis vector a in old coordinates, {old: x}; inv[e] is
    old basis vector e in new coordinates, {new: y}.  Entries may be
    RatFunc or Fraction; zero results are dropped.  Every change of basis
    of a structure-constant table in the package goes through here.
    """
    rows = sp_grouped({(a, a0): x for a, col in cols.items() for a0, x in col.items()}, False)
    acc = {}
    for (a0, b0), col in _by_pair(constants).items():
        for a, xa in rows.get(a0, ()):
            for b, xb in rows.get(b0, ()):
                w = xa * xb
                for c0, val in col.items():
                    sp_add_to(acc, (a, b, c0), w * val)
    out = {}
    for (a, b, c0), val in acc.items():
        for c, y in inv[c0].items():
            sp_add_to(out, (a, b, c), val * y)
    return out
