"""The table module: its layering, its label names, its two stored forms
and the stored-table constructor's refusals."""

import ast
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from qlie import table
from qlie.monodromy import check_concrete, monodromy_on_tensor
from qlie.qliealg import build_generic, build_sln_explicit, canonical_normalize
from qlie.qring import RF_ZERO, RatFunc, parse_scalar
from qlie.rootdata import build_cartan, root_system, simple_roots
from qlie.repbuild import IrrepModule, adjoint_module, build_irrep
from qlie.table import BasisLabel, InvalidParams, QuantumLieAlgebra, same_algebra

from conftest import load_golden, name_to_cartan
from oracles import replaced


def test_table_imports_only_the_scalar_root_and_linear_algebra_layers():
    """The table is the layer the constructions, the checks and the CLI
    build on, so it may not import them: no qliealg, tensorcg, repbuild,
    classical, monodromy or cli, and no import inside a function."""
    path = Path(table.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)
    modules = {alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {"." * node.level + (node.module or "") for node in imports
                if isinstance(node, ast.ImportFrom)}
    assert modules <= {"__future__", "contextlib", "functools", "re", "typing", ".qring",
                       ".rootdata", ".linalg"}, modules


VALUES = {  # a value to build twice (root_system uncached), and one of its fields
    "cartan": (lambda: build_cartan("A", 2), "rank"),
    "root-system": (lambda: root_system.__wrapped__(build_cartan("B", 2)), "highest_root"),
    "x-label": (lambda: BasisLabel("X", root=(1, 1)), "root"),
    "h-label": (lambda: BasisLabel("H", index=1), "index"),
}


@pytest.mark.parametrize("make, field", VALUES.values(), ids=VALUES)
def test_value_types_are_immutable_and_compare_by_value(make, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    assert a == b


def test_value_type_text_is_unchanged():
    # error messages quote these reprs
    assert str(build_cartan("A", 2)) == "A2"
    assert repr(build_cartan("A", 2)) == \
        "CartanDatum(series='A', rank=2, cartan=((2, -1), (-1, 2)), d=(1, 1))"
    assert repr(BasisLabel("X", root=(1, 1))) == \
        "BasisLabel(kind='X', root=(1, 1), index=None, ij=None)"
    assert repr(BasisLabel("H", index=1)) == "BasisLabel(kind='H', root=None, index=1, ij=None)"


def test_records_get_a_fresh_default_dict():
    cd = build_cartan("A", 1)
    basis = [BasisLabel("X", root=(2,)), BasisLabel("H", index=1), BasisLabel("X", root=(-2,))]
    A, B = (QuantumLieAlgebra(cd, basis, {}, "generic-pipeline") for _ in range(2))
    A.checks["gradation"] = True
    assert A.checks is not B.checks and B.checks == {}
    V, W = (IrrepModule(cd, (0,), [()], [None], [(0,)], {}, {}, {}, {}) for _ in range(2))
    V.weight_basis[(0,)] = [0]
    assert V.weight_basis is not W.weight_basis and W.weight_basis == {}


@pytest.mark.parametrize("n", [3, 11, None], ids=["A2-explicit", "A10-explicit", "B2-generic"])
def test_from_text_reads_each_label_by_its_name(generics, n):
    # A10 has two-digit matrix units, written X_{i,j}
    A = generics["B2"] if n is None else build_sln_explicit(n, 1, 0)
    assert QuantumLieAlgebra.from_text(A.to_text()).basis == A.basis


@pytest.mark.parametrize("old,new", [("| H_1 |", "| H_\u0661 |"), ("| H_1 |", "| H_+1 |"),
                                     ("| H_1 |", "| H_ 1 |"), ("| H_10", "| H_1_0")],
                         ids=["arabic-indic", "sign", "space", "underscore"])
def test_a_label_name_the_algebra_never_writes_is_refused(old, new):
    # int() read each of these as the index of an H label: H_1, or H_10
    text = build_sln_explicit(11, 1, 0).to_text()
    assert old in text
    label = new.strip("| ")
    with pytest.raises(InvalidParams,
                       match="^" + re.escape(f"cannot parse basis label {label!r}") + "$"):
        QuantumLieAlgebra.from_text(text.replace(old, new))


def _edit(golden_dir, name, edit):
    blob = load_golden(golden_dir, name)
    edit(blob)
    return blob


GENERIC, EXPLICIT = "sl2q.json", "explicit_a2_s1_tq.json"
REFUSED = {
    # each loaded at the parent of the constructor, or failed with another error
    "provenance": (GENERIC, lambda b: b.update(provenance="pipeline"),
                   "the construction 'pipeline' is not one of generic-pipeline, explicit-sln"),
    "no-provenance": (GENERIC, lambda b: b.pop("provenance"),
                      "the construction None is not one of"),
    "normalized-str": (GENERIC, lambda b: b.update(normalized="no"),
                       "the normalized flag 'no' is not a bool"),
    "no-normalized": (GENERIC, lambda b: b.pop("normalized"),
                      "the normalized flag None is not a bool"),
    "no-params": (EXPLICIT, lambda b: b.pop("params"),
                  re.escape("explicit-sln tables have the params ['s', 't'], not None") + "$"),
    "other-params": (EXPLICIT, lambda b: b.update(params={"zz": b["params"]["s"]}),
                     re.escape("explicit-sln tables have the params ['s', 't'], not ['zz']")),
    # a bare TypeError: the list passed the check of the sorted keys
    "params-list": (EXPLICIT, lambda b: b.update(params=["s", "t"]),
                    re.escape("the params of a stored table are not a JSON object: ['s', 't']")
                    + "$"),
    # check_classical_limit raised DenominatorVanishes on it
    "pole-params": (EXPLICIT, lambda b: b["params"].update(s={"num": {"0": "1"},
                                                               "den": {"0": "-1", "2": "1"}}),
                    "s \\+ t must be regular and nonzero at v = 1$"),
    "generic-params": (GENERIC, lambda b: b.update(params={"s": b["constants"][0]["value"]}),
                       re.escape("generic-pipeline tables have the params None, not ['s']")),
    "no-cartan": (GENERIC, lambda b: b.pop("cartan"),
                  "the stored table has no field 'cartan' of type dict$"),
    "no-c": (GENERIC, lambda b: b["constants"][0].pop("c"), "a constant has no field 'c'$"),
    "rank-str": (GENERIC, lambda b: b["cartan"].update(rank="x"),
                 re.escape("cannot parse the cartan: the rank 'x' is not an int") + "$"),
    "rank-float": (GENERIC, lambda b: b["cartan"].update(rank=1.5),     # loaded as A1
                   re.escape("cannot parse the cartan: the rank 1.5 is not an int") + "$"),
    # int(str(rank)) reads these three as 1; a JSON true is an int to isinstance
    "rank-digit-str": (GENERIC, lambda b: b["cartan"].update(rank="1"),
                       re.escape("cannot parse the cartan: the rank '1' is not an int") + "$"),
    "rank-signed-str": (GENERIC, lambda b: b["cartan"].update(rank="+1"),
                        re.escape("cannot parse the cartan: the rank '+1' is not an int") + "$"),
    "rank-spaced-str": (GENERIC, lambda b: b["cartan"].update(rank=" 1"),
                        re.escape("cannot parse the cartan: the rank ' 1' is not an int") + "$"),
    "rank-bool": (GENERIC, lambda b: b["cartan"].update(rank=True),
                  re.escape("cannot parse the cartan: the rank True is not an int") + "$"),
    "series-Z": (GENERIC, lambda b: b["cartan"].update(series="Z"),
                 "cannot parse the cartan: unknown series 'Z'$"),
    "E99": (GENERIC, lambda b: b["cartan"].update(series="E", rank=99),
            re.escape("cannot parse the cartan: E requires rank in {6, 7, 8}")),
    "checks-list": (GENERIC, lambda b: b.update(checks=[1]),
                    re.escape("the checks of a stored table are not a JSON object: [1]")),
    "constant-list": (GENERIC, lambda b: b["constants"].append([0, 0, 0]),
                      "a constant is not a JSON object$"),
    "index-list": (GENERIC, lambda b: b["constants"][0].update(a=[0]),
                   re.escape("a constant index lies outside the basis range(0, 3)")),
    "x-root-twice": (GENERIC, lambda b: b["basis"][2].update(root=[2]),
                     "the X labels of the basis are not the roots, each once$"),
    "h-index-0": (GENERIC, lambda b: b["basis"][1].update(index=0),
                  re.escape("the H labels of the basis are not H_1 .. H_1, each once") + "$"),
    "ij-other-root": (EXPLICIT, lambda b: b["basis"][0].update(ij=[2, 1]),
                      re.escape("the ij (2, 1) of X_{(2,-1)} is not a position 1 <= i != j <= 3 "
                                "with that root") + "$"),
    "no-ij": (EXPLICIT, lambda b: b["basis"][0].pop("ij"),
              re.escape("X_{(2,-1)} of an explicit-sln table has no ij") + "$"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_stored_json_table_refuses_each_malformed_field(golden_dir, name):
    golden, edit, message = REFUSED[name]
    with pytest.raises(InvalidParams, match="^" + message):
        QuantumLieAlgebra.from_json(_edit(golden_dir, golden, edit))


def test_a_stored_table_is_a_json_object():
    with pytest.raises(InvalidParams, match="^the stored table is not a JSON object$"):
        QuantumLieAlgebra.from_json([1])


# ------------------------------------- the same refusals for a table built in memory

def _relabelled(a, **fields):
    """Changes that give basis label a these fields."""
    return lambda A: {"basis": [lab._replace(**fields) if i == a else lab
                                for i, lab in enumerate(A.basis)]}


def _minus_alpha1_doubled(A):
    """Changes that relabel X_-a1 as X_-2a1, which is no root."""
    minus = tuple(-c for c in simple_roots(A.cd)[0])
    a = next(a for a, lab in enumerate(A.basis) if lab.root == minus)
    return _relabelled(a, root=tuple(2 * c for c in minus))(A)


X_ROOTS = "the X labels of the basis are not the roots, each once$"
BUILT_REFUSED = {
    # name: (the table, the constructor arguments changed, the refusal); a
    # refusal of None is that of the stored case of the same name (REFUSED)
    "provenance": (GENERIC, lambda A: {"provenance": "pipeline"}, None),
    "no-provenance": (GENERIC, lambda A: {"provenance": None}, None),
    "normalized-str": (GENERIC, lambda A: {"normalized": "no"}, None),
    "no-normalized": (GENERIC, lambda A: {"normalized": None}, None),
    "no-params": (EXPLICIT, lambda A: {"params": None}, None),
    "other-params": (EXPLICIT, lambda A: {"params": {"zz": A.params["s"]}}, None),
    "params-list": (EXPLICIT, lambda A: {"params": ["s", "t"]}, None),
    "pole-params": (EXPLICIT, lambda A: {"params": {**A.params,
                                                    "s": 1 / parse_scalar("q - 1")}}, None),
    "generic-params": (GENERIC, lambda A: {"params": {"s": RatFunc(1)}}, None),
    "checks-list": (GENERIC, lambda A: {"checks": [1]}, None),
    "x-root-twice": (GENERIC, _relabelled(2, root=(2,)), None),
    "h-index-0": (GENERIC, _relabelled(1, index=0), None),
    "ij-other-root": (EXPLICIT, _relabelled(0, ij=(2, 1)), None),
    "no-ij": (EXPLICIT, _relabelled(0, ij=None), None),
    "explicit-B2": ("B2", lambda A: {"provenance": "explicit-sln"},
                    "an explicit-sln table must be on an A-series algebra, not B2$"),
    # compare_to_explicit reported "root systems differ"
    "A2-root-as-H_9": ("A2", _relabelled(0, kind="H", root=None, index=9), X_ROOTS),
    # check_lr_identity gave the witness [X_a1]; check_classical_limit and
    # check_ad_invariance raised KeyError
    "A2-minus-alpha1-doubled": ("A2", _minus_alpha1_doubled, X_ROOTS),
    "B2-minus-alpha1-doubled": ("B2", _minus_alpha1_doubled, X_ROOTS),
    # normalized, with no oracle: acts_as_coroot found no X_-a1
    "explicit-normalized-minus-alpha1-doubled": (
        EXPLICIT, lambda A: {**_minus_alpha1_doubled(A), "normalized": True}, X_ROOTS),
}


@pytest.mark.parametrize("name", BUILT_REFUSED)
def test_a_table_built_in_memory_is_refused_as_a_stored_one(golden_dir, generics, name):
    source, changes, message = BUILT_REFUSED[name]
    A = (QuantumLieAlgebra.from_json(load_golden(golden_dir, source))
         if source.endswith(".json") else generics[source])
    with pytest.raises(InvalidParams, match="^" + (message or REFUSED[name][2])) as built:
        replaced(A, **changes(A))
    if message is None:
        golden, edit, _ = REFUSED[name]
        with pytest.raises(InvalidParams) as stored:
            QuantumLieAlgebra.from_json(_edit(golden_dir, golden, edit))
        assert str(stored.value) == str(built.value)


def _calls(node, name):
    """The calls of the function name below an ast node."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_only_the_constructor_checks_the_labels():
    """Every table holds exactly its algebra's labels, however it is made,
    because the one check of them runs in QuantumLieAlgebra.__init__."""
    calls, init = [], None
    for path in Path(table.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls += _calls(tree, "check_basis_labels")
        init = init or next((f for c in tree.body if isinstance(c, ast.ClassDef)
                             and c.name == "QuantumLieAlgebra"
                             for f in c.body if getattr(f, "name", None) == "__init__"), None)
    assert len(calls) == 1 and calls == _calls(init, "check_basis_labels")


# ------------------------------------------- a long input is quoted clipped

LONG = "x" * 5000
LONG_TEXT = {  # a refusal of a text table, its start, and the text edited
    "repeated-header": ("the text table repeats its algebra line",
                        lambda t: t.replace("# algebra A2", "# algebra A2\n# algebra A" + LONG)),
    "params-line": ("cannot parse params line",
                    lambda t: t.replace("# params s = 1 ; t = q", "# params " + LONG)),
    "params-value": ("cannot parse line '# params s = xxx",
                     lambda t: t.replace("s = 1 ;", f"s = {LONG} ;")),
    "table-line": ("cannot parse table line", lambda t: t + "f[" + LONG + "\n"),
    "table-labels": ("unknown basis labels in line",
                     lambda t: t + "f[X_{12},X_{21}]^{" + LONG + "} = 1\n"),
    "table-value": ("cannot parse line 'f[X_{12},X_{21}]^{H_1} = 1xxx",
                    lambda t: t.replace("^{H_1} = q^2 + 1", "^{H_1} = 1" + LONG)),
    "basis-name": ("cannot parse basis label 'xxx", lambda t: t.replace("X_{13} |", LONG + " |")),
}
LONG_JSON = {  # a refusal of a JSON table, its start, and the edit of the blob
    "provenance": ("the construction 'xxx", lambda b: b.update(provenance=LONG)),
    "normalized": ("the normalized flag 'xxx", lambda b: b.update(normalized=LONG)),
    "params": ("the params of a stored table are not a JSON object: ['xxx",
               lambda b: b.update(params=[LONG, LONG])),
    "params-keys": ("explicit-sln tables have the params ['s', 't'], not ['s', 't', 'xxx",
                    lambda b: b["params"].update({LONG: b["params"]["s"]})),
    "checks": ("the checks of a stored table are not a JSON object: ['xxx",
               lambda b: b.update(checks=[LONG, LONG])),
    "label": ("the basis label {'ij': [1, 2], 'label': 'xxx",
              lambda b: b["basis"][0].update(label=LONG)),
    "ij": ("the ij (1, 1, 1", lambda b: b["basis"][0].update(ij=[1] * 5000)),
    "rank": ("cannot parse the cartan: the rank 'xxx", lambda b: b["cartan"].update(rank=LONG)),
    "parameter-name": ("the parameter xxx", lambda b: b["params"].update({LONG: "1"})),
    "constant": ("the constant [xxx", lambda b: b["constants"].append(
        {"a": LONG, "b": 0, "c": 0, "value": "1"})),
}


@pytest.mark.parametrize("name", [*LONG_TEXT, *LONG_JSON])
def test_a_refusal_quotes_a_long_input_clipped(golden_dir, name):
    blob = load_golden(golden_dir, EXPLICIT)
    if name in LONG_TEXT:
        says, edit = LONG_TEXT[name]
        read, stored = QuantumLieAlgebra.from_text, edit(QuantumLieAlgebra.from_json(blob).to_text())
    else:
        (says, edit), read, stored = LONG_JSON[name], QuantumLieAlgebra.from_json, blob
        edit(blob)
    with pytest.raises(InvalidParams) as exc:
        read(stored)
    assert str(exc.value).startswith(says) and len(str(exc.value)) < 250, str(exc.value)[:300]


# ------------------------------------------------ no zero constants, however a table is built

def test_a_zero_constant_is_dropped_however_the_table_is_built():
    # before, a stored zero [X_(2), X_(2)]^X_(2) was kept: canonical_normalize took
    # it for a root-root-to-root constant and asked for a square root missing
    # from Q(v), and check_concrete divided by it
    cd = name_to_cartan("A1")
    V = build_irrep(cd, (1,))
    M, A = monodromy_on_tensor(V, adjoint_module(cd, V.dim ** 2)), build_generic(cd)
    assert A.basis[0].name() == "X_{(2)}"
    blob = A.to_json()
    blob["constants"].append({"a": 0, "b": 0, "c": 0, "value": {"num": {}, "den": {"0": "1"}}})
    text = A.to_text() + "f[X_{(2)},X_{(2)}]^{X_{(2)}} = 0\n"
    rebuilt = replaced(A, constants={**A.constants, (0, 0, 0): RF_ZERO})
    want = (json.dumps(A.to_json()), json.dumps(canonical_normalize(A).to_json()),
            check_concrete(M, A))
    for B in (QuantumLieAlgebra.from_json(blob), QuantumLieAlgebra.from_text(text), rebuilt):
        assert B.constants == A.constants
        assert (json.dumps(B.to_json()), json.dumps(canonical_normalize(B).to_json()),
                check_concrete(M, B)) == want


# ------------------------------------------------------------------- the text form

TEXT_PINS = {  # a table, the lines of its text form and their sha256
    "G2-generic": (lambda generics: generics["G2"], 136,
                   "86cefc744aee966a5e9f54df36a1224f21f170ebab62369d0727a760b5104f6b"),
    "A2-explicit-1-q": (lambda generics: build_sln_explicit(3, 1, parse_scalar("q")), 61,
                        "493251223617d503d70a04e040dafeda6cff9720e20e234b26810bc3af130c26"),
    "A1-normalized": (lambda generics: canonical_normalize(generics["A1"]), 11,
                      "495de98232867bb4e8219d974477c190da6c179df948048d6da5898b98e58854"),
}


@pytest.mark.parametrize("name", TEXT_PINS)
def test_text_form_bytes_are_pinned_and_read_back(generics, name):
    # the bytes `qlie build` prints; no benchmark workload writes this form
    make, lines, digest = TEXT_PINS[name]
    A = make(generics)
    text = A.to_text()
    assert (text.count("\n"), hashlib.sha256(text.encode()).hexdigest()) == (lines, digest)
    B = QuantumLieAlgebra.from_text(text)
    assert same_algebra(B, A) and B.to_text() == text


@pytest.mark.parametrize("value", ["5", "equal", "0"])
@pytest.mark.parametrize("form", ["json", "text"])
def test_a_constant_listed_twice_is_refused(golden_dir, form, value):
    # before, the last entry was read: a second [0, 1, 0] of value 5 loaded a
    # table of 7 constants that was not the stored one
    blob = load_golden(golden_dir, GENERIC)
    A = QuantumLieAlgebra.from_json(blob)
    val = A.constants[0, 1, 0] if value == "equal" else RatFunc(int(value))
    blob["constants"].append({"a": 0, "b": 1, "c": 0, "value": val.to_json()})
    text = A.to_text() + f"f[X_{{(2)}},H_1]^{{X_{{(2)}}}} = {val}\n"
    with pytest.raises(InvalidParams, match=r"^the constant \[0, 1, 0\] is listed twice$"):
        QuantumLieAlgebra.from_json(blob) if form == "json" else QuantumLieAlgebra.from_text(text)


@pytest.mark.parametrize("bad", ["q^", "1/0", "(q+1", "q^2000"])
def test_a_malformed_value_on_two_lines_is_refused_naming_the_first(bad):
    # the reader parses each distinct value text once, at its first line
    text = build_sln_explicit(2, 1, 0).to_text()
    rows = [ln for ln in text.splitlines() if ln.startswith("f[")]
    first, second = (f"{ln.rsplit(' = ', 1)[0]} = {bad}" for ln in rows[:2])
    text = text.replace(rows[0], first).replace(rows[1], second)
    with pytest.raises(InvalidParams, match=f"^cannot parse line {re.escape(repr(first))}: "):
        QuantumLieAlgebra.from_text(text)


@pytest.mark.parametrize("rank,says", [
    ("9" * 2200, "a rank of more than 300 digits"),
    ("9" * 5000, "a rank of more than 300 digits"),   # read with Python's int() wording
    ("9" * 300, "-dimensional adjoint module, but the table has 3 basis vectors"),
    ("0" * 5000 + "2", "A2 has a 8-dimensional adjoint module"),
])
def test_a_long_rank_in_the_algebra_line_is_refused_in_one_short_message(rank, says):
    text = build_sln_explicit(2, 1, 0).to_text().replace("# algebra A1", f"# algebra A{rank}")
    with pytest.raises(InvalidParams) as exc:
        QuantumLieAlgebra.from_text(text)
    assert says in str(exc.value) and len(str(exc.value)) < 250, str(exc.value)[:300]
    assert "set_int_max_str_digits" not in str(exc.value)


@pytest.mark.parametrize("header", ["algebra", "construction", "normalized", "basis", "params"])
def test_a_repeated_header_line_is_refused(header):
    # before, the last one was read: "# normalized no" then "# normalized yes"
    # loaded a normalized table
    text = build_sln_explicit(2, 1, 0).to_text()
    line = next(ln for ln in text.splitlines() if ln.startswith(f"# {header} "))
    again = "# normalized yes" if header == "normalized" else line
    with pytest.raises(InvalidParams, match="^the text table repeats its "
                                            f"{header} line: {re.escape(repr(again))}$"):
        QuantumLieAlgebra.from_text(text.replace(line, line + "\n" + again))


# ---------------------------------------------- a structural corpus for both stored forms

JSON_VALUES = [None, True, 0, 1.5, "x", [], {}]   # one of each JSON type
DROP = object()


def _paths(node, path=()):
    """The path of every field below a JSON value: object keys and list
    positions."""
    fields = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in fields:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _json_mutant(blob, path, new):
    """A copy of blob with the field at path dropped (DROP) or replaced by new."""
    copy = json.loads(json.dumps(blob))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return copy


def _respelled(name):
    """name with one of its digit runs respelled: in Arabic-Indic digits,
    with a sign, a space or a leading 0_, each read by int() as the run."""
    for m in re.finditer(r"[0-9]+", name):
        run = m[0]
        for new in ("".join(chr(0x660 + int(d)) for d in run), "+" + run, " " + run,
                    "0_" + run):
            yield name[:m.start()] + new + name[m.end():]


def _text_mutants(text):
    """(what, text, must_refuse) for each line dropped, repeated or halved,
    and each basis label respelled everywhere it appears."""
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        for what, new, refuse in (("dropped", [], False), ("repeated", [ln, ln], True),
                                  ("halved", [ln[:len(ln) // 2]], False)):
            yield f"line {i} {what}", "\n".join(lines[:i] + new + lines[i + 1:]) + "\n", refuse
    names = next(ln for ln in lines if ln.startswith("# basis ")).split(" ", 2)[2].split(" | ")
    for name in names:
        for new in _respelled(name):
            yield f"{name} as {new!r}", text.replace(name, new), True


def _reads(read, stored):
    """The table read, or the InvalidParams refusing it; any other
    exception escapes."""
    try:
        return read(stored)
    except InvalidParams as exc:
        return exc


CORPUS_SAMPLE = 150   # mutants of the explicit A2 golden per form, fixed seed


def _sampled(cases, golden):
    return random.Random(1).sample(cases, CORPUS_SAMPLE) if golden == EXPLICIT else cases


@pytest.mark.parametrize("golden", [GENERIC, EXPLICIT])
def test_every_json_mutant_is_refused_or_read(golden_dir, golden):
    blob = load_golden(golden_dir, golden)
    cases = [(path, new) for path in _paths(blob) for new in [DROP, *JSON_VALUES]]
    for path, new in _sampled(cases, golden):
        out = _reads(QuantumLieAlgebra.from_json, _json_mutant(blob, path, new))
        assert isinstance(out, (InvalidParams, QuantumLieAlgebra)), (path, new)


@pytest.mark.parametrize("golden", [GENERIC, EXPLICIT])
def test_every_text_mutant_is_refused_or_read_and_each_repeat_or_respelling_refused(
        golden_dir, golden):
    text = QuantumLieAlgebra.from_json(load_golden(golden_dir, golden)).to_text()
    for what, stored, refuse in _sampled(list(_text_mutants(text)), golden):
        want = InvalidParams if refuse else (InvalidParams, QuantumLieAlgebra)
        assert isinstance(_reads(QuantumLieAlgebra.from_text, stored), want), what
