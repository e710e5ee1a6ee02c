"""The README's examples run and give the values it states."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import qlie
from qlie.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, lang=""):
    """The first fenced block with the given language after a heading."""
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_EXAMPLES = [shlex.split(line)[1:]
                for line in _block("## CLI").splitlines() if line.startswith("qlie ")]


def test_python_block_gives_its_commented_values():
    code = _block("## Library entry points", "python")
    ns = {}
    exec(code, ns)
    checked = []
    for line in code.splitlines():
        expr, sep, comment = line.partition("#")
        if not sep:
            continue
        expr, comment = expr.strip(), comment.strip()
        assigned = re.fullmatch(r"(\w+) = .*", expr)
        if assigned:
            # "Type, dim n" documents an assigned value
            kind, dim = re.fullmatch(r"(\w+), dim (\d+)", comment).groups()
            value = ns[assigned.group(1)]
            assert type(value).__name__ == kind and value.dim == int(dim)
        else:
            assert repr(eval(expr, ns)) == comment
        checked.append(comment)
    assert checked == ["QuantumLieAlgebra, dim 8", "True", "'(q^3) / (q^6 + q^4 + q^2 + 1)'"]


def test_cli_examples_are_the_seven_documented():
    assert len(CLI_EXAMPLES) == 7
    assert {argv[0] for argv in CLI_EXAMPLES} == {"build", "verify", "compare", "table", "limit"}


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=[" ".join(a) for a in CLI_EXAMPLES])
def test_cli_example_exits_zero(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


MODULES = ("qring", "linalg", "rootdata", "repbuild", "tensorcg", "classical",
           "table", "qliealg", "monodromy", "cli")


def _resolve(dotted):
    """The object a README name denotes: qlie.mod.attr..., or an attribute
    chain starting at a name of some qlie module."""
    parts = dotted.split(".")
    if parts[0] == "qlie":
        obj = importlib.import_module(".".join(parts[:2]))
        rest = parts[2:]
    else:
        mods = [importlib.import_module(f"qlie.{m}") for m in MODULES]
        obj = next(m for m in [qlie, *mods] if hasattr(m, parts[0]))
        rest = parts
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_every_call_the_readme_names_exists():
    names = sorted(set(re.findall(r"`([A-Za-z_][\w.]*)\(", README)))
    assert {"QuantumLieAlgebra.to_text", "QuantumLieAlgebra.from_text"} <= set(names)
    for name in names:
        assert callable(_resolve(name)), name
