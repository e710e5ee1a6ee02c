"""The four workloads: seeded op lists, how each op runs, and how its
outcome is checked against the reference recorded by `record.py`.

An op is a plain dict: `key` (its reference name), `kind`, and the
parameters of that kind.  `ops(workload, seed)` draws a seed's op list
from `universe(workload)`, so a reference exists for every op any seed can
produce.  Library calls go through module attributes at call time, so the
tracer's patched names are the ones used.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
TABLES = os.path.join(REFERENCE, "tables")
GOLDEN = os.path.join("tests", "golden")
CLICMD = os.path.join(HERE, "clicmd.py")

WORKLOADS = ("pipeline", "verify", "monodromy", "cli")

PIPELINE_TYPES = ("A3", "B2", "G2", "B3")
STORED_TABLES = ("A2", "A3", "G2", "B3")
VERIFY_TABLES = ("A3", "G2", "B3")

# (s, t) pairs for the explicit sl_n family, as the CLI's scalar grammar
# reads them.  Several have denominators that are not cyclotomic (q + 2,
# 2q - 1, q^2 + q + 3, ...); s = t pairs pass the tau check, the others
# fail antisymmetry and tau by design.
PAIRS = (
    ("1", "1"), ("1", "q"), ("3", "2"), ("q^2", "1/(q+2)"),
    ("q/(3*q-1)", "2"), ("q^-1", "(q+1)/(2*q-1)"),
    ("(q^2+1)/(q+3)", "(q^2+1)/(q+3)"), ("1/(q+2)", "1/(q+2)"),
    ("(2*q+1)/(q^2+2)", "q+1"), ("5/(q^2+4)", "1/(q^2+q+3)"),
    ("(q-3)/(q+2)", "3"), ("q^2-q+1", "5/(q^2+4)"),
)
# explicit tables that a golden file under tests/golden covers: (n, s, t)
GOLDENS = {(3, "1", "q"): "explicit_a2_s1_tq.json",
           (4, "1", "1"): "explicit_a3_s1_t1.json"}

MONODROMY_OPS = (("A2", "adjoint"), ("A3", "vector"), ("B2", "vector"),
                 ("G2", "vector"), ("A2", "ad-submodule"))
VECTOR = {"A2": (1, 0), "A3": (1, 0, 0), "B2": (1, 0), "G2": (1, 0)}

CLI_RANKS = (1, 2, 3, 4)
CLI_EXPLICIT = ("build", "table", "limit", "verify")
CLI_FIXED = (
    ("build", "--algebra", "A1", "--normalize", "--format", "json"),
    ("verify", "--algebra", "A2"),
    ("compare", "--algebra", "A2"),
    ("build", "--algebra", "A2", "--format", "json"),
    ("build", "--algebra", "A1", "--format", "json"),
    ("table", "--algebra", "A1"),
    ("limit", "--algebra", "A1"),
)
# Known defects: today each ends in a traceback instead of one `error:`
# line.  A20 is rejected by the dimension budget only after O(rank^4) work.
CLI_DEFECTS = (
    ("build", "--algebra", "A2", "--construction", "explicit-sln", "--s", "1/0"),
    ("verify", "--algebra", "E6"),
    ("verify", "--algebra", "A20"),
)
CLI_INVALID = (
    ("build", "--algebra", "Z3"),
    ("verify", "--algebra", "A1", "--checks", "foo"),
    ("table", "--algebra", "A2", "--construction", "explicit-sln", "--s", "(q"),
    ("build", "--algebra", "B2", "--construction", "explicit-sln"),
    ("compare", "--algebra", "B2"),
    ("build", "--algebra", "A2", "--construction", "explicit-sln", "--s", "1", "--t", "-1"),
)
CLI_INVALID_PER_PASS = 4
CLI_GOLDEN = {("build", "--algebra", "A1", "--normalize", "--format", "json"): "sl2q.json"}
for (_n, _s, _t), _name in GOLDENS.items():
    CLI_GOLDEN[("build", "--algebra", f"A{_n - 1}", "--construction", "explicit-sln",
                "--s", _s, "--t", _t, "--format", "json")] = _name


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

def _explicit_argv(cmd, rank, s, t):
    argv = [cmd, "--algebra", f"A{rank}", "--construction", "explicit-sln", "--s", s, "--t", t]
    if cmd == "build":
        argv += ["--format", "json"]
    return tuple(argv)


def _cli_op(argv, **extra):
    return {"key": "cli/" + " ".join(argv), "kind": "cli", "argv": list(argv), **extra}


def _explicit_op(tag, tables):
    """Build explicit sl_n tables [(n, s, t), ...] and run the checks on each."""
    key = f"verify/explicit/{tag}/" + ";".join(f"{n}:{s},{t}" for n, s, t in tables)
    return {"key": key, "kind": "explicit", "tables": [list(x) for x in tables]}


def universe(workload: str) -> list:
    """Every op that some seed can draw."""
    if workload == "pipeline":
        return [{"key": f"pipeline/{a}", "kind": "build_generic", "algebra": a}
                for a in PIPELINE_TYPES]
    if workload == "verify":
        out = [{"key": f"verify/checks/{a}", "kind": "checks", "algebra": a}
               for a in VERIFY_TABLES]
        out += [{"key": f"verify/compare/{a}", "kind": "compare", "algebra": a}
                for a in ("A2", "A3")]
        out.append(_explicit_op("golden", list(GOLDENS)))
        out += [_explicit_op(f"n{n}", [(n, s, t)]) for n in (3, 4, 5) for s, t in PAIRS]
        return out
    if workload == "monodromy":
        return [{"key": f"monodromy/{a}/{what}", "kind": "monodromy", "algebra": a,
                 "what": what} for a, what in MONODROMY_OPS]
    if workload == "cli":
        out = [_cli_op(a) for a in CLI_FIXED]
        out += [_cli_op(a, defect=True) for a in CLI_DEFECTS]
        out += [_cli_op(a, invalid=True) for a in CLI_INVALID]
        out += [_cli_op(_explicit_argv(cmd, r, s, t))
                for r in CLI_RANKS for cmd in CLI_EXPLICIT for s, t in PAIRS]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def ops(workload: str, seed: int) -> list:
    """The op list of one pass: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    every = {op["key"]: op for op in universe(workload)}
    if workload == "pipeline":
        out = [every[f"pipeline/{a}"] for a in PIPELINE_TYPES]
        rng.shuffle(out)
        return out
    if workload == "verify":
        out = [op for op in every.values() if op["kind"] in ("checks", "compare")]
        out += [op for op in every.values() if op["key"].startswith("verify/explicit/golden/")]
        # the seeded tables form one op, checked against the references of its parts
        draws = [(n, *rng.choice(PAIRS)) for n in (3, 4, 5)]
        parts = [_explicit_op(f"n{d[0]}", [d])["key"] for d in draws]
        out.append(_explicit_op("seeded", draws) | {"parts": parts})
        return out
    if workload == "monodromy":
        out = list(every.values())
        rng.shuffle(out)
        return out
    out = [every["cli/" + " ".join(a)] for a in CLI_FIXED + CLI_DEFECTS]
    out += rng.sample([every["cli/" + " ".join(a)] for a in CLI_INVALID], CLI_INVALID_PER_PASS)
    for r in CLI_RANKS:
        for cmd in CLI_EXPLICIT:
            s, t = rng.choice(PAIRS)
            out.append(every["cli/" + " ".join(_explicit_argv(cmd, r, s, t))])
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# running ops (timed) and summarising their outcomes (untimed)
# ---------------------------------------------------------------------------

def canonical_json(A) -> str:
    """The bytes `qlie build --format json` writes for a table."""
    return json.dumps(A.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def _plain(x):
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((_plain(v) for v in x), key=json.dumps)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return str(x)


def digest(obj) -> str:
    if not isinstance(obj, str):
        obj = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(obj.encode()).hexdigest()


def load_tables() -> dict:
    """Stored generic tables, parsed with `from_json` (part of set-up)."""
    from qlie import qliealg
    out = {}
    for name in STORED_TABLES:
        with open(os.path.join(TABLES, f"generic_{name}.json"), encoding="utf-8") as fh:
            out[name] = qliealg.QuantumLieAlgebra.from_json(json.load(fh))
    return out


def _cartan(name):
    from qlie import rootdata
    return rootdata.build_cartan(name[0], int(name[1:]))


def _explicit_reports(E):
    from qlie import qliealg
    return {
        "gradation": qliealg.check_gradation(E),
        "antisymmetry": qliealg.check_q_antisymmetry(E),
        "lr-identity": qliealg.check_lr_identity(E),
        "classical-limit": qliealg.check_classical_limit(E),
        "tau": qliealg.check_tau_sln(E),
    }


def execute(op: dict, ctx: dict):
    """Run one op; its return value is summarised by `outcome`."""
    from qlie import monodromy, qliealg, qring, repbuild
    kind = op["kind"]
    if kind == "build_generic":
        return qliealg.build_generic(_cartan(op["algebra"]))
    if kind == "checks":
        # the default check set of `qlie verify` on a raw generic table
        A = ctx["tables"][op["algebra"]]
        return {
            "gradation": qliealg.check_gradation(A),
            "antisymmetry": qliealg.check_q_antisymmetry(A),
            "classical-limit": qliealg.check_classical_limit(A, 64),
            "lr-identity": qliealg.check_lr_identity(A),
            "ad-invariance": qliealg.check_ad_invariance(A, budget_dim=64),
        }
    if kind == "compare":
        return qliealg.compare_to_explicit(ctx["tables"][op["algebra"]])
    if kind == "explicit":
        out = []
        for n, s, t in op["tables"]:
            E = qliealg.build_sln_explicit(n, qring.parse_scalar(s), qring.parse_scalar(t))
            out.append((E, _explicit_reports(E)))
        return out
    if kind == "monodromy":
        cd = _cartan(op["algebra"])
        if op["what"] == "adjoint":
            V = repbuild.adjoint_module(cd)
            return monodromy.monodromy_on_tensor(V, V)
        V = repbuild.build_irrep(cd, VECTOR[op["algebra"]])
        M = monodromy.monodromy_on_tensor(V, V)
        if op["what"] == "ad-submodule":
            return M, monodromy.verify_ad_submodule(M, V, V)
        return M
    if kind == "cli":
        next_trace = ctx.get("next_trace")
        return run_cli(op["argv"], next_trace() if next_trace else None)
    raise ValueError(f"unknown op kind {kind!r}")


def run_cli(argv, trace_path=None):
    """One command in a fresh process: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    if trace_path is None:
        cmd = [sys.executable, "-m", "qlie.cli", *argv]
    else:
        cmd = [sys.executable, CLICMD, trace_path, *argv]
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def stderr_form(err: bytes) -> str:
    text = err.decode("utf-8", "replace")
    lines = text.splitlines()
    if not lines:
        return "empty"
    if len(lines) == 1 and lines[0].startswith("error: "):
        return "error_line"
    if lines[0].startswith("Traceback"):
        return "traceback:" + lines[-1].split(":", 1)[0]
    return "other"


def _monodromy_digest(M):
    entries = sorted((r, c, str(x)) for (r, c), x in M.matrix.items())
    return digest({"matrix": entries, "dim": M.dim, "shift": M.shift,
                   "exponents": sorted((list(k), str(v)) for k, v in M.exponents.items()),
                   "checks": M.checks})


def outcome(op: dict, result) -> dict:
    """A JSON summary of an op's result, compared with the reference."""
    kind = op["kind"]
    if kind == "build_generic":
        return {"sha256": digest(canonical_json(result))}
    if kind in ("checks", "compare"):
        return {"report": _plain(result)}
    if kind == "explicit":
        return {"tables": [{"sha256": digest(canonical_json(E)), "report": _plain(rep)}
                           for E, rep in result]}
    if kind == "monodromy":
        if op["what"] == "ad-submodule":
            M, rep = result
            return {"matrix": _monodromy_digest(M), "report": _plain(rep)}
        return {"matrix": _monodromy_digest(result)}
    code, out, err = result
    return {"code": code, "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "stderr": stderr_form(err)}


def load_reference() -> dict:
    with open(os.path.join(REFERENCE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _golden(name):
    from qlie import qliealg
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return qliealg.QuantumLieAlgebra.from_json(json.load(fh))


def expected_of(op: dict, reference: dict):
    if "parts" in op:
        parts = [reference.get(k) for k in op["parts"]]
        if any(p is None for p in parts):
            return None
        return {"tables": [t for p in parts for t in p["tables"]]}
    return reference.get(op["key"])


def check(op: dict, result, got: dict, reference: dict) -> str | None:
    """None if the op's outcome is correct, else a one-line reason."""
    want = expected_of(op, reference)
    if want is None:
        return "no reference for this op"
    if op["kind"] == "cli":
        if op.get("defect") and got["stderr"] == "error_line" and got["code"] in (1, 2):
            return None  # the defect fixed: one error line, documented code
        if got != want:
            return f"expected {want}, got {got}"
        argv = tuple(op["argv"])
        if argv in CLI_GOLDEN:
            from qlie import qliealg
            A = qliealg.QuantumLieAlgebra.from_json(json.loads(result[1]))
            if not qliealg.same_algebra(A, _golden(CLI_GOLDEN[argv])):
                return f"differs from golden {CLI_GOLDEN[argv]}"
        return None
    if got != want:
        return f"expected {want}, got {got}"
    if op["kind"] == "explicit":
        from qlie import qliealg
        for (n, s, t), (E, _) in zip(op["tables"], result):
            name = GOLDENS.get((n, s, t))
            if name and not qliealg.same_algebra(E, _golden(name)):
                return f"differs from golden {name}"
    return None


def error_line_ok(op: dict, got: dict) -> bool | None:
    """For invalid-input commands: did the command end in one `error:` line?"""
    if op["kind"] != "cli" or not (op.get("invalid") or op.get("defect")):
        return None
    return got["stderr"] == "error_line" and got["code"] != 0
