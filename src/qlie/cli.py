"""Command-line interface: build, verify, compare, and export quantum Lie
algebra structure-constant tables.

Commands
--------
build    construct a table (generic pipeline or the explicit A-series
         family) and write it as JSON or as a round-trippable text form
verify   run identity checks on a constructed table, one PASS/FAIL line
         per check, exit 0 only if every selected check passes
compare  fit a generic-pipeline table to the explicit family: fitted
         (s, t), gauge scalars, and exact-match status
table    the aligned human-readable list of nonzero constants
limit    the same list evaluated at v = 1 (the classical bracket)

--s/--t are the parameters of --construction explicit-sln (with the
generic construction they are a usage error); compare has no
--construction or --normalize, and there --s/--t pin the fit.  Scalars
for --s/--t use the grammar over {q, v, integers, + - * / ^ ( )}
with q = v^2, e.g. --t "q^2/(q+1)"; every v-exponent of a parsed scalar
must stay within +-1024 (qring.MAX_SCALAR_DEGREE), and parentheses and
unary signs nest at most 64 deep (qring.MAX_SCALAR_NESTING).  Exit codes: 0 success
/ all checks pass, 1 computation, check or self-check failure, 2 usage or
parameter error, or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager

from .qring import (DenominatorVanishes, RatFunc, parse_scalar)
from .rootdata import CartanDatum, VerificationFailed, build_cartan, classical_dim
from .repbuild import DEFAULT_DIM_BUDGET, BudgetExceeded
from .tensorcg import ClassicallyZero, EmptySpace
from .qliealg import (
    BasisLabel,
    GaugeObstruction,
    InvalidParams,
    QuantumLieAlgebra,
    _sln_root,
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
    table_cartan,
)

CHECK_NAMES = ("gradation", "antisymmetry", "classical-limit", "lr-identity",
               "ad-invariance", "tau")


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


def parse_algebra(text: str, budget_dim: int | None = None) -> CartanDatum:
    """The Cartan datum named by text, like A2.  A classical type whose
    adjoint dimension (n^2 - 1 for sl_n, explicit or not) exceeds budget_dim
    raises BudgetExceeded before its Cartan matrix is built."""
    series, rank = _series_rank(text)
    if budget_dim is not None and series in ("A", "B", "C", "D"):
        dim = classical_dim(series, rank)
        if dim > budget_dim:
            raise BudgetExceeded(f"dim of the adjoint module of {series}{rank} = {dim} "
                                 f"exceeds budget {budget_dim}")
    try:
        return build_cartan(series, rank)
    except ValueError as exc:
        raise InvalidParams(str(exc)) from exc


def _parse_params(args):
    s = parse_scalar(args.s) if args.s is not None else RatFunc(1)
    t = parse_scalar(args.t) if args.t is not None else RatFunc(0)
    return s, t


def build_algebra(args) -> QuantumLieAlgebra:
    cd = parse_algebra(args.algebra, args.budget_dim)
    if args.construction == "generic":
        if args.s is not None or args.t is not None:
            raise InvalidParams("--s and --t apply only to --construction explicit-sln")
        A = build_generic(cd, args.budget_dim)
    else:
        if cd.series != "A":
            raise InvalidParams("explicit-sln requires an A-series algebra")
        try:
            s, t = _parse_params(args)
        except ValueError as exc:
            raise InvalidParams(str(exc)) from exc
        A = build_sln_explicit(cd.rank + 1, s, t)
    if args.normalize:
        A = canonical_normalize(A)
    return A


# ---------------------------------------------------------------------------
# output forms
# ---------------------------------------------------------------------------

def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _nonzero_rows(A: QuantumLieAlgebra, at_one: bool = False):
    """(name_a, name_b, name_c, value) for each nonzero constant f_ab^c in
    key order; with at_one, the exact value at v = 1, where that is nonzero."""
    names = [lab.name() for lab in A.basis]
    for (a, b, c), val in sorted(A.constants.items()):
        if val.is_zero():
            continue
        if at_one:
            val = val.eval_at_one()
            if not val:
                continue
        yield names[a], names[b], names[c], val


def build_text(A: QuantumLieAlgebra) -> str:
    """Self-contained text form: header lines carrying the algebra, the
    construction, and the basis, followed by one line per nonzero constant.
    parse_text_algebra inverts this exactly."""
    lines = [
        f"# algebra {A.cd.series}{A.cd.rank}",
        f"# construction {A.provenance}",
        f"# normalized {'yes' if A.normalized else 'no'}",
        "# basis " + " | ".join(lab.name() for lab in A.basis),
    ]
    if A.params is not None:
        lines.append(f"# params s = {A.params['s']} ; t = {A.params['t']}")
    lines += [f"f[{a},{b}]^{{{c}}} = {val}" for a, b, c, val in _nonzero_rows(A)]
    return "\n".join(lines) + "\n"


def _parse_label(name: str, n: int) -> BasisLabel:
    if name.startswith("H_"):
        return BasisLabel("H", index=int(name[2:]))
    if name.startswith("X_{(") and name.endswith(")}"):
        return BasisLabel("X", root=tuple(int(x) for x in name[4:-2].split(",")))
    if name.startswith("X_{") and name.endswith("}"):
        body = name[3:-1]
        i, j = (int(x) for x in (body.split(",") if "," in body else body))
        return BasisLabel("X", root=_sln_root(n, i, j), ij=(i, j))
    raise InvalidParams(f"cannot parse basis label {name!r}")


@contextmanager
def _naming(ln: str):
    """Raise a ValueError met while parsing the text line ln as an
    InvalidParams that names the line."""
    try:
        yield
    except InvalidParams:
        raise
    except ValueError as exc:
        raise InvalidParams(f"cannot parse line {ln!r}: {exc}") from exc


def parse_text_algebra(text: str) -> QuantumLieAlgebra:
    """Rebuild a QuantumLieAlgebra from the output of build_text.  The
    basis line must list as many vectors as the algebra's adjoint dimension,
    which is checked before its Cartan datum is built (qliealg.table_cartan)."""
    algebra = provenance = names = params = None
    normalized = False
    lines = [ln for ln in text.splitlines() if ln.strip()]
    body = []
    for ln in lines:
        if ln.startswith("# algebra "):
            algebra_line, algebra = ln, _series_rank(ln[len("# algebra "):])
        elif ln.startswith("# construction "):
            provenance = ln[len("# construction "):].strip()
        elif ln.startswith("# normalized "):
            normalized = ln.split()[-1] == "yes"
        elif ln.startswith("# basis "):
            basis_line, names = ln, ln[len("# basis "):].split(" | ")
        elif ln.startswith("# params "):
            m = re.fullmatch(r"# params s = (.*) ; t = (.*)", ln)
            if not m:
                raise InvalidParams(f"cannot parse params line {ln!r}")
            with _naming(ln):
                params = {"s": parse_scalar(m.group(1)), "t": parse_scalar(m.group(2))}
        elif not ln.startswith("#"):
            body.append(ln)
    if algebra is None or provenance is None or names is None:
        raise InvalidParams("text table lacks its header lines")
    with _naming(algebra_line):
        cd = table_cartan(*algebra, len(names))
    with _naming(basis_line):
        basis = [_parse_label(nm, cd.rank + 1) for nm in names]
    where = {nm: a for a, nm in enumerate(names)}
    constants = {}
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
        with _naming(ln):
            constants[(a, b, where[cname])] = parse_scalar(val)
    return QuantumLieAlgebra(cd, basis, constants, provenance,
                             params=params, normalized=normalized)


def constants_table(A: QuantumLieAlgebra, at_one: bool = False) -> str:
    """Aligned text table of the nonzero constants; with at_one, their
    exact values at v = 1."""
    rows = [(f"f[{a},{b}]^{{{c}}}", str(val)) for a, b, c, val in _nonzero_rows(A, at_one)]
    if not rows:
        return "(all constants zero)\n"
    width = max(len(lhs) for lhs, _ in rows)
    return "\n".join(f"{lhs.ljust(width)} = {rhs}" for lhs, rhs in rows) + "\n"


def _table_json(A: QuantumLieAlgebra, at_one: bool = False) -> list:
    return [{"a": a, "b": b, "c": c, "value": str(val)}
            for a, b, c, val in _nonzero_rows(A, at_one)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_show(args):
    """build, table and limit: the table itself, its nonzero constants, or
    their values at v = 1, in the chosen format."""
    A = build_algebra(args)
    if args.command == "build":
        text = _json_dumps(A.to_json()) if args.format == "json" else build_text(A)
    else:
        at_one = args.command == "limit"
        text = (_json_dumps(_table_json(A, at_one)) if args.format == "json"
                else constants_table(A, at_one))
    return text, 0


def _named_checks(args):
    """The checks listed by --checks, or None when it is not given."""
    if args.checks is None:
        return None
    chosen = [c.strip() for c in args.checks.split(",") if c.strip()]
    names = ", ".join(CHECK_NAMES)
    if not chosen:
        raise InvalidParams(f"--checks names no check; choose from {names}")
    for c in chosen:
        if c not in CHECK_NAMES:
            raise InvalidParams(f"unknown check {c!r}; choose from {names}")
    return chosen


def _default_checks(A: QuantumLieAlgebra) -> list:
    chosen = ["gradation", "antisymmetry", "classical-limit", "lr-identity"]
    if A.provenance == "generic-pipeline" and not A.normalized:
        chosen.append("ad-invariance")
    return chosen


def cmd_verify(args):
    chosen = _named_checks(args)
    A = build_algebra(args)
    reports = {}
    for name in chosen or _default_checks(A):
        if name == "gradation":
            reports[name] = check_gradation(A)
        elif name == "antisymmetry":
            reports[name] = check_q_antisymmetry(A)
        elif name == "classical-limit":
            rep = check_classical_limit(A, args.budget_dim)
            rep["ok"] = rep.pop("all")
            reports[name] = rep
        elif name == "lr-identity":
            reports[name] = check_lr_identity(A)
        elif name == "ad-invariance":
            reports[name] = check_ad_invariance(A, budget_dim=args.budget_dim)
        elif name == "tau":
            reports[name] = check_tau_sln(A)
    failed = [n for n, rep in reports.items() if rep["ok"] is False]
    code = 1 if failed else 0
    if args.format == "json":
        payload = {
            "algebra": f"{A.cd.series}{A.cd.rank}",
            "construction": A.provenance,
            "normalized": A.normalized,
            "checks": reports,
            "pass": not failed,
        }
        return _json_dumps(payload), code
    names = [lab.name() for lab in A.basis]
    lines = []
    for name, rep in reports.items():
        if rep["ok"] is None:
            lines.append(f"{name}: SKIP (not applicable here)")
            continue
        status = "PASS" if rep["ok"] else "FAIL"
        extra = ""
        if not rep["ok"]:
            wit = rep.get("witness")
            if wit and all(isinstance(w, int) and 0 <= w < len(names) for w in wit):
                extra = "  witness " + ",".join(names[w] for w in wit)
            elif name == "classical-limit":
                bad = [k for k, val in rep.items()
                       if val is False and k not in ("ok",)]
                extra = "  failing: " + ", ".join(sorted(bad))
            elif wit:
                extra = f"  witness {wit}"
        lines.append(f"{name}: {status}{extra}")
    lines.append("result: " + ("PASS" if not failed else "FAIL"))
    return "\n".join(lines) + "\n", code


def cmd_compare(args):
    cd = parse_algebra(args.algebra, args.budget_dim)
    if cd.series != "A":
        raise InvalidParams("compare matches against the explicit A-series family")
    if (args.s is None) != (args.t is None):
        raise InvalidParams("give both --s and --t to pin the fit, or neither")
    A = build_generic(cd, args.budget_dim)
    s = t = None
    if args.s is not None:
        try:
            s, t = parse_scalar(args.s), parse_scalar(args.t)
        except ValueError as exc:
            raise InvalidParams(str(exc)) from exc
    report = compare_to_explicit(A, s, t)
    code = 0 if report["match"] else 1
    if args.format == "json":
        return _json_dumps(report), code
    lines = [f"match: {report['match']}"]
    if report.get("fitted_s") is not None:
        lines.append(f"fitted s: {report['fitted_s']}")
        lines.append(f"fitted t: {report['fitted_t']}")
    if report.get("epsilon") is not None:
        lines.append(f"epsilon = t/s: {report['epsilon']}"
                     f"  (bar-invariant: {report.get('eps_bar_invariant')})")
    for name, val in (report.get("scalars") or {}).items():
        lines.append(f"gauge scalar {name}: {val}")
    for mis in report.get("mismatches") or []:
        lines.append(f"mismatch: {mis}")
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_options(p: argparse.ArgumentParser, builds: bool) -> None:
    """The options of one command; `builds` adds --construction and
    --normalize, which only the commands that build a table read."""
    p.add_argument("--algebra", required=True,
                   help="series letter and rank, e.g. A2, B2, G2")
    if builds:
        p.add_argument("--construction", choices=("generic", "explicit-sln"),
                       default="generic")
    p.add_argument("--s", help="parameter s for the explicit family")
    p.add_argument("--t", help="parameter t for the explicit family")
    if builds:
        p.add_argument("--normalize", action="store_true",
                       help="rescale to the canonical basis (may be obstructed)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.add_argument("--budget-dim", type=int, default=DEFAULT_DIM_BUDGET,
                   help="largest module dimension the construction may attempt "
                        "(a positive integer)")
    p.set_defaults(command_parser=p)


def _make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qlie",
        description="construct and verify quantum Lie algebra structure constants")
    sub = p.add_subparsers(dest="command", required=True)
    _add_options(sub.add_parser("build", help="construct a structure-constant table"), True)
    ver = sub.add_parser("verify", help="run identity checks, exit 0 only if all pass")
    _add_options(ver, True)
    ver.add_argument("--checks",
                     help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
    _add_options(sub.add_parser("table", help="aligned text table of nonzero constants"), True)
    _add_options(sub.add_parser("limit", help="constants evaluated at v = 1"), True)
    cmp_p = sub.add_parser("compare", help="fit a generic table to the explicit family")
    _add_options(cmp_p, False)
    cmp_p.description = ("--s/--t here pin the fit to fixed parameters "
                         "instead of solving for them")
    return p


def main(argv=None) -> int:
    # an option the command does not take is reported with that command's
    # usage line, not the top-level one
    args, extra = _make_parser().parse_known_args(argv)
    if extra:
        args.command_parser.error("unrecognized arguments: " + " ".join(extra))
    handlers = {
        "build": cmd_show,
        "verify": cmd_verify,
        "compare": cmd_compare,
        "table": cmd_show,
        "limit": cmd_show,
    }
    try:
        if args.budget_dim < 1:
            raise InvalidParams(f"--budget-dim must be a positive integer, got {args.budget_dim}")
        text, code = handlers[args.command](args)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GaugeObstruction, ClassicallyZero, EmptySpace, DenominatorVanishes,
            BudgetExceeded, VerificationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
