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
unary signs nest at most 64 deep (qring.MAX_SCALAR_NESTING).  A scalar
that starts with "-" goes after "=", as in --t=-q: argparse takes a spaced
--t -q for an option and exits 2 with "argument --t: expected one
argument", though a bare integer such as --t -1 passes.  Exit codes: 0 success
/ all checks pass, 1 computation, check or self-check failure, 2 usage or
parameter error, or an output file that cannot be written.

One reader, _request, refuses bad input before anything is built: the
usage errors in one fixed order, then the budget, alike on every series.
No command reads a table: build writes QuantumLieAlgebra.to_json or to_text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .qring import DenominatorVanishes, RatFunc, _clip, parse_scalar
from .rootdata import (DEFAULT_DIM_BUDGET, BudgetExceeded, VerificationFailed, adjoint_dim,
                       build_cartan)
from .tensorcg import EmptySpace
from .table import (MAX_RANK_DIGITS, InvalidParams, QuantumLieAlgebra, _nonzero_rows,
                    _series_rank, check_sln_params)
from .qliealg import (
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
    generic_pipeline,
)

# The checks of `verify`, in report order: name -> report on table A with
# module budget dim, pipe the generic pipeline that built A or None.  Each
# report has "ok": True, False or None (SKIP).
CHECKS = {
    "gradation": lambda A, dim, pipe: check_gradation(A),
    "antisymmetry": lambda A, dim, pipe: check_q_antisymmetry(A),
    "classical-limit": lambda A, dim, pipe: {("ok" if k == "all" else k): v
                                             for k, v in check_classical_limit(A, dim).items()},
    "lr-identity": lambda A, dim, pipe: check_lr_identity(A),
    "ad-invariance": lambda A, dim, pipe: check_ad_invariance(A, pipe, dim),
    "tau": lambda A, dim, pipe: check_tau_sln(A),
}


def _request(args) -> argparse.Namespace:
    """The command line read into a request.  Every refusal of input is
    made here, before any Cartan matrix, module or table is built, in one
    order whatever the series.  First the usage errors (InvalidParams, exit
    2): a budget below 1, the --checks names, the algebra's name, series
    and rank, the construction against the series (and compare outside
    type A), which of --s/--t are given, each scalar, and s + t at v = 1
    (of the explicit family, or of the pair that pins compare).
    Then the budget (BudgetExceeded, exit 1) on the closed-form adjoint
    dimension, which the explicit sl_n obeys too; a rank of more than
    MAX_RANK_DIGITS digits is refused there whatever the budget, and every
    number is quoted clipped (qring._clip).  The request is args with
    checks, s and t read (None where not given; s = 1, t = 0 by default on
    the explicit family) and cd, the Cartan datum."""
    budget = args.budget_dim
    if budget < 1:
        raise InvalidParams(f"--budget-dim must be a positive integer, got {_clip(str(budget))}")
    checks = getattr(args, "checks", None)
    if checks is not None:
        checks = [c.strip() for c in checks.split(",") if c.strip()]
        names = ", ".join(CHECKS)
        if not checks:
            raise InvalidParams(f"--checks names no check; choose from {names}")
        for c in checks:
            if c not in CHECKS:
                raise InvalidParams(f"unknown check {_clip(c)!r}; choose from {names}")
    series, rank = _series_rank(args.algebra)
    try:
        dim = adjoint_dim(series, 10 if rank is None else rank)   # see _series_rank
    except ValueError as exc:
        raise InvalidParams(str(exc)) from exc
    explicit = args.command != "compare" and args.construction == "explicit-sln"
    if args.command == "compare":
        if series != "A":
            raise InvalidParams("compare matches against the explicit A-series family")
        if (args.s is None) != (args.t is None):
            raise InvalidParams("give both --s and --t to pin the fit, or neither")
    elif not explicit:
        if args.s is not None or args.t is not None:
            raise InvalidParams("--s and --t apply only to --construction explicit-sln")
    elif series != "A":
        raise InvalidParams("explicit-sln requires an A-series algebra")
    try:
        s, t = (None if x is None else parse_scalar(x) for x in (args.s, args.t))
    except ValueError as exc:
        raise InvalidParams(str(exc)) from exc
    if explicit:
        s, t = RatFunc(1) if s is None else s, RatFunc(0) if t is None else t
    if s is not None:
        check_sln_params(s, t)
    if rank is None:
        raise BudgetExceeded(f"{series}{_clip(args.algebra.strip()[1:].lstrip())} has a rank "
                             f"of more than {MAX_RANK_DIGITS} digits, refused whatever the budget")
    if dim > budget:
        raise BudgetExceeded(f"dim of the adjoint module of {series}{_clip(str(rank))} = "
                             f"{_clip(str(dim))} exceeds budget {_clip(str(budget))}")
    return argparse.Namespace(**{**vars(args), "checks": checks, "s": s, "t": t,
                                 "cd": build_cartan(series, rank)})


def build_algebra(req) -> tuple:
    """The table of a request (_request) of build, table, limit or verify,
    and the generic pipeline that built it (None for the explicit family),
    which verify hands to the ad-invariance check."""
    pipe = None
    if req.construction == "generic":
        pipe = generic_pipeline(req.cd, req.budget_dim)
        A = build_generic(req.cd, pipe=pipe)
    else:
        A = build_sln_explicit(req.cd.rank + 1, req.s, req.t)
    if req.normalize:
        A = canonical_normalize(A)
    return A, pipe


# ---------------------------------------------------------------------------
# output forms
# ---------------------------------------------------------------------------

def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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

def cmd_show(req):
    """build, table and limit: the table itself, its nonzero constants, or
    their values at v = 1, in the chosen format."""
    A, _ = build_algebra(req)
    if req.command == "build":
        text = _json_dumps(A.to_json()) if req.format == "json" else A.to_text()
    else:
        at_one = req.command == "limit"
        text = (_json_dumps(_table_json(A, at_one)) if req.format == "json"
                else constants_table(A, at_one))
    return text, 0


def _default_checks(A: QuantumLieAlgebra) -> list:
    """Every check but tau, and ad-invariance only on an unnormalized
    pipeline table: on an explicit one it builds the pipeline and a fit."""
    pipeline = A.provenance == "generic-pipeline" and not A.normalized
    return [name for name in CHECKS if name != "tau" and (pipeline or name != "ad-invariance")]


def cmd_verify(req):
    A, pipe = build_algebra(req)
    reports = {}
    for name in req.checks or _default_checks(A):
        reports[name] = CHECKS[name](A, req.budget_dim, pipe)
    failed = [n for n, rep in reports.items() if rep["ok"] is False]
    code = 1 if failed else 0
    if req.format == "json":
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


def cmd_compare(req):
    report = compare_to_explicit(build_generic(req.cd, req.budget_dim), req.s, req.t)
    code = 0 if report["match"] else 1
    if req.format == "json":
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

# the most digits --budget-dim is read with: the least limit Python sets on
# converting str to int, kept where the interpreter sets none
MAX_BUDGET_DIGITS = 4300


def _budget_dim(text: str) -> int:
    """The --budget-dim value.  Its digits are counted before int() reads
    them, as _series_rank counts a rank's, and a refusal quotes text
    clipped (qring._clip), in one short argparse error line."""
    if sum(map(str.isdigit, text)) > MAX_BUDGET_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_BUDGET_DIGITS} digits: "
                                         f"{_clip(text)!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_clip(text)!r}") from None


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
    p.add_argument("--budget-dim", type=_budget_dim, default=DEFAULT_DIM_BUDGET,
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
                     help="comma-separated subset of: " + ", ".join(CHECKS))
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
        text, code = handlers[args.command](_request(args))
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GaugeObstruction, EmptySpace, DenominatorVanishes,
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
