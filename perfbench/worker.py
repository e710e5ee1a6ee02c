"""One benchmark process: set up, run one pass of a workload, check it.

    python3 perfbench/worker.py --workload W --seed N --t0 T [--setup-only] [--trace FILE]
    python3 perfbench/worker.py --selftest

Every pass runs in a fresh process, so no cache or pipeline carries over
from an earlier pass.  `--t0` is the `time.monotonic()` reading taken by
the parent just before it started this process; set-up time runs from
there to the first timed op.  Times are rescaled to the reference speed of
the in-process probe (speed.py); the raw wall times are reported next to
them.  The last line of standard output is one JSON object.  With
`--trace FILE` the layer tracer is installed and the spans are written to
FILE.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import sys
import time

from speed import SpeedProbe


def refuse_optimized():
    """The pipeline verifies itself with asserts, which -O strips."""
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        sys.exit("error: refusing to run with python -O or PYTHONOPTIMIZE set: "
                 "the asserts are the pipeline's self-verification")


def selftest() -> dict:
    """Spans reach calls made through `from .x import f` bindings, and the
    scalar-kernel counters count."""
    from tracer import Tracer
    from qlie import qliealg, rootdata
    tracer = Tracer()
    tracer.install()
    qliealg.generic_pipeline(rootdata.build_cartan("A", 1))
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    nested = [s for s in tracer.spans if s[2] == "tensorcg.tensor_square"
              and names.get(s[1]) == "qliealg.generic_pipeline"]
    if not nested:
        raise AssertionError("no tensorcg.tensor_square span under qliealg.generic_pipeline")
    if not tracer.counts["ratfunc_norm"]:
        raise AssertionError("qring.ratfunc_norm counted nothing")
    return {"selftest": "ok", "spans": len(tracer.spans),
            "ratfunc_norm": tracer.counts["ratfunc_norm"]}


def run_pass(workload: str, seed: int, t0: float, setup_only: bool, trace_path: str | None,
             probe: SpeedProbe) -> dict:
    import qlie  # noqa: F401  (the import is part of set-up)
    import workloads
    from tracer import Tracer, layer_metrics, merge, unit_of

    ctx = {}
    if workload == "verify":
        ctx["tables"] = workloads.load_tables()
    op_list = workloads.ops(workload, seed)
    if workload == "cli":
        # The commands run in child processes, where the speed probe cannot
        # see them; on one CPU together, the probe measures the speed they get.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if trace_path is not None and workload == "cli":
        # each command traces itself (clicmd.py) into its own file
        cmd_dir = trace_path + ".d"
        os.makedirs(cmd_dir, exist_ok=True)
        counter = itertools.count()
        ctx["next_trace"] = lambda: os.path.join(cmd_dir, f"{next(counter)}.json")
    elif trace_path is not None:
        tracer = Tracer()
        tracer.install()
    raw_setup_s = time.monotonic() - t0
    setup_s = raw_setup_s * probe.factor(probe.started, time.perf_counter())
    if setup_only:
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}

    results, windows = [], []
    for op in op_list:
        t = time.perf_counter()
        try:
            results.append(workloads.execute(op, ctx))
        except Exception as exc:  # an op that raises counts as failed
            results.append(exc)
        windows.append((t, time.perf_counter()))
    raw_wall_s = time.monotonic() - t0
    end = time.perf_counter()
    probe.stop()
    op_s = [probe.scaled(a, b) for a, b in windows]
    pass_factor = probe.factor(windows[0][0], end)
    if tracer is not None:
        records = [tracer.record()]  # before the checks below call into qlie
    elif trace_path is not None:
        records = []
        for name in sorted(os.listdir(cmd_dir), key=lambda n: int(n.split(".")[0])):
            with open(os.path.join(cmd_dir, name), encoding="utf-8") as fh:
                records.append(json.load(fh))
        shutil.rmtree(cmd_dir)

    reference = workloads.load_reference()
    failures, error_lines = [], []
    for op, res in zip(op_list, results):
        if isinstance(res, Exception):
            failures.append({"op": op["key"], "reason": f"raised {res!r}"})
            continue
        got = workloads.outcome(op, res)
        reason = workloads.check(op, res, got, reference)
        if reason is not None:
            failures.append({"op": op["key"], "reason": reason})
        ok = workloads.error_line_ok(op, got)
        if ok is not None:
            error_lines.append(ok)

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    out = {
        "setup_s": setup_s,
        "pass_s": sum(op_s),
        "wall_s": raw_wall_s * probe.factor(probe.started, end),
        "op_s": {op["key"]: dt for op, dt in zip(op_list, op_s)},
        "raw_setup_s": raw_setup_s,
        "raw_pass_s": end - windows[0][0],
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": len(op_list),
        "failed": len(failures),
        "failures": failures,
        "error_line_ok": sum(error_lines) / len(error_lines) if error_lines else 0.0,
    }
    if trace_path is not None:
        merged = merge(records)
        out["layers"] = {name: value * pass_factor if unit_of(name) == "s" else value
                         for name, value in layer_metrics(merged).items()}
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "span_fields": ["id", "parent", "name", "start", "end", "trace"],
                       "spans": merged["spans"], "counts": merged["counts"],
                       "metrics": out["layers"]}, fh)
    return out


def main() -> int:
    refuse_optimized()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=float)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        out = selftest()
    else:
        probe = SpeedProbe()
        probe.start()
        try:
            t0 = args.t0 if args.t0 is not None else time.monotonic()
            out = run_pass(args.workload, args.seed, t0, args.setup_only, args.trace, probe)
        finally:
            probe.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
