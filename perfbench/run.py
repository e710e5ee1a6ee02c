"""qlie benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: pipeline, verify, monodromy, cli
(see README.md).  Every pass is a fresh worker process, one at a time.

--trace 0 runs set-up-only workers, then passes while another pass still
fits in S seconds, and reports the end-to-end metrics: setup_s (median over
every worker), pass_s and peak_rss_mb (median over passes), and
cmd_s.p50 / cmd_s.p90 (percentiles over the ops of the list, each op taken
at its median over passes; for cli an op is one `qlie` process).

--trace 1 runs the tracer self-test, one untraced pass and one traced pass,
and reports the per-layer metrics of the traced pass together with its
pass time and the tracing overhead (traced minus untraced pass_s).  Spans
with parent ids go to .perfbench_out/.

Every op's output is checked against perfbench/reference; the last line of
standard output is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 9
WORKER_TIMEOUT = 170

sys.path.insert(0, HERE)
from worker import refuse_optimized  # noqa: E402
from tracer import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def worker(*args) -> dict:
    """Run one worker process to completion; its JSON line, plus the raw
    seconds from start to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args, "--t0", repr(t0)],
                          capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = wall
    return out


def git_commit() -> str:
    """HEAD of a git checkout in the current directory, read from .git only."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, q):
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(workload, seed, seconds):
    begin = time.monotonic()
    wargs = ["--workload", workload, "--seed", str(seed)]
    setups = [worker(*wargs, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS)]
    passes = []
    while True:
        passes.append(worker(*wargs))
        longest = max(p["elapsed_s"] for p in passes)
        if time.monotonic() - begin + longest > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    op_s = {key: statistics.median(p["op_s"][key] for p in passes) for key in passes[0]["op_s"]}
    # a command is one `qlie` process on cli, and one pass's worker process
    # (start to end of pass) elsewhere
    cmds = list(op_s.values()) if workload == "cli" else [p["wall_s"] for p in passes]
    metrics = {
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "cmd_s.p50": (quantile(cmds, 0.5), "s"),
        "cmd_s.p90": (quantile(cmds, 0.9), "s"),
    }
    detail = {"setup_samples": setups, "passes": [
        {k: p[k] for k in ("pass_s", "raw_pass_s", "setup_s", "raw_setup_s", "wall_s",
                           "raw_wall_s", "peak_rss_mb", "failed", "failures")}
        for p in passes], "op_s": op_s}
    return passes, metrics, detail


def per_layer(workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    worker("--selftest")
    wargs = ["--workload", workload, "--seed", str(seed)]
    plain = worker(*wargs)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    traced = worker(*wargs, "--trace", path)
    metrics = {name: (value, unit_of(name)) for name, value in traced["layers"].items()}
    metrics["cli.error_line_ok"] = (traced["error_line_ok"], "ratio")
    metrics["trace.pass_s"] = (traced["pass_s"], "s")
    metrics["trace.overhead_s"] = (traced["pass_s"] - plain["pass_s"], "s")
    detail = {"untraced_pass_s": plain["pass_s"], "traced_pass_s": traced["pass_s"],
              "raw_untraced_pass_s": plain["raw_pass_s"], "raw_traced_pass_s": traced["raw_pass_s"],
              "spans_file": path, "failures": plain["failures"] + traced["failures"]}
    return [plain, traced], metrics, detail


def main() -> int:
    refuse_optimized()
    p = argparse.ArgumentParser(description="qlie benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "qlie", "__init__.py")):
        sys.exit("error: run from the repository root; src/qlie is missing")
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }
    try:
        if args.trace:
            passes, metrics, detail = per_layer(args.workload, args.seed)
        else:
            passes, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for fail in (f for p in passes for f in p["failures"]):
        print(f"FAILED {fail['op']}: {fail['reason']}", file=sys.stderr)
    record = dict(context, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, detail=detail,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_frac = {failed}/{attempted}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
