"""Run every workload untraced and traced and print one summary table.

    python3 perfbench/baseline.py [--seed N] [--seconds S] [--out FILE]

Run from the repository root.  For each workload this calls `run.py` with
`--trace 0` (end-to-end metrics) and `--trace 1` (per-layer metrics and
tracing overhead), prints setup_s, pass_s, peak_rss_mb, cmd_s.p50,
cmd_s.p90, fail_frac and the overhead, and with --out writes both full
records of every workload (seed, commit, Python version, nproc, load
average included) to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def record(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py {workload} --trace {trace} failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith('{"record"'):
            return json.loads(line)["record"]
    sys.exit(f"run.py {workload} printed no record")


def main() -> int:
    p = argparse.ArgumentParser(description="all workloads, one table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out")
    args = p.parse_args()
    cols = ("setup_s", "pass_s", "peak_rss_mb", "cmd_s.p50", "cmd_s.p90")
    print(f"{'workload':10}" + "".join(f"{c:>13}" for c in cols)
          + f"{'fail_frac':>11}{'traced_s':>10}{'overhead_s':>11}")
    out = {}
    for workload in WORKLOADS:
        e2e = record(workload, args.seed, args.seconds, 0)
        layers = record(workload, args.seed, args.seconds, 1)
        out[workload] = {"end_to_end": e2e, "per_layer": layers}
        m, lm = e2e["metrics"], layers["metrics"]
        print(f"{workload:10}" + "".join(f"{m[c]['value']:13.4f}" for c in cols)
              + f"{e2e['fail_frac']:11.3f}{lm['trace.pass_s']['value']:10.3f}"
              + f"{lm['trace.overhead_s']['value']:11.3f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
