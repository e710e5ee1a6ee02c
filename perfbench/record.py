"""Record the reference outputs of every op at the current commit.

    PYTHONPATH=src python3 perfbench/record.py

Run from the repository root.  Writes the stored generic tables that the
`verify` workload loads (`reference/tables/generic_<type>.json`, the bytes
`qlie build --format json` prints) and `reference/expected.json`: for every
op any seed can draw, the sha256 of its canonical output and of its check
reports, or for a CLI command its exit code, stdout sha256 and stderr form.
Ops that a golden file under `tests/golden` covers must also match it.
Re-record only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def main() -> int:
    from qlie import qliealg, rootdata
    os.makedirs(workloads.TABLES, exist_ok=True)
    for name in workloads.STORED_TABLES:
        A = qliealg.build_generic(rootdata.build_cartan(name[0], int(name[1:])))
        with open(os.path.join(workloads.TABLES, f"generic_{name}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(workloads.canonical_json(A))
    ctx = {"tables": workloads.load_tables()}
    expected, problems = {}, []
    for workload in workloads.WORKLOADS:
        for op in workloads.universe(workload):
            result = workloads.execute(op, ctx)
            expected[op["key"]] = got = workloads.outcome(op, result)
            reason = workloads.check(op, result, got, expected)
            if reason is not None:
                problems.append(f"{op['key']}: {reason}")
            print(op["key"], json.dumps(got), flush=True)
    for name in set(workloads.STORED_TABLES) & set(workloads.PIPELINE_TYPES):
        with open(os.path.join(workloads.TABLES, f"generic_{name}.json"), encoding="utf-8") as fh:
            if workloads.digest(fh.read()) != expected[f"pipeline/{name}"]["sha256"]:
                problems.append(f"stored table {name} differs from the pipeline output")
    with open(os.path.join(workloads.REFERENCE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in problems:
        print("problem:", line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
