"""Run one `qlie` command with the layer tracer installed.

    python3 perfbench/clicmd.py TRACE_FILE ARG...

Behaves as `python -m qlie.cli ARG...` does (same output, exit code and
traceback) and writes the command's trace record, with the import of
`qlie.cli` as a `cli.import` span, to TRACE_FILE.
"""

import json
import sys
import time

_start = time.perf_counter()
import qlie.cli  # noqa: E402  (timed as the import span)
_imported = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.add_span("cli.import", _start, _imported)
    try:
        return qlie.cli.main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.record(), fh)


if __name__ == "__main__":
    sys.exit(main())
