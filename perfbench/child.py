"""Fresh-interpreter helper for the benchmark; never imported by it.

``python3 perfbench/child.py probe '<json list of argv>'``
    import ``ionmzi.cli`` and run each argv once with its output discarded:
    the set-up a fresh process pays before its first timed report.

``python3 perfbench/child.py traced <span file> <argv...>``
    run one report with the layers traced, print it, and write the spans.

Both expect ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def probe(argvs: list[list[str]]) -> int:
    import ionmzi.cli

    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            if ionmzi.cli.main(argv) != 0:
                return 3
    return 0


def traced(span_path: str, argv: list[str]) -> int:
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    import ionmzi.cli

    tracer.request = 0
    code = ionmzi.cli.main(argv)
    tracer.dump(span_path)
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "probe":
        return probe(json.loads(sys.argv[2]))
    if mode == "traced":
        return traced(sys.argv[2], sys.argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main())
