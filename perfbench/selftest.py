"""Self-test of the benchmark's report checks.

    python3 perfbench/selftest.py

Runs one genuine report per checker through ``ionmzi.cli.main`` and asserts
that its checker accepts it untouched and rejects it after each of these
edits, where the report has the value:

* one probability moved by 1e-9;
* the post-detection state with its sign flipped;
* Monte Carlo counts that no longer sum to the trial count, and counts
  moved far outside the binomial band;
* (schema) a required key removed.

Exits 1 if any edit goes unnoticed or an untouched report is refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SCHEMA = os.path.join(SRC, "ionmzi", "schemas", "report.schema.json")

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 20031215


def _report(request: dict, config_dir: str) -> str:
    import ionmzi.cli

    [argv] = workloads.materialize([request], config_dir, "selftest")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = ionmzi.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv!r} exited {code}")
    return buffer.getvalue()


def _edit(text: str, change) -> str:
    report = json.loads(text)
    change(report)
    return json.dumps(report)


def _shift(path: tuple, amount: float):
    def change(report: dict) -> None:
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += amount

    return change


def _flip(path: tuple):
    def change(report: dict) -> None:
        node = report
        for key in path:
            node = node[key]
        for pair in node.values():
            pair[0], pair[1] = -pair[0], -pair[1]

    return change


def _move_counts(changes: dict[str, int]):
    """Change outcome counts, keeping frequencies and standard errors consistent with them."""

    def change(report: dict) -> None:
        results = report["results"]
        trials = results["trials"]
        for name, delta in changes.items():
            freq = (round(results["frequencies"][name] * trials) + delta) / trials
            results["frequencies"][name] = freq
            results["standard_errors"][name] = (freq * (1.0 - freq) / trials) ** 0.5

    return change


def _drop(key: str):
    return lambda report: report.pop(key)


def _sweep_shift(text: str) -> str:
    lines = text.split("\r\n")
    cells = lines[3].split(",")
    cells[4] = repr(float(cells[4]) + 1e-9)
    lines[3] = ",".join(cells)
    return "\r\n".join(lines)


def cases(seed: int) -> list[tuple[str, dict, list[tuple[str, object]]]]:
    """(name, request, [(edit name, edit)]) for every checker."""
    warm = {request["scenario"]: request for request in workloads.warmup_requests(seed)}
    presets = [request for request in workloads.requests_for("cli-cold", seed) if request["scenario"] == "throughput"]
    return [
        ("single_pass", warm["single_pass"], [
            ("probability +1e-9", _shift(("results", "probabilities", "detect_lower"), 1e-9)),
            ("post state sign flipped", _flip(("results", "post_detect_lower"))),
        ]),
        ("iterate", warm["iterate"], [
            ("probability +1e-9", _shift(("results", "numeric", "p_entangled"), 1e-9)),
            ("round probability +1e-9", _shift(("results", "analytic", "passes_distribution", 2, 1), 1e-9)),
            ("post state sign flipped", _flip(("results", "numeric", "post_entangled"))),
        ]),
        ("mixed", warm["mixed"], [
            ("probability +1e-9", _shift(("results", "single_pass", "p_detect_lower"), 1e-9)),
            ("iterated probability +1e-9", _shift(("results", "iterated", "p_entangled_numeric"), 1e-9)),
        ]),
        ("throughput custom", warm["throughput"], [
            ("p_protocol +1e-9", _shift(("results", "p_protocol"), 1e-9)),
        ]),
        *[
            (f"throughput {request['params']['preset']}", request, [
                ("p_protocol +1e-9", _shift(("results", "p_protocol"), 1e-9))
                if request["params"]["preset"] != "paper-cavity"
                else ("emission probability +1e-9", _shift(("results", "cavity", "emission_probability_quoted"), 1e-9)),
            ])
            for request in presets
        ],
        ("monte_carlo", warm["monte_carlo"], [
            ("frequency +1e-9", _shift(("results", "frequencies", "entangled"), 1e-9)),
            ("post state sign flipped", _flip(("results", "post_entangled"))),
            ("counts sum to trials + 1", _move_counts({"stuck": 1})),
            ("counts far outside the band", _move_counts({"scattered": -100, "stuck": 100})),
        ]),
        ("sweep", warm["sweep"], [("row probability +1e-9", _sweep_shift)]),
    ]


def _accepts(request: dict, text: str, schema: dict) -> str | None:
    try:
        checks.check(request, text, schema)
    except checks.CheckFailed as err:
        return str(err)
    return None


def main() -> int:
    sys.path.insert(0, SRC)
    with open(SCHEMA, encoding="utf-8") as handle:
        schema = json.load(handle)
    config_dir = os.path.join(HERE, "out", "configs")
    misses = 0
    for name, request, edits in cases(SEED):
        text = _report(request, config_dir)
        refusal = _accepts(request, text, schema)
        print(f"{name}: untouched {'accepted' if refusal is None else 'REFUSED: ' + refusal}")
        misses += refusal is not None
        if request["scenario"] != "sweep":
            edits = edits + [("schema: notes removed", _drop("notes"))]
        for edit_name, edit in edits:
            edited = edit(text) if edit is _sweep_shift else _edit(text, edit)
            refusal = _accepts(request, edited, schema)
            print(f"{name}: {edit_name} {'REJECTED: ' + refusal if refusal else 'ACCEPTED (missed)'}")
            misses += refusal is None
    print("self-test " + ("passed" if misses == 0 else f"failed: {misses} misses"))
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
