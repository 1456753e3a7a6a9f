"""End-to-end benchmark of the ionmzi command line.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md):

* ``exact``: in-process ``ionmzi.cli.main(argv)`` on seeded single-pass,
  iterate, mixed, throughput and sweep requests;
* ``monte-carlo``: in-process Monte Carlo requests;
* ``cli-cold``: one ``python3 -m ionmzi`` subprocess at a time.

One process, one client, closed loop: the next request goes out when the
previous report is finished.  A run sends whole rounds of its request list
until ``--seconds`` have passed and it holds enough reports for its tail
percentile.  Every report is checked against closed forms and the report schema
(checks.py);
before timing, one request per scenario runs twice and must give the same
bytes.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps the layers (spans.py) and prints per-layer metrics.
The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(SRC, "ionmzi", "schemas", "report.schema.json")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s`` and the process split.
SETUP_PROBES = 5
#: A run stops adding rounds after this long even if it is short of reports.
MAX_LOOP_S = 120.0


def _spawn(cmd: list[str], env: dict, capture: bool = False) -> tuple[float, int, bytes, float]:
    """Run ``cmd`` to its end: (wall seconds, exit code, stdout, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    out = b""
    if capture:
        out = proc.stdout.read()
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss / 1024.0


def _run_in_process(argv: list[str]) -> tuple[int | None, str]:
    import ionmzi.cli

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = ionmzi.cli.main(argv)
    except Exception as err:  # a crash is a failed operation, not the end of the run
        print(f"request {argv!r} raised {err!r}", file=sys.stderr)
        code = None
    return code, buffer.getvalue()


class Run:
    """State of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer) -> None:
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        config_dir = os.path.join(OUT, "configs")
        self.requests = workloads.requests_for(workload, seed)
        self.argvs = workloads.materialize(self.requests, config_dir, f"{workload}-{seed}")
        self.warmup = workloads.warmup_requests(seed)
        self.warmup_argvs = workloads.materialize(self.warmup, config_dir, f"warmup-{seed}")
        with open(SCHEMA, encoding="utf-8") as handle:
            self.schema = json.load(handle)
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.child_rss: list[float] = []
        self.child_spans: list[tuple] = []
        self.reports_traced = 0

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print("CHECK FAILED: " + text, file=sys.stderr)

    # --- set-up ----------------------------------------------------------

    def setup_probes(self) -> list[float]:
        """Wall time of fresh interpreters that import ionmzi.cli and warm up."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "probe", json.dumps(self.warmup_argvs)]
        samples = []
        for _ in range(SETUP_PROBES):
            wall, code, _, _ = _spawn(cmd, self.env)
            if code != 0:
                self.problem(f"set-up probe exited {code}")
            samples.append(wall)
        return samples

    def warm_and_check_determinism(self) -> None:
        """Run one request per scenario twice, in process: same bytes, correct report."""
        for request, argv in zip(self.warmup, self.warmup_argvs):
            texts = []
            for _ in range(2):
                self._next_request()
                code, text = _run_in_process(argv)
                if code != 0:
                    self.problem(f"warm-up {argv!r} exited {code}")
                texts.append(text)
            if texts[0] != texts[1]:
                self.problem(f"warm-up {argv!r}: two runs differ")
            self._check(request, texts[0])

    # --- timed loop ------------------------------------------------------

    def _next_request(self) -> None:
        if self.tracer is not None:
            self.reports_traced += 1
            self.tracer.request = self.reports_traced

    def _one_in_process(self, argv: list[str]) -> tuple[int | None, str]:
        self._next_request()
        start = time.perf_counter()
        code, text = _run_in_process(argv)
        self.latencies.append(time.perf_counter() - start)
        return code, text

    def _one_cold(self, argv: list[str]) -> tuple[int | None, str]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ionmzi", *argv]
        else:
            span_path = os.path.join(OUT, "child-spans.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "traced", span_path, *argv]
        wall, code, out, rss = _spawn(cmd, self.env, capture=True)
        self.latencies.append(wall)
        self.child_rss.append(rss)
        if self.tracer is not None and code == 0:
            self.reports_traced += 1
            base = len(self.child_spans)
            with open(span_path, encoding="utf-8") as handle:
                for name, start, end, parent, _, trials in json.load(handle):
                    parent = parent + base if parent >= 0 else -1
                    self.child_spans.append((name, start, end, parent, self.reports_traced, trials))
        return code, out.decode("utf-8")

    def timed_loop(self) -> float:
        one = self._one_cold if self.workload == "cli-cold" else self._one_in_process
        minimum = workloads.MIN_REPORTS[self.workload]
        first_round: dict[int, str] = {}
        start = time.perf_counter()
        while True:
            for index, argv in enumerate(self.argvs):
                code, text = one(argv)
                if code != 0:
                    self.failed += 1
                elif index not in first_round:
                    first_round[index] = text
                elif text != first_round[index]:
                    self.problem(f"request {index}: report changed between rounds")
            elapsed = time.perf_counter() - start
            if elapsed >= self.seconds and (len(self.latencies) >= minimum or elapsed >= MAX_LOOP_S):
                break
        for index, text in first_round.items():
            self._check(self.requests[index], text)
        return elapsed

    def _check(self, request: dict, text: str) -> None:
        try:
            checks.check(request, text, self.schema)
        except checks.CheckFailed as err:
            self.problem(f"{' '.join(request['argv'])}: {err}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, elapsed: float, setup: list[float]) -> dict:
    latencies = run.latencies
    percentile = workloads.TAIL_PERCENTILE[run.workload]
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    beyond = sum(1 for value in latencies if value > tail)
    if run.workload == "cli-cold":
        rss = max(run.child_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"latency_ms_tail is p{percentile} of {len(latencies)} reports, {beyond} beyond it")
    print(f"setup_s is the median of {len(setup)} fresh interpreters: {', '.join(f'{s:.4f}' for s in setup)}")
    if run.workload == "monte-carlo":
        rounds = len(latencies) // len(run.requests)
        trials = rounds * sum(request["params"]["trials"] for request in run.requests)
        print(f"trials_per_s {trials / elapsed:.1f} 1/s ({trials} trials)")
    return {
        "reports_per_s": _metric(len(latencies) / elapsed, "1/s"),
        "latency_ms_p50": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_tail": _metric(tail * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }


def per_layer(run: Run, setup: list[float]) -> dict:
    import spans

    stats = spans.layer_stats(run.tracer.spans, run.child_spans)
    reports = run.reports_traced

    def entry(name: str) -> dict:
        return stats.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "passes": 0, "trials": 0})

    def per_call(name: str, key: str, scale: float) -> float:
        item = entry(name)
        return item[key] * scale / item["calls"] if item["calls"] else 0.0

    metrics = {}
    for name in (spans.PURE_STATE, "elements.beam_splitter", "elements.ion_interaction", "protocol.single_pass"):
        metrics[f"{name}.calls"] = _metric(entry(name)["calls"] / reports, "count")
        metrics[f"{name}.self_us"] = _metric(per_call(name, "self", 1e6), "us")
    metrics["protocol.single_pass.total_us"] = _metric(per_call("protocol.single_pass", "total", 1e6), "us")
    metrics["protocol.run_mixed.total_us"] = _metric(per_call("protocol.run_mixed", "total", 1e6), "us")
    metrics["recycler.iterate_numeric.total_ms"] = _metric(per_call("recycler.iterate_numeric", "total", 1e3), "ms")
    metrics["recycler.iterate_numeric.rounds"] = _metric(per_call("recycler.iterate_numeric", "passes", 1.0), "count")
    metrics["recycler.monte_carlo.table_rounds"] = _metric(per_call("recycler.monte_carlo", "passes", 1.0), "count")
    mc = entry("recycler.monte_carlo")
    metrics["recycler.monte_carlo.self_us_per_trial"] = _metric(mc["self"] * 1e6 / mc["trials"] if mc["trials"] else 0.0, "us")
    metrics["recycler.monte_carlo.total_ms"] = _metric(per_call("recycler.monte_carlo", "total", 1e3), "ms")
    metrics["efficiency.throughput.total_us"] = _metric(per_call("efficiency.throughput", "total", 1e6), "us")
    metrics["cli.parse_config.ms"] = _metric(per_call("cli.parse_config", "total", 1e3), "ms")
    metrics["cli.build_report.self_ms"] = _metric(per_call("cli.build_report", "self", 1e3), "ms")
    metrics["cli.render.ms"] = _metric(per_call("cli.render", "total", 1e3), "ms")

    # The process split is timed from outside, without tracing.
    bare = [_spawn([sys.executable, "-c", "pass"], run.env)[0] for _ in range(SETUP_PROBES)]
    imported = [_spawn([sys.executable, "-c", "import ionmzi.cli"], run.env)[0] for _ in range(SETUP_PROBES)]
    if run.workload == "cli-cold":
        work = [_spawn([sys.executable, "-m", "ionmzi", *argv], run.env)[0] for argv in run.argvs]
    else:
        work = setup
    metrics["process.interpreter_ms"] = _metric(statistics.median(bare) * 1e3, "ms")
    metrics["process.import_ms"] = _metric((statistics.median(imported) - statistics.median(bare)) * 1e3, "ms")
    metrics["process.work_ms"] = _metric((statistics.median(work) - statistics.median(imported)) * 1e3, "ms")
    print(f"traced {reports} reports ({len(run.tracer.spans) + len(run.child_spans)} spans)")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ionmzi", "cli.py")):
        print(f"error: no ionmzi sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    run = Run(args.workload, args.seed, args.seconds, tracer)
    setup = run.setup_probes()
    if tracer is not None:
        spans.install(tracer)
    run.warm_and_check_determinism()
    elapsed = run.timed_loop()

    print(f"workload {args.workload} seed {args.seed}: {len(run.latencies)} reports in {elapsed:.3f} s")
    with open(os.path.join(OUT, f"timings-{args.workload}-{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({"round_size": len(run.argvs), "elapsed_s": elapsed, "setup_s": setup, "latencies_s": run.latencies}, handle)
    if tracer is None:
        metrics = end_to_end(run, elapsed, setup)
    else:
        metrics = per_layer(run, setup)
        with open(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as handle:
            json.dump({"benchmark": tracer.spans, "children": run.child_spans}, handle, separators=(",", ":"))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {len(run.latencies)} failed {run.failed}")
    result = {
        "correct": not run.problems,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
