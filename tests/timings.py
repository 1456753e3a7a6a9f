"""Ungated timings of the library's layers and of the CLI, one figure a line.

Each figure is the median or the minimum of repeated runs of one call, printed in this order:

* the first ``single_pass`` call of a process, which writes, compiles and checks the traversal
  function, a share of the cold start of ROADMAP item 4;
* ``compile()`` of each ``src/ionmzi/*.py``, the minimum of 20 runs, and their total.  Without
  ``.pyc`` files every fresh process compiles ``src``, about half of the import cost item 4 aims at;
* the ``-X importtime`` line of ``ionmzi.cli`` in a fresh process, its cumulative import time;
* a cold ``python -m ionmzi single-pass --a2 0.5``, the median of 5 fresh processes.  It stands in
  for ``cli-cold``'s ``latency_ms_p50``, the figure ROADMAP items 3 and 4 aim at;
* an in-process ``cli.main`` of the same argv (reading it, the report, its rendering), the median of
  2,000 runs, the kind of request that ``exact``'s ``latency_ms_p50`` times;
* ``monte_carlo`` at seed 1, the median of 20 calls, per call and per trial, each case in a fresh
  process of its own, so that no figure depends on what ran before it: a small scatter-heavy
  run, a large one that resolves mostly in round 1 (set-up heavy), the costliest request class of
  the ``monte-carlo`` benchmark workload (its largest ``a2`` 0.25 report), and README's worst case
  (``a2`` 0 at the largest pass budget) scaled down to one chunk of trials and to ten.  The other
  nine chunks read no row of the round table, so the difference times the chunk loop alone; the
  two scaled-down figures share one process, their calls alternated one by one, since across
  separate processes their spread is wider than that difference;
* ``cli.render`` of a pre-built single-pass and iterate report as JSON, the median of 2,000 calls
  each, the renderer's share of the in-process figure;
* the line count of each ``src/ionmzi/*.py``, as ``wc -l`` gives it, and the total, the tracked
  measure of ROADMAP aim 2;
* argvs that are not plain, of which the benchmark sends none: a cold ``iterate --help`` and a
  cold ``single-pass --a2=0.5``, each the median of 5 fresh processes, and an in-process
  ``single-pass --a2=0.5`` report, the median of 2,000 runs.

It reads ``src`` of its own tree and writes nothing: its subprocesses run with ``-B``, take that
``src`` as ``PYTHONPATH`` (the ``monte_carlo`` ones also ``tests``, to import this script) and
inherit the rest of the environment.
It takes no flag and checks no figure against a bound:

    python tests/timings.py

The name does not start with ``test_``, so pytest does not collect it.
"""

import contextlib
import io
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from ionmzi import cli  # noqa: E402
from ionmzi.protocol import IonPairState, bell_psi_plus, single_pass  # noqa: E402
from ionmzi.recycler import MAX_PASSES, monte_carlo  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(SRC)}
REPORT = ["single-pass", "--a2", "0.5"]
#: The same report with its value after ``=``: not a plain argv.
EQUALS = ["single-pass", "--a2=0.5"]


def timed(call, runs: int, pick=statistics.median) -> float:
    """``pick`` (the median, or ``min``) of the wall times of ``runs`` calls of ``call()``, in seconds."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return pick(times)


def monte_carlo_medians(a2: float, trial_counts: tuple[int, ...], max_passes: int) -> list[float]:
    """For each of ``trial_counts``, the median wall time of 20 ``monte_carlo`` calls at seed 1 on the balanced
    product of ``a2``, in seconds.  The counts take turns call by call, in reverse order every second turn."""
    plus, minus = math.sqrt(a2), math.sqrt(1.0 - a2)
    ions = IonPairState.product(plus, minus, plus, minus)
    times = {trials: [] for trials in trial_counts}
    for turn in range(20):
        for trials in trial_counts if turn % 2 == 0 else reversed(trial_counts):
            times[trials].append(timed(lambda: monte_carlo(ions, trials, 1, max_passes), 1))
    return [statistics.median(times[trials]) for trials in trial_counts]


def main() -> None:
    # first, before any other call of this process
    print(f"first single_pass call: {timed(lambda: single_pass(bell_psi_plus()), 1) * 1e3:.2f} ms")

    modules = sorted((SRC / "ionmzi").glob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in modules}
    total = 0.0
    for path, source in sources.items():
        seconds = timed(lambda: compile(source, path, "exec"), 20, min)
        total += seconds
        print(f"{path}: {seconds * 1e3:.2f} ms")
    print(f"compile() of src/ionmzi/*.py, minimum of 20 runs per module: {total * 1e3:.2f} ms in all")

    argv = [sys.executable, "-B", "-X", "importtime", "-c", "import ionmzi.cli"]
    importtime = subprocess.run(argv, env=ENV, capture_output=True, text=True, check=True).stderr.splitlines()
    print(next(line for line in importtime if line.rsplit("|", 1)[-1].strip() == "ionmzi.cli"))

    argv = [sys.executable, "-B", "-m", "ionmzi", *REPORT]
    cold = timed(lambda: subprocess.run(argv, env=ENV, check=True, stdout=subprocess.DEVNULL), 5)
    print(f"cold single-pass report: median {cold * 1e3:.1f} ms of 5 runs")

    with contextlib.redirect_stdout(io.StringIO()):
        in_process = timed(lambda: cli.main(REPORT), 2000)
    print(f"in-process single-pass report: median {in_process * 1e6:.1f} us of 2000 runs")

    cases = ((0.5, (1000,), MAX_PASSES), (0.97, (30000,), MAX_PASSES), (0.25, (5400,), MAX_PASSES),
             (0.0, (2048, 20480), 4096))
    env = {**ENV, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT / "tests")])}
    for a2, trial_counts, max_passes in cases:
        code = f"import timings; print(*timings.monte_carlo_medians({a2!r}, {trial_counts!r}, {max_passes}))"
        argv = [sys.executable, "-B", "-c", code]
        medians = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.split()
        budget = "" if max_passes == MAX_PASSES else f", {max_passes} passes"
        for trials, median in zip(trial_counts, map(float, medians)):
            print(f"monte_carlo at a2 {a2}, {trials} trials{budget}: median {median * 1e3:.2f} ms of 20 calls,"
                  f" {median / trials * 1e6:.3f} us per trial")

    for argv in (REPORT, ["iterate", "--a2", "0.5"]):
        report = cli.build_report(cli.parse_config(argv))
        median = timed(lambda: cli.render(report, "json"), 2000)
        print(f"{argv[0]} report rendered as JSON: median {median * 1e6:.1f} us of 2000 calls")

    lines = {path: source.count("\n") for path, source in sources.items()}
    for path, count in lines.items():
        print(f"{count:5d} {path}")
    print(f"{sum(lines.values()):5d} total")

    for args, label in ((["iterate", "--help"], "iterate --help page"), (EQUALS, "single-pass --a2=0.5 report")):
        argv = [sys.executable, "-B", "-m", "ionmzi", *args]
        cold = timed(lambda: subprocess.run(argv, env=ENV, check=True, stdout=subprocess.DEVNULL), 5)
        print(f"cold {label}: median {cold * 1e3:.1f} ms of 5 runs")
    with contextlib.redirect_stdout(io.StringIO()):
        in_process = timed(lambda: cli.main(EQUALS), 2000)
    print(f"in-process single-pass --a2=0.5 report: median {in_process * 1e6:.1f} us of 2000 runs")


if __name__ == "__main__":
    main()
