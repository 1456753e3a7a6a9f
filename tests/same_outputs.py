"""The same-outputs hash: one sha256 over the CLI's answers to a fixed list of argvs.

Run it on two trees with the same Python; equal hashes mean that every argv
below gave the same exit code, stdout and stderr on both.  The argvs are:

* every golden case of ``test_golden_reports``, as given and with ``--format table``;
* the request lists of seeds 1-10 of each benchmark workload and of its warm-up,
  from ``perfbench/workloads.py``;
* the help pages of ``test_golden_reports``;
* the config and argv fuzz cases of ``test_cli_fuzz``;
* the configs of ``EXTRA_CONFIGS``: a product throughput with phases, and a
  preset refusal that names several keys given out of order.

Each runs in this process through ``cli.main``, with ``COLUMNS=80`` as the help
goldens are rendered.  Config files go to a temporary directory, which is also
the working directory, and its path reads as ``<tmp>`` in what is hashed.  The
script writes nothing inside the tree.  It reads ``src`` of its own tree:

    python tests/same_outputs.py

It prints the number of runs and the hash.  Where a change adds a golden or
a fuzz case, put the change's ``tests/`` in both trees, so that both hash the
same argvs.  The name does not start with ``test_``, so pytest does not
collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import test_cli_fuzz as fuzz  # noqa: E402
import test_golden_reports as golden  # noqa: E402
import workloads  # noqa: E402
from ionmzi.cli import main  # noqa: E402

SEEDS = range(1, 11)

#: Config runs that no golden, workload or fuzz case makes: a phased product throughput prices the
#: phases it echoes, and a preset refusal names the keys to drop in config key order.
EXTRA_CONFIGS = [
    (["throughput"], {"protocol": "product", "a2": 0.3, "phase_a": 0.5, "p_cav": 0.01,
                      "detector_efficiency": 0.7, "photon_rate": 5000}),
    (["throughput", "--preset", "paper-mixed"], {"photon_rate": 1.0, "outcoupling": 0.5, "fidelity": 0.5, "a2": 0.9}),
]


def _config_argv(argv: list, config: dict, path: pathlib.Path) -> list:
    path.write_text(json.dumps(config), encoding="utf-8")
    return [*argv, "--config", str(path)]


def argvs(workdir: pathlib.Path) -> list:
    """Every argv the hash covers, in a fixed order; config files are written under ``workdir``."""
    runs = []
    for name, (argv, config) in golden.CASES.items():
        if config is not None:
            argv = _config_argv(argv, config, workdir / f"{name}.json")
        runs += [list(argv), [*argv, "--format", "table"]]
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            runs += workloads.materialize(workloads.requests_for(workload, seed), str(workdir), f"{workload}-{seed}")
        runs += workloads.materialize(workloads.warmup_requests(seed), str(workdir), f"warmup-{seed}")
    runs += golden.HELP_PAGES.values()
    for index, (subcommand, config) in enumerate(fuzz._cases()):
        runs.append(_config_argv([subcommand], config, workdir / f"fuzz-{index}.json"))
    rng = random.Random(fuzz.ARGV_SEED)
    runs += (fuzz._argv(rng) for _ in range(fuzz.ARGV_CASES))
    for index, (argv, config) in enumerate(EXTRA_CONFIGS):
        runs.append(_config_argv(argv, config, workdir / f"extra-{index}.json"))
    return runs


def answer(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:  # argparse's usage errors
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def same_outputs_hash() -> tuple:
    """(number of runs, sha256 hex digest) over every argv and its answer."""
    os.environ["COLUMNS"] = "80"
    digest = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        workdir = pathlib.Path(name)
        os.chdir(workdir)  # a relative config path in a fuzz argv resolves in the temporary directory
        try:
            runs = argvs(workdir)
            for argv in runs:
                record = json.dumps([argv, *answer(argv)]).replace(str(workdir), "<tmp>")
                digest.update(record.encode("utf-8") + b"\n")
        finally:
            os.chdir(home)
    return len(runs), digest.hexdigest()


if __name__ == "__main__":
    count, hexdigest = same_outputs_hash()
    print(f"{count} runs, sha256 {hexdigest}")
