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

Each runs in this process through ``cli.main``.  Config files go to a
temporary directory, which is also the working directory, and its path reads
as ``<tmp>`` in what is hashed.  Without a flag, the script writes nothing
inside the tree.  It reads ``src`` of its own tree:

    python tests/same_outputs.py

It prints the number of runs and the hash.  Where a change adds a golden or
a fuzz case, put the change's ``tests/`` in both trees, so that both hash the
same argvs.  The name does not start with ``test_``, so pytest does not
collect it.

The same answers also make a manifest, one line per argv in ``argvs()``
order: its index, its class, its exit code, and the first 12 hex digits of
the sha256 of its stdout and of its stderr.  The classes are ``report``
(exit 0), ``refusal`` (exit 2 with ``error:``), ``argparse`` (exit 2 with
``usage:``, the wording of the standard library's parser, which no argv reaches
since the CLI reads every argv itself) and ``failure`` (exit 1).  The manifest is committed as
``tests/golden/same_outputs.txt``; a change that means to move an answer
rewrites it, and the diff names each moved line:

    python tests/same_outputs.py --manifest   # write it, and print the hash line
    python tests/same_outputs.py --check      # name each argv whose line differs; exit 1 if any does
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
MANIFEST = ROOT / "tests" / "golden" / "same_outputs.txt"

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
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def records() -> list:
    """The JSON text of [argv, exit code, stdout, stderr] of every run, the temporary directory read as ``<tmp>``."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        workdir = pathlib.Path(name)
        os.chdir(workdir)  # a relative config path in a fuzz argv resolves in the temporary directory
        try:
            return [json.dumps([argv, *answer(argv)]).replace(str(workdir), "<tmp>") for argv in argvs(workdir)]
        finally:
            os.chdir(home)


def same_outputs_hash(texts: list) -> str:
    """The sha256 hex digest over every record's text, one a line."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8") + b"\n")
    return digest.hexdigest()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def manifest_line(index: int, text: str) -> str:
    """One record's manifest line: index, class, exit code, stdout digest, stderr digest."""
    _, code, out, err = json.loads(text)
    kind = {0: "report", 1: "failure"}.get(code) or {"error:": "refusal", "usage:": "argparse"}[err[:6]]
    return f"{index} {kind} {code} {_digest(out)} {_digest(err)}"


def check(texts: list) -> int:
    """Print each argv whose manifest line differs from the committed one; 1 if any does, else 0."""
    committed = MANIFEST.read_text(encoding="utf-8").splitlines()
    lines = [manifest_line(index, text) for index, text in enumerate(texts)]
    differ = 0
    for index in range(max(len(lines), len(committed))):
        now, was = (side[index] if index < len(side) else "(none)" for side in (lines, committed))
        if now != was:
            argv = json.loads(texts[index])[0] if index < len(texts) else None
            print(f"argv {index} {json.dumps(argv)}: committed {was!r}, now {now!r}")
            differ += 1
    print(f"{differ} of {len(lines)} manifest lines differ from {MANIFEST.relative_to(ROOT)}")
    return int(differ > 0)


if __name__ == "__main__":
    mode = sys.argv[1:]
    if mode not in ([], ["--manifest"], ["--check"]):
        raise SystemExit("usage: python tests/same_outputs.py [--manifest | --check]")
    texts = records()
    print(f"{len(texts)} runs, sha256 {same_outputs_hash(texts)}")
    if mode == ["--manifest"]:
        MANIFEST.write_text("".join(manifest_line(index, text) + "\n" for index, text in enumerate(texts)),
                            encoding="utf-8")
    elif mode == ["--check"]:
        sys.exit(check(texts))
