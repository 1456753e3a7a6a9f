"""Byte-exact CLI reports for a fixed list of runs, and the ``--help`` pages.

Each case's report is stored under ``tests/golden/<case>.out``, and the
help of the top level and of each subcommand, rendered 80 columns wide,
under ``tests/golden/help_<page>.out``.  Any refactor must leave every one
of them byte-identical.  After a change that is meant to alter a report or
a help page, regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and review the diff.
"""

import contextlib
import io
import json
import pathlib
import sys

from ionmzi.cli import main
from ionmzi.efficiency import REFERENCE_POINT

if __name__ == "__main__":  # the writer at the end needs only ionmzi.cli, so it runs where pytest is missing
    def parametrize(*_args):
        return lambda test: test
else:
    import pytest

    parametrize = pytest.mark.parametrize

GOLDEN = pathlib.Path(__file__).with_name("golden")

_SWEEP_A2 = ["sweep", "--scenario", "single_pass", "--axis", "a2", "--from", "0", "--to", "1", "--points", "11"]
_SWEEP_ALPHA2 = [
    "sweep", "--scenario", "iterate", "--axis", "alpha2", "--a2", "0.3",
    "--from", "0.1", "--to", "0.9", "--points", "5",
]
_SWEEP_FIDELITY = ["sweep", "--scenario", "mixed", "--axis", "fidelity", "--from", "0", "--to", "1", "--points", "6"]
_PHASED = ["single-pass", "--a2", "0.7", "--phase-a", "0.4", "--phase-beta", "-1.1", "--phase-b", "2.5"]
_UNBALANCED = ["single-pass", "--a2", "0.3", "--alpha2", "0.8"]
_CUSTOM_THROUGHPUT = {
    "p_cav": 0.02,
    "detector_efficiency": 0.5,
    "outcoupling": 0.9,
    "photon_rate": 1000.0,
    "protocol": "mixed",
    "fidelity": 0.8,
}

#: case name -> (argv, content of a --config file or None)
CASES = {
    "single_pass_balanced": (["single-pass", "--a2", "0.5"], None),
    "single_pass_balanced_table": (["single-pass", "--a2", "0.5", "--format", "table"], None),
    "single_pass_unbalanced": (_UNBALANCED, None),
    "single_pass_unbalanced_table": ([*_UNBALANCED, "--format", "table"], None),
    "single_pass_phased": (_PHASED, None),
    "single_pass_phased_table": ([*_PHASED, "--format", "table"], None),
    "iterate_max_passes_5": (["iterate", "--a2", "0.7", "--max-passes", "5"], None),
    "iterate_max_passes_5_table": (["iterate", "--a2", "0.7", "--max-passes", "5", "--format", "table"], None),
    "iterate_default": (["iterate", "--a2", "0.7"], None),
    "iterate_a2_0": (["iterate", "--a2", "0"], None),
    "iterate_a2_1": (["iterate", "--a2", "1"], None),
    "iterate_a2_1_alpha2_0": (["iterate", "--a2", "1", "--alpha2", "0"], None),
    # the only report whose ions take from_unnormalized's 2**100 shift, below the normal range
    "iterate_a2_5e-324": (["iterate", "--a2", "5e-324"], None),
    "mixed": (["mixed", "--fidelity", "0.7"], None),
    "mixed_fidelity_0": (["mixed", "--fidelity", "0"], None),
    "mixed_fidelity_0_table": (["mixed", "--fidelity", "0", "--format", "table"], None),
    "mixed_fidelity_1": (["mixed", "--fidelity", "1"], None),
    "mixed_fidelity_1e-300": (["mixed", "--fidelity", "1e-300"], None),
    "monte_carlo_a2_0": (["monte-carlo", "--a2", "0", "--trials", "50", "--seed", "3"], None),
    "monte_carlo_a2_003": (["monte-carlo", "--a2", "0.03", "--trials", "500", "--seed", "7"], None),
    "monte_carlo_a2_097": (["monte-carlo", "--a2", "0.97", "--trials", "500", "--seed", "7"], None),
    "monte_carlo_a2_097_table": (
        ["monte-carlo", "--a2", "0.97", "--trials", "500", "--seed", "7", "--format", "table"], None),
    "monte_carlo_max_passes_3": (
        ["monte-carlo", "--a2", "0.03", "--trials", "500", "--seed", "7", "--max-passes", "3"], None),
    # Two full chunks of 2048 trials and a partial third, each repacking as its lanes resolve.
    "monte_carlo_a2_05_4099": (["monte-carlo", "--a2", "0.5", "--trials", "4099", "--seed", "11"], None),
    "throughput_paper_mixed": (["throughput", "--preset", "paper-mixed"], None),
    "throughput_paper_product": (["throughput", "--preset", "paper-product"], None),
    "throughput_paper_cavity": (["throughput", "--preset", "paper-cavity"], None),
    "throughput_paper_cavity_table": (["throughput", "--preset", "paper-cavity", "--format", "table"], None),
    "throughput_custom": (["throughput"], _CUSTOM_THROUGHPUT),
    "sweep_a2_csv": (_SWEEP_A2, None),
    "sweep_a2_json": ([*_SWEEP_A2, "--format", "json"], None),
    "sweep_alpha2_csv": (_SWEEP_ALPHA2, None),
    "sweep_alpha2_json": ([*_SWEEP_ALPHA2, "--format", "json"], None),
    "sweep_fidelity_csv": (_SWEEP_FIDELITY, None),
    "sweep_fidelity_json": ([*_SWEEP_FIDELITY, "--format", "json"], None),
    "sweep_fidelity_table": ([*_SWEEP_FIDELITY, "--format", "table"], None),
}


#: help page -> argv
HELP_PAGES = {
    "top": ["--help"],
    **{name: [name, "--help"] for name in ("single-pass", "iterate", "mixed", "monte-carlo", "throughput", "sweep")},
}


def render_case(name: str, config_dir: pathlib.Path) -> str:
    argv, config = CASES[name]
    argv = list(argv)
    if config is not None:
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, argv
    return buffer.getvalue()


def render_help(page: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(HELP_PAGES[page])
    assert code == 0, page
    return buffer.getvalue()


@parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert render_case(name, tmp_path).encode("utf-8") == expected


@parametrize("page", sorted(HELP_PAGES))
def test_help_matches_golden(page, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render_help(page).encode("utf-8") == (GOLDEN / f"help_{page}.out").read_bytes()


@parametrize("columns", ["40", "200"])
@parametrize("page", sorted(HELP_PAGES))
def test_help_is_laid_out_80_columns_wide_at_any_width(page, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    assert render_help(page).encode("utf-8") == (GOLDEN / f"help_{page}.out").read_bytes()


def test_golden_files_are_exactly_the_cases_and_help_pages():
    """Every golden is read by a case or a help page, so a renamed or dropped one leaves no orphan.  The one other
    file is ``tests/same_outputs.py``'s manifest."""
    expected = {f"{case}.out" for case in CASES} | {f"help_{page}.out" for page in HELP_PAGES} | {"same_outputs.txt"}
    assert {path.name for path in GOLDEN.iterdir()} == expected


def _renders_json(argv: list[str]) -> bool:
    """Whether a case's report is JSON: ``--format`` if given, else CSV for a sweep and JSON otherwise."""
    default = "csv" if argv[0] == "sweep" else "json"
    return (argv[argv.index("--format") + 1] if "--format" in argv else default) == "json"


_JSON_CASES = sorted(name for name, (argv, _) in CASES.items() if _renders_json(argv))


@parametrize("name", _JSON_CASES)
def test_config_echo_reruns_to_same_report(name, tmp_path):
    """A JSON report's echoed config, given back through --config, reproduces the report."""
    expected = (GOLDEN / f"{name}.out").read_text()
    report = json.loads(expected)
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(report["config"]))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([report["scenario"].replace("_", "-"), "--config", str(path)])
    assert code == 0
    assert buffer.getvalue() == expected


@parametrize("name", ["throughput_custom", "throughput_paper_mixed", "throughput_paper_product"])
def test_throughput_echo_is_the_computed_operating_point(name):
    """Every fixed key a throughput report echoes holds the value its results were computed with."""
    report = json.loads((GOLDEN / f"{name}.out").read_text())
    results = report["results"]
    operating_point = ("p_cav", "detector_efficiency", "outcoupling", "photon_rate")
    computed = {**results["source"], **{key: results[key] for key in operating_point}}
    assert {key: report["config"][key] for key in computed} == computed


def _numbers(value) -> set:
    """Every number held anywhere in a parsed JSON value."""
    if isinstance(value, dict):
        return set().union(*map(_numbers, value.values()))
    if isinstance(value, list):
        return set().union(*map(_numbers, value))
    return {value} if isinstance(value, (int, float)) and not isinstance(value, bool) else set()


def test_every_quoted_constant_reaches_a_report():
    """Each reference constant is echoed by a paper preset's report, so none is kept for documentation only."""
    presets = ("throughput_paper_cavity", "throughput_paper_mixed", "throughput_paper_product")
    reported = set().union(*(_numbers(json.loads((GOLDEN / f"{name}.out").read_text())) for name in presets))
    assert [name for name, quoted in REFERENCE_POINT.items() if quoted.value not in reported] == []


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.out").write_bytes(render_case(case, pathlib.Path(scratch)).encode("utf-8"))
    for page in sorted(HELP_PAGES):
        (GOLDEN / f"help_{page}.out").write_bytes(render_help(page).encode("utf-8"))
