import csv
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ionmzi import cli
from ionmzi.cli import RunConfig, UsageError, main, parse_config
from ionmzi.efficiency import ThroughputReport


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def report_schema() -> dict:
    text = resources.files("ionmzi").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


class TestParseConfig:
    def test_canonical_product_run(self):
        cfg = parse_config(["iterate", "--a2", "0.7"])
        assert cfg.scenario == "iterate"
        assert cfg.a2 == 0.7
        assert cfg.alpha2 is None  # follows a2 at resolve time
        assert cfg.phase_a == 0.0
        assert cfg.format == "json"

    def test_fidelity_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "mixed", "--fidelity", "1.4")
        assert code == 2
        assert "fidelity must lie in [0,1]" in err

    def test_a2_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "iterate", "--a2", "1.5")
        assert code == 2
        assert "a2 must lie in [0, 1]" in err

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["iterate", "--bogus", "1"]) == 2

    def test_config_file_supplies_values(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"a2": 0.7, "max_passes": 12}))
        cfg = parse_config(["iterate", "--config", str(path)])
        assert cfg.a2 == 0.7
        assert cfg.max_passes == 12

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"a2": 0.3, "seed": 5}))
        cfg = parse_config(["monte-carlo", "--config", str(path), "--a2", "0.9"])
        assert cfg.a2 == 0.9
        assert cfg.seed == 5

    def test_unknown_config_key_named(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"a2": 0.3, "warp_factor": 9}))
        code, _, err = run_cli(capsys, "iterate", "--config", str(path))
        assert code == 2
        assert "warp_factor" in err

    def test_sweep_needs_two_points(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "single_pass", "--axis", "a2",
            "--from", "0", "--to", "1", "--points", "1",
        )
        assert code == 2
        assert "2 points" in err

    def test_sweep_defaults_to_csv(self):
        cfg = parse_config(
            ["sweep", "--scenario", "single_pass", "--axis", "a2",
             "--from", "0", "--to", "1", "--points", "3"]
        )
        assert cfg.format == "csv"

    def test_csv_only_for_sweep(self, capsys):
        code, _, err = run_cli(capsys, "iterate", "--a2", "0.5", "--format", "csv")
        assert code == 2
        assert "sweep" in err

    def test_throughput_needs_preset_or_params(self, capsys):
        code, _, err = run_cli(capsys, "throughput")
        assert code == 2
        assert "preset" in err

    def test_round_trip_through_dict(self):
        cfg = parse_config(["monte-carlo", "--a2", "0.7", "--trials", "123", "--seed", "9"])
        assert RunConfig.from_dict(cfg._asdict()) == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(UsageError, match="warp"):
            RunConfig.from_dict({"scenario": "iterate", "warp": 1})
        with pytest.raises(UsageError, match="config needs a scenario"):  # the parser always sets it; a caller may not
            RunConfig.from_dict({"a2": 0.5})
        with pytest.raises(UsageError, match="^scenario must be a string$"):  # the one key without a default
            RunConfig.from_dict({"scenario": None})

    @pytest.mark.parametrize("key", [key for key in cli._CONFIG_KEYS if key != "scenario"])
    def test_a_key_admits_null_exactly_when_its_default_is_none(self, capsys, tmp_path, key):
        nullable = RunConfig._field_defaults[key] is None
        kind = cli._CONFIG_KEYS[key].type
        expected = f"{key} must be " + {float: "a number", int: "an integer", str: "a string"}[kind]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: None}))
        if nullable:
            assert getattr(parse_config(["iterate", "--config", str(path)]), key) is None
        else:
            assert run_cli(capsys, "iterate", "--config", str(path)) == (2, "", f"error: {expected}\n")
        path.write_text(json.dumps({key: [0]}))
        refusal = f"error: {expected}{' or null' if nullable else ''}\n"
        assert run_cli(capsys, "iterate", "--config", str(path)) == (2, "", refusal)

    @pytest.mark.parametrize(
        "argv, config, named",
        [
            (["single-pass"], {"a2": "0.5"}, "a2 must be a number"),
            (["single-pass"], {"a2": True}, "a2 must be a number"),
            (["single-pass"], {"alpha2": [0.5]}, "alpha2 must be a number or null"),
            (["monte-carlo"], {"trials": 1.5}, "trials must be an integer"),
            (["monte-carlo"], {"seed": "x"}, "seed must be an integer"),
            (["monte-carlo"], {"max_passes": False}, "max_passes must be an integer"),
            (["iterate"], {"format": 1}, "format must be a string"),
            (["single-pass", "--phase-a", "nan"], None, "phase_a must be a finite number"),
            (["single-pass", "--phase-a", "inf"], None, "phase_a must be a finite number"),
            (["single-pass", "--phase-b=-inf"], None, "phase_b must be a finite number"),
            (["mixed", "--fidelity", "nan"], None, "fidelity must be a finite number"),
            (["throughput"], {"p_cav": 1.5}, "p_cav must lie in [0, 1]"),
            (["throughput"], {"detector_efficiency": -0.1}, "detector_efficiency must lie in [0, 1]"),
            (["throughput"], {"outcoupling": 2.0}, "outcoupling must lie in [0, 1]"),
            (["throughput"], {"photon_rate": -5.0}, "photon_rate must be nonnegative"),
            (["throughput"], {"photon_rate": 10**400}, "photon_rate must be a finite number"),
            (
                ["sweep", "--scenario", "iterate", "--axis", "fidelity", "--from", "0", "--to", "1", "--points", "3"],
                None,
                "axis fidelity needs --scenario mixed",
            ),
            (
                ["sweep", "--scenario", "mixed", "--axis", "a2", "--from", "0", "--to", "1", "--points", "3"],
                None,
                "scenario mixed sweeps the fidelity axis",
            ),
            (["iterate"], {"preset": "paper-mixed"}, "preset is only available for throughput"),
            (["monte-carlo"], {"trials": 10**400}, "trials must be at most 10000000"),
            (["iterate", "--max-passes", "4097"], None, "max-passes must be at most 4096"),
            (
                ["sweep", "--scenario", "iterate", "--axis", "a2", "--from", "0", "--to", "1", "--points", "100001"],
                None,
                "sweep takes at most 100000 points",
            ),
            (["iterate"], {"points": -5}, "points must be positive"),
            (["iterate"], {"axis": "zzz"}, "axis must be a2, alpha2 or fidelity"),
            (["iterate"], {"sweep_from": 7.0}, "from must lie in [0, 1]"),
            (["iterate"], {"sweep_scenario": "nope"}, "scenario must be single_pass, iterate or mixed"),
            (["iterate"], {"protocol": "none"}, "protocol must be mixed or product"),
            (["throughput"], {"preset": "paper", "fidelity": 0.5}, "unknown preset: paper"),
            (["throughput"], {"b2": 0.5}, "unknown config key: b2"),
            (["iterate"], [0.5], "config file must hold a JSON object"),
            (
                ["sweep", "--axis", "a2", "--from", "0", "--to", "1", "--points", "3"],
                None,
                "sweep needs --scenario (single_pass, iterate or mixed)",
            ),
            (
                ["sweep", "--scenario", "iterate", "--from", "0", "--to", "1", "--points", "3"],
                None,
                "sweep needs --axis (a2, alpha2 or fidelity)",
            ),
            # monte_carlo reads only the seed modulo 2**64, so a seed outside [0, 2**64 - 1] would run another's stream
            (["monte-carlo", "--trials", "10", "--seed", "-1"], None, "seed must be nonnegative"),
            (
                ["monte-carlo", "--trials", "10", "--seed", "18446744073709551616"],
                None,
                "seed must be at most 18446744073709551615",
            ),
            # throughput prices a matched product, so an alpha2 it would echo but never read is refused
            (
                ["throughput"],
                {"protocol": "product", "a2": 0.7, "alpha2": 0.3},
                "throughput reads a matched product at a2; drop alpha2",
            ),
            (
                ["throughput", "--preset", "paper-product"],
                {"alpha2": 0.3},
                "throughput reads a matched product at a2; drop alpha2",
            ),
            # the keys to drop are named in config key order, whatever order the config gives them in
            (
                ["throughput", "--preset", "paper-mixed"],
                {"photon_rate": 1.0, "outcoupling": 0.5, "fidelity": 0.5, "a2": 0.9},
                "--preset fixes the operating point and its source; drop a2, fidelity, outcoupling, photon_rate",
            ),
            # the argv reader's own refusals, each where it reads the token, or at the end for a stray one
            (["bogus"], None, "the subcommand must be single-pass, iterate, mixed, monte-carlo, throughput or sweep, "
                              "not 'bogus'"),
            ([], None, "a subcommand is needed: single-pass, iterate, mixed, monte-carlo, throughput or sweep"),
            # every token is resolved before any is read, so the ambiguous prefix is refused before the help flag
            (["iterate", "-h", "--phase", "1"], None,
             "--phase is ambiguous: it could be --phase-alpha, --phase-beta, --phase-a or --phase-b"),
            (["iterate", "--a2"], None, "--a2 needs a value"),
            (["monte-carlo", "--trials", "1.5", "-h"], None, "--trials must be an integer, not '1.5'"),
            # a later valid repeat of the flag does not undo the refusal
            (["iterate", "--format", "xml", "--format", "json"], None,
             "--format must be json, csv or table, not 'xml'"),
            (["iterate", "--a2", "0.5", "stray", "--", "-h"], None, "unrecognized arguments: stray -- -h"),
            (["iterate", "--help=x"], None, "--help takes no value, not 'x'"),
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, tmp_path, argv, config, named):
        argv = list(argv)
        if config is not None:
            if argv == ["throughput"]:
                custom = {"p_cav": 0.01, "detector_efficiency": 0.7, "photon_rate": 5000.0, "protocol": "mixed"}
                config = {**custom, **config}
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {named}\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(["mixed", "--fid", "0.25"], {"fidelity": 0.25}, id="abbreviation"),
            pytest.param(["iterate", "--a2=0.25"], {"a2": 0.25}, id="flag=value"),
            # an exact name wins over the longer flag it is a prefix of, --phase-alpha
            pytest.param(["iterate", "--phase-a=1"], {"phase_a": 1.0}, id="phase-a=1"),
            pytest.param(["iterate", "--phase-b", "-.5"], {"phase_b": -0.5}, id="negative-fraction"),
            pytest.param(["iterate", "--phase-b", "-\u0663"], {"phase_b": -3.0}, id="arabic-indic-digit"),
            # an unknown flag is refused only once the whole argv is read, so the help page comes first
            pytest.param(["iterate", "--bogus", "1", "-h"], "help_iterate.out", id="unknown-flag-then-help"),
        ],
    )
    def test_accepted_spellings(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if isinstance(expected, str):
            assert out == (pathlib.Path(__file__).with_name("golden") / expected).read_text(encoding="utf-8")
        else:
            assert {key: json.loads(out)["config"][key] for key in expected} == expected

    def test_defaults_and_preset_values_parse(self, tmp_path):
        # only the keys a request sets are checked, so this is what holds the defaults and presets in range
        defaults = {name: key.default for name, key in cli._CONFIG_KEYS.items() if key.default is not None}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(defaults))
        assert parse_config(["iterate", "--config", str(path)]) == RunConfig("iterate", **defaults)
        for preset, (point, _) in cli._PRESETS.items():
            path.write_text(json.dumps(point))
            cfg = parse_config(["throughput", "--preset", preset, "--config", str(path)])
            assert {key: getattr(cfg, key) for key in point} == point, preset

    def test_missing_config_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run_cli(capsys, "iterate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read config file: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "preset, key, value",
        [  # an id names its preset where that is not paper-mixed
            pytest.param("paper-mixed", "p_cav", 0.5, id="p_cav-0.5"),
            pytest.param("paper-mixed", "photon_rate", 100.0, id="photon_rate-100.0"),
            pytest.param("paper-mixed", "protocol", "product", id="protocol-product"),
            pytest.param("paper-mixed", "fidelity", 0.5, id="fidelity-0.5"),
            pytest.param("paper-mixed", "a2", 0.9, id="a2-0.9"),
            pytest.param("paper-product", "a2", 0.5, id="paper-product-a2-0.5"),
        ],
    )
    def test_preset_rejects_operating_point_keys(self, capsys, tmp_path, preset, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "throughput", "--preset", preset, "--config", str(path))
        assert code == 2
        assert out == ""
        assert key in err and "preset" in err

    def test_preset_echo_reparses(self, capsys):
        code, out, _ = run_cli(capsys, "throughput", "--preset", "paper-mixed")
        assert code == 0
        echoed = json.loads(out)["config"]
        assert RunConfig.from_dict(echoed) == parse_config(["throughput", "--preset", "paper-mixed"])

    def test_parser_reused_after_failure(self, capsys):
        args = ("single-pass", "--a2", "0.3", "--alpha2", "0.6", "--phase-a", "0.2")
        code1, out1, _ = run_cli(capsys, *args)
        assert main(["single-pass", "--a2"]) == 2
        assert main(["single-pass", "--a2", "1.5"]) == 2
        capsys.readouterr()
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


_SWEEP_CSV = ["sweep", "--scenario", "single_pass", "--axis", "a2", "--from", "0", "--to", "1", "--points", "2"]


def _in_a_record(bad: float) -> dict:
    return {"report": ThroughputReport(0.5, 0.5, bad, 0.5)}


#: Where a report may hold a float -> (argv, the results holding ``bad`` there); the runner of argv[0] returns them.
_NON_FINITE_POSITIONS = {
    "dict-value": (["iterate"], lambda bad: {"analytic": {"p_entangled": bad}}),
    "list-item": (["iterate"], lambda bad: {"rows": [0.5, bad]}),
    "complex-real": (["iterate"], lambda bad: {"u_plus": complex(bad, 0.5)}),
    "complex-imag": (["iterate"], lambda bad: {"u_plus": complex(0.5, bad)}),
    "record-field": (["iterate"], _in_a_record),
    "table-record-field": (["iterate", "--format", "table"], _in_a_record),
    "csv-cell": (_SWEEP_CSV, lambda bad: {"columns": ["a2", "p"], "rows": [{"a2": 0.0, "p": bad}]}),
}


class TestReports:
    def test_iterate_report_value(self, capsys):
        code, out, _ = run_cli(capsys, "iterate", "--a2", "0.7")
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "iterate"
        assert report["results"]["analytic"]["p_entangled"] == pytest.approx(0.14, abs=1e-12)
        assert report["results"]["numeric"]["p_entangled"] == pytest.approx(0.14, abs=1e-10)
        assert report["results"]["abs_delta_p_entangled"] < 1e-10

    def test_single_pass_report(self, capsys):
        code, out, _ = run_cli(capsys, "single-pass", "--a2", "0.5")
        report = json.loads(out)
        assert code == 0
        assert report["results"]["probabilities"]["detect_lower"] == pytest.approx(0.125, abs=1e-12)
        assert report["results"]["balanced"] is True
        assert report["results"]["fidelity_detect_lower_vs_psi_minus"] == pytest.approx(1.0, abs=1e-12)

    def test_mixed_report(self, capsys):
        code, out, _ = run_cli(capsys, "mixed", "--fidelity", "0.7")
        report = json.loads(out)
        single = report["results"]["single_pass"]
        assert single["p_detect_lower"] == pytest.approx(0.175, abs=1e-12)
        assert single["fidelity_lower_vs_psi_minus"] == pytest.approx(1.0, abs=1e-12)
        assert single["fidelity_upper_vs_psi_plus"] == pytest.approx(0.7 / 1.3, abs=1e-12)
        assert report["results"]["iterated"]["p_entangled"] == pytest.approx(0.7 / 3.0, abs=1e-12)
        assert report["results"]["iterated"]["p_entangled_numeric"] == pytest.approx(
            0.7 / 3.0, abs=1e-10
        )

    def test_monte_carlo_byte_determinism(self, capsys):
        args = ("monte-carlo", "--a2", "0.5", "--trials", "20000", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["results"]["frequencies"]["entangled"] > 0.0

    def test_sweep_csv_rows_and_maximum(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "single_pass", "--axis", "a2",
            "--from", "0", "--to", "1", "--points", "11",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12  # header plus 11 points
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        values = [float(row["p_detect_lower"]) for row in rows]
        for row, value in zip(rows, values):
            a2 = float(row["a2"])
            assert value == pytest.approx(0.5 * a2 * (1.0 - a2), abs=1e-12)
        assert max(values) == pytest.approx(0.125, abs=1e-12)
        assert values.index(max(values)) == 5  # a2 = 0.5
        assert out.count("\r\n") == 12

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "iterate", "--axis", "a2",
            "--from", "0.2", "--to", "0.8", "--points", "4", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["rows"]) == 4

    def test_sweep_mixed_fidelity_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "mixed", "--axis", "fidelity",
            "--from", "0", "--to", "1", "--points", "5", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        for row in rows:
            assert row["p_detect_lower"] == pytest.approx(row["fidelity"] / 4.0, abs=1e-12)

    @pytest.mark.parametrize(
        "scenario, axis, start, stop, points",
        [
            ("single_pass", "a2", "0.03", "0", "10"),
            ("iterate", "alpha2", "0.08", "1", "6"),
            ("mixed", "fidelity", "0.03", "0", "10"),
        ],
    )
    def test_sweep_ends_exactly_at_to(self, capsys, scenario, axis, start, stop, points):
        # start + (stop - start) * (n - 1) / (n - 1) misses stop by one ulp for these endpoints
        argv = ("sweep", "--scenario", scenario, "--axis", axis, "--from", start, "--to", stop, "--points", points)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert float(out.splitlines()[-1].split(",")[0]) == float(stop)

    @pytest.mark.parametrize("points", [2, 1000])
    @pytest.mark.parametrize("start, stop", [("0", "1"), ("1", "0"), ("5e-324", "1e-300")])
    @pytest.mark.parametrize(
        "scenario, axis",
        [("single_pass", "a2"), ("single_pass", "alpha2"), ("iterate", "a2"), ("iterate", "alpha2"),
         ("mixed", "fidelity")],
    )
    def test_csv_matches_csv_writer(self, scenario, axis, start, stop, points):
        argv = ["sweep", "--scenario", scenario, "--axis", axis, "--from", start, "--to", stop, "--points", str(points)]
        report = cli.build_report(parse_config(argv))
        columns = report["results"]["columns"]
        cells = [[format(row[column], ".17g") for column in columns] for row in report["results"]["rows"]]
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerows([columns, *cells])
        assert cli.render(report, "csv") == buffer.getvalue()
        assert len(cells) == points
        texts = columns + [cell for line in cells for cell in line]
        assert not any(char in text for text in texts for char in ',"\r\n')

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "mixed", "--fidelity", "0.7", "--format", "table")
        assert code == 0
        assert "p_detect_lower" in out

    def test_internal_failure_maps_to_exit_one(self, capsys, monkeypatch):
        def boom(cfg):
            raise ValueError("synthetic numeric failure")

        def non_finite(cfg):  # the renderer refuses it, before anything is written
            return {"p_entangled": math.nan}

        for runner, message in ((boom, "synthetic numeric failure"), (non_finite, "non-finite value in report")):
            monkeypatch.setitem(cli._SCENARIOS, "iterate", (runner, *cli._SCENARIOS["iterate"][1:]))
            code, out, err = run_cli(capsys, "iterate", "--a2", "0.5")
            assert code == 1
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", sorted(_NON_FINITE_POSITIONS))
    def test_non_finite_value_is_refused_in_every_position(self, capsys, monkeypatch, position, bad):
        argv, results = _NON_FINITE_POSITIONS[position]
        monkeypatch.setitem(cli._SCENARIOS, argv[0], (lambda cfg: results(bad), *cli._SCENARIOS[argv[0]][1:]))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: non-finite value in report\n"


class TestThroughputReports:
    def test_paper_mixed_preset(self, capsys):
        code, out, _ = run_cli(capsys, "throughput", "--preset", "paper-mixed")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["pairs_per_second"] == pytest.approx(8.17, abs=0.01)
        assert report["results"]["p_protocol"] == pytest.approx(0.7 / 3.0, abs=1e-12)
        assert any("eight pairs" in note for note in report["notes"])

    def test_paper_product_preset(self, capsys):
        code, out, _ = run_cli(capsys, "throughput", "--preset", "paper-product")
        report = json.loads(out)
        assert report["results"]["pairs_per_second"] == pytest.approx(4.90, abs=0.01)
        assert any("five pairs" in note for note in report["notes"])

    def test_paper_cavity_preset_labels_both_rates(self, capsys):
        code, out, _ = run_cli(capsys, "throughput", "--preset", "paper-cavity")
        assert code == 0
        report = json.loads(out)
        cavity = report["results"]["cavity"]
        assert cavity["decay_rate_formula_per_s"] == pytest.approx(6.609e7, rel=1e-3)
        assert cavity["decay_rate_quoted_per_s"] == pytest.approx(9.9e6)
        assert "decay_rate_formula_per_s" in cavity["labels"]
        assert "decay_rate_quoted_per_s" in cavity["labels"]
        assert any("disagree" in note for note in report["notes"])

    def test_custom_throughput_via_config(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "p_cav": 0.02,
                    "detector_efficiency": 0.5,
                    "photon_rate": 1000.0,
                    "protocol": "product",
                    "a2": 0.5,
                }
            )
        )
        code, out, _ = run_cli(capsys, "throughput", "--config", str(path))
        assert code == 0
        report = json.loads(out)
        expected = (2.0 / 3.0 * 0.25) * 0.02 * 0.5 * 1000.0
        assert report["results"]["pairs_per_second"] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("fidelity", [0.0, 5e-324, 1e-300, 0.3, 0.7, 1.0 - 1e-16, 1.0])
    def test_mixed_success_is_one_figure(self, tmp_path, fidelity):
        # the mixed report, the mixed sweep and a mixed throughput all pool the same mixture
        mixed = cli.build_report(parse_config(["mixed", "--fidelity", repr(fidelity)]))
        sweep = cli.build_report(parse_config([
            "sweep", "--scenario", "mixed", "--axis", "fidelity",
            "--from", repr(fidelity), "--to", repr(fidelity), "--points", "2",
        ]))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "p_cav": 0.02, "detector_efficiency": 0.5, "photon_rate": 1000.0, "protocol": "mixed", "fidelity": fidelity,
        }))
        throughput = cli.build_report(parse_config(["throughput", "--config", str(path)]))
        iterated = mixed["results"]["iterated"]["p_entangled"]
        assert [row["p_entangled_iterated"] for row in sweep["results"]["rows"]] == [iterated, iterated]
        assert throughput["results"]["p_protocol"] == iterated

        def bits(block, names):
            return [block[name].hex() for name in names]

        columns = ("p_detect_lower", "p_detect_upper", "p_scattered")
        single = bits(mixed["results"]["single_pass"], columns)
        assert [bits(row, columns) for row in sweep["results"]["rows"]] == [single, single]
        # so do the Monte Carlo and iterate reports' closed forms, with the fidelity read as a population
        sampled = cli.build_report(parse_config(["monte-carlo", "--a2", repr(fidelity), "--trials", "1"]))
        exact = cli.build_report(parse_config(["iterate", "--a2", repr(fidelity)]))["results"]["analytic"]
        outcomes = ("p_entangled", "p_scattered", "p_stuck")
        assert sorted(sampled["results"]["analytic"]) == sorted(outcomes)
        assert bits(sampled["results"]["analytic"], outcomes) == bits(exact, outcomes)


    @pytest.mark.parametrize("phased", [False, True], ids=["unphased", "phased"])
    def test_product_success_is_the_iterate_figure(self, tmp_path, phased):
        # a product throughput prices the ions it echoes, phases included, with the iterate report's bits
        rng = random.Random(2027 + phased)
        path = tmp_path / "run.json"
        for a2 in [0.0, 5e-324, 1.0, *(rng.random() for _ in range(150))]:
            ions = {"a2": a2}
            if phased:
                ions.update({name: rng.uniform(-3.0, 3.0) for name in cli._AMPLITUDES[2:]})
            path.write_text(json.dumps(ions))
            iterate = cli.build_report(parse_config(["iterate", "--config", str(path)]))["results"]["analytic"]
            custom = {"p_cav": 0.02, "detector_efficiency": 0.5, "photon_rate": 1000.0, "protocol": "product"}
            path.write_text(json.dumps({**custom, **ions}))
            throughput = cli.build_report(parse_config(["throughput", "--config", str(path)]))["results"]
            assert throughput["p_protocol"].hex() == iterate["p_entangled"].hex(), ions


class TestSchema:
    def scenarios(self):
        return [
            ["single-pass", "--a2", "0.5"],
            ["iterate", "--a2", "0.7"],
            ["mixed", "--fidelity", "0.7"],
            ["monte-carlo", "--a2", "0.5", "--trials", "500", "--seed", "1"],
            ["throughput", "--preset", "paper-mixed"],
            ["throughput", "--preset", "paper-cavity"],
            ["sweep", "--scenario", "single_pass", "--axis", "a2",
             "--from", "0", "--to", "1", "--points", "3", "--format", "json"],
        ]

    def test_all_reports_validate(self, capsys, report_schema):
        for argv in self.scenarios():
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            jsonschema.validate(json.loads(out), report_schema)

    def test_config_schema_matches_run_config(self, report_schema):
        config = report_schema["properties"]["config"]
        json_types = {"str": "string", "int": "integer", "float": "number"}
        expected = {}
        for name, key in cli._CONFIG_KEYS.items():
            kind = json_types[key.type.__name__]
            expected[name] = {"type": [kind, "null"] if RunConfig._field_defaults.get(name, kind) is None else kind}
            if name == "format":
                expected[name] = {"enum": list(key.choices)}
        assert list(config["properties"]) == list(expected)
        assert config["properties"] == expected
        assert config["required"] == [name for name in RunConfig._fields if name not in RunConfig._field_defaults]

    def test_config_echo_reparses_equal(self, capsys):
        code, out, _ = run_cli(capsys, "monte-carlo", "--a2", "0.7", "--trials", "100", "--seed", "3")
        assert code == 0
        echoed = json.loads(out)["config"]
        assert RunConfig.from_dict(echoed) == parse_config(
            ["monte-carlo", "--a2", "0.7", "--trials", "100", "--seed", "3"]
        )

    def test_seventeen_digit_floats_round_trip(self, capsys):
        from ionmzi import recycler

        code, out, _ = run_cli(capsys, "iterate", "--a2", "0.7")
        report = json.loads(out)
        value = report["results"]["analytic"]["p_entangled"]
        cfg = parse_config(["iterate", "--a2", "0.7"])
        expected = recycler.iterate_analytic(cli._product_ions(cfg)).p_entangled
        assert value == expected  # bit-exact serialization

    def test_strings_are_written_as_json_writes_them(self):
        # every ASCII character, then three that json escapes beyond ASCII: a letter, a line separator, an astral one
        characters = [chr(code) for code in range(0x80)] + ["\u00e9", "\u2028", "\U0001d11e"]
        for text in ["", *characters, *(f"a {character}b" for character in characters)]:
            assert cli._dump_json(text) == json.dumps(text), repr(text)
            assert cli._dump_json({text: 1}) == json.dumps({text: 1}, separators=(",", ":")), repr(text)


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io
from ionmzi.cli import main
runs = [
    ["single-pass", "--a2", "0.3"],
    ["iterate", "--a2", "0.7"],
    ["mixed", "--fidelity", "0.7"],
    ["monte-carlo", "--a2", "0.5", "--trials", "200", "--seed", "1"],
    ["throughput", "--preset", "paper-mixed"],
    ["sweep", "--scenario", "single_pass", "--axis", "a2", "--from", "0", "--to", "1", "--points", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(codes, sorted(loaded - set(sys.stdlib_module_names) - {"ionmzi"}))
"""


def test_runtime_imports_only_the_standard_library():
    # a fresh interpreter: this process already holds numpy and jsonschema
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "[0, 0, 0, 0, 0, 0] []\n"


#: Modules a cold start must not load: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
#: ``typing`` costs about 4 ms.  No argv is read with ``argparse``, which pulls in ``gettext`` and ``locale``, and a
#: plain report is written without ``json``.  ``linecache`` is not listed, as Python 3.13 loads it at startup.
_HEAVY_MODULES = {"dataclasses", "inspect", "typing", "argparse", "gettext", "locale", "json"}


#: One plain report argv of each scenario, by test id; the sweep is written as CSV.
_COLD_REPORTS = {
    "report": ["single-pass", "--a2", "0.5"],
    "iterate": ["iterate", "--a2", "0.7"],
    "mixed": ["mixed", "--fidelity", "0.7"],
    "monte-carlo": ["monte-carlo", "--a2", "0.5", "--trials", "200", "--seed", "1"],
    "throughput": ["throughput", "--preset", "paper-mixed"],
    "sweep-csv": ["sweep", "--scenario", "single_pass", "--axis", "a2", "--from", "0", "--to", "1", "--points", "3"],
}


#: Argvs that are not plain, by test id, with their exit code: a help page, ``--flag=value``, an abbreviated flag and
#: a refusal.
_COLD_OTHERS = {
    "help": (["iterate", "--help"], 0),
    "flag=value": (["iterate", "--a2=0.5"], 0),
    "abbreviation": (["mixed", "--fid", "0.7"], 0),
    "refusal": (["single-pass", "--a2", "x"], 2),
}


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["-c", "import ionmzi.cli"], 0, id="import"),
        *(pytest.param(["-m", "ionmzi", *argv], 0, id=name) for name, argv in _COLD_REPORTS.items()),
        *(pytest.param(["-m", "ionmzi", *argv], code, id=name) for name, (argv, code) in _COLD_OTHERS.items()),
    ],
)
def test_cold_start_loads_no_heavy_module(argv, code):
    # -S skips site, whose .pth files may import typing first; -X importtime names every module the process imports
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = subprocess.run([sys.executable, "-S", "-X", "importtime", *argv], env=env, capture_output=True, text=True)
    assert probe.returncode == code, probe.stderr
    lines = probe.stderr.splitlines()
    imported = {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}
    assert {"ionmzi.cli", "ionmzi.protocol"} <= imported
    assert not imported & _HEAVY_MODULES


def _cli_process(argv: list[str], unbuffered: bool, stdout) -> subprocess.Popen:
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "ionmzi", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env)


#: A CSV report of about 500 kB, far more than a pipe holds before its reader must read.
_LARGE_SWEEP = ["sweep", "--scenario", "single_pass", "--axis", "a2", "--from", "0", "--to", "1", "--points", "5000"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "target",
    [
        pytest.param("full-device", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
        "closed-pipe",
    ],
)
def test_unwritable_output_is_one_error_line(target, unbuffered):
    if target == "full-device":
        with open("/dev/full", "wb") as full, _cli_process(["single-pass", "--a2", "0.5"], unbuffered, full) as proc:
            err = proc.stderr.read()
    else:
        with _cli_process(_LARGE_SWEEP, unbuffered, subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b"a2,p_scatt"
            proc.stdout.close()  # the reader goes away after a few bytes
            err = proc.stderr.read()
    lines = err.decode().splitlines()
    assert proc.returncode == 1, lines
    assert len(lines) == 1 and lines[0].startswith("error: cannot write report: "), lines
    assert "Traceback" not in lines[0] and "Exception ignored" not in lines[0]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["monte-carlo", "--help"]], ids=["top", "subcommand"])
def test_unwritable_help_is_one_error_line(argv, unbuffered):
    """A help page takes the report's write path: no ``Exception ignored`` at exit, and no page lost silently."""
    with open("/dev/full", "wb") as full, _cli_process(argv, unbuffered, full) as proc:
        err = proc.stderr.read()
    lines = err.decode().splitlines()
    assert proc.returncode == 1, lines
    assert len(lines) == 1 and lines[0].startswith("error: cannot write report: "), lines
