"""Seeded fuzz of ``--config`` files through every subcommand.

The cases come from one fixed seed.  Half of them are well formed for their
subcommand; the other half break one or two keys with a wrong type, a bool,
a string, a list, NaN, an integer too large for a float, an out-of-range
value, an unknown key or a missing key.  Whatever the input, ``main`` must
end with exit code 0, 1 or 2 and raise nothing else; a usage error (2)
prints nothing on stdout, and every successful JSON report validates
against the published schema.

``trials``, ``points`` and ``max_passes`` are always given and kept small
(at most 50, 20 and 40), including in the broken cases: the default of
100,000 Monte Carlo trials would make the suite slow, and a huge count is a
valid, merely long, run.
"""

import json
import random
from dataclasses import fields
from importlib import resources

import jsonschema
import pytest

from ionmzi.cli import RunConfig, main

SEED = 20240611
CASES = 400
SUBCOMMANDS = ("single-pass", "iterate", "mixed", "monte-carlo", "throughput", "sweep")
#: Keys whose value sets the amount of work: broken values stay small.
_BOUNDED = {"trials": 50, "points": 20, "max_passes": 40}
_BAD = ("0.5", "", True, False, None, [0.5], {"a2": 0.5}, float("nan"), 10**400, -1, -0.5, 0, 1.5, 2, 1e300)
_BAD_BOUNDED = ("5", True, None, [3], 1.5, float("nan"), -1, 0, 1, 2)
_KEYS = tuple(field.name for field in fields(RunConfig))


def _population(rng: random.Random) -> float:
    return rng.choice((0.0, 1.0, rng.random(), rng.random()))


def _amplitudes(rng: random.Random, config: dict) -> None:
    config["a2"] = _population(rng)
    if rng.random() < 0.5:
        config["alpha2"] = _population(rng)
    for name in ("phase_alpha", "phase_beta", "phase_a", "phase_b"):
        if rng.random() < 0.4:
            config[name] = rng.uniform(-10.0, 10.0)


def _well_formed(rng: random.Random, subcommand: str) -> dict:
    config = {"trials": rng.randint(1, _BOUNDED["trials"]), "max_passes": rng.randint(1, _BOUNDED["max_passes"])}
    config["format"] = rng.choice(("json", "json", "table"))
    if subcommand in ("single-pass", "iterate", "monte-carlo"):
        _amplitudes(rng, config)
    if subcommand == "monte-carlo":
        config["seed"] = rng.randrange(2**64)
    elif subcommand == "mixed":
        config["fidelity"] = _population(rng)
    elif subcommand == "throughput":
        preset = rng.choice((None, "paper-mixed", "paper-product", "paper-cavity"))
        if preset is not None:
            config["preset"] = preset
        else:
            config["protocol"] = rng.choice(("mixed", "product"))
            config["fidelity" if config["protocol"] == "mixed" else "a2"] = _population(rng)
            config["p_cav"] = _population(rng)
            config["detector_efficiency"] = _population(rng)
            config["photon_rate"] = rng.uniform(0.0, 1e4)
            if rng.random() < 0.5:
                config["outcoupling"] = _population(rng)
    elif subcommand == "sweep":
        config["sweep_scenario"] = rng.choice(("single_pass", "iterate", "mixed"))
        config["axis"] = "fidelity" if config["sweep_scenario"] == "mixed" else rng.choice(("a2", "alpha2"))
        if config["sweep_scenario"] != "mixed":
            _amplitudes(rng, config)
        config["sweep_from"] = _population(rng)
        config["sweep_to"] = _population(rng)
        config["points"] = rng.randint(2, _BOUNDED["points"])
        config["format"] = rng.choice(("json", "json", "csv", "table"))
    return config


def _break(rng: random.Random, config: dict) -> None:
    """Spoil one or two keys of a well-formed config in place."""
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.1:
            config[rng.choice(("warp", "seeds", "a_2"))] = 1
        elif roll < 0.2 and len(config) > 2:
            config.pop(rng.choice([key for key in config if key != "trials"]))
        elif roll < 0.3:
            config["preset"] = rng.choice(("paper-mixed", "paper-product", "paper-cavity", "paper"))
            config[rng.choice(("p_cav", "protocol", "a2", "fidelity"))] = 0.5
        else:
            key = rng.choice(_KEYS)
            config[key] = rng.choice(_BAD_BOUNDED if key in _BOUNDED else _BAD)


def _cases() -> list[tuple[str, dict]]:
    rng = random.Random(SEED)
    cases = []
    for index in range(CASES):
        subcommand = SUBCOMMANDS[index % len(SUBCOMMANDS)]
        config = _well_formed(rng, subcommand)
        if index // len(SUBCOMMANDS) % 2:
            _break(rng, config)
        cases.append((subcommand, config))
    return cases


@pytest.fixture(scope="module")
def report_validator():
    """A validator for the report schema, built once: ``jsonschema.validate`` builds one per call."""
    schema = json.loads(resources.files("ionmzi").joinpath("schemas/report.schema.json").read_text())
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    return validator(schema)


def test_fuzzed_configs_end_cleanly(capsys, tmp_path, report_validator):
    path = tmp_path / "run.json"
    codes = {0: 0, 1: 0, 2: 0}
    for subcommand, config in _cases():
        path.write_text(json.dumps(config))
        case = f"{subcommand} {json.dumps(config)}"
        try:
            code = main([subcommand, "--config", str(path)])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code in codes, case
        codes[code] += 1
        if code == 2:
            assert out == "", case
        elif code == 0 and config.get("format", "csv" if subcommand == "sweep" else "json") == "json":
            report_validator.validate(json.loads(out))
    assert codes[0] > CASES // 4 and codes[2] > CASES // 4, codes


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b'{"a2": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "nested-too-deep", "integer-too-long"],
)
def test_unreadable_config_file_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    code = main(["iterate", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: config file is not valid JSON: ")
