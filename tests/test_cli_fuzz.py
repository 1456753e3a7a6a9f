"""Seeded fuzz of ``--config`` files through every subcommand, and of argvs through the argv reader.

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

The argvs are drawn from a zoo of flags and values, many of them spellings
with rules of their own: abbreviations, ``--flag=value``, help, ``--``,
repeated flags, odd token counts, and values such as ``-5.``, ``-1e5``,
``1_000``, an Arabic-Indic digit or a superscript two.  Read in an empty
working directory, each must make ``cli.parse_config`` raise ``UsageError``
exactly where the committed same-outputs manifest, written by
``tests/same_outputs.py --manifest``, holds exit code 2 for it.

The report writer is fuzzed on seeded nested values: dicts with str and int
keys, many of them escaped by JSON, lists, tuples, records nested in each
other, complex numbers and edge floats.  ``cli._dump_json`` must write each
exactly as ``oracles.reference_dump_json``, the writer it replaced.
"""

import contextlib
import json
import pathlib
import random
from collections import namedtuple
from importlib import resources

import jsonschema
import pytest

from ionmzi import cli
from ionmzi.cli import _CONFIG_KEYS, RunConfig, main
from ionmzi.efficiency import ReferenceValue, ThroughputReport
from ionmzi.protocol import IonPairState
from oracles import reference_dump_json

SEED = 20240611
CASES = 400
SUBCOMMANDS = ("single-pass", "iterate", "mixed", "monte-carlo", "throughput", "sweep")
#: Keys whose value sets the amount of work: broken values stay small.
_BOUNDED = {"trials": 50, "points": 20, "max_passes": 40}
_BAD = ("0.5", "", True, False, None, [0.5], {"a2": 0.5}, float("nan"), 10**400, -1, -0.5, 0, 1.5, 2, 1e300)
_BAD_BOUNDED = ("5", True, None, [3], 1.5, float("nan"), -1, 0, 1, 2)
_KEYS = tuple(_CONFIG_KEYS)


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


ARGV_SEED = 20261019
ARGV_CASES = 3000
_FLAGS = sorted({spec.flag for spec in _CONFIG_KEYS.values() if spec.flag} | {"--config"})
#: Tokens that argparse reads in its own way when given as a flag.
_ODD_FLAGS = (
    "--a", "--al", "--phase", "--phase-al", "--tri", "--se", "--fo", "--conf", "--sc", "--pre", "--max", "--poi",
    "--a2=0.5", "--seed=3", "--format=json", "-h", "--help", "--h", "--", "-", "--bogus", "single-pass", "a2",
)
_VALUES = (
    "-5", "-.5", "-5.", "-1e5", "-0", "-0.25", "-5 ", "- 5", "-\u0663", "-\u00b2", "-x", "--", "-h",
    "nan", "inf", "-inf", "", " 0.5", "1_000", "\u0663", "0", "1", "3", "7", "40", "0.5", "0.25", "1e-3", "2.5",
    "json", "csv", "table", "xml", "paper-mixed", "paper-product", "paper-cavity", "paper",
    "single_pass", "iterate", "mixed", "a2", "alpha2", "fidelity", "zzz", "run.json",
)
#: Values that fit a flag: one of its choices, else a number in one of its spellings.
_CHOICES = {spec.flag: tuple(spec.choices) for spec in _CONFIG_KEYS.values() if spec.flag and spec.choices}
_NUMBERS = ("0", "1", "3", "0.5", "-0.25", "-.5", "-5", "1_000", "\u0663", " 0.5", "nan", "1e-3")
_SUBCOMMANDS_AND_STRAYS = (*SUBCOMMANDS, *SUBCOMMANDS, "single_pass", "monte", "-h", "--help", "--", "--a2")


def _argv(rng: random.Random) -> list[str]:
    argv = [rng.choice(_SUBCOMMANDS_AND_STRAYS)]
    scenario = cli._SCENARIOS.get(argv[0].replace("-", "_"), (None, None, ()))
    own = [_CONFIG_KEYS[key].flag for key in scenario[2]] + ["--format", "--config"]
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        flag = rng.choice(_ODD_FLAGS if roll < 0.2 else _FLAGS if roll < 0.3 else own)
        if rng.random() < 0.2 and len(argv) > 1:
            flag = argv[rng.randrange(1, len(argv), 2)]  # a flag given again, or a value given as a flag
        fits = _CHOICES.get(flag, _NUMBERS)
        argv += [flag, rng.choice(_VALUES if rng.random() < 0.4 else fits)]
    if rng.random() < 0.1:
        argv.append(rng.choice((*_FLAGS, *_VALUES)))
    return argv


#: The committed manifest of ``tests/same_outputs.py``: its argv fuzz runs are the ``ARGV_CASES`` lines before the
#: last two, which are its ``EXTRA_CONFIGS``.
MANIFEST = pathlib.Path(__file__).with_name("golden") / "same_outputs.txt"


def test_fuzzed_argvs_are_refused_where_the_manifest_exits_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --config path names no file, as in the manifest's runs
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()[-ARGV_CASES - 2:-2]
    rng = random.Random(ARGV_SEED)
    refused = []
    for index in range(ARGV_CASES):
        argv = _argv(rng)
        try:
            with contextlib.suppress(cli.HelpRequest):
                cli.parse_config(argv)
        except cli.UsageError:
            refused.append(index)
    assert refused == [index for index, line in enumerate(lines) if line.split()[2] == "2"]
    # both answers are common: the reader reads, and the reader refuses
    assert ARGV_CASES // 5 < len(refused) < ARGV_CASES - ARGV_CASES // 5, len(refused)


WRITER_SEED = 20261020
WRITER_CASES = 2500
#: Dict keys: plain names; every one that JSON escapes, from each control character to a letter and a line separator
#: beyond ASCII; and ints.  "\x0b" and "\x0c" escape to "\u000b" and "\f", which sort the other way round.
_WRITER_KEYS = (
    "a2", "p_entangled", "columns", "", " ", '"', "\\", 'a"b', "a\\b", "\u00e9", "\u2028", "\x7f",
    *(chr(code) for code in range(0x20)), 0, -1, 7, 10, 2**64,
)
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.1, 1 / 3, -2.5)
_OTHER_LEAVES = (True, False, None, 0, -1, 2**64, "", "text", '"', "\\", "\x0b", "\u00e9", "\u2028")
#: Records whose fields are out of name order, and one without fields.
_Pair = namedtuple("_Pair", "zeta alpha")
_Triple = namedtuple("_Triple", "mid c_b a_1")
_Empty = namedtuple("_Empty", "")
_RECORDS = (_Pair, _Triple, _Empty, ThroughputReport, ReferenceValue, RunConfig)
#: Kinds of value, by weight; from depth 4 on only the first four, which hold no other value.
_VALUE_KINDS = {"float": 30, "leaf": 10, "complex": 10, "ions": 5, "dict": 18, "list": 9, "tuple": 9, "record": 9}


def _float(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.choice(_EDGE_FLOATS)
    return rng.choice((1.0, -1.0)) * rng.random() * 10.0 ** rng.randint(-320, 300)


def _report_value(rng: random.Random, drawn: dict, depth: int = 0):
    """A nested value for the writer; ``drawn`` counts each kind of value."""
    kinds = list(_VALUE_KINDS)[: 8 if depth < 4 else 4]
    kind = rng.choices(kinds, [_VALUE_KINDS[name] for name in kinds])[0]
    drawn[kind] += 1
    if kind == "float":
        return _float(rng)
    if kind == "leaf":
        return rng.choice(_OTHER_LEAVES)
    if kind == "complex":
        return complex(_float(rng), _float(rng))
    if kind == "ions":
        return IonPairState.from_unnormalized(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
    if kind == "record":
        record = rng.choice(_RECORDS)
        return record(*(_report_value(rng, drawn, depth + 1) for _ in record._fields))
    items = [_report_value(rng, drawn, depth + 1) for _ in range(rng.choice((0, 1, 2, 3, 5)))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    value = dict(zip(rng.sample(_WRITER_KEYS, len(items)), items))
    if rng.random() < 0.2:
        value.update({"\x0c": _float(rng), "\x0b": _float(rng)})
        drawn["vt-ff"] += 1
    return value


def test_report_writer_agrees_with_reference():
    assert cli._dump_json({"\x0c": 1, "\x0b": 2}) == '{"\\u000b":2,"\\f":1}'  # sorted by raw key, not its text
    rng = random.Random(WRITER_SEED)
    drawn = dict.fromkeys([*_VALUE_KINDS, "vt-ff"], 0)
    for _ in range(WRITER_CASES):
        value = _report_value(rng, drawn)
        assert cli._dump_json(value) == reference_dump_json(value), value
    assert min(drawn.values()) > 200, drawn
    for value in ({0.5}, b"0.5", [object()]):  # no report holds these: the writer refuses them
        with pytest.raises(TypeError, match="is not a report value"):
            cli._dump_json(value)
