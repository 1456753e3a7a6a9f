"""Command-line front end: scenario runs, parameter sweeps, reproducible reports.

Reports are emitted as a single JSON document (or CSV rows for sweeps)
with floats printed to 17 significant digits, so identical configs give
byte-identical output.  Amplitudes are entered as (population, phase)
pairs: ``--a2`` is the lower ion's m+ population, ``--alpha2`` the upper
ion's (defaulting to ``--a2`` so the two ions match), phases default to
zero.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import sys
from collections import namedtuple

from . import efficiency, protocol, recycler
from .protocol import IonPairState, bell_psi_minus, bell_psi_plus
from .states import NORM_TOL

SCHEMA_VERSION = 2
TOOL_NAME = "ionmzi"

_SWEEP_AXES = ("a2", "alpha2", "fidelity")
#: Throughput protocol -> the config key of its source value.
_SOURCE_KEY = {"mixed": "fidelity", "product": "a2"}
_REFERENCE = efficiency.REFERENCE_POINT
_OPERATING_POINT = {
    "p_cav": _REFERENCE["emission_probability_quoted"].value,
    "detector_efficiency": _REFERENCE["detector_efficiency"].value,
    "photon_rate": _REFERENCE["photon_rate"].value,
}
#: Config keys a throughput preset fixes: each resolves to the preset's value, or to its
#: RunConfig default where the preset sets none.  A config may give one only at that value,
#: which the report echoes, so an echo re-runs.
_PRESET_FIXES = (*_SOURCE_KEY.values(), *_OPERATING_POINT, "outcoupling", "protocol")
#: Throughput preset -> (the fixed keys it sets, notes).  ``paper-cavity`` reports the
#: cavity formulas instead of a throughput, so it sets none.
_PRESETS = {
    "paper-mixed": ({"protocol": "mixed", "fidelity": _REFERENCE["input_fidelity"].value, **_OPERATING_POINT}, (
        "reference operating point: mixed input with fidelity 0.7, p_cav 0.01, "
        "detector efficiency 0.7, unit outcoupling, 5000 photons/s",
        "the published claim rounds 8.17 pairs/s to eight pairs per second",
    )),
    "paper-product": ({"protocol": "product", "a2": _REFERENCE["plus_population"].value, **_OPERATING_POINT}, (
        "reference operating point: matched product input with m+ population 0.7, "
        "p_cav 0.01, detector efficiency 0.7, unit outcoupling, 5000 photons/s",
        "the published claim rounds 4.90 pairs/s to five pairs per second",
    )),
    "paper-cavity": ({}, (
        "the evaluated decay-rate formula (6.609e7/s) and the quoted reference "
        "value (9.9e6/s) disagree for the same finesse and length; both are "
        "reported and neither is adjusted",
    )),
}
_AMPLITUDES = ("a2", "alpha2", "phase_alpha", "phase_beta", "phase_a", "phase_b")
#: The iterated outcomes that the mixed and Monte Carlo reports give for the closed form.
_OUTCOMES = ("p_entangled", "p_scattered", "p_stuck")


class UsageError(Exception):
    """Invalid flags or config file; maps to exit code 2."""


class HelpRequest(Exception):
    """A help flag, read before any refusal: its one argument is the page, which ``main`` writes as a report."""


# --- report serialization ---------------------------------------------------


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("non-finite value in report")
    return format(value, ".17g")


def _dump_json(value) -> str:
    parts: list[str] = []
    _write(value, parts)
    return "".join(parts)


def _write(value, parts: list[str]) -> None:
    """Append the JSON text of ``value`` to ``parts``, dispatching on its exact type, most common first."""
    kind = type(value)
    if kind is float:
        parts.append(_format_float(value))
    elif kind is dict:
        parts.append("{")
        for key in sorted(value, key=str):
            parts.append(_key_text(str(key)))
            _write(value[key], parts)
            parts.append(",")
        parts[-1] = "}" if value else "{}"  # over the last comma, or over the opening brace of an empty object
    elif kind is list or kind is tuple:  # a record is a tuple subclass, written by field name below
        parts.append("[")
        for item in value:
            _write(item, parts)
            parts.append(",")
        parts[-1] = "]" if value else "[]"
    elif kind is str:
        parts.append(_dump_str(value))
    elif value is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if value else "false")
    elif kind is int:
        parts.append(str(value))
    elif kind is complex:
        parts.append(f"[{_format_float(value.real)},{_format_float(value.imag)}]")
    else:
        parts.append("{")
        for _, key, index in _record_fields(kind):
            parts.append(key)
            _write(value[index], parts)
            parts.append(",")
        parts[-1] = "}" if value else "{}"


def _dump_str(text: str) -> str:
    """``json.dumps(text)``: written as is where ``json`` would escape nothing, so a plain report needs no ``json``."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


@functools.cache
def _key_text(key: str) -> str:
    """A dict key's text as JSON with its colon, written once: keys are field names, so the cache holds a few dozen."""
    return _dump_str(key) + ":"


@functools.cache
def _record_fields(kind: type) -> tuple[tuple[str, str, int], ...]:
    """A result record's fields by sorted name, as (name, JSON key text, index): a record renders as these."""
    if not (issubclass(kind, tuple) and hasattr(kind, "_fields")):
        raise TypeError(f"{kind.__name__} is not a report value")
    return tuple(sorted((name, _key_text(name), index) for index, name in enumerate(kind._fields)))


def _iteration(result: recycler.IterationResult | recycler.MonteCarloResult) -> dict:
    return {**result._asdict(), "passes_distribution": list(result.passes_distribution.items())}


# --- scenario runners -------------------------------------------------------


def _resolved_amplitudes(cfg: RunConfig) -> tuple[complex, complex, complex, complex]:
    alpha2 = cfg.alpha2 if cfg.alpha2 is not None else cfg.a2
    u_plus = math.sqrt(alpha2) * cmath.exp(1j * cfg.phase_alpha)
    u_minus = math.sqrt(1.0 - alpha2) * cmath.exp(1j * cfg.phase_beta)
    l_plus = math.sqrt(cfg.a2) * cmath.exp(1j * cfg.phase_a)
    l_minus = math.sqrt(1.0 - cfg.a2) * cmath.exp(1j * cfg.phase_b)
    return u_plus, u_minus, l_plus, l_minus


def _product_ions(cfg: RunConfig) -> IonPairState:
    return IonPairState.product(*_resolved_amplitudes(cfg))


def _run_single_pass(cfg: RunConfig) -> dict:
    u_plus, u_minus, l_plus, l_minus = _resolved_amplitudes(cfg)
    result = protocol.single_pass(IonPairState.product(u_plus, u_minus, l_plus, l_minus))
    post = result.post_detect_lower
    return {
        "inputs": {"u_plus": u_plus, "u_minus": u_minus, "l_plus": l_plus, "l_minus": l_minus},
        "probabilities": {name[2:]: value for name, value in result._asdict().items() if name.startswith("p_")},
        # equal moduli on the two ions: the post-selected state is maximally entangled
        "balanced": abs(abs(u_plus) - abs(l_plus)) <= NORM_TOL and abs(abs(u_minus) - abs(l_minus)) <= NORM_TOL,
        "post_detect_upper": result.post_detect_upper,
        "post_detect_lower": post,
        "post_scatter_u": result.post_scatter_u,
        "post_scatter_l": result.post_scatter_l,
        "fidelity_detect_lower_vs_psi_minus": post.fidelity(bell_psi_minus()) if post is not None else None,
    }


def _run_iterate(cfg: RunConfig) -> dict:
    ions = _product_ions(cfg)
    analytic = recycler.iterate_analytic(ions)
    numeric = recycler.iterate_numeric(ions, cfg.max_passes)
    return {
        "analytic": _iteration(analytic),
        "numeric": _iteration(numeric),
        "abs_delta_p_entangled": abs(analytic.p_entangled - numeric.p_entangled),
    }


def _fidelity_vs(ensemble: protocol.Ensemble | None, bell: IonPairState) -> float | None:
    """Fidelity of a detector-conditioned ensemble with a Bell state; None if never heralded."""
    return None if ensemble is None else protocol._pooled(ensemble, lambda state: state.fidelity(bell))


def _mixed_pass(run: protocol.MixedPassResult) -> dict[str, float]:
    """The mixed input's single-pass branch weights, as the mixed report and the mixed sweep give them."""
    return {"p_detect_lower": run.p_detect_lower, "p_detect_upper": run.p_detect_upper,
            "p_scattered": run.p_scatter_u + run.p_scatter_l}


def _mixed_iterated(components: tuple) -> dict[str, float]:
    """The mixed input's iterated outcomes in closed form, each pooled over its (weight, ions, ...) components."""
    analytic = tuple((weight, recycler.iterate_analytic(ions)) for weight, ions, *_ in components)
    return {name: protocol._pooled(analytic, lambda result: getattr(result, name)) for name in _OUTCOMES}


def _run_mixed(cfg: RunConfig) -> dict:
    run = protocol.run_mixed(cfg.fidelity)
    numeric = protocol._pooled(run.components, lambda ions: recycler.iterate_numeric(ions, cfg.max_passes).p_entangled)
    return {
        "fidelity": cfg.fidelity,
        "single_pass": {
            **_mixed_pass(run),
            "fidelity_lower_vs_psi_minus": _fidelity_vs(run.post_detect_lower, bell_psi_minus()),
            "fidelity_upper_vs_psi_plus": _fidelity_vs(run.post_detect_upper, bell_psi_plus()),
        },
        "iterated": {**_mixed_iterated(run.components), "p_entangled_numeric": numeric},
    }


def _run_monte_carlo(cfg: RunConfig) -> dict:
    ions = _product_ions(cfg)
    sampled = recycler.monte_carlo(ions, cfg.trials, cfg.seed, cfg.max_passes)
    analytic = recycler.iterate_analytic(ions)
    fields = _iteration(sampled)
    del fields["counts"]
    return {**fields, "analytic": {name: getattr(analytic, name) for name in _OUTCOMES}}


def _run_throughput(cfg: RunConfig) -> dict:
    if cfg.preset == "paper-cavity":
        finesse = _REFERENCE["finesse"].value
        length = _REFERENCE["cavity_length"].value
        formula_rate = efficiency.cavity_decay_rate(finesse, length)
        quoted = _REFERENCE["cavity_decay_rate_quoted"]
        emission = _REFERENCE["emission_probability_quoted"]
        return {
            "preset": cfg.preset,
            "cavity": {
                "finesse": finesse,
                "cavity_length_m": length,
                "decay_rate_formula_per_s": formula_rate,
                "decay_rate_quoted_per_s": quoted.value,
                "emission_probability_quoted": emission.value,
                "labels": {
                    "decay_rate_formula_per_s": "evaluated as 4*pi*c/(finesse*length)",
                    "decay_rate_quoted_per_s": quoted.label,
                    "emission_probability_quoted": emission.label,
                },
            },
        }
    if cfg.protocol == "mixed":  # the iterated success as the mixed and iterate reports give it
        p_protocol = _mixed_iterated(protocol._mixed_components(cfg.fidelity))["p_entangled"]
    else:
        p_protocol = recycler.iterate_analytic(_product_ions(cfg)).p_entangled
    source_key = _SOURCE_KEY[cfg.protocol]
    report = efficiency.throughput(
        p_protocol,
        p_cav=cfg.p_cav,
        detector_efficiency=cfg.detector_efficiency,
        photon_rate=cfg.photon_rate,
        outcoupling=cfg.outcoupling,
    )
    return {
        "preset": cfg.preset,
        "source": {"protocol": cfg.protocol, source_key: getattr(cfg, source_key)},
        **report._asdict(),
        "detector_efficiency": cfg.detector_efficiency,
        "outcoupling": cfg.outcoupling,
        "photon_rate": cfg.photon_rate,
    }


def _mixed_point(point: RunConfig) -> dict:
    run = protocol.run_mixed(point.fidelity)
    return {**_mixed_pass(run), "p_entangled_iterated": _mixed_iterated(run.components)["p_entangled"]}


#: Sweep scenario -> (its report columns after the axis, the values at one
#: point, by column name).
_SWEEPS = {
    "single_pass": (
        ("p_scatter_u", "p_scatter_l", "p_detect_upper", "p_detect_lower", "p_recycle"),
        lambda point: protocol.single_pass(_product_ions(point))._asdict(),
    ),
    "iterate": (
        ("p_entangled", "p_scattered", "p_stuck", "p_truncated"),
        lambda point: recycler.iterate_analytic(_product_ions(point))._asdict(),
    ),
    "mixed": (("p_detect_lower", "p_detect_upper", "p_scattered", "p_entangled_iterated"), _mixed_point),
}


def _run_sweep(cfg: RunConfig) -> dict:
    columns, evaluate = _SWEEPS[cfg.sweep_scenario]
    span = cfg.sweep_to - cfg.sweep_from
    rows = []
    for index in range(cfg.points):
        value = cfg.sweep_to if index == cfg.points - 1 else cfg.sweep_from + span * index / (cfg.points - 1)
        point = evaluate(cfg._replace(**{cfg.axis: value}))
        rows.append({cfg.axis: value, **{column: point[column] for column in columns}})
    return {"axis": cfg.axis, "columns": [cfg.axis, *columns], "rows": rows}


#: Scenario -> (its runner, its --help line, the keys it takes as flags, in --help order).
_SCENARIOS = {
    "single_pass": (_run_single_pass, "one traversal, branch probabilities and post states", _AMPLITUDES),
    "iterate": (_run_iterate, "recycling loop, closed form and round-by-round", (*_AMPLITUDES, "max_passes")),
    "mixed": (_run_mixed, "two-component mixed input, single pass and iterated", ("fidelity", "max_passes")),
    "monte_carlo": (_run_monte_carlo, "sampled recycling loop with standard errors", (
        *_AMPLITUDES, "trials", "seed", "max_passes")),
    "throughput": (_run_throughput, "entangled pairs per second", ("preset",)),
    "sweep": (_run_sweep, "scan one axis and emit one row per point", (
        "sweep_scenario", "axis", "sweep_from", "sweep_to", "points", *_AMPLITUDES)),
}


# --- config -----------------------------------------------------------------


_UNIT = (0, 1, "[0, 1]")
_KINDS = {str: "a string", int: "an integer", float: "a number"}
#: One config key: its type (``float``, ``int`` or ``str``), default, flag, ``--help`` text, choices and range.
#: ``within`` is ``(low, high, interval)``, with the interval named as written, or limits ``(low, high)``, where
#: ``low`` 0 means nonnegative, 1 positive, and ``high`` is a cap or None.
_ConfigKey = namedtuple("_ConfigKey", "type default flag help choices within", defaults=(None,) * 5)
#: Every config key once, in RunConfig's field order: ``_read_flags`` reads its flag, ``RunConfig.from_dict``
#: its type, ``_validate`` its choices and range.  ``scenario``, first, is the one key without a default.  A key
#: admits null exactly when its default is None, so ``scenario`` never does.
_CONFIG_KEYS = {
    "scenario": _ConfigKey(str),
    "a2": _ConfigKey(float, 0.5, "--a2", "lower ion m+ population", within=_UNIT),
    "alpha2": _ConfigKey(float, None, "--alpha2", "upper ion m+ population (defaults to --a2)", within=_UNIT),
    "phase_alpha": _ConfigKey(float, 0.0, "--phase-alpha"),
    "phase_beta": _ConfigKey(float, 0.0, "--phase-beta"),
    "phase_a": _ConfigKey(float, 0.0, "--phase-a"),
    "phase_b": _ConfigKey(float, 0.0, "--phase-b"),
    "fidelity": _ConfigKey(float, 0.7, "--fidelity", "input overlap with |Psi+>", within=(0, 1, "[0,1]")),
    "trials": _ConfigKey(int, 100_000, "--trials", within=(1, 10_000_000)),
    "seed": _ConfigKey(int, 0, "--seed", within=(0, recycler._MASK)),
    "max_passes": _ConfigKey(int, recycler.MAX_PASSES, "--max-passes", within=(1, 4096)),
    "preset": _ConfigKey(str, None, "--preset", choices=_PRESETS),
    "format": _ConfigKey(str, "json", "--format", choices=("json", "csv", "table")),
    "axis": _ConfigKey(str, None, "--axis", choices=_SWEEP_AXES),
    "sweep_from": _ConfigKey(float, None, "--from", within=_UNIT),
    "sweep_to": _ConfigKey(float, None, "--to", within=_UNIT),
    "points": _ConfigKey(int, None, "--points", within=(1, None)),
    "sweep_scenario": _ConfigKey(str, None, "--scenario", choices=_SWEEPS),
    "p_cav": _ConfigKey(float, within=_UNIT),
    "detector_efficiency": _ConfigKey(float, within=_UNIT),
    "outcoupling": _ConfigKey(float, 1.0, within=_UNIT),
    "photon_rate": _ConfigKey(float, within=(0, None)),
    "protocol": _ConfigKey(str, choices=_SOURCE_KEY),
}


class RunConfig(namedtuple("RunConfig", _CONFIG_KEYS, defaults=[key.default for key in _CONFIG_KEYS.values()][1:])):
    """Fully resolved run parameters, an immutable record; echoed verbatim into every report.

    Its fields and their defaults are the keys of ``_CONFIG_KEYS``.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        """Build a config, rejecting unknown keys and values of the wrong type.

        Numbers must be finite; an integer given for a float key becomes a float.
        """
        checked = {}
        for key, value in values.items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key: {key}")
            checked[key] = _typed(key, value, _CONFIG_KEYS[key].type, cls._field_defaults.get(key, key) is None)
        if "scenario" not in checked:
            raise UsageError("config needs a scenario")
        return cls(**checked)


def _typed(key: str, value, kind: type, nullable: bool):
    """``value`` checked against a config key's type, and let through as None where the key is ``nullable``."""
    if value is None and nullable:
        return None
    integral = isinstance(value, int) and not isinstance(value, bool)
    if (kind is str and isinstance(value, str)) or (kind is int and integral):
        return value
    if kind is float and (integral or isinstance(value, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise UsageError(f"{key} must be a finite number")
        return number
    raise UsageError(f"{key} must be {_KINDS[kind]}" + (" or null" if nullable else ""))


def _one_of(names) -> str:
    *others, last = names
    return f"{', '.join(others)} or {last}"


#: Subcommand -> {flag: (config key, its ``_CONFIG_KEYS`` record)} in ``--help`` order; ``--config`` has its own record.
_FLAGS = {
    name.replace("_", "-"): {
        **{_CONFIG_KEYS[key].flag: (key, _CONFIG_KEYS[key]) for key in (*keys, "format")},
        "--config": ("config", _ConfigKey(str, help="JSON file with config keys; flags override")),
    }
    for name, (_, _, keys) in _SCENARIOS.items()
}
_HELP = dict.fromkeys(("-h", "--help"))
_DESCRIPTION = "Simulate post-selected two-ion entanglement generation in a single-photon Mach-Zehnder interferometer."


def _wrap(words: list[str], lead: str, indent: str) -> list[str]:
    """``words`` in lines at most 78 wide, the first line after ``lead`` and the others after ``indent``."""
    lines = [lead + words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) > 78:
            lines.append(indent + word)
        else:
            lines[-1] += " " + word
    return lines


def _help_page(subcommand: str | None) -> str:
    """The ``--help`` page of ``subcommand``, or of the program for None: 80 columns wide, entry texts at column 24."""
    prog = f"{TOOL_NAME} {subcommand}" if subcommand else TOOL_NAME
    indent = " " * len(f"usage: {prog} ")
    rows = [(f"{flag} {'{' + ','.join(spec.choices) + '}' if spec.choices else key.upper()}", spec.help)
            for flag, (key, spec) in _FLAGS.get(subcommand, {}).items()]
    lines = _wrap([prog, "[-h]", *(f"[{invocation}]" for invocation, _ in rows)], "usage: ", indent)
    if subcommand is None:
        names = "{" + ",".join(_FLAGS) + "}"
        lines += [*_wrap([names, "..."], indent, indent), "", *_wrap(_DESCRIPTION.split(), "", ""), "",
                  "positional arguments:", f"  {names}",
                  *(f"    {name:<18}  {help_line}" for name, (_, help_line, _) in zip(_FLAGS, _SCENARIOS.values()))]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    return "\n".join([*lines, "", "options:", *(f"  {flag:<20}  {text or ''}".rstrip() for flag, text in rows)]) + "\n"


def _token(text: str, names: dict) -> tuple[str | None, str | None]:
    """(flag, the value after its ``=`` or None) of ``text`` among ``names``; the flag is None for a value and ``text``
    for an unknown flag.  A ``--`` flag may be abbreviated unless ambiguously, and ``-hx`` is ``-h`` with value ``x``.
    A value lacks a leading ``-``, is ``-`` alone, holds a space, or is a negative number in decimal digits."""
    name, equals, value = text.partition("=")
    if name in names:  # in full, with or without "=value": no flag holds "="
        return name, value if equals else None
    if len(text) < 2 or text[0] != "-":
        return None, None
    if text[1] == "-":
        matches = [flag for flag in names if flag.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"{name} is ambiguous: it could be {_one_of(matches)}")
        if matches:
            return matches[0], value if equals else None
    elif text.startswith("-h"):
        return "-h", text[2:]
    whole, dot, fraction = text[1:].removesuffix("\n").partition(".")  # -\d+ or -\d*\.\d+ as re reads them
    if (fraction if dot else whole).isdecimal() and (not whole or whole.isdecimal()) or " " in text:
        return None, None
    return text, None


def _help(flag: str | None, value: str | None, subcommand: str | None) -> None:
    """For a help flag, raise its page, or refuse it a value; ``-hh...`` reads as ``-h`` again."""
    if flag in _HELP:
        page = value is None or flag == "-h" and value and not value.strip("h")
        raise HelpRequest(_help_page(subcommand)) if page else UsageError(f"{flag} takes no value, not {value!r}")


def _read_flags(argv: list[str]) -> dict:
    """The config keys that ``argv`` sets, with ``scenario``, by the rules of Python 3.11's standard parser.  Reading
    stops at ``--``.  Before the subcommand, the first value, only help is read.  Every later token is resolved, then
    read in turn: a missing value, wrong type or choice is refused there; unknown flags and stray tokens at the end."""
    end = argv.index("--") if "--" in argv else len(argv)
    start = next((index for index, text in enumerate(argv[:end]) if _token(text, _HELP)[0] is None), end)
    for text in argv[:start]:
        _help(*_token(text, _HELP), None)
    if start == end:
        raise UsageError(f"a subcommand is needed: {_one_of(_FLAGS)}")
    subcommand, stray, given = argv[start], argv[:start], {"scenario": argv[start].replace("-", "_")}
    if subcommand not in _FLAGS:
        raise UsageError(f"the subcommand must be {_one_of(_FLAGS)}, not {subcommand!r}")
    flags, names, rest = _FLAGS[subcommand], {**_HELP, **_FLAGS[subcommand]}, argv[start + 1:end]
    tokens = zip(rest, [_token(text, names) for text in rest])  # every token resolved before any is read
    for text, (flag, value) in tokens:
        if flag not in flags:  # a help flag, an unknown flag or a stray value
            _help(flag, value, subcommand)
            stray.append(text)
            continue
        if value is None:  # the next token, if it is a value
            value, (after, _) = next(tokens, (None, ("", None)))
            if after is not None:
                raise UsageError(f"{flag} needs a value")
        key, spec = flags[flag]
        try:
            given[key] = spec.type(value)
        except ValueError:
            raise UsageError(f"{flag} must be {_KINDS[spec.type]}, not {value!r}") from None
        if spec.choices is not None and given[key] not in spec.choices:
            raise UsageError(f"{flag} must be {_one_of(spec.choices)}, not {value!r}")
    if stray or end < len(argv):
        raise UsageError(f"unrecognized arguments: {' '.join(stray + argv[end:])}")
    return given


def _load_config_file(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            values = json.load(handle)
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from err
    except (ValueError, RecursionError) as err:  # bad UTF-8, bad JSON, too long an integer, too deep
        raise UsageError(f"config file is not valid JSON: {err}") from err
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    return values


def _validate(cfg: RunConfig, given: dict) -> RunConfig:
    """``cfg`` checked, and resolved to its preset's operating point.  Only the keys that ``given`` sets are checked
    against their choices and range: defaults and preset values are constants, which ``tests/test_cli.py`` holds."""
    if cfg.preset is not None:
        if cfg.scenario != "throughput":
            raise UsageError("preset is only available for throughput")
        if cfg.preset not in _PRESETS:
            raise UsageError(f"unknown preset: {cfg.preset}")
        point = _PRESETS[cfg.preset][0]
        fixed = [key for key in _CONFIG_KEYS if key in _PRESET_FIXES and key in given
                 and getattr(cfg, key) != point.get(key, _CONFIG_KEYS[key].default)]
        if fixed:
            raise UsageError(f"--preset fixes the operating point and its source; drop {', '.join(fixed)}")
        cfg = cfg._replace(**point)
    for (name, spec), value in zip(_CONFIG_KEYS.items(), cfg):
        if value is None or name not in given:
            continue
        label = (spec.flag or name).lstrip("-")
        if spec.choices is not None and value not in spec.choices:
            raise UsageError(f"{label} must be {_one_of(spec.choices)}")
        if spec.within is None:
            continue
        low, high, *interval = spec.within
        if interval and not low <= value <= high:
            raise UsageError(f"{label} must lie in {interval[0]}")
        if value < low:
            raise UsageError(f"{label} must be {'positive' if low else 'nonnegative'}")
        if high is not None and value > high:
            raise UsageError(f"{label} must be at most {high}")
    if cfg.format == "csv" and cfg.scenario != "sweep":
        raise UsageError("csv format is only available for sweep")
    if cfg.scenario == "sweep":
        if cfg.sweep_scenario is None:
            raise UsageError("sweep needs --scenario (single_pass, iterate or mixed)")
        if cfg.axis is None:
            raise UsageError("sweep needs --axis (a2, alpha2 or fidelity)")
        if cfg.sweep_from is None or cfg.sweep_to is None:
            raise UsageError("sweep needs --from and --to")
        if cfg.points is None or cfg.points < 2:
            raise UsageError("sweep needs at least 2 points")
        if cfg.points > 100_000:
            raise UsageError("sweep takes at most 100000 points")
        if cfg.axis == "fidelity" and cfg.sweep_scenario != "mixed":
            raise UsageError("axis fidelity needs --scenario mixed")
        if cfg.axis != "fidelity" and cfg.sweep_scenario == "mixed":
            raise UsageError("scenario mixed sweeps the fidelity axis")
    if cfg.scenario == "throughput":
        if cfg.alpha2 is not None:
            raise UsageError("throughput reads a matched product at a2; drop alpha2")
        if cfg.preset is None and any(getattr(cfg, name) is None for name in (*_OPERATING_POINT, "protocol")):
            raise UsageError(
                "throughput needs --preset or config keys p_cav, detector_efficiency, "
                "photon_rate and protocol"
            )
    return cfg


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve flags plus optional config file into a validated RunConfig.  Flags override config-file keys; unknown
    config keys are rejected by name.  A throughput preset's fixed keys hold its operating point, so the report echoes
    the config it computes."""
    given = _read_flags(sys.argv[1:] if argv is None else argv)
    path = given.pop("config", None)
    merged = _load_config_file(path) if path is not None else {}
    merged.update(given)
    cfg = RunConfig.from_dict(merged)
    if cfg.scenario == "sweep" and "format" not in merged:
        cfg = cfg._replace(format="csv")
    return _validate(cfg, merged)


def build_report(cfg: RunConfig) -> dict:
    """Run the configured scenario and assemble the report envelope; a preset gives the notes."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "scenario": cfg.scenario,
        "config": cfg,
        "results": _SCENARIOS[cfg.scenario][0](cfg),
        "notes": list(_PRESETS[cfg.preset][1]) if cfg.preset is not None else [],
    }


def _render_csv(report: dict) -> str:
    """RFC 4180 rows: key names and ``_format_float`` cells hold nothing that needs quoting."""
    columns = report["results"]["columns"]
    lines = [columns, *([_format_float(row[column]) for column in columns] for row in report["results"]["rows"])]
    return "".join(",".join(line) + "\r\n" for line in lines)


def _render_table(value, indent: str = "") -> list[str]:
    """Indented lines of a dict or list; every non-scalar item nests, as in JSON."""
    lines: list[str] = []
    keyed = isinstance(value, dict)
    for key in sorted(value, key=str) if keyed else range(len(value)):
        item = value[key]
        head = f"{indent}{key}:" if keyed else f"{indent}-"
        if item is None or isinstance(item, (str, int, float)):
            lines.append(f"{head} {_format_float(item) if isinstance(item, float) else item}")
            continue
        lines.append(head)
        if type(item) is complex:
            item = [item.real, item.imag]
        elif type(item) not in (dict, list, tuple):
            item = {name: item[index] for name, _, index in _record_fields(type(item))}
        lines.extend(_render_table(item, indent + "  "))
    return lines


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(report) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    lines = [f"scenario: {report['scenario']}", "results:"]
    lines.extend(_render_table(report["results"], "  "))
    if report["notes"]:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in report["notes"])
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig) -> str:
    """Produce the rendered report for a validated config."""
    return render(build_report(cfg), cfg.format)


def main(argv: list[str] | None = None) -> int:
    try:
        text = run(parse_config(argv))
    except HelpRequest as request:
        text = request.args[0]
    except (UsageError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, UsageError) else 1
    try:  # a full device or a closed pipe fails a write or the flush
        sys.stdout.write(text[:-1])
        sys.stdout.write(text[-1:])  # alone: unbuffered, a write that a closing reader cuts short raises nothing
        sys.stdout.flush()
    except OSError as err:
        print(f"error: cannot write report: {err}", file=sys.stderr)
        with open(os.devnull, "wb") as devnull:  # so that the flush at exit of what is left cannot fail
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return 0
