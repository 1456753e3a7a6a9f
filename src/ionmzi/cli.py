"""Command-line front end: scenario runs, parameter sweeps, reproducible reports.

Reports are emitted as a single JSON document (or CSV rows for sweeps)
with floats printed to 17 significant digits, so identical configs give
byte-identical output.  Amplitudes are entered as (population, phase)
pairs: ``--a2`` is the lower ion's m+ population, ``--alpha2`` the upper
ion's (defaulting to ``--a2`` so the two ions match), phases default to
zero.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

from . import efficiency, protocol, recycler
from .protocol import IonPairState, bell_psi_minus, bell_psi_plus
from .states import NORM_TOL

SCHEMA_VERSION = 2
TOOL_NAME = "ionmzi"

_SWEEP_AXES = ("a2", "alpha2", "fidelity")
#: Throughput protocol -> the config key of its source value.
_SOURCE_KEY = {"mixed": "fidelity", "product": "a2"}
#: Config keys a throughput preset fixes: each resolves to the preset's value, or to its
#: RunConfig default where the preset sets none.  A config may give one only at that value,
#: which the report echoes, so an echo re-runs.
_PRESET_FIXES = ("a2", "fidelity", "p_cav", "detector_efficiency", "outcoupling", "photon_rate", "protocol")
_REFERENCE = efficiency.REFERENCE_POINT
_OPERATING_POINT = {
    "p_cav": _REFERENCE["emission_probability_quoted"].value,
    "detector_efficiency": _REFERENCE["detector_efficiency"].value,
    "photon_rate": _REFERENCE["photon_rate"].value,
}
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


class UsageError(Exception):
    """Invalid flags or config file; maps to exit code 2."""


# --- report serialization ---------------------------------------------------


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError("non-finite value in report")
    return format(value, ".17g")


def _dump_json(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):  # bool handled above; bool is an int subclass
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_dump_json(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = (
            f"{json.dumps(str(key))}:{_dump_json(value[key])}" for key in sorted(value, key=str)
        )
        return "{" + ",".join(parts) + "}"
    return _dump_json(_jsonable(value))


def _jsonable(value) -> list | dict:
    """A report value that is not JSON data as JSON data: a complex number as ``[re, im]``,
    a result object such as an ion state as its fields by name."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return vars(value)


def _iteration(result: recycler.IterationResult) -> dict:
    return {**vars(result), "passes_distribution": list(result.passes_distribution.items())}


# --- scenario runners -------------------------------------------------------


def _resolved_amplitudes(cfg: RunConfig) -> tuple[complex, complex, complex, complex]:
    alpha2 = cfg.alpha2 if cfg.alpha2 is not None else cfg.a2
    u_plus = math.sqrt(alpha2) * cmath.exp(1j * cfg.phase_alpha)
    u_minus = math.sqrt(1.0 - alpha2) * cmath.exp(1j * cfg.phase_beta)
    l_plus = math.sqrt(cfg.a2) * cmath.exp(1j * cfg.phase_a)
    l_minus = math.sqrt(1.0 - cfg.a2) * cmath.exp(1j * cfg.phase_b)
    return u_plus, u_minus, l_plus, l_minus


def _product_ions(cfg: RunConfig) -> IonPairState:
    u_plus, u_minus, l_plus, l_minus = _resolved_amplitudes(cfg)
    return IonPairState.product(u_plus, u_minus, l_plus, l_minus)


def _run_single_pass(cfg: RunConfig) -> dict:
    u_plus, u_minus, l_plus, l_minus = _resolved_amplitudes(cfg)
    result = protocol.single_pass(IonPairState.product(u_plus, u_minus, l_plus, l_minus))
    post = result.post_detect_lower
    return {
        "inputs": {"u_plus": u_plus, "u_minus": u_minus, "l_plus": l_plus, "l_minus": l_minus},
        "probabilities": {
            "scatter_u": result.p_scatter_u,
            "scatter_l": result.p_scatter_l,
            "detect_upper": result.p_detect_upper,
            "detect_lower": result.p_detect_lower,
            "recycle": result.p_recycle,
        },
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
    """Fidelity of a detector-conditioned ensemble with a Bell state; None if never heralded.

    A plain loop in component order: builtin ``sum`` compensates rounding from Python 3.12 on.
    """
    if ensemble is None:
        return None
    total = 0.0
    for weight, state in ensemble:
        total += weight * state.fidelity(bell)
    return total


def _run_mixed(cfg: RunConfig) -> dict:
    run = protocol.run_mixed(cfg.fidelity)
    iterated_entangled = 0.0
    iterated_scattered = 0.0
    iterated_stuck = 0.0
    numeric_entangled = 0.0
    for weight, ions, _ in run.components:
        part = recycler.iterate_analytic(ions)
        iterated_entangled += weight * part.p_entangled
        iterated_scattered += weight * part.p_scattered
        iterated_stuck += weight * part.p_stuck
        numeric_entangled += weight * recycler.iterate_numeric(ions, cfg.max_passes).p_entangled
    return {
        "fidelity": cfg.fidelity,
        "single_pass": {
            "p_detect_lower": run.p_detect_lower,
            "p_detect_upper": run.p_detect_upper,
            "p_scattered": run.p_scatter_u + run.p_scatter_l,
            "fidelity_lower_vs_psi_minus": _fidelity_vs(run.post_detect_lower, bell_psi_minus()),
            "fidelity_upper_vs_psi_plus": _fidelity_vs(run.post_detect_upper, bell_psi_plus()),
        },
        "iterated": {
            "p_entangled": iterated_entangled,
            "p_scattered": iterated_scattered,
            "p_stuck": iterated_stuck,
            "p_entangled_numeric": numeric_entangled,
        },
    }


def _run_monte_carlo(cfg: RunConfig) -> dict:
    ions = _product_ions(cfg)
    sampled = recycler.monte_carlo(ions, cfg.trials, cfg.seed, cfg.max_passes)
    analytic = recycler.iterate_analytic(ions)
    return {
        "trials": sampled.trials,
        "seed": sampled.seed,
        "frequencies": dict(sampled.frequencies),
        "standard_errors": dict(sampled.standard_errors),
        "passes_distribution": list(sampled.passes_distribution.items()),
        "post_entangled": sampled.post_entangled,
        "analytic": {
            "p_entangled": analytic.p_entangled,
            "p_scattered": analytic.p_scattered,
            "p_stuck": analytic.p_stuck,
        },
    }


def _p_protocol(kind: str, value: float) -> float:
    """Iterated success of the mixed input with fidelity ``value``, pooled over its components in a
    plain loop as :func:`_fidelity_vs` pools, or of the matched product input with m+ population ``value``."""
    if kind == "mixed":
        total = 0.0
        for weight, ions in protocol._mixed_components(value):
            total += weight * recycler.iterate_analytic(ions).p_entangled
        return total
    amp_plus = math.sqrt(value)
    amp_minus = math.sqrt(1.0 - value)
    ions = IonPairState.product(amp_plus, amp_minus, amp_plus, amp_minus)
    return recycler.iterate_analytic(ions).p_entangled


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
    source_key = _SOURCE_KEY[cfg.protocol]
    value = getattr(cfg, source_key)
    report = efficiency.throughput(
        _p_protocol(cfg.protocol, value),
        p_cav=cfg.p_cav,
        detector_efficiency=cfg.detector_efficiency,
        photon_rate=cfg.photon_rate,
        outcoupling=cfg.outcoupling,
    )
    return {
        "preset": cfg.preset,
        "source": {"protocol": cfg.protocol, source_key: value},
        "p_protocol": report.p_protocol,
        "p_cav": report.p_cav,
        "detector_efficiency": cfg.detector_efficiency,
        "outcoupling": cfg.outcoupling,
        "photon_rate": cfg.photon_rate,
        "p_total": report.p_total,
        "pairs_per_second": report.pairs_per_second,
    }


def _mixed_point(point: RunConfig) -> dict:
    run = protocol.run_mixed(point.fidelity)
    return {
        "p_detect_lower": run.p_detect_lower,
        "p_detect_upper": run.p_detect_upper,
        "p_scattered": run.p_scatter_u + run.p_scatter_l,
        "p_entangled_iterated": _p_protocol("mixed", point.fidelity),
    }


#: Sweep scenario -> (its report columns after the axis, the values at one
#: point, by column name).
_SWEEPS = {
    "single_pass": (
        ("p_scatter_u", "p_scatter_l", "p_detect_upper", "p_detect_lower", "p_recycle"),
        lambda point: vars(protocol.single_pass(_product_ions(point))),
    ),
    "iterate": (
        ("p_entangled", "p_scattered", "p_stuck", "p_truncated"),
        lambda point: vars(recycler.iterate_analytic(_product_ions(point))),
    ),
    "mixed": (("p_detect_lower", "p_detect_upper", "p_scattered", "p_entangled_iterated"), _mixed_point),
}


def _run_sweep(cfg: RunConfig) -> dict:
    columns, evaluate = _SWEEPS[cfg.sweep_scenario]
    span = cfg.sweep_to - cfg.sweep_from
    rows = []
    for index in range(cfg.points):
        value = cfg.sweep_to if index == cfg.points - 1 else cfg.sweep_from + span * index / (cfg.points - 1)
        point = evaluate(replace(cfg, **{cfg.axis: value}))
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


def _key(default=None, flag=None, help=None, *, choices=None, within=None):
    """A RunConfig field carrying its key's flag, ``--help`` text, choices and range: ``within``
    is ``(low, high, interval)``, with the interval named as written, or limits ``(low, high)``,
    where ``low`` 0 means nonnegative, 1 positive, and ``high`` is a cap or None."""
    return field(default=default, metadata={"flag": flag, "help": help, "choices": choices, "within": within})


@dataclass
class RunConfig:
    """Fully resolved run parameters; echoed verbatim into every report.

    Each field declares its key once: ``build_parser`` reads its flag, ``_validate`` its choices and range.
    """

    scenario: str
    a2: float = _key(0.5, "--a2", "lower ion m+ population", within=_UNIT)
    alpha2: float | None = _key(None, "--alpha2", "upper ion m+ population (defaults to --a2)", within=_UNIT)
    phase_alpha: float = _key(0.0, "--phase-alpha")
    phase_beta: float = _key(0.0, "--phase-beta")
    phase_a: float = _key(0.0, "--phase-a")
    phase_b: float = _key(0.0, "--phase-b")
    fidelity: float = _key(0.7, "--fidelity", "input overlap with |Psi+>", within=(0, 1, "[0,1]"))
    trials: int = _key(100_000, "--trials", within=(1, 10_000_000))
    seed: int = _key(0, "--seed")
    max_passes: int = _key(recycler.MAX_PASSES, "--max-passes", within=(1, 4096))
    preset: str | None = _key(None, "--preset", choices=_PRESETS)
    format: str = _key("json", "--format", choices=("json", "csv", "table"))
    axis: str | None = _key(None, "--axis", choices=_SWEEP_AXES)
    sweep_from: float | None = _key(None, "--from", within=_UNIT)
    sweep_to: float | None = _key(None, "--to", within=_UNIT)
    points: int | None = _key(None, "--points", within=(1, None))
    sweep_scenario: str | None = _key(None, "--scenario", choices=_SWEEPS)
    p_cav: float | None = _key(within=_UNIT)
    detector_efficiency: float | None = _key(within=_UNIT)
    outcoupling: float = _key(1.0, within=_UNIT)
    photon_rate: float | None = _key(within=(0, None))
    protocol: str | None = _key(choices=_SOURCE_KEY)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        """Build a config, rejecting unknown keys and values of the wrong type.

        Numbers must be finite; an integer given for a float key becomes a float.
        """
        annotations = {f.name: f.type for f in fields(cls)}
        checked = {}
        for key, value in values.items():
            if key not in annotations:
                raise UsageError(f"unknown config key: {key}")
            checked[key] = _typed(key, value, annotations[key])
        if "scenario" not in checked:
            raise UsageError("config needs a scenario")
        return cls(**checked)


def _typed(key: str, value, annotation: str):
    """``value`` checked against a field annotation such as ``float | None``."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    integral = isinstance(value, int) and not isinstance(value, bool)
    if (kind == "str" and isinstance(value, str)) or (kind == "int" and integral):
        return value
    if kind == "float" and (integral or isinstance(value, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise UsageError(f"{key} must be a finite number")
        return number
    expected = {"str": "a string", "int": "an integer", "float": "a number"}[kind]
    raise UsageError(f"{key} must be {expected}" + (" or null" if optional else ""))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Simulate post-selected two-ion entanglement generation in a "
        "single-photon Mach-Zehnder interferometer.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    kinds = {"int": int, "float": float}
    declared = {f.name: (f.metadata, kinds.get(f.type.partition(" | ")[0])) for f in fields(RunConfig)}
    for name, (_, help_line, keys) in _SCENARIOS.items():
        command = sub.add_parser(name.replace("_", "-"), help=help_line)
        for key in (*keys, "format"):
            meta, kind = declared[key]
            command.add_argument(meta["flag"], dest=key, type=kind, choices=meta["choices"], help=meta["help"])
        command.add_argument("--config", help="JSON file with config keys; flags override")
    return parser


def _load_config_file(path: str) -> dict:
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
    """``cfg`` checked, and resolved to its preset's operating point; ``given`` holds the keys set."""
    if cfg.preset is not None:
        if cfg.scenario != "throughput":
            raise UsageError("preset is only available for throughput")
        if cfg.preset not in _PRESETS:
            raise UsageError(f"unknown preset: {cfg.preset}")
        point = _PRESETS[cfg.preset][0]
        echoed = replace(RunConfig(cfg.scenario), **point)
        fixed = [key for key in _PRESET_FIXES if key in given and getattr(cfg, key) != getattr(echoed, key)]
        if fixed:
            raise UsageError(f"--preset fixes the operating point and its source; drop {', '.join(fixed)}")
        cfg = replace(cfg, **point)
    for f in fields(cfg):
        value, choices, within = getattr(cfg, f.name), f.metadata.get("choices"), f.metadata.get("within")
        if value is None:
            continue
        label = (f.metadata.get("flag") or f.name).lstrip("-")
        if choices is not None and value not in choices:
            *others, last = choices
            raise UsageError(f"{label} must be {', '.join(others)} or {last}")
        if within is None:
            continue
        low, high, *interval = within
        if interval and not low <= value <= high:
            raise UsageError(f"{label} must lie in {interval[0]}")
        if value < low:
            raise UsageError(f"{label} must be {'positive' if low else 'nonnegative'}")
        if high is not None and value > high:
            raise UsageError(f"{label} must be at most {high}")
    if cfg.format == "csv" and cfg.scenario != "sweep":
        raise UsageError("csv format is only available for sweep")
    if cfg.scenario == "sweep":
        if cfg.sweep_scenario not in _SWEEPS:
            raise UsageError("sweep needs --scenario (single_pass, iterate or mixed)")
        if cfg.axis not in _SWEEP_AXES:
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
    if cfg.scenario == "throughput" and cfg.preset is None:
        needed = ("p_cav", "detector_efficiency", "photon_rate", "protocol")
        if any(getattr(cfg, name) is None for name in needed):
            raise UsageError(
                "throughput needs --preset or config keys p_cav, detector_efficiency, "
                "photon_rate and protocol"
            )
    return cfg


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve flags plus optional config file into a validated RunConfig.

    Flags that were given explicitly override config-file keys; unknown
    config keys are rejected by name.  A throughput preset's fixed keys hold
    its operating point, so the report echoes the config it computes.
    """
    namespace = build_parser().parse_args(argv)
    given = {k: v for k, v in vars(namespace).items() if v is not None and k != "config"}
    given["scenario"] = given["scenario"].replace("-", "_")
    merged: dict = {}
    if namespace.config is not None:
        merged.update(_load_config_file(namespace.config))
    merged.update(given)
    cfg = RunConfig.from_dict(merged)
    if cfg.scenario == "sweep" and "format" not in merged:
        cfg.format = "csv"
    return _validate(cfg, merged)


def build_report(cfg: RunConfig) -> dict:
    """Run the configured scenario and assemble the report envelope; a preset gives the notes."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "scenario": cfg.scenario,
        "config": cfg.to_dict(),
        "results": _SCENARIOS[cfg.scenario][0](cfg),
        "notes": list(_PRESETS[cfg.preset][1]) if cfg.preset is not None else [],
    }


def _render_csv(report: dict) -> str:
    """RFC 4180 rows: key names and ``_format_float`` cells hold nothing that needs quoting."""
    columns = report["results"]["columns"]
    lines = [columns, *([_format_float(row[column]) for column in columns] for row in report["results"]["rows"])]
    return "".join(",".join(line) + "\r\n" for line in lines)


def _render_table(value, indent: str = "") -> list[str]:
    """Indented lines of a dict or list; every non-scalar item nests, result objects as JSON data."""
    lines: list[str] = []
    keyed = isinstance(value, dict)
    for key in sorted(value, key=str) if keyed else range(len(value)):
        item = value[key]
        head = f"{indent}{key}:" if keyed else f"{indent}-"
        if item is None or isinstance(item, (str, int, float)):
            lines.append(f"{head} {_format_float(item) if isinstance(item, float) else item}")
            continue
        lines.append(head)
        if not isinstance(item, (dict, list, tuple)):
            item = _jsonable(item)
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
    page = io.StringIO()
    try:
        with contextlib.redirect_stdout(page):  # argparse prints a --help page, then exits 0
            cfg = parse_config(argv)
        text = run(cfg)
    except SystemExit as stop:
        if stop.code:
            raise
        text = page.getvalue()
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
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
