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
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

from . import efficiency, protocol, recycler
from .protocol import IonPairState, bell_psi_minus, bell_psi_plus, ion_pair_pure_state
from .states import MixedState, ion_fidelity

SCHEMA_VERSION = 1
TOOL_NAME = "ionmzi"

_SWEEP_AXES = ("a2", "alpha2", "fidelity")
#: Throughput protocol -> (config key of its source value, REFERENCE_POINT key of a preset's).
_SOURCE_KEY = {"mixed": ("fidelity", "input_fidelity"), "product": ("a2", "plus_population")}
#: Config keys a throughput preset fixes.  A config may give them only at their
#: RunConfig defaults, which every preset's report echoes, so an echo re-runs.
_PRESET_FIXES = ("a2", "b2", "fidelity", "p_cav", "detector_efficiency", "outcoupling", "photon_rate", "protocol")
#: Throughput preset -> (protocol, notes).
_PRESETS = {
    "paper-mixed": ("mixed", (
        "reference operating point: mixed input with fidelity 0.7, p_cav 0.01, "
        "detector efficiency 0.7, unit outcoupling, 5000 photons/s",
        "the published claim rounds 8.17 pairs/s to eight pairs per second",
    )),
    "paper-product": ("product", (
        "reference operating point: matched product input with m+ population 0.7, "
        "p_cav 0.01, detector efficiency 0.7, unit outcoupling, 5000 photons/s",
        "the published claim rounds 4.90 pairs/s to five pairs per second",
    )),
}
#: Every --preset; ``paper-cavity`` reports the cavity formulas instead of a throughput.
_PRESET_CHOICES = (*_PRESETS, "paper-cavity")
_AMPLITUDES = ("a2", "b2", "alpha2", "phase_alpha", "phase_beta", "phase_a", "phase_b")
#: Subcommand -> (its --help line, the keys it takes as flags, in --help order).
_SUBCOMMANDS = {
    "single-pass": ("one traversal, branch probabilities and post states", _AMPLITUDES),
    "iterate": ("recycling loop, closed form and round-by-round", (*_AMPLITUDES, "max_passes")),
    "mixed": ("two-component mixed input, single pass and iterated", ("fidelity", "max_passes")),
    "monte-carlo": ("sampled recycling loop with standard errors", (*_AMPLITUDES, "trials", "seed", "max_passes")),
    "throughput": ("entangled pairs per second", ("preset",)),
    "sweep": ("scan one axis and emit one row per point", (
        "sweep_scenario", "axis", "sweep_from", "sweep_to", "points", *_AMPLITUDES)),
}


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
    return {**vars(result), "passes_distribution": sorted(result.passes_distribution.items())}


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


def _run_single_pass(cfg: RunConfig) -> tuple[dict, list[str]]:
    u_plus, u_minus, l_plus, l_minus = _resolved_amplitudes(cfg)
    run = protocol.run_product(u_plus, u_minus, l_plus, l_minus)
    result = run.result
    results = {
        "inputs": {"u_plus": u_plus, "u_minus": u_minus, "l_plus": l_plus, "l_minus": l_minus},
        "probabilities": {
            "scatter_u": result.p_scatter_u,
            "scatter_l": result.p_scatter_l,
            "detect_upper": result.p_detect_upper,
            "detect_lower": result.p_detect_lower,
            "recycle": result.p_recycle,
        },
        "balanced": run.balanced,
        "post_detect_upper": result.post_detect_upper,
        "post_detect_lower": result.post_detect_lower,
        "post_scatter_u": result.post_scatter_u,
        "post_scatter_l": result.post_scatter_l,
        "fidelity_detect_lower_vs_psi_minus": run.fidelity_vs_psi_minus,
    }
    return results, []


def _run_iterate(cfg: RunConfig) -> tuple[dict, list[str]]:
    ions = _product_ions(cfg)
    analytic = recycler.iterate_analytic(ions)
    numeric = recycler.iterate_numeric(ions, cfg.max_passes)
    results = {
        "analytic": _iteration(analytic),
        "numeric": _iteration(numeric),
        "abs_delta_p_entangled": abs(analytic.p_entangled - numeric.p_entangled),
    }
    return results, []


def _fidelity_vs(state: MixedState | None, bell: IonPairState) -> float | None:
    """Fidelity of a detector-conditioned state with a Bell state; None if never heralded."""
    return None if state is None else ion_fidelity(state, ion_pair_pure_state(bell))


def _run_mixed(cfg: RunConfig) -> tuple[dict, list[str]]:
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
    results = {
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
    return results, []


def _run_monte_carlo(cfg: RunConfig) -> tuple[dict, list[str]]:
    ions = _product_ions(cfg)
    sampled = recycler.monte_carlo(ions, cfg.trials, cfg.seed, cfg.max_passes)
    analytic = recycler.iterate_analytic(ions)
    results = {
        "trials": sampled.trials,
        "seed": sampled.seed,
        "frequencies": dict(sampled.frequencies),
        "standard_errors": dict(sampled.standard_errors),
        "passes_distribution": sorted(sampled.passes_distribution.items()),
        "post_entangled": sampled.post_entangled,
        "analytic": {
            "p_entangled": analytic.p_entangled,
            "p_scattered": analytic.p_scattered,
            "p_stuck": analytic.p_stuck,
        },
    }
    return results, []


def _p_protocol(protocol: str, value: float) -> float:
    """Iterated success of the mixed input with fidelity ``value``, or of the
    matched product input with m+ population ``value``."""
    if protocol == "mixed":
        return value * recycler.iterate_analytic(bell_psi_plus()).p_entangled
    amp_plus = math.sqrt(value)
    amp_minus = math.sqrt(1.0 - value)
    ions = IonPairState.product(amp_plus, amp_minus, amp_plus, amp_minus)
    return recycler.iterate_analytic(ions).p_entangled


def _run_throughput(cfg: RunConfig) -> tuple[dict, list[str]]:
    reference = efficiency.REFERENCE_POINT
    if cfg.preset == "paper-cavity":
        finesse = reference["finesse"].value
        length = reference["cavity_length"].value
        formula_rate = efficiency.cavity_decay_rate(finesse, length)
        quoted = reference["cavity_decay_rate_quoted"]
        emission = reference["emission_probability_quoted"]
        results = {
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
        return results, [
            "the evaluated decay-rate formula (6.609e7/s) and the quoted reference "
            "value (9.9e6/s) disagree for the same finesse and length; both are "
            "reported and neither is adjusted"
        ]
    notes = ()
    if cfg.preset is not None:
        protocol_name, notes = _PRESETS[cfg.preset]
        source_key, reference_key = _SOURCE_KEY[protocol_name]
        cfg = replace(
            cfg,
            protocol=protocol_name,
            p_cav=reference["emission_probability_quoted"].value,
            detector_efficiency=reference["detector_efficiency"].value,
            photon_rate=reference["photon_rate"].value,
            **{source_key: reference[reference_key].value},
        )
    source_key = _SOURCE_KEY[cfg.protocol][0]
    value = getattr(cfg, source_key)
    outcoupling = cfg.outcoupling if cfg.outcoupling is not None else 1.0
    report = efficiency.throughput(
        _p_protocol(cfg.protocol, value),
        p_cav=cfg.p_cav,
        detector_efficiency=cfg.detector_efficiency,
        photon_rate=cfg.photon_rate,
        outcoupling=outcoupling,
    )
    results = {
        "preset": cfg.preset,
        "source": {"protocol": cfg.protocol, source_key: value},
        "p_protocol": report.p_protocol,
        "p_cav": report.p_cav,
        "detector_efficiency": cfg.detector_efficiency,
        "outcoupling": outcoupling,
        "photon_rate": cfg.photon_rate,
        "p_total": report.p_total,
        "pairs_per_second": report.pairs_per_second,
    }
    return results, list(notes)


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


def _run_sweep(cfg: RunConfig) -> tuple[dict, list[str]]:
    columns, evaluate = _SWEEPS[cfg.sweep_scenario]
    span = cfg.sweep_to - cfg.sweep_from
    rows = []
    for index in range(cfg.points):
        value = cfg.sweep_to if index == cfg.points - 1 else cfg.sweep_from + span * index / (cfg.points - 1)
        point = evaluate(replace(cfg, **{cfg.axis: value}))
        rows.append({cfg.axis: value, **{column: point[column] for column in columns}})
    results = {"axis": cfg.axis, "columns": [cfg.axis, *columns], "rows": rows}
    return results, []


_RUNNERS = {
    "single_pass": _run_single_pass,
    "iterate": _run_iterate,
    "mixed": _run_mixed,
    "monte_carlo": _run_monte_carlo,
    "throughput": _run_throughput,
    "sweep": _run_sweep,
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
    b2: float | None = _key(None, "--b2", "lower ion m- population (must complement --a2)")
    phase_alpha: float = _key(0.0, "--phase-alpha")
    phase_beta: float = _key(0.0, "--phase-beta")
    phase_a: float = _key(0.0, "--phase-a")
    phase_b: float = _key(0.0, "--phase-b")
    fidelity: float = _key(0.7, "--fidelity", "input overlap with |Psi+>", within=(0, 1, "[0,1]"))
    trials: int = _key(100_000, "--trials", within=(1, 10_000_000))
    seed: int = _key(0, "--seed")
    max_passes: int = _key(recycler.MAX_PASSES, "--max-passes", within=(1, 4096))
    preset: str | None = _key(None, "--preset", choices=_PRESET_CHOICES)
    format: str = _key("json", "--format", choices=("json", "csv", "table"))
    axis: str | None = _key(None, "--axis", choices=_SWEEP_AXES)
    sweep_from: float | None = _key(None, "--from", within=_UNIT)
    sweep_to: float | None = _key(None, "--to", within=_UNIT)
    points: int | None = _key(None, "--points", within=(1, None))
    sweep_scenario: str | None = _key(None, "--scenario", choices=_SWEEPS)
    p_cav: float | None = _key(within=_UNIT)
    detector_efficiency: float | None = _key(within=_UNIT)
    outcoupling: float | None = _key(within=_UNIT)
    photon_rate: float | None = _key(within=(0, None))
    protocol: str | None = _key(choices=tuple(_SOURCE_KEY))

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Simulate post-selected two-ion entanglement generation in a "
        "single-photon Mach-Zehnder interferometer.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    kinds = {"int": int, "float": float}
    declared = {f.name: (f.metadata, kinds.get(f.type.partition(" | ")[0])) for f in fields(RunConfig)}
    for name, (help_line, keys) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for key in (*keys, "format"):
            meta, kind = declared[key]
            command.add_argument(meta["flag"], dest=key, type=kind, choices=meta["choices"], help=meta["help"])
        command.add_argument("--config", help="JSON file with config keys; flags override")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


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


def _validate(cfg: RunConfig) -> None:
    if cfg.scenario not in _RUNNERS:
        raise UsageError(f"unknown scenario: {cfg.scenario}")
    if cfg.preset is not None:
        if cfg.scenario != "throughput":
            raise UsageError("preset is only available for throughput")
        if cfg.preset not in _PRESET_CHOICES:
            raise UsageError(f"unknown preset: {cfg.preset}")
        fixed = [f.name for f in fields(cfg) if f.name in _PRESET_FIXES and getattr(cfg, f.name) != f.default]
        if fixed:
            raise UsageError(f"--preset fixes the operating point and its source; drop {', '.join(fixed)}")
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
    if cfg.b2 is not None and abs(cfg.a2 + cfg.b2 - 1.0) > 1e-9:
        raise UsageError("a2 and b2 must sum to 1")
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


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve flags plus optional config file into a validated RunConfig.

    Flags that were given explicitly override config-file keys; unknown
    config keys are rejected by name.
    """
    namespace = _parser().parse_args(argv)
    given = {k: v for k, v in vars(namespace).items() if v is not None and k != "config"}
    given["scenario"] = given["scenario"].replace("-", "_")
    merged: dict = {}
    if namespace.config is not None:
        merged.update(_load_config_file(namespace.config))
    merged.update(given)
    cfg = RunConfig.from_dict(merged)
    if cfg.scenario == "sweep" and "format" not in merged:
        cfg.format = "csv"
    _validate(cfg)
    return cfg


def build_report(cfg: RunConfig) -> dict:
    """Run the configured scenario and assemble the report envelope."""
    results, notes = _RUNNERS[cfg.scenario](cfg)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "scenario": cfg.scenario,
        "config": cfg.to_dict(),
        "results": results,
        "notes": notes,
    }


def _render_csv(report: dict) -> str:
    results = report["results"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(results["columns"])
    for row in results["rows"]:
        writer.writerow(_format_float(row[column]) for column in results["columns"])
    return buffer.getvalue()


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
    try:
        text = run(parse_config(argv))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
