"""Closed-form checks of ionmzi reports, computed with math/cmath only.

Every check takes the request (its ``params``) and the rendered report text
and raises :class:`CheckFailed` naming the first value that disagrees.  The
expected values come from the request's own inputs through the closed forms
of the paper; nothing here imports ionmzi or reads stored output.

With c_pp .. c_mm the input amplitudes ordered (upper ion, lower ion) and
q = |c_pm|^2 + |c_mp|^2, one traversal gives

* scatter at the upper ion (|c_pp|^2 + |c_pm|^2) / 2, survivor (c_pp, c_pm);
* scatter at the lower ion (|c_pp|^2 + |c_mp|^2) / 2, survivor i (c_pp, c_mp);
* upper output (i/2)(c_mp |m-,m+> + c_pm |m+,m-> + 2 c_mm |m-,m->);
* lower output (1/2)(c_mp |m-,m+> - c_pm |m+,m->), probability q/4;

and the recycling loop detects q/4^k in round k, q/3 in total.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

#: Absolute tolerance on probabilities and amplitudes.  The element
#: composition agrees with the closed forms to about 1e-15, and the numeric
#: recycling loop stops once less than 1e-12 of weight could still resolve.
TOL = 1e-11
#: Monte Carlo band: z = 7 for large counts, widened by Bernstein's term so
#: that small expected counts cannot fail by chance (bound 2 exp(-z^2/2)).
Z_BAND = 7.0

SPEED_OF_LIGHT = 299_792_458.0
PRESET_FIDELITY = 0.7
PRESET_POPULATION = 0.7
PRESET_P_CAV = 0.01
PRESET_DETECTOR = 0.7
PRESET_RATE = 5000.0
FINESSE = 19000.0
CAVITY_LENGTH = 3e-3
QUOTED_DECAY_RATE = 9.9e6


class CheckFailed(Exception):
    """A report value disagrees with its closed form."""


def _close(name: str, got, want: float, tol: float = TOL) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise CheckFailed(f"{name}: expected a number, got {got!r}")
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{name}: {got!r} != {want!r}")


def _close_rel(name: str, got, want: float, rel: float = 1e-12) -> None:
    _close(name, got, want, rel * max(abs(want), 1e-300))


def _complex(name: str, got, want: complex) -> None:
    if not (isinstance(got, list) and len(got) == 2):
        raise CheckFailed(f"{name}: expected [re, im], got {got!r}")
    _close(name + ".re", got[0], want.real)
    _close(name + ".im", got[1], want.imag)


def _unit(vector: tuple[complex, ...]) -> tuple[complex, ...]:
    norm = math.sqrt(sum(abs(z) ** 2 for z in vector))
    return tuple(z / norm for z in vector)


def _pair(name: str, got, c_pp: complex, c_pm: complex, c_mp: complex, c_mm: complex) -> None:
    """Component-wise check of a reported ion-pair state against the normalised vector."""
    if not isinstance(got, dict):
        raise CheckFailed(f"{name}: expected a state, got {got!r}")
    for key, want in zip(("c_pp", "c_pm", "c_mp", "c_mm"), _unit((c_pp, c_pm, c_mp, c_mm))):
        _complex(f"{name}.{key}", got.get(key), want)


def amplitudes(params: dict) -> tuple[complex, complex, complex, complex]:
    """(u_plus, u_minus, l_plus, l_minus) from populations and phases, as the CLI defines them."""
    a2 = params.get("a2", 0.5)
    alpha2 = params.get("alpha2", a2)
    return (
        math.sqrt(alpha2) * cmath.exp(1j * params.get("phase_alpha", 0.0)),
        math.sqrt(1.0 - alpha2) * cmath.exp(1j * params.get("phase_beta", 0.0)),
        math.sqrt(a2) * cmath.exp(1j * params.get("phase_a", 0.0)),
        math.sqrt(1.0 - a2) * cmath.exp(1j * params.get("phase_b", 0.0)),
    )


def pair_amplitudes(params: dict) -> tuple[complex, complex, complex, complex]:
    u_plus, u_minus, l_plus, l_minus = amplitudes(params)
    return u_plus * l_plus, u_plus * l_minus, u_minus * l_plus, u_minus * l_minus


def single_pass_probabilities(c_pp: complex, c_pm: complex, c_mp: complex, c_mm: complex) -> dict:
    pp, pm, mp, mm = (abs(z) ** 2 for z in (c_pp, c_pm, c_mp, c_mm))
    q = pm + mp
    return {
        "scatter_u": (pp + pm) / 2.0,
        "scatter_l": (pp + mp) / 2.0,
        "detect_upper": q / 4.0 + mm,
        "detect_lower": q / 4.0,
        "recycle": 0.0,
    }


def _sum_to_one(name: str, values) -> None:
    _close(name + " sum", math.fsum(values), 1.0)


def check_single_pass(params: dict, report: dict) -> None:
    results = report["results"]
    u_plus, u_minus, l_plus, l_minus = amplitudes(params)
    c_pp, c_pm, c_mp, c_mm = pair_amplitudes(params)
    for key, want in (("u_plus", u_plus), ("u_minus", u_minus), ("l_plus", l_plus), ("l_minus", l_minus)):
        _complex(f"inputs.{key}", results["inputs"][key], want)
    probs = results["probabilities"]
    for key, want in single_pass_probabilities(c_pp, c_pm, c_mp, c_mm).items():
        _close(f"probabilities.{key}", probs[key], want)
    _sum_to_one("probabilities", probs.values())
    balanced = abs(abs(u_plus) - abs(l_plus)) <= 1e-9 and abs(abs(u_minus) - abs(l_minus)) <= 1e-9
    if results["balanced"] is not balanced:
        raise CheckFailed(f"balanced: {results['balanced']!r} != {balanced!r}")
    _pair("post_detect_lower", results["post_detect_lower"], 0j, -c_pm, c_mp, 0j)
    _pair("post_detect_upper", results["post_detect_upper"], 0j, 1j * c_pm, 1j * c_mp, 2j * c_mm)
    for name, plus, minus in (
        ("post_scatter_u", c_pp, c_pm),
        ("post_scatter_l", 1j * c_pp, 1j * c_mp),
    ):
        want_plus, want_minus = _unit((plus, minus))
        _complex(f"{name}.c_plus", results[name]["c_plus"], want_plus)
        _complex(f"{name}.c_minus", results[name]["c_minus"], want_minus)
    q = abs(c_pm) ** 2 + abs(c_mp) ** 2
    _close("fidelity_detect_lower_vs_psi_minus", results["fidelity_detect_lower_vs_psi_minus"], abs(c_pm + c_mp) ** 2 / (2.0 * q))


def _check_iteration(name: str, block: dict, c_pp, c_pm, c_mp, c_mm) -> None:
    q = abs(c_pm) ** 2 + abs(c_mp) ** 2
    _close(f"{name}.p_entangled", block["p_entangled"], q / 3.0)
    _close(f"{name}.p_scattered", block["p_scattered"], abs(c_pp) ** 2 + 2.0 * q / 3.0)
    _close(f"{name}.p_stuck", block["p_stuck"], abs(c_mm) ** 2)
    _close(f"{name}.p_truncated", block["p_truncated"], 0.0)
    _sum_to_one(name, (block[key] for key in ("p_entangled", "p_scattered", "p_stuck", "p_truncated")))
    _pair(f"{name}.post_entangled", block["post_entangled"], 0j, -c_pm, c_mp, 0j)
    rounds = block["passes_distribution"]
    if not rounds:
        raise CheckFailed(f"{name}.passes_distribution is empty")
    for position, (index, mass) in enumerate(rounds, start=1):
        if index != position:
            raise CheckFailed(f"{name}.passes_distribution: round {index} at position {position}")
        _close(f"{name}.passes_distribution[{index}]", mass, q / 4.0 ** index)


def check_iterate(params: dict, report: dict) -> None:
    results = report["results"]
    amps = pair_amplitudes(params)
    _check_iteration("analytic", results["analytic"], *amps)
    _check_iteration("numeric", results["numeric"], *amps)
    _close(
        "abs_delta_p_entangled",
        results["abs_delta_p_entangled"],
        abs(results["analytic"]["p_entangled"] - results["numeric"]["p_entangled"]),
        1e-15,
    )


def check_mixed(params: dict, report: dict) -> None:
    fidelity = params["fidelity"]
    results = report["results"]
    _close("fidelity", results["fidelity"], fidelity, 0.0)
    single = results["single_pass"]
    _close("single_pass.p_detect_lower", single["p_detect_lower"], fidelity / 4.0)
    _close("single_pass.p_detect_upper", single["p_detect_upper"], fidelity / 4.0 + (1.0 - fidelity) / 2.0)
    _close("single_pass.p_scattered", single["p_scattered"], 0.5)
    _sum_to_one("single_pass", (single[key] for key in ("p_detect_lower", "p_detect_upper", "p_scattered")))
    _close("single_pass.fidelity_lower_vs_psi_minus", single["fidelity_lower_vs_psi_minus"], 1.0)
    _close("single_pass.fidelity_upper_vs_psi_plus", single["fidelity_upper_vs_psi_plus"], fidelity / (2.0 - fidelity))
    iterated = results["iterated"]
    _close("iterated.p_entangled", iterated["p_entangled"], fidelity / 3.0)
    _close("iterated.p_entangled_numeric", iterated["p_entangled_numeric"], fidelity / 3.0)
    _close("iterated.p_scattered", iterated["p_scattered"], 2.0 * fidelity / 3.0 + (1.0 - fidelity) / 2.0)
    _close("iterated.p_stuck", iterated["p_stuck"], (1.0 - fidelity) / 2.0)


def decay_rate(finesse: float, length: float) -> float:
    return 4.0 * math.pi * SPEED_OF_LIGHT / (finesse * length)


def check_throughput(params: dict, report: dict) -> None:
    results = report["results"]
    preset = params.get("preset")
    if preset == "paper-cavity":
        cavity = results["cavity"]
        _close_rel("cavity.decay_rate_formula_per_s", cavity["decay_rate_formula_per_s"], decay_rate(FINESSE, CAVITY_LENGTH))
        _close("cavity.decay_rate_quoted_per_s", cavity["decay_rate_quoted_per_s"], QUOTED_DECAY_RATE, 0.0)
        _close("cavity.emission_probability_quoted", cavity["emission_probability_quoted"], PRESET_P_CAV, 0.0)
        return
    if preset == "paper-mixed":
        p_protocol, p_cav, detector, outcoupling, rate = PRESET_FIDELITY / 3.0, PRESET_P_CAV, PRESET_DETECTOR, 1.0, PRESET_RATE
    elif preset == "paper-product":
        q = 2.0 * PRESET_POPULATION * (1.0 - PRESET_POPULATION)
        p_protocol, p_cav, detector, outcoupling, rate = q / 3.0, PRESET_P_CAV, PRESET_DETECTOR, 1.0, PRESET_RATE
    else:
        if params["protocol"] == "mixed":
            p_protocol = params["fidelity"] / 3.0
        else:
            a2 = params["a2"]
            p_protocol = 2.0 * a2 * (1.0 - a2) / 3.0
        p_cav, detector, outcoupling, rate = (
            params["p_cav"], params["detector_efficiency"], params["outcoupling"], params["photon_rate"]
        )
    p_total = p_protocol * p_cav * detector * outcoupling
    _close_rel("p_protocol", results["p_protocol"], p_protocol)
    _close_rel("p_cav", results["p_cav"], p_cav)
    _close_rel("detector_efficiency", results["detector_efficiency"], detector)
    _close_rel("outcoupling", results["outcoupling"], outcoupling)
    _close_rel("photon_rate", results["photon_rate"], rate)
    _close_rel("p_total", results["p_total"], p_total)
    _close_rel("pairs_per_second", results["pairs_per_second"], p_total * rate)


def check_sweep_csv(params: dict, text: str) -> None:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    axis = params["axis"]
    columns = [axis, "p_scatter_u", "p_scatter_l", "p_detect_upper", "p_detect_lower", "p_recycle"]
    if rows[0] != columns:
        raise CheckFailed(f"sweep header {rows[0]!r}")
    points = params["points"]
    if len(rows) != points + 1:
        raise CheckFailed(f"sweep has {len(rows) - 1} rows, want {points}")
    low, high = params["sweep_from"], params["sweep_to"]
    for index, row in enumerate(rows[1:]):
        values = [float(cell) for cell in row]
        want_value = low + (high - low) * index / (points - 1)
        _close(f"row {index} {axis}", values[0], want_value, 1e-15)
        point = dict(params, **{axis: values[0]})
        probs = single_pass_probabilities(*pair_amplitudes(point))
        for column, got in zip(columns[1:], values[1:]):
            _close(f"row {index} {column}", got, probs[column[2:]])
        _sum_to_one(f"row {index}", values[1:])


def binomial_band(trials: int, p: float) -> float:
    """Largest |count - trials p| the band accepts (Bernstein, z = Z_BAND)."""
    log_term = Z_BAND * Z_BAND / 2.0
    variance = trials * p * (1.0 - p)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * variance * log_term)


def check_monte_carlo(params: dict, report: dict) -> None:
    results = report["results"]
    trials = params["trials"]
    if results["trials"] != trials or results["seed"] != params["seed"]:
        raise CheckFailed("trials or seed not echoed")
    c_pp, c_pm, c_mp, c_mm = pair_amplitudes(params)
    q = abs(c_pm) ** 2 + abs(c_mp) ** 2
    analytic = results["analytic"]
    _close("analytic.p_entangled", analytic["p_entangled"], q / 3.0)
    _close("analytic.p_scattered", analytic["p_scattered"], abs(c_pp) ** 2 + 2.0 * q / 3.0)
    _close("analytic.p_stuck", analytic["p_stuck"], abs(c_mm) ** 2)
    # Under the stop policy with N rounds, q / 4^N of the weight is still
    # unresolved at the end and counts as truncated.
    rest = q / 4.0 ** params.get("max_passes", 30)
    expected = {
        "entangled": (q - rest) / 3.0,
        "scattered": abs(c_pp) ** 2 + 2.0 * (q - rest) / 3.0,
        "stuck": abs(c_mm) ** 2,
        "truncated": rest,
    }
    frequencies = results["frequencies"]
    if set(frequencies) != set(expected):
        raise CheckFailed(f"frequency keys {sorted(frequencies)!r}")
    counts = {}
    for name, freq in frequencies.items():
        count = round(freq * trials)
        if abs(count - freq * trials) > 1e-8:
            raise CheckFailed(f"frequencies.{name}: {freq!r} is not a count over {trials} trials")
        counts[name] = count
        if abs(count - trials * expected[name]) > binomial_band(trials, expected[name]):
            raise CheckFailed(f"frequencies.{name}: {count} of {trials}, closed form {expected[name]!r}")
        _close(f"standard_errors.{name}", results["standard_errors"][name], math.sqrt(freq * (1.0 - freq) / trials), 1e-15)
    if sum(counts.values()) != trials:
        raise CheckFailed(f"counts sum to {sum(counts.values())}, not {trials}")
    rounds = results["passes_distribution"]
    _close("passes_distribution sum", math.fsum(freq for _, freq in rounds), frequencies["entangled"], 1e-12)
    for index, freq in rounds:
        if not 1 <= index <= params.get("max_passes", 30):
            raise CheckFailed(f"passes_distribution: round {index}")
        count = freq * trials
        if abs(count - round(count)) > 1e-8:
            raise CheckFailed(f"passes_distribution[{index}] is not a count")
        if abs(count - trials * q / 4.0 ** index) > binomial_band(trials, q / 4.0 ** index):
            raise CheckFailed(f"passes_distribution[{index}]: {count} of {trials}")
    if frequencies["entangled"] > 0.0:
        _pair("post_entangled", results["post_entangled"], 0j, -c_pm, c_mp, 0j)


_REPORT_CHECKS = {
    "single_pass": check_single_pass,
    "iterate": check_iterate,
    "mixed": check_mixed,
    "throughput": check_throughput,
    "monte_carlo": check_monte_carlo,
}


def check(request: dict, text: str, schema: dict) -> None:
    """Check one rendered report against its request's closed forms and the report schema."""
    try:
        if request["scenario"] == "sweep":
            check_sweep_csv(request["params"], text)
            return
        report = json.loads(text)
        validate(report, schema)
        if report["scenario"] != request["scenario"]:
            raise CheckFailed(f"scenario {report['scenario']!r}")
        _REPORT_CHECKS[request["scenario"]](request["params"], report)
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError, AttributeError) as err:
        # json.JSONDecodeError is a ValueError
        raise CheckFailed(f"malformed report: {err!r}") from err


# --- JSON schema: the draft-07 keywords report.schema.json uses -------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_KNOWN_KEYWORDS = {
    "$schema", "title", "description", "type", "const", "enum", "required",
    "properties", "additionalProperties", "items", "allOf", "if", "then",
}


def _errors(value, schema: dict, path: str) -> list[str]:
    unknown = set(schema) - _KNOWN_KEYWORDS
    if unknown:
        raise CheckFailed(f"schema keyword not supported: {sorted(unknown)}")
    errors = []
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[name](value) for name in types):
            return [f"{path}: not of type {types}"]
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: not {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: not one of {schema['enum']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing {key}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                errors += _errors(item, properties[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected {key}")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            errors += _errors(item, schema["items"], f"{path}[{index}]")
    for part in schema.get("allOf", ()):
        errors += _errors(value, part, path)
    if "if" in schema and not _errors(value, schema["if"], path) and "then" in schema:
        errors += _errors(value, schema["then"], path)
    return errors


def validate(report: dict, schema: dict) -> None:
    """Raise CheckFailed if ``report`` breaks ``schema``."""
    errors = _errors(report, schema, "report")
    if errors:
        raise CheckFailed("schema: " + "; ".join(errors[:3]))
