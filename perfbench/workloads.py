"""Seeded request lists for the three benchmark workloads.

A workload is one round of requests, generated from the benchmark seed and
sent again and again until the run ends, so every run sends the same
requests in the same proportions.  The make-up of a round is fixed; only the
continuous parameters (populations, phases, fidelities, sweep bounds, the
Monte Carlo seed) come from the seed, because they hardly change the cost
of a request.  That keeps the cost of a round, and so every timing, close
to the same from seed to seed.

Each request is a dict with

* ``scenario``: the report scenario (``single_pass``, ``iterate``, ...);
* ``params``: the inputs the checks recompute the closed forms from;
* ``argv``: the command-line arguments, without ``--config``;
* ``config``: the content of a ``--config`` file, or None.

Run ``python3 perfbench/workloads.py <workload> --seed <n>`` to print the
request list of a workload, one JSON object a line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

WORKLOADS = ("exact", "monte-carlo", "cli-cold")

#: Round sizes are odd on purpose: the median of whole rounds then falls
#: inside the block of copies of one request, not between two of them.
#: Tail percentile per workload, and the fewest reports a run must hold so
#: that at least ten reports lie beyond it.
TAIL_PERCENTILE = {"exact": 99, "monte-carlo": 95, "cli-cold": 90}
MIN_REPORTS = {"exact": 1000, "monte-carlo": 200, "cli-cold": 100}

#: Monte Carlo strata: a2 centre -> largest trial count.  A trial costs about
#: seven times more near a2 = 0 (it walks all 30 rounds) than near 1, so the
#: largest counts shrink towards 0 to give every stratum's largest report
#: about the same cost.  Each stratum also sends 1/10 and 1/100 of it.  The
#: reports of one size class then cost about the same, and the median and
#: the tail each fall among five similar reports rather than on one.
_MC_STRATA = {0.03: 3600, 0.25: 5400, 0.5: 10000, 0.75: 20000, 0.97: 30000}
#: Sweep sizes of an ``exact`` round: 11 to 21 points, so no sweep
#: dominates the tail and the cost of a round does not depend on the seed.
_SWEEP_POINTS = (11, 12, 13, 15, 16, 18, 19, 21)


def _phase(rng: random.Random) -> float:
    return rng.uniform(-math.pi, math.pi)


def _population(rng: random.Random) -> float:
    return rng.uniform(0.05, 0.95)


def _amplitude_request(scenario: str, params: dict) -> dict:
    argv = [scenario.replace("_", "-")]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return {"scenario": scenario, "params": dict(params), "argv": argv, "config": None}


def _single_pass(rng: random.Random, index: int) -> dict:
    params = {"a2": _population(rng)}
    if index % 2:
        params["alpha2"] = _population(rng)
    if index % 4 < 2:
        for name in ("phase_alpha", "phase_beta", "phase_a", "phase_b"):
            params[name] = _phase(rng)
    return _amplitude_request("single_pass", params)


def _iterate(rng: random.Random) -> dict:
    params = {"a2": _population(rng), "phase_a": _phase(rng), "phase_b": _phase(rng)}
    return _amplitude_request("iterate", params)


def _mixed(rng: random.Random) -> dict:
    fidelity = rng.uniform(0.05, 0.95)
    return {
        "scenario": "mixed",
        "params": {"fidelity": fidelity},
        "argv": ["mixed", "--fidelity", repr(fidelity)],
        "config": None,
    }


def _preset(name: str) -> dict:
    return {
        "scenario": "throughput",
        "params": {"preset": name},
        "argv": ["throughput", "--preset", name],
        "config": None,
    }


def _custom_throughput(rng: random.Random, protocol: str) -> dict:
    config = {
        "scenario": "throughput",
        "protocol": protocol,
        "p_cav": rng.uniform(0.001, 0.05),
        "detector_efficiency": rng.uniform(0.5, 0.95),
        "outcoupling": rng.uniform(0.5, 1.0),
        "photon_rate": rng.uniform(1000.0, 10000.0),
    }
    if protocol == "mixed":
        config["fidelity"] = rng.uniform(0.05, 0.95)
    else:
        config["a2"] = _population(rng)
    return {"scenario": "throughput", "params": dict(config), "argv": ["throughput"], "config": config}


def _sweep(rng: random.Random, points: int, axis: str) -> dict:
    low, high = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
    high = max(high, low + 0.05)
    high = min(high, 1.0)
    params = {
        "sweep_scenario": "single_pass",
        "axis": axis,
        "sweep_from": low,
        "sweep_to": high,
        "points": points,
        "a2": _population(rng),
        "phase_alpha": _phase(rng),
        "phase_a": _phase(rng),
    }
    if axis == "alpha2":
        params["alpha2"] = _population(rng)
    argv = [
        "sweep", "--scenario", "single_pass", "--axis", axis,
        "--from", repr(low), "--to", repr(high), "--points", str(points),
        "--a2", repr(params["a2"]),
        "--phase-alpha", repr(params["phase_alpha"]), "--phase-a", repr(params["phase_a"]),
    ]
    if axis == "alpha2":
        argv += ["--alpha2", repr(params["alpha2"])]
    return {"scenario": "sweep", "params": params, "argv": argv, "config": None}


def _monte_carlo(rng: random.Random, centre: float, trials: int) -> dict:
    params = {
        "a2": centre + rng.uniform(-0.01, 0.01),
        "trials": trials,
        "seed": rng.randrange(1 << 31),
    }
    return _amplitude_request("monte_carlo", params)


def _exact_round(rng: random.Random) -> list[dict]:
    requests = [_single_pass(rng, index) for index in range(17)]
    requests += [_iterate(rng) for _ in range(6)]
    requests += [_mixed(rng) for _ in range(4)]
    requests += [_preset(name) for name in ("paper-mixed", "paper-product", "paper-cavity")]
    requests += [_custom_throughput(rng, protocol) for protocol in ("mixed", "product", "mixed")]
    for index, points in enumerate(_SWEEP_POINTS):
        requests.append(_sweep(rng, points, "a2" if index % 2 else "alpha2"))
    return requests


def _monte_carlo_round(rng: random.Random) -> list[dict]:
    return [
        _monte_carlo(rng, centre, largest // scale)
        for centre, largest in _MC_STRATA.items()
        for scale in (100, 10, 1)
    ]


def _cli_cold_round(rng: random.Random) -> list[dict]:
    requests = [_single_pass(rng, index) for index in range(5)]
    requests += [_iterate(rng) for _ in range(3)]
    requests += [_preset(name) for name in ("paper-mixed", "paper-product", "paper-cavity")]
    return requests


_ROUNDS = {"exact": _exact_round, "monte-carlo": _monte_carlo_round, "cli-cold": _cli_cold_round}


def requests_for(workload: str, seed: int) -> list[dict]:
    """The round of requests a workload sends for ``seed``, in sending order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = _ROUNDS[workload](rng)
    rng.shuffle(requests)
    return requests


def warmup_requests(seed: int) -> list[dict]:
    """One request per scenario: the warm-up and the determinism check."""
    rng = random.Random(f"warmup:{seed}")
    return [
        _single_pass(rng, 0),
        _iterate(rng),
        _mixed(rng),
        _monte_carlo(rng, 0.5, 500),
        _custom_throughput(rng, "product"),
        _sweep(rng, 11, "a2"),
    ]


def materialize(requests: list[dict], config_dir: str, tag: str) -> list[list[str]]:
    """Write the config files the requests need and return their full argv."""
    argvs = []
    for index, request in enumerate(requests):
        argv = list(request["argv"])
        if request["config"] is not None:
            os.makedirs(config_dir, exist_ok=True)
            path = os.path.join(config_dir, f"{tag}-{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(request["config"], handle)
            argv += ["--config", path]
        argvs.append(argv)
    return argvs


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the request list of a workload.")
    parser.add_argument("workload", choices=WORKLOADS + ("warmup",))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    requests = warmup_requests(args.seed) if args.workload == "warmup" else requests_for(args.workload, args.seed)
    for request in requests:
        print(json.dumps(request, sort_keys=True))


if __name__ == "__main__":
    main()
