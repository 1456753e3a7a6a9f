"""Repeated traversals inside the enclosure cavity.

Each round the photon either scatters at an ion (terminal), fires the
output detector (success: the ions collapse onto the entangled target
ray), or leaves through the mirror port and is fed back for another
identical traversal.  The detector branch carries a quarter of the
off-diagonal weight q = |c_pm|^2 + |c_mp|^2 each round while the
surviving q-weight itself quarters, so success converges geometrically
to q/3.  The |m-,m-> component neither scatters nor fires the detector
and survives every round ("stuck" weight).

Both walkers stop at the pass budget ``max_passes`` (the numeric walk
also once the weight that could still resolve is negligible); the weight
still recycling then splits into its stuck |m-,m-> fraction and the
truncated remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import IonPairState, single_pass
from .states import abs2


@dataclass(frozen=True)
class RecycleConfig:
    """Loop bounds for the numeric and Monte Carlo evaluations.

    ``max_passes`` 30 leaves the truncated weight (one quarter per round)
    far below floating noise.
    """

    max_passes: int = 30
    truncation_epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass(frozen=True)
class IterationResult:
    """Outcome masses of the recycling loop.

    The four probabilities sum to one; ``passes_distribution`` maps the
    round index to the absolute detection probability in that round.
    """

    p_entangled: float
    p_scattered: float
    p_stuck: float
    p_truncated: float
    post_entangled: IonPairState | None
    passes_distribution: dict[int, float]


def iterate_analytic(ions: IonPairState) -> IterationResult:
    """Closed-form limit of the recycling loop.

    Success totals q/3; the |m+,m+> weight scatters in the first round
    and two thirds of the q-weight scatters over the series; the |m-,m->
    weight is stuck.  The detector-conditioned state is the same ray in
    every round.
    """
    q = abs2(ions.c_pm) + abs2(ions.c_mp)
    p_entangled = q / 3.0
    p_stuck = abs2(ions.c_mm)
    p_scattered = abs2(ions.c_pp) + 2.0 * q / 3.0
    post = (
        IonPairState.from_unnormalized(c_mp=ions.c_mp, c_pm=-ions.c_pm) if q > 0.0 else None
    )
    distribution: dict[int, float] = {}
    term = q / 4.0
    index = 1
    while term > 1e-18 and index <= 64:
        distribution[index] = term
        term /= 4.0
        index += 1
    return IterationResult(
        p_entangled=p_entangled,
        p_scattered=p_scattered,
        p_stuck=p_stuck,
        p_truncated=0.0,
        post_entangled=post,
        passes_distribution=distribution,
    )


def iterate_numeric(ions: IonPairState, config: RecycleConfig | None = None) -> IterationResult:
    """Explicit round-by-round propagation of the recycling loop.

    Applies :func:`ionmzi.protocol.single_pass` to the renormalized
    recycle branch each round, accumulating absolute branch masses.
    Stops at the pass budget or once the weight that could still resolve
    falls below ``truncation_epsilon``; whatever recycled weight is not
    asymptotically stuck is reported as truncated.
    """
    cfg = config if config is not None else RecycleConfig()
    weight = 1.0
    state: IonPairState | None = ions
    p_entangled = 0.0
    p_scattered = 0.0
    post: IonPairState | None = None
    distribution: dict[int, float] = {}
    rounds = 0
    while rounds < cfg.max_passes and state is not None:
        result = single_pass(state, enclosed=True)
        rounds += 1
        detected = weight * result.p_detect_lower
        if detected > 0.0:
            distribution[rounds] = detected
            p_entangled += detected
        p_scattered += weight * (result.p_scatter_u + result.p_scatter_l)
        if post is None and result.post_detect_lower is not None:
            post = result.post_detect_lower
        weight *= result.p_recycle
        state = result.post_recycle
        if state is None or weight <= 0.0:
            weight = 0.0
            state = None
            break
        if weight * (1.0 - abs2(state.c_mm)) < cfg.truncation_epsilon:
            break
    if state is None:
        p_stuck = 0.0
        p_truncated = 0.0
    else:
        p_stuck = weight * abs2(state.c_mm)
        p_truncated = max(weight - p_stuck, 0.0)
    return IterationResult(
        p_entangled=p_entangled,
        p_scattered=p_scattered,
        p_stuck=p_stuck,
        p_truncated=p_truncated,
        post_entangled=post,
        passes_distribution=distribution,
    )


# SplitMix64: 64-bit state advanced by the golden-ratio increment, output
# mixed through the murmur-style finalizer.  Trial i of seed s draws from
# its own stream with initial state mix(mix(s) ^ mix(i + 1)), so results
# are reproducible regardless of execution order or partitioning.
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD & _MASK
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53 & _MASK
    return z ^ (z >> 33)


def trial_stream_state(seed: int, trial: int) -> int:
    """Initial SplitMix64 state for one trial's private stream."""
    return _mix64(_mix64(seed & _MASK) ^ _mix64((trial + 1) & _MASK))


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical outcome frequencies with binomial standard errors.

    ``counts`` and ``frequencies`` are keyed by outcome name
    ("entangled", "scattered", "stuck", "truncated");
    ``passes_distribution`` holds the detection frequency by round index.
    """

    trials: int
    seed: int
    counts: dict[str, int]
    frequencies: dict[str, float]
    standard_errors: dict[str, float]
    passes_distribution: dict[int, float]
    post_entangled: IonPairState | None

    @property
    def p_entangled(self) -> float:
        return self.frequencies["entangled"]

    @property
    def p_scattered(self) -> float:
        return self.frequencies["scattered"]

    @property
    def p_stuck(self) -> float:
        return self.frequencies["stuck"]

    @property
    def p_truncated(self) -> float:
        return self.frequencies["truncated"]


def monte_carlo(
    ions: IonPairState, trials: int, seed: int, config: RecycleConfig | None = None
) -> MonteCarloResult:
    """Sample the recycling loop outcome trial by trial.

    Each trial walks the rounds, drawing the branch from the exact
    per-round probabilities; the recycled ion state follows one
    deterministic sequence, so the branch thresholds are tabulated once,
    as the first trial reaches each round.  A trial still recycling at
    the pass budget (or entering a round with no state left) resolves
    against the stuck fraction of its current state, which is zero
    without a state.  Deterministic for fixed (seed, trials).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    cfg = config if config is not None else RecycleConfig()

    # Per-round cumulative thresholds (scatter, +detect) and the state entering each round.
    states: list[IonPairState | None] = [ions]
    thresholds: list[tuple[float, float]] = []
    post: IonPairState | None = None
    counts = {"entangled": 0, "scattered": 0, "stuck": 0, "truncated": 0}
    detections: dict[int, int] = {}
    for trial in range(trials):
        stream = trial_stream_state(seed, trial)
        rounds = 0
        while True:
            current = states[rounds]
            stream = (stream + _GOLDEN) & _MASK
            draw = (_mix64(stream) >> 11) * _INV_2_53
            if current is None or rounds >= cfg.max_passes:
                stuck = abs2(current.c_mm) if current is not None else 0.0
                counts["stuck" if draw < stuck else "truncated"] += 1
                break
            if rounds == len(thresholds):
                result = single_pass(current, enclosed=True)
                scatter = result.p_scatter_u + result.p_scatter_l
                thresholds.append((scatter, scatter + result.p_detect_lower))
                states.append(result.post_recycle)
                if post is None and result.post_detect_lower is not None:
                    post = result.post_detect_lower
            scatter, detect = thresholds[rounds]
            rounds += 1
            if draw < scatter:
                counts["scattered"] += 1
                break
            if draw < detect:
                counts["entangled"] += 1
                detections[rounds] = detections.get(rounds, 0) + 1
                break
            # mirror-port branch: recycle and go around again

    inv = 1.0 / trials
    frequencies = {name: count * inv for name, count in counts.items()}
    standard_errors = {
        name: math.sqrt(freq * (1.0 - freq) * inv) for name, freq in frequencies.items()
    }
    distribution = {index: detections[index] * inv for index in sorted(detections)}
    return MonteCarloResult(
        trials=trials,
        seed=seed,
        counts=counts,
        frequencies=frequencies,
        standard_errors=standard_errors,
        passes_distribution=distribution,
        post_entangled=post,
    )
