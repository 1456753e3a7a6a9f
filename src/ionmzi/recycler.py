"""Repeated traversals inside the enclosure cavity.

Each round the photon either scatters at an ion (terminal), fires the
output detector (success: the ions collapse onto the entangled target
ray), or leaves through the mirror port and is fed back for another
identical traversal.  The detector branch carries a quarter of the
off-diagonal weight q = |c_pm|^2 + |c_mp|^2 each round while the
surviving q-weight itself quarters, so success converges geometrically
to q/3.  The |m-,m-> component neither scatters nor fires the detector
and survives every round ("stuck" weight).

Both walkers read one lazy round table, which ends at the pass budget
``max_passes`` (default ``MAX_PASSES``) or after a round that leaves no
state; the numeric walk also stops once the weight that could still resolve
falls below ``TRUNCATION_EPSILON``.  The weight still recycling then splits
into its stuck |m-,m-> fraction and the truncated remainder.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .protocol import IonPairState, single_pass
from .states import abs2


#: Default pass budget: the truncated weight (one quarter per round) ends far below floating noise.
MAX_PASSES = 30
#: The numeric walk stops once the weight that could still resolve falls below this.
TRUNCATION_EPSILON = 1e-12


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
    while term > 1e-18:
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


def _rounds(ions: IonPairState, max_passes: int) -> Iterator[tuple[float, float, float, IonPairState | None, float]]:
    """Lazy round table: per round (scatter, detect, recycle, detected state, recycled |m-,m-> weight)."""
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    state = ions
    for _ in range(max_passes):
        result = single_pass(state, enclosed=True)
        state = result.post_recycle
        stuck = abs2(state.c_mm) if state is not None else 0.0
        scatter = result.p_scatter_u + result.p_scatter_l
        yield scatter, result.p_detect_lower, result.p_recycle, result.post_detect_lower, stuck
        if state is None:
            return


def iterate_numeric(ions: IonPairState, max_passes: int = MAX_PASSES) -> IterationResult:
    """Explicit round-by-round propagation of the recycling loop.

    Applies :func:`ionmzi.protocol.single_pass` to the renormalized
    recycle branch each round, accumulating absolute branch masses.
    Stops after ``max_passes`` rounds (``MAX_PASSES`` by default) or once
    the weight that could still resolve falls below ``TRUNCATION_EPSILON``;
    whatever recycled weight is not asymptotically stuck is reported as
    truncated.
    """
    weight = 1.0
    p_entangled = 0.0
    p_scattered = 0.0
    post: IonPairState | None = None
    distribution: dict[int, float] = {}
    for rounds, (scatter, detect, recycle, herald, stuck) in enumerate(_rounds(ions, max_passes), 1):
        detected = weight * detect
        if detected > 0.0:
            distribution[rounds] = detected
            p_entangled += detected
        p_scattered += weight * scatter
        post = herald if post is None else post
        # With no state left the recycle mass is exactly 0.0, so the walk stops here.
        weight *= recycle
        if weight * (1.0 - stuck) < TRUNCATION_EPSILON:
            break
    p_stuck = weight * stuck
    return IterationResult(
        p_entangled=p_entangled,
        p_scattered=p_scattered,
        p_stuck=p_stuck,
        p_truncated=max(weight - p_stuck, 0.0),
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


def monte_carlo(ions: IonPairState, trials: int, seed: int, max_passes: int = MAX_PASSES) -> MonteCarloResult:
    """Sample the recycling loop outcome trial by trial.

    Each trial walks the rounds, drawing the branch from the exact
    per-round probabilities; the recycled ion state follows one
    deterministic sequence, so the branch thresholds are read once from
    the round table, as the first trial reaches each round.  A trial still
    recycling when the table ends resolves against the stuck fraction of
    the last recycled state, which is zero without a state.  Deterministic
    for fixed (seed, trials).
    """
    if trials < 1:
        raise ValueError("trials must be positive")

    # Per-round cumulative thresholds (scatter, +detect); past the table's end, (-1.0, stuck).
    rows = _rounds(ions, max_passes)
    thresholds: list[tuple[float, float]] = []
    post: IonPairState | None = None
    counts = {"entangled": 0, "scattered": 0, "stuck": 0, "truncated": 0}
    detections: dict[int, int] = {}
    for trial in range(trials):
        stream = trial_stream_state(seed, trial)
        rounds = 0
        while True:
            stream = (stream + _GOLDEN) & _MASK
            draw = (_mix64(stream) >> 11) * _INV_2_53
            if rounds == len(thresholds):
                row = next(rows, None)
                if row is None:
                    thresholds.append((-1.0, stuck))
                else:
                    scatter, detect, _, herald, stuck = row
                    thresholds.append((scatter, scatter + detect))
                    post = herald if post is None else post
            scatter, detect = thresholds[rounds]
            rounds += 1
            if scatter < 0.0:
                counts["stuck" if draw < detect else "truncated"] += 1
                break
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
