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

``monte_carlo`` samples the same loop with a SplitMix64 stream per trial
(Steele, Lea & Flood, OOPSLA 2014), one lane of a packed int each.  Packed
chunks of trials walk one shared table of the rounds that a draw can decide
and still give a loop over trials' counts bit for bit: the generator is
counter based, so a trial's k-th draw does not depend on the order of
evaluation; every branch test ``draw < t`` becomes an exact integer test on
the 64-bit output; and the round table is read as lazily as by that loop.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import compress

from .protocol import IonPairState, single_pass
from .states import abs2


#: Default pass budget: the truncated weight (one quarter per round) ends far below floating noise.
MAX_PASSES = 30
#: The numeric walk stops once the weight that could still resolve falls below this.
TRUNCATION_EPSILON = 1e-12


class IterationResult(namedtuple(
    "IterationResult", "p_entangled p_scattered p_stuck p_truncated post_entangled passes_distribution"
)):
    """Outcome masses of the recycling loop, an immutable record.

    The four probabilities sum to one; ``post_entangled`` is the heralded
    IonPairState or None; ``passes_distribution`` maps the round index to
    the absolute detection probability in that round, in round order.
    """

    __slots__ = ()


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
    """Lazy round table: per round (scatter, detect, recycle, first heralded state so far, recycled |m-,m-> weight)."""
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    state, post = ions, None
    for _ in range(max_passes):
        # the walk reads the mirror (upper) port's state every round, the lower port's until the first herald
        result = single_pass(state, enclosed=True, posts=(False, False, True, post is None))
        state = result.post_recycle
        post = result.post_detect_lower if post is None else post
        stuck = abs2(state.c_mm) if state is not None else 0.0
        scatter = result.p_scatter_u + result.p_scatter_l
        yield scatter, result.p_detect_lower, result.p_recycle, post, stuck
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
    distribution: dict[int, float] = {}
    for rounds, (scatter, detect, recycle, post, stuck) in enumerate(_rounds(ions, max_passes), 1):
        detected = weight * detect
        if detected > 0.0:
            distribution[rounds] = detected
            p_entangled += detected
        p_scattered += weight * scatter
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
# mixed through the murmur-style finalizer ``_mix_lanes``.  Trial i of seed s
# draws from its own stream with initial state mix(mix(s) ^ mix(i + 1)), so
# results are reproducible regardless of execution order or partitioning.
# A draw is the top 53 bits of the 64-bit output m, (m >> 11) * 2**-53.
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# The Monte Carlo kernel packs a chunk of trials into one int, one 128-bit
# lane per trial: a 64-bit counter in the low half, and room above it for
# the counter's product with a 64-bit constant.  Both constants were chosen
# by timing the monte-carlo benchmark's report sizes: with the lane constants
# cached, chunks of 1024 to 8192 lanes took the same time within noise (9%),
# and 2048 keeps a chunk's ints near 32 kB (8192 lanes raise the traced peak
# of 200,000 trials from 0.36 to 1.17 MB).  With the detect bound tested
# first, repacking once fewer than 1/2, 5/8, 3/4, 7/8 or 15/16 of the lanes
# recycle took 1.097, 1.019, 1.000, 1.001 and 1.016 of the time at 3/4 over
# the benchmark's 30 requests of seeds 1 and 2 (sums of per-request minima of
# 20 calls, the fractions alternated call by call, in one sitting).
_CHUNK = 2048
#: A chunk repacks its recycling lanes once fewer than this fraction of its lanes recycle; 1 repacks at any stop.
_REPACK = 3 / 4
_LANE = 128


@cache
def _chunk_constants(lanes: int) -> tuple[int, int, int, int, int]:
    """(ones, low, golden, flags, ramp): 1, _MASK, _GOLDEN, 2**64 and j in each lane j of ``lanes`` lanes.

    Built by doubling, once per chunk size; a shorter chunk cuts its low lanes with ``_low_lanes``.
    """
    ones, ramp, width = 1, 0, 1
    while width < lanes:
        ramp |= ramp + width * ones << _LANE * width
        ones |= ones << _LANE * width
        width *= 2
    if width > lanes:
        ones, ramp = _low_lanes((ones, ramp), lanes)
    return ones, ones * _MASK, _GOLDEN * ones, ones << 64, ramp


def _low_lanes(values: tuple[int, ...], lanes: int) -> list[int]:
    """The lowest ``lanes`` lanes of each of ``values``."""
    cut = (1 << _LANE * lanes) - 1
    return [value & cut for value in values]


def _mix_lanes(z: int, low: int) -> int:
    """SplitMix64's output mix of each lane of ``z`` at once; ``low`` masks each lane's low half.

    Each lane holds a value below 2**64, so its product with a 64-bit
    constant stays in the lane; each shift moves bits of the lane above
    into bits 95-127, which the mask clears before they are multiplied.
    ``_mix_lanes(v, _MASK)`` mixes one value v below 2**64.
    """
    z = (z ^ (z >> 33)) & low
    z = z * 0xFF51AFD7ED558CCD & low
    z = (z ^ (z >> 33)) & low
    z = z * 0xC4CEB9FE1A85EC53 & low
    return (z ^ (z >> 33)) & low


def _threshold(t: float) -> int:
    """The bound b with ``(m >> 11) * 2**-53 < t`` exactly when ``m < b``, for every 64-bit ``m``.

    ``m >> 11`` is an integer below 2**53 and scaling t by 2**53 is exact,
    so the draw is below t exactly when ``m >> 11 < ceil(t * 2**53)``.
    Every draw is below a t of 1 or more, and none below a t of 0, less or NaN.
    """
    if not t > 0.0:
        return 0
    if t >= 1.0:
        return 1 << 64
    return math.ceil(math.ldexp(t, 53)) << 11


def _repack(streams: int, active: int, lanes: int) -> int:
    """The counters of the lanes whose bit 64 is set in ``active``, packed in order from lane 0."""
    keep = active.to_bytes(16 * lanes, "little")[8::16]
    packed = streams.to_bytes(16 * lanes, "little")
    return int.from_bytes(b"".join([packed[i : i + 16] for i in compress(range(0, 16 * lanes, 16), keep)]), "little")


def _drawn_rounds(ions: IonPairState, max_passes: int) -> Iterator[tuple[int, int | None, int, IonPairState | None]]:
    """The rounds of ``_rounds`` that some draw can decide (a bound above 0), lazily, as (round, scatter bound,
    +detect bound, first herald so far); then (round, None, stuck bound, herald) one round past the last row."""
    for rounds, (scatter, detect, _, post, stuck) in enumerate(_rounds(ions, max_passes), 1):
        scatter_bound, detect_bound = _threshold(scatter), _threshold(scatter + detect)
        if scatter_bound or detect_bound:
            yield rounds, scatter_bound, detect_bound, post
    yield rounds + 1, None, _threshold(stuck), post


class MonteCarloResult(namedtuple(
    "MonteCarloResult", "trials seed counts frequencies standard_errors passes_distribution post_entangled"
)):
    """Empirical outcome frequencies with binomial standard errors, an immutable record.

    ``counts`` and ``frequencies`` are keyed by outcome name
    ("entangled", "scattered", "stuck", "truncated");
    ``passes_distribution`` holds the detection frequency by round index,
    in round order; ``post_entangled`` is the heralded IonPairState or None.
    """

    __slots__ = ()

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
    """Sample the recycling loop outcome of each trial.

    Each trial walks the rounds, drawing the branch from the exact
    per-round probabilities; the recycled ion state follows one
    deterministic sequence, so the branch thresholds are read once from
    the round table, as the first trial reaches each round.  A trial still
    recycling when the table ends resolves against the stuck fraction of
    the last recycled state, which is zero without a state.  Deterministic
    for fixed (seed, trials).  Only ``seed`` modulo 2**64 is read, so seeds
    that differ by a multiple of 2**64 give the same counts; the CLI takes
    seeds from 0 to 2**64 - 1 only.

    Chunks of trials, each packed in one int, walk one shared list of the rounds that draw
    (``_drawn_rounds``), which gives the counts of a loop over trials exactly: SplitMix64 is
    counter based, so trial i's k-th draw is the mix of ``s_i + k * _GOLDEN`` in any order of
    draws, and the streams pass the rounds between two that draw in one step; each test
    ``draw < t`` is the integer test ``m < _threshold(t)`` on the 64-bit output m; and row k of
    the table is read only once some trial reaches round k, as by the loop over trials.
    """
    if trials < 1:
        raise ValueError("trials must be positive")

    # The rounds that draw, read as far as the furthest chunk reaches and shared by every chunk.
    entries = _drawn_rounds(ions, max_passes)
    table: list[tuple[int, int | None, int, IonPairState | None]] = []
    counts = {"entangled": 0, "scattered": 0, "stuck": 0, "truncated": 0}
    detections: dict[int, int] = {}
    seed_mix = _mix_lanes(seed & _MASK, _MASK)
    full = _chunk_constants(_CHUNK)
    for start in range(0, trials, _CHUNK):
        lanes = min(_CHUNK, trials - start)
        ones, low, golden, flags, ramp = full if lanes == _CHUNK else _low_lanes(full, lanes)
        streams = _mix_lanes(_mix_lanes((start + 1) * ones + ramp & low, low) ^ seed_mix * ones, low)
        active, alive, rounds, drawn = flags, lanes, 0, 0  # bit 64 of ``active`` marks each lane still recycling
        while alive:
            if drawn == len(table):
                table.append(next(entries))
            at, scatter_bound, detect_bound, _ = table[drawn]
            drawn += 1
            # The streams are counters: one step passes the rounds skipped since round ``rounds``, multiplying only then.
            streams = streams + (golden if at - rounds == 1 else (at - rounds) * golden) & low
            rounds = at
            # Bit 64 of each lane of (draws - b * ones) is set where that lane's output is at least b.
            draws = _mix_lanes(streams, low) | flags
            recycling = (draws - detect_bound * ones) & active
            if scatter_bound is None:
                above = recycling.bit_count()
                counts["stuck"] += alive - above
                counts["truncated"] += above
                break
            if recycling == active:  # no lane resolved, as in most late rounds of a stuck-heavy input
                continue
            # the scatter bound is at most the detect bound, so each lane that recycles is past it
            passed, recycled = ((draws - scatter_bound * ones) & active).bit_count(), recycling.bit_count()
            active = recycling
            counts["scattered"] += alive - passed
            if passed > recycled:
                counts["entangled"] += passed - recycled
                detections[rounds] = detections.get(rounds, 0) + passed - recycled
            alive = recycled
            if alive and alive < lanes * _REPACK:
                streams, lanes = _repack(streams, active, lanes), alive
                ones, low, golden, flags = _low_lanes(full[:4], lanes)
                active = flags

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
        post_entangled=table[-1][3],
    )
