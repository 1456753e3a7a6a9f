"""Independent references shared by the test modules.

``closed_form_final_state`` writes down the hand-derived output of one
traversal directly, term by term, without touching the element maps, so
the element-composed driver can be pinned against it coefficient by
coefficient.  ``reference_single_pass`` reads the branches straight off the
composed state of ``evolve_single_pass``, so the generated ``single_pass``
can be pinned against it bit for bit.  ``inner_product`` and
``equal_up_to_global_phase`` give the overlap of two states and compare
them as rays, which only the tests need.  ``ensemble_fidelity`` scores a
heralded (weight, ion-pair state) ensemble against a target.
``reference_iterate_numeric`` and ``reference_monte_carlo`` are the two
recycling walkers as they were before they shared one round table, each
driving ``single_pass`` round by round itself; the walkers in
``ionmzi.recycler`` are pinned against them by ``repr`` and by their
number of ``single_pass`` calls.  ``reference_element_tables`` and
``reference_schedule`` are the element tables and the single-pass schedule
as they were built with their own ket-index arithmetic, before ``states``
alone knew the ket layout; the tables in ``ionmzi.elements`` are pinned
equal to them.  ``ionmzi.protocol`` builds no schedule: it writes its
straight-line ``single_pass`` function while it walks the element tables.
That function's last-stage amplitudes are pinned by ``repr``, signed zeros
included, to the reference schedule replayed by ``_replay``, the loop that
ran the schedule before ``single_pass`` was generated.  The reference keeps
the input stage, pruned as ``PureState`` prunes, that the generated
function leaves out.

``reference_dump_json`` is the report writer as it was before it wrote
every piece into one list: an ``isinstance`` chain per value, one join per
container, a record through its ``_asdict()``.  ``ionmzi.cli._dump_json``
is pinned equal to it on seeded nested values.

The references restate what they pin rather than import it: the ket index
arithmetic (``PAIRS``, ``MODE_INDEX``, ``LEVEL_INDEX``), which ``ionmzi.states``
gives only as the order of ``KETS``, and the scalar SplitMix64 stream of
each trial, which ``ionmzi.recycler`` computes only lane-wise.
"""

from __future__ import annotations

import math
from json import dumps as _dump_str  # the CLI's _dump_str writes what json.dumps writes

from ionmzi.elements import _ABSORBING_LEVEL, _OTHER_PORT, _REFLECTION_PHASE
from ionmzi.protocol import (
    ENTRY_LOWER_FORWARD,
    ENTRY_UPPER_BACKWARD,
    Ensemble,
    IonPairState,
    PassResult,
    SingleIonState,
    evolve_single_pass,
    propagate,
    single_pass,
)
from ionmzi.recycler import MAX_PASSES, TRUNCATION_EPSILON, IterationResult, MonteCarloResult
from ionmzi.states import (
    MODES,
    NORM_TOL,
    PRUNE_EPS,
    BasisState,
    Direction,
    IonId,
    IonLevel,
    ModeKind,
    PhotonMode,
    Polarization,
    Port,
    PureState,
    abs2,
    normalize,
)

SQRT_HALF = 2.0 ** -0.5

#: Ion-level pairs per photon mode; ket ``mode * PAIRS + 3 * ion_u + ion_l``
#: indexes the levels in ``IonLevel`` declaration order.
PAIRS = 9
MODE_INDEX = {mode: index for index, mode in enumerate(MODES)}
LEVEL_INDEX = {level: index for index, level in enumerate(IonLevel)}

MODE_FORWARD_LOWER = PhotonMode.propagating(Port.LOWER, Direction.FORWARD, Polarization.SIGMA_PLUS)
MODE_FORWARD_UPPER = PhotonMode.propagating(Port.UPPER, Direction.FORWARD, Polarization.SIGMA_PLUS)


def ket(photon: PhotonMode, ion_u: IonLevel, ion_l: IonLevel) -> BasisState:
    return BasisState(photon, ion_u, ion_l)


def closed_form_final_state(ions: IonPairState) -> PureState:
    """Single-traversal output for a sigma+ photon entering forward at the lower port.

    Derived by hand from the splitter map (cross with unit phase, stay
    with +i forward), the absorption rule (sigma+ takes m+ to the ground
    level, marking the photon scattered) and a second splitter pass:

    * upper ion scatters, weight (|c_pp|^2 + |c_pm|^2)/2, lower ion left in (c_pp, c_pm);
    * lower ion scatters, weight (|c_pp|^2 + |c_mp|^2)/2, upper ion left in (c_pp, c_mp);
    * upper exit carries (i/2)(c_mp |m-,m+> + c_pm |m+,m-> + 2 c_mm |m-,m->);
    * lower exit carries (1/2)(c_mp |m-,m+> - c_pm |m+,m->).
    """
    m_p, m_m, g = IonLevel.M_PLUS, IonLevel.M_MINUS, IonLevel.G
    scattered_u = PhotonMode.scattered(IonId.ION_U)
    scattered_l = PhotonMode.scattered(IonId.ION_L)
    return PureState(
        [
            (ket(scattered_u, g, m_p), SQRT_HALF * ions.c_pp),
            (ket(scattered_u, g, m_m), SQRT_HALF * ions.c_pm),
            (ket(scattered_l, m_p, g), 1j * SQRT_HALF * ions.c_pp),
            (ket(scattered_l, m_m, g), 1j * SQRT_HALF * ions.c_mp),
            (ket(MODE_FORWARD_UPPER, m_m, m_p), 0.5j * ions.c_mp),
            (ket(MODE_FORWARD_UPPER, m_p, m_m), 0.5j * ions.c_pm),
            (ket(MODE_FORWARD_UPPER, m_m, m_m), 1j * ions.c_mm),
            (ket(MODE_FORWARD_LOWER, m_m, m_p), 0.5 * ions.c_mp),
            (ket(MODE_FORWARD_LOWER, m_p, m_m), -0.5 * ions.c_pm),
        ]
    )


def _scatter_branch(final: PureState, ion: IonId) -> tuple[float, SingleIonState | None]:
    mass = 0.0
    amps = [0j, 0j, 0j]  # surviving ion's level, in IonLevel order
    for index, amp in final.indexed_items():
        if MODES[index // PAIRS].scattered_at is ion:
            mass += abs2(amp)
            amps[index % 3 if ion is IonId.ION_U else index % PAIRS // 3] += amp
    if mass <= 0.0:
        return 0.0, None
    inv = mass ** -0.5
    return mass, SingleIonState(amps[0] * inv, amps[1] * inv)


def _port_branch(final: PureState, port: Port) -> tuple[float, IonPairState | None]:
    mass = 0.0
    amps = [0j] * PAIRS
    for index, amp in final.indexed_items():
        mode, pair = divmod(index, PAIRS)
        if MODES[mode].port is port:
            mass += abs2(amp)
            amps[pair] += amp
    if mass <= 0.0:
        return 0.0, None
    inv = mass ** -0.5
    return mass, IonPairState(*(amps[pair] * inv for pair in (0, 1, 3, 4)))  # the metastable pairs


def reference_single_pass(
    ions: IonPairState,
    photon_pol: Polarization = Polarization.SIGMA_PLUS,
    entry=ENTRY_LOWER_FORWARD,
    enclosed: bool = False,
) -> PassResult:
    """``single_pass`` as a reading of the composed state: every stage a ``PureState``."""
    final = evolve_single_pass(ions, photon_pol, entry)
    p_su, post_su = _scatter_branch(final, IonId.ION_U)
    p_sl, post_sl = _scatter_branch(final, IonId.ION_L)
    upper_mass, upper_state = _port_branch(final, Port.UPPER)
    lower_mass, lower_state = _port_branch(final, Port.LOWER)
    forward = entry[1] is Direction.FORWARD  # the mirror port is the upper one
    p_upper, p_lower, p_recycle = upper_mass, lower_mass, 0.0
    if enclosed and forward:
        p_upper, p_recycle = 0.0, upper_mass
    elif enclosed:
        p_lower, p_recycle = 0.0, lower_mass
    return PassResult(
        p_scatter_u=p_su,
        p_scatter_l=p_sl,
        p_detect_upper=p_upper,
        p_detect_lower=p_lower,
        p_recycle=p_recycle,
        post_detect_upper=upper_state,
        post_detect_lower=lower_state,
        post_recycle=upper_state if forward else lower_state,
        post_scatter_u=post_su,
        post_scatter_l=post_sl,
    )


def max_amplitude_delta(first: PureState, second: PureState) -> float:
    """Largest per-coefficient difference between two states."""
    keys = {basis for basis, _ in first.items()} | {basis for basis, _ in second.items()}
    return max(abs(first.amplitude(k) - second.amplitude(k)) for k in keys) if keys else 0.0


def inner_product(bra: PureState, ket: PureState) -> complex:
    """<bra|ket>, conjugate-linear in the first argument."""
    amps = dict(ket.indexed_items())
    return sum((amp.conjugate() * amps.get(index, 0j) for index, amp in bra.indexed_items()), 0j)


def equal_up_to_global_phase(first: PureState, second: PureState, tol: float = NORM_TOL) -> bool:
    """Whether the two states describe the same ray within ``tol``."""
    _, a = normalize(first)
    _, b = normalize(second)
    return 1.0 - abs(inner_product(a, b)) <= tol


def ensemble_fidelity(ensemble: Ensemble, target: IonPairState) -> float:
    """Weighted overlap probability sum_k w_k |<target|state_k>|^2 of a heralded ensemble."""
    return math.fsum(weight * state.fidelity(target) for weight, state in ensemble)


def random_ion_pair(rng) -> IonPairState:
    """Haar-ish random two-ion state from four complex gaussians."""
    raw = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4)]
    return IonPairState.from_unnormalized(*raw)


def random_edge_ion_pair(rng) -> IonPairState:
    """Random two-ion state that reaches the pruning and signed-zero corners.

    Each raw amplitude is zeroed with probability 1/4 or scaled by 10^U(-13, 0)
    with probability 1/4, so terms fall below ``PRUNE_EPS`` at some stage.  Each
    real and each imaginary part is -0.0 with probability 1/20.
    """
    raw = [0j] * 4
    while not any(raw):
        raw = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4)]
        for slot, u in enumerate(rng.random(4)):
            if u < 0.25:
                raw[slot] = 0j
            elif u < 0.5:
                raw[slot] *= 10.0 ** rng.uniform(-13.0, 0.0)
        signed_real, signed_imag = rng.random(4) < 0.05, rng.random(4) < 0.05
        raw = [complex(0.0 if r else z.real, 0.0 if i else z.imag) for z, r, i in zip(raw, signed_real, signed_imag)]
    state = IonPairState.from_unnormalized(*raw)
    amps = (state.c_pp, state.c_pm, state.c_mp, state.c_mm)
    # the sign of a zero part leaves the norm as it is
    return IonPairState(
        *(complex(-0.0 if r else z.real, -0.0 if i else z.imag) for z, r, i in zip(amps, signed_real, signed_imag))
    )


def random_product_amplitudes(rng) -> tuple[complex, complex, complex, complex]:
    """Random normalized single-ion amplitude pairs (upper ion, lower ion)."""

    def pair() -> tuple[complex, complex]:
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return a / norm, b / norm

    u_plus, u_minus = pair()
    l_plus, l_minus = pair()
    return u_plus, u_minus, l_plus, l_minus


def reference_iterate_numeric(ions: IonPairState, max_passes: int = MAX_PASSES) -> IterationResult:
    """Explicit round-by-round propagation of the recycling loop.

    Applies :func:`ionmzi.protocol.single_pass` to the renormalized
    recycle branch each round, accumulating absolute branch masses.
    Stops after ``max_passes`` rounds (``MAX_PASSES`` by default) or once
    the weight that could still resolve falls below ``TRUNCATION_EPSILON``;
    whatever recycled weight is not asymptotically stuck is reported as
    truncated.
    """
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    weight = 1.0
    state: IonPairState | None = ions
    p_entangled = 0.0
    p_scattered = 0.0
    post: IonPairState | None = None
    distribution: dict[int, float] = {}
    for rounds in range(1, max_passes + 1):
        result = single_pass(state, enclosed=True)
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
            state = None
            break
        if weight * (1.0 - abs2(state.c_mm)) < TRUNCATION_EPSILON:
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


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), one trial at a time: 64-bit
# state advanced by the golden-ratio increment, output mixed through the
# murmur-style finalizer.  A draw is the top 53 bits of the output.
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


def reference_lane_constants(lanes: int) -> tuple[int, int, int, int, int]:
    """The Monte Carlo kernel's (ones, low, golden, flags, ramp) for ``lanes`` 128-bit lanes, by division.

    ``ones`` holds 1 in each lane, as the geometric sum (2**(128 n) - 1) / (2**128 - 1);
    ``ramp`` holds j in lane j, since (2**128 - 1) * sum(j * 2**(128 j)) telescopes to its numerator.
    """
    unit = (1 << 128) - 1
    ones = ((1 << 128 * lanes) - 1) // unit
    ramp = ((lanes - 1 << 128 * lanes) - ones + 1) // unit
    return ones, ones * _MASK, _GOLDEN * ones, ones << 64, ramp


def reference_monte_carlo(ions: IonPairState, trials: int, seed: int, max_passes: int = MAX_PASSES) -> MonteCarloResult:
    """Sample the recycling loop outcome trial by trial.

    Each trial walks the rounds, drawing the branch from the exact
    per-round probabilities; the recycled ion state follows one
    deterministic sequence, so the branch thresholds are tabulated once,
    as the first trial reaches each round.  A trial still recycling after
    ``max_passes`` rounds (or entering a round with no state left) resolves
    against the stuck fraction of its current state, which is zero
    without a state.  Deterministic for fixed (seed, trials).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")

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
            if current is None or rounds >= max_passes:
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


def reference_element_tables() -> tuple[list, dict[IonId, list[int]]]:
    """Per basis index: the splitter's (crossed-port ket, reflection phase), None off
    the beam; and each ion's absorption target, the ket itself where it absorbs nothing.
    """
    size = len(MODES) * PAIRS
    splitter: list[tuple[int, complex] | None] = [None] * size
    absorption = {IonId.ION_U: list(range(size)), IonId.ION_L: list(range(size))}
    for here, mode in enumerate(MODES):
        if mode.kind is not ModeKind.PROPAGATING:
            continue
        crossed_mode = PhotonMode.propagating(_OTHER_PORT[mode.port], mode.direction, mode.polarization)
        crossed = MODE_INDEX[crossed_mode]
        ion = IonId.ION_U if mode.port is Port.UPPER else IonId.ION_L
        scattered = MODE_INDEX[PhotonMode.scattered(ion)]
        absorbing = LEVEL_INDEX[_ABSORBING_LEVEL[mode.polarization]]
        weight = 3 if ion is IonId.ION_U else 1  # place value of this ion's level in a pair index
        for pair in range(PAIRS):
            splitter[here * PAIRS + pair] = (crossed * PAIRS + pair, _REFLECTION_PHASE[mode.direction])
            if pair // weight % 3 == absorbing:  # only this ion's level changes, to the ground level
                dropped = pair + weight * (_GROUND - absorbing)
                absorption[ion][here * PAIRS + pair] = scattered * PAIRS + dropped
    return splitter, absorption


_GROUND = LEVEL_INDEX[IonLevel.G]
_SPLITTER, _ABSORPTION = reference_element_tables()

#: Pair indices (3 * ion_u + ion_l) of |m+,m+>, |m+,m->, |m-,m+>, |m-,m->: IonPairState's field order.
_METASTABLE_PAIRS = (0, 1, 3, 4)


def _replay(stages: tuple, amps: list[complex]) -> list[complex]:
    """Run ``amps`` through the stages with the element maps' arithmetic and pruning.

    A pruned ket holds 0j; its exact zeros change no sum, as a merge starts from 0j like
    ``PureState``'s, so no partial sum holds a -0.0 to flip.
    """
    for stage in stages:
        out = []
        for terms in stage:
            merged = 0j
            for slot, factors in terms:
                amp = amps[slot]
                for factor in factors:
                    amp = amp * factor
                merged = merged + amp
            out.append(merged if abs(merged) >= PRUNE_EPS else 0j)
        amps = out
    return amps


def reference_schedule(photon_pol: Polarization, entry: tuple[Port, Direction]) -> tuple[tuple, tuple]:
    """One traversal as stages of ket moves read from the element tables, and its readout.

    A stage lists its output kets in index order, each as (input slot, factors applied in turn)
    in the order its element map appends them.  Checked at first use against :func:`propagate`.
    """
    if entry not in (ENTRY_LOWER_FORWARD, ENTRY_UPPER_BACKWARD):
        raise ValueError("photon must enter at a mirror-side port")
    base = PAIRS * MODE_INDEX[PhotonMode.propagating(*entry, photon_pol)]
    inputs = kets = [base + pair for pair in _METASTABLE_PAIRS]

    def split(ket: int) -> tuple:  # off the beam a ket passes through
        crossed, phase = _SPLITTER[ket] or (ket, None)
        return ((ket, ()),) if phase is None else ((crossed, (SQRT_HALF,)), (ket, (SQRT_HALF, phase)))

    stages: list[tuple] = []
    for moves in (lambda ket: ((ket, ()),), split, lambda ket: ((_ABSORPTION[IonId.ION_U][ket], ()),),
                  lambda ket: ((_ABSORPTION[IonId.ION_L][ket], ()),), split):
        merged: dict[int, list] = {}
        for slot, ket in enumerate(kets):
            for target, factors in moves(ket):
                merged.setdefault(target, []).append((slot, factors))
        if len(stages) > 1 and all(len(terms) == 1 and not terms[0][1] for terms in merged.values()):
            # a one-to-one move (an ion map) keeps merged, pruned amplitudes: reorder the stage before
            before = stages.pop()
            merged = {target: before[terms[0][0]] for target, terms in merged.items()}
        kets = sorted(merged)
        stages.append(tuple(tuple(merged[ket]) for ket in kets))
    readout = []  # branches: scatter at U, scatter at L, upper port, lower port
    for ket in kets:
        mode, pair = MODES[ket // PAIRS], ket % PAIRS
        if mode.scattered_at is None:  # a port: the pair's place in IonPairState
            readout.append((2 if mode.port is Port.UPPER else 3, _METASTABLE_PAIRS.index(pair)))
        else:  # a scatter site: the surviving ion's level
            readout.append((0, pair % 3) if mode.scattered_at is IonId.ION_U else (1, pair // 3))
    for start in inputs:
        final = _replay(stages, [complex(ket == start) for ket in inputs])
        composed = propagate(PureState(indexed=[(start, 1.0)])).indexed_items()
        if [(ket, amp) for ket, amp in zip(kets, final) if amp] != list(composed):
            raise RuntimeError("single-pass schedule disagrees with the element maps")
    return tuple(stages), tuple(readout)


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError("non-finite value in report")
    return format(value, ".17g")


def reference_dump_json(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _dump_str(value)
    if isinstance(value, int):  # bool handled above; bool is an int subclass
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if type(value) in (list, tuple):  # a record is a tuple subclass, dumped by field name below
        return "[" + ",".join(reference_dump_json(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = (
            f"{_dump_str(str(key))}:{reference_dump_json(value[key])}" for key in sorted(value, key=str)
        )
        return "{" + ",".join(parts) + "}"
    return reference_dump_json(_jsonable(value))


def _jsonable(value) -> list | dict:
    """A report value that is not JSON data as JSON data: a complex number as ``[re, im]``,
    a result record such as an ion state as its fields by name."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value._asdict()
