"""The physical elements of the interferometer as linear maps on PureState.

Geometry: the photon enters at the lower-left, a 50-50 splitter sits at
each crossing, one ion on each arm interacts with the light passing it,
and single-photon detectors watch the two non-mirror output ports.  In
the recycling configuration a mirror closes the lower-left port (M1) and
the upper-right port (M2).

A splitter reflection carries a +i phase for forward travel and -i for
backward travel; this is the unique assignment under which an empty
interferometer routes the photon to the upper output with certainty and
a forward pass followed by the reflected backward pass is the identity.
"""

from __future__ import annotations

from enum import Enum

from .states import (
    LEVEL_INDEX,
    MODE_INDEX,
    MODES,
    PAIRS,
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

_SQRT_HALF = 2.0 ** -0.5

_OTHER_PORT = {Port.UPPER: Port.LOWER, Port.LOWER: Port.UPPER}
_FLIP = {Direction.FORWARD: Direction.BACKWARD, Direction.BACKWARD: Direction.FORWARD}
_REFLECTION_PHASE = {Direction.FORWARD: 1j, Direction.BACKWARD: -1j}
_ABSORBING_LEVEL = {
    Polarization.SIGMA_PLUS: IonLevel.M_PLUS,
    Polarization.SIGMA_MINUS: IonLevel.M_MINUS,
}


class MirrorId(Enum):
    """The two enclosure mirrors and the stations they close off."""

    M1_LEFT_LOWER = "m1_left_lower"
    M2_RIGHT_UPPER = "m2_right_upper"


# port the mirror sits on, and the outgoing direction it faces
_MIRROR_STATION = {
    MirrorId.M1_LEFT_LOWER: (Port.LOWER, Direction.BACKWARD),
    MirrorId.M2_RIGHT_UPPER: (Port.UPPER, Direction.FORWARD),
}


def _element_tables() -> tuple[list, dict[IonId, list[int]]]:
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
_SPLITTER, _ABSORPTION = _element_tables()


def beam_splitter(state: PureState) -> PureState:
    """Apply a 50-50 nonpolarizing splitter to every propagating term.

    An amplitude on one port splits evenly over both ports; the same-port
    component picks up the direction-dependent reflection phase.
    Polarization is untouched, and scattered or vacuum terms pass through.
    Both splitters apply this identical map.
    """
    out: list[tuple[int, complex]] = []
    for index, amp in state.indexed_items():
        entry = _SPLITTER[index]
        if entry is None:
            out.append((index, amp))
            continue
        crossed, phase = entry
        half = amp * _SQRT_HALF
        out.append((crossed, half))
        out.append((index, half * phase))
    return PureState(indexed=out)


def ion_interaction(state: PureState, ion: IonId) -> PureState:
    """Let one ion absorb and re-scatter the photon passing on its arm.

    A propagating term on the ion's arm whose polarization addresses the
    ion's current level (sigma+ with m+, sigma- with m-) turns into a
    scattered marker at that ion with the ion dropped to the ground
    level; the other ion is untouched.  Every non-matching term (wrong
    arm, non-matching polarization/level pairing, ion already in the
    ground level) is left alone, so the map preserves the norm and
    scattered terms are fixed points.

    The scattered marker does not record which absorption channel fired,
    so amplitudes from distinct channels of one ion (sigma+ on m+ versus
    sigma- on m-, or opposite travel directions) would merge; a
    single-photon run only ever has one polarization and one direction
    in flight, which keeps the map norm-preserving.
    """
    target = _ABSORPTION[ion]
    return PureState(indexed=((target[index], amp) for index, amp in state.indexed_items()))


def mirror(state: PureState, at: MirrorId) -> PureState:
    """Reflect the beam leaving through one enclosure mirror back inside.

    Every propagating term must sit at the mirror's station (its port,
    moving outward); reflection flips the direction and keeps port,
    polarization and amplitude (unit reflection phase).  Scattered and
    vacuum terms pass through.
    """
    port, outward = _MIRROR_STATION[at]
    out: list[tuple[int, complex]] = []
    for index, amp in state.indexed_items():
        mode = MODES[index // PAIRS]
        if mode.kind is ModeKind.PROPAGATING:
            if mode.port is not port or mode.direction is not outward:
                raise ValueError("photon escaped cavity")
            back = PhotonMode.propagating(port, _FLIP[outward], mode.polarization)
            index = PAIRS * MODE_INDEX[back] + index % PAIRS
        out.append((index, amp))
    return PureState(indexed=out)


def detect(state: PureState, port: Port) -> tuple[float, PureState]:
    """Project onto the photon leaving through one output port.

    Returns the click probability and the normalized post-detection state
    with the photon consumed (set to vacuum).  ``state`` is assumed
    normalized; scattered terms never reach the detectors.
    """
    vacuum = PAIRS * MODE_INDEX[PhotonMode.vacuum()]
    picked = [
        (vacuum + index % PAIRS, amp)
        for index, amp in state.indexed_items()
        if MODES[index // PAIRS].port is port
    ]
    prob = sum(abs2(amp) for _, amp in picked)
    if prob < 1e-12:
        raise ValueError("no support at detector")
    _, post = normalize(PureState(indexed=picked))
    return prob, post
