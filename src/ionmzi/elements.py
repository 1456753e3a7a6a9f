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
    KETS,
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
    basis_index,
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
    """Per basis index: the splitter's moves, each (target ket, factors applied in turn), in the
    order it appends them; and each ion's absorption target, the ket itself where it absorbs nothing.
    """
    splitter = [((here, ()),) for here in range(len(KETS))]
    absorption = {IonId.ION_U: list(range(len(KETS))), IonId.ION_L: list(range(len(KETS)))}
    for here, ket in enumerate(KETS):
        mode = ket.photon
        if mode.kind is not ModeKind.PROPAGATING:
            continue
        crossed = PhotonMode.propagating(_OTHER_PORT[mode.port], mode.direction, mode.polarization)
        crossed_ket = basis_index(BasisState(crossed, ket.ion_u, ket.ion_l))
        splitter[here] = ((crossed_ket, (_SQRT_HALF,)), (here, (_SQRT_HALF, _REFLECTION_PHASE[mode.direction])))
        ion, level = (IonId.ION_U, ket.ion_u) if mode.port is Port.UPPER else (IonId.ION_L, ket.ion_l)
        if level is _ABSORBING_LEVEL[mode.polarization]:  # only this ion's level changes, to the ground level
            levels = (IonLevel.G, ket.ion_l) if ion is IonId.ION_U else (ket.ion_u, IonLevel.G)
            absorption[ion][here] = basis_index(BasisState(PhotonMode.scattered(ion), *levels))
    return splitter, absorption


_SPLITTER, _ABSORPTION = _element_tables()


def beam_splitter(state: PureState) -> PureState:
    """Apply a 50-50 nonpolarizing splitter to every propagating term.

    An amplitude on one port splits evenly over both ports; the same-port
    component picks up the direction-dependent reflection phase.
    Polarization is untouched, and scattered or vacuum terms pass through.
    Both splitters apply this identical map, each term taking its ket's
    moves in ``_SPLITTER``: to the crossed port times sqrt(1/2), and in
    place times sqrt(1/2) then the phase; off the beam, in place as it is.
    """
    out: list[tuple[int, complex]] = []
    for index, amp in state.indexed_items():
        for target, factors in _SPLITTER[index]:
            moved = amp
            for factor in factors:
                moved = moved * factor
            out.append((target, moved))
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
    out: list[tuple[BasisState, complex]] = []
    for ket, amp in state.items():
        mode = ket.photon
        if mode.kind is ModeKind.PROPAGATING:
            if mode.port is not port or mode.direction is not outward:
                raise ValueError("photon escaped cavity")
            ket = BasisState(PhotonMode.propagating(port, _FLIP[outward], mode.polarization), ket.ion_u, ket.ion_l)
        out.append((ket, amp))
    return PureState(out)


def detect(state: PureState, port: Port) -> tuple[float, PureState]:
    """Project onto the photon leaving through one output port.

    Returns the click probability and the normalized post-detection state
    with the photon consumed (set to vacuum).  ``state`` is assumed
    normalized; scattered terms never reach the detectors.
    """
    vacuum = PhotonMode.vacuum()
    picked = [(BasisState(vacuum, ket.ion_u, ket.ion_l), amp) for ket, amp in state.items() if ket.photon.port is port]
    prob = 0.0
    for _, amp in picked:  # not builtin ``sum``, which compensates rounding from Python 3.12 on
        prob += abs2(amp)
    if prob < 1e-12:
        raise ValueError("no support at detector")
    _, post = normalize(PureState(picked))
    return prob, post
