"""One full traversal of the photon through the interferometer.

Builds the joint photon + two-ion state, drives it through the element
sequence (first splitter, both ion interactions, second splitter) and
decomposes the output into scatter, detector and recycle branches, for
pure product, entangled and two-component mixed inputs.

The closed form of the decomposition for a sigma+ photon entering at the
lower-left, with input amplitudes ``c_pp .. c_mm`` ordered (upper ion,
lower ion), is

* upper ion scatters with weight ``(|c_pp|^2 + |c_pm|^2) / 2``,
* lower ion scatters with weight ``(|c_pp|^2 + |c_mp|^2) / 2``,
* the upper output carries ``(i/2) (c_mp |m-,m+> + c_pm |m+,m-> + 2 c_mm |m-,m->)``,
* the lower output carries ``(1/2) (c_mp |m-,m+> - c_pm |m+,m->)``.

``single_pass`` never evaluates these formulas.  It replays three stages composed
from the element tables, checked against the composed element maps at first use,
and is pinned against an independent hand-derived oracle in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .elements import _ABSORPTION, _SPLITTER, _SQRT_HALF, beam_splitter, ion_interaction
from .states import (
    KETS,
    NORM_TOL,
    PRUNE_EPS,
    BasisState,
    Direction,
    IonId,
    IonLevel,
    PhotonMode,
    Polarization,
    Port,
    PureState,
    abs2,
    basis_index,
)

#: One ion's metastable levels in SingleIonState's field order.
_ION_LEVELS = (IonLevel.M_PLUS, IonLevel.M_MINUS)
#: (upper, lower) levels of |m+,m+>, |m+,m->, |m-,m+>, |m-,m->: IonPairState's field order.
_PAIR_LEVELS = tuple((upper, lower) for upper in _ION_LEVELS for lower in _ION_LEVELS)

#: Photon entry stations that a mirror could close off.
ENTRY_LOWER_FORWARD = (Port.LOWER, Direction.FORWARD)
ENTRY_UPPER_BACKWARD = (Port.UPPER, Direction.BACKWARD)

Entry = tuple[Port, Direction]


@dataclass(frozen=True)
class IonPairState:
    """Two-ion amplitudes over the metastable levels, ordered (upper, lower).

    ``c_pm`` is the amplitude of |m+>_U |m->_L and so on.  The four
    amplitudes must be normalized; use :meth:`from_unnormalized` to
    rescale raw amplitudes first.
    """

    c_pp: complex = 0j
    c_pm: complex = 0j
    c_mp: complex = 0j
    c_mm: complex = 0j

    def __post_init__(self) -> None:
        for name in ("c_pp", "c_pm", "c_mp", "c_mm"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if not abs(self.norm_squared() - 1.0) <= NORM_TOL:
            raise ValueError("ion-pair amplitudes must be normalized")

    @classmethod
    def from_unnormalized(
        cls, c_pp: complex = 0j, c_pm: complex = 0j, c_mp: complex = 0j, c_mm: complex = 0j
    ) -> "IonPairState":
        norm_sq = abs2(complex(c_pp)) + abs2(complex(c_pm)) + abs2(complex(c_mp)) + abs2(complex(c_mm))
        if norm_sq == 0.0:
            raise ValueError("null ion-pair state")
        inv = norm_sq ** -0.5
        return cls(c_pp * inv, c_pm * inv, c_mp * inv, c_mm * inv)

    @classmethod
    def product(
        cls, u_plus: complex, u_minus: complex, l_plus: complex, l_minus: complex
    ) -> "IonPairState":
        """Product of single-ion states (u_plus |m+> + u_minus |m->) x (l_plus |m+> + l_minus |m->)."""
        return cls(
            c_pp=u_plus * l_plus,
            c_pm=u_plus * l_minus,
            c_mp=u_minus * l_plus,
            c_mm=u_minus * l_minus,
        )

    def norm_squared(self) -> float:
        return abs2(self.c_pp) + abs2(self.c_pm) + abs2(self.c_mp) + abs2(self.c_mm)

    def fidelity(self, target: "IonPairState") -> float:
        """|<target|self>|^2."""
        overlap = (
            target.c_pp.conjugate() * self.c_pp
            + target.c_pm.conjugate() * self.c_pm
            + target.c_mp.conjugate() * self.c_mp
            + target.c_mm.conjugate() * self.c_mm
        )
        return abs2(overlap)


@dataclass(frozen=True)
class SingleIonState:
    """One ion's amplitudes over (m+, m-)."""

    c_plus: complex
    c_minus: complex


def bell_psi_plus() -> IonPairState:
    return IonPairState(c_pm=_SQRT_HALF, c_mp=_SQRT_HALF)


def bell_psi_minus() -> IonPairState:
    """(|m-,m+> - |m+,m->) / sqrt(2): the post-selected target ray."""
    return IonPairState(c_pm=-_SQRT_HALF, c_mp=_SQRT_HALF)


def bell_phi_plus() -> IonPairState:
    return IonPairState(c_pp=_SQRT_HALF, c_mm=_SQRT_HALF)


def ion_pair_pure_state(ions: IonPairState, photon: PhotonMode | None = None) -> PureState:
    """Joint PureState of a photon mode (vacuum by default) with an ion pair."""
    photon = photon if photon is not None else PhotonMode.vacuum()
    amps = (ions.c_pp, ions.c_pm, ions.c_mp, ions.c_mm)
    return PureState((BasisState(photon, *levels), amp) for levels, amp in zip(_PAIR_LEVELS, amps))


def propagate(state: PureState) -> PureState:
    """Run the raw element sequence for one traversal, in path order.  Both entries share it:
    the photon's direction, carried in the state, picks each splitter's reflection phase."""
    state = beam_splitter(state)
    state = ion_interaction(state, IonId.ION_U)
    state = ion_interaction(state, IonId.ION_L)
    return beam_splitter(state)


def evolve_single_pass(
    ions: IonPairState,
    photon_pol: Polarization = Polarization.SIGMA_PLUS,
    entry: Entry = ENTRY_LOWER_FORWARD,
) -> PureState:
    """Full joint state after one traversal, before any detection."""
    return propagate(ion_pair_pure_state(ions, _entry_photon(photon_pol, entry)))


def _entry_photon(photon_pol: Polarization, entry: Entry) -> PhotonMode:
    """The photon mode entering at ``entry``, which must be a mirror-side station."""
    if entry not in (ENTRY_LOWER_FORWARD, ENTRY_UPPER_BACKWARD):
        raise ValueError("photon must enter at a mirror-side port")
    return PhotonMode.propagating(*entry, photon_pol)


@dataclass(frozen=True)
class PassResult:
    """Branch decomposition of one traversal.

    The five probabilities sum to one.  Port-conditioned ion states carry
    the phase the evolution produced and are populated whenever the port
    has support; zero-probability branches hold None.  With a mirror on
    the exit port (``enclosed``), the mirror-port mass is booked under
    ``p_recycle`` instead of a detector click; ``post_recycle`` always
    mirrors the state at that port.
    """

    p_scatter_u: float
    p_scatter_l: float
    p_detect_upper: float
    p_detect_lower: float
    p_recycle: float
    post_detect_upper: IonPairState | None
    post_detect_lower: IonPairState | None
    post_recycle: IonPairState | None
    post_scatter_u: SingleIonState | None
    post_scatter_l: SingleIonState | None


@functools.cache
def _schedule(photon_pol: Polarization, entry: Entry) -> tuple[tuple, tuple]:
    """One traversal as stages of ket moves composed from the element tables, and its readout.

    Three stages: the pruned input, the first splitter with each target moved through both ion maps
    (one to one), and the second splitter.  A stage lists its output kets in index order, each as
    (input slot, factors applied in turn) in the order its element map appends them.  Checked at
    first use against :func:`propagate`.
    """
    photon = _entry_photon(photon_pol, entry)
    inputs = [basis_index(BasisState(photon, *levels)) for levels in _PAIR_LEVELS]
    kets = sorted(inputs)
    stages = [tuple(((inputs.index(ket), ()),) for ket in kets)]  # the input, pruned as PureState prunes
    through_ions = [_ABSORPTION[IonId.ION_L][ket] for ket in _ABSORPTION[IonId.ION_U]]
    for moved in (through_ions, range(len(KETS))):  # each splitter, then where its targets move
        merged: dict[int, list] = {}
        for slot, ket in enumerate(kets):
            for target, factors in _SPLITTER[ket]:
                merged.setdefault(moved[target], []).append((slot, factors))
        kets = sorted(merged)
        stages.append(tuple(tuple(merged[ket]) for ket in kets))
    readout = []  # branches: scatter at U, scatter at L, upper port, lower port
    for ket in map(KETS.__getitem__, kets):
        site = ket.photon.scattered_at
        if site is None:  # a port: the levels' place in IonPairState
            readout.append((2 if ket.photon.port is Port.UPPER else 3, _PAIR_LEVELS.index((ket.ion_u, ket.ion_l))))
        else:  # a scatter site: the surviving ion's level
            branch, survivor = (0, ket.ion_l) if site is IonId.ION_U else (1, ket.ion_u)
            readout.append((branch, _ION_LEVELS.index(survivor)))
    for start in inputs:
        final = _replay(stages, [complex(ket == start) for ket in inputs])
        composed = propagate(PureState(indexed=[(start, 1.0)])).indexed_items()
        if [(ket, amp) for ket, amp in zip(kets, final) if amp] != list(composed):
            raise RuntimeError("single-pass schedule disagrees with the element maps")
    return tuple(stages), tuple(readout)


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


def _branch(mass: float, amps: list[complex], make):
    if mass <= 0.0:
        return 0.0, None
    inv = mass ** -0.5
    return mass, make(*[amp * inv for amp in amps])


def single_pass(
    ions: IonPairState,
    photon_pol: Polarization = Polarization.SIGMA_PLUS,
    entry: Entry = ENTRY_LOWER_FORWARD,
    enclosed: bool = False,
) -> PassResult:
    """Drive one traversal and decompose the outcome branches.

    For forward entry the mirror port is the upper-right output, so with
    ``enclosed`` the upper-port mass recycles; for backward entry the
    roles of the two ports swap.  Replays :func:`evolve_single_pass` bit for bit.
    """
    stages, readout = _schedule(photon_pol, entry)
    masses = [0.0] * 4
    amps = [[0j, 0j], [0j, 0j], [0j] * 4, [0j] * 4]
    for (branch, slot), amp in zip(readout, _replay(stages, [ions.c_pp, ions.c_pm, ions.c_mp, ions.c_mm])):
        masses[branch] += amp.real * amp.real + amp.imag * amp.imag
        amps[branch][slot] += amp
    (p_su, post_su), (p_sl, post_sl), (upper_mass, upper_state), (lower_mass, lower_state) = map(
        _branch, masses, amps, (SingleIonState, SingleIonState, IonPairState, IonPairState)
    )

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


#: A heralded mixture: (weight, ion-pair state) components, weights in (0, 1] summing to one.
Ensemble = tuple[tuple[float, IonPairState], ...]


@dataclass(frozen=True)
class MixedPassResult:
    """Per-component traversals and pooled branch statistics for a mixed input.

    The input ensemble is |Psi+> with weight ``input_fidelity`` and
    |Phi+> with the complement.  Each detector-conditioned output pools
    the components that reach that detector, and is None if none does.
    """

    input_fidelity: float
    components: tuple[tuple[float, IonPairState, PassResult], ...]
    p_scatter_u: float
    p_scatter_l: float
    p_detect_upper: float
    p_detect_lower: float
    p_recycle: float
    post_detect_upper: Ensemble | None
    post_detect_lower: Ensemble | None


def _mixed_components(fidelity: float) -> Ensemble:
    """The mixed input: |Psi+> with weight ``fidelity`` and |Phi+> with the rest, zero weights dropped."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    components = ((fidelity, bell_psi_plus()), (1.0 - fidelity, bell_phi_plus()))
    return tuple((weight, ions) for weight, ions in components if weight > 0.0)


def run_mixed(fidelity: float) -> MixedPassResult:
    """Single traversal for the two-component mixed input with overlap ``fidelity`` on |Psi+>."""
    runs = tuple((w, ions, single_pass(ions)) for w, ions in _mixed_components(fidelity))

    def pooled(value) -> float:
        return sum(w * value(r) for w, _, r in runs)

    def conditioned(prob, post) -> Ensemble | None:
        total = pooled(prob)
        if total <= 0.0:
            return None
        parts = [(w * prob(r) / total, post(r)) for w, _, r in runs if post(r) is not None]
        return tuple((weight, state) for weight, state in parts if weight > 0.0)

    return MixedPassResult(
        input_fidelity=fidelity,
        components=runs,
        p_scatter_u=pooled(lambda r: r.p_scatter_u),
        p_scatter_l=pooled(lambda r: r.p_scatter_l),
        p_detect_upper=pooled(lambda r: r.p_detect_upper),
        p_detect_lower=pooled(lambda r: r.p_detect_lower),
        p_recycle=pooled(lambda r: r.p_recycle),
        post_detect_upper=conditioned(lambda r: r.p_detect_upper, lambda r: r.post_detect_upper),
        post_detect_lower=conditioned(lambda r: r.p_detect_lower, lambda r: r.post_detect_lower),
    )
