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

The driver never evaluates these formulas; they fall out of the element
composition and are pinned against an independent hand-derived oracle in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import beam_splitter, ion_interaction
from .states import (
    MODE_INDEX,
    MODES,
    NORM_TOL,
    PAIRS,
    Direction,
    IonId,
    MixedState,
    PhotonMode,
    Polarization,
    Port,
    PureState,
    abs2,
)

_SQRT_HALF = 2.0 ** -0.5
#: Pair indices (3 * ion_u + ion_l) of |m+,m+>, |m+,m->, |m-,m+>, |m-,m->: IonPairState's field order.
_METASTABLE_PAIRS = (0, 1, 3, 4)

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


def bell_phi_minus() -> IonPairState:
    return IonPairState(c_pp=_SQRT_HALF, c_mm=-_SQRT_HALF)


def ion_pair_pure_state(ions: IonPairState, photon: PhotonMode | None = None) -> PureState:
    """Joint PureState of a photon mode (vacuum by default) with an ion pair."""
    base = PAIRS * MODE_INDEX[photon if photon is not None else PhotonMode.vacuum()]
    amps = (ions.c_pp, ions.c_pm, ions.c_mp, ions.c_mm)
    return PureState(indexed=((base + pair, amp) for pair, amp in zip(_METASTABLE_PAIRS, amps)))


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
    if entry not in (ENTRY_LOWER_FORWARD, ENTRY_UPPER_BACKWARD):
        raise ValueError("photon must enter at a mirror-side port")
    port, direction = entry
    photon = PhotonMode.propagating(port, direction, photon_pol)
    return propagate(ion_pair_pure_state(ions, photon))


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
    return mass, IonPairState(*(amps[pair] * inv for pair in _METASTABLE_PAIRS))


def single_pass(
    ions: IonPairState,
    photon_pol: Polarization = Polarization.SIGMA_PLUS,
    entry: Entry = ENTRY_LOWER_FORWARD,
    enclosed: bool = False,
) -> PassResult:
    """Drive one traversal and decompose the outcome branches.

    For forward entry the mirror port is the upper-right output, so with
    ``enclosed`` the upper-port mass recycles; for backward entry the
    roles of the two ports swap.
    """
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


@dataclass(frozen=True)
class ProductPassResult:
    """Single traversal for a product input, plus the balance diagnostics.

    ``balanced`` records whether the two ions carry level populations of
    equal modulus, the condition under which the post-selected state is
    maximally entangled.
    """

    result: PassResult
    balanced: bool
    fidelity_vs_psi_minus: float | None


def run_product(
    u_plus: complex,
    u_minus: complex,
    l_plus: complex,
    l_minus: complex,
) -> ProductPassResult:
    """Single traversal for two independently prepared ions."""
    if not abs(abs2(complex(u_plus)) + abs2(complex(u_minus)) - 1.0) <= NORM_TOL:
        raise ValueError("upper-ion amplitudes must be normalized")
    if not abs(abs2(complex(l_plus)) + abs2(complex(l_minus)) - 1.0) <= NORM_TOL:
        raise ValueError("lower-ion amplitudes must be normalized")
    ions = IonPairState.product(u_plus, u_minus, l_plus, l_minus)
    result = single_pass(ions)
    balanced = (
        abs(abs(u_plus) - abs(l_plus)) <= NORM_TOL and abs(abs(u_minus) - abs(l_minus)) <= NORM_TOL
    )
    fidelity = (
        result.post_detect_lower.fidelity(bell_psi_minus())
        if result.post_detect_lower is not None
        else None
    )
    return ProductPassResult(result=result, balanced=balanced, fidelity_vs_psi_minus=fidelity)


@dataclass(frozen=True)
class MixedPassResult:
    """Per-component traversals and pooled branch statistics for a mixed input.

    The input ensemble is |Psi+> with weight ``input_fidelity`` and
    |Phi+> with the complement.  Detector-conditioned outputs are pooled
    ensembles over the surviving components.
    """

    input_fidelity: float
    components: tuple[tuple[float, IonPairState, PassResult], ...]
    p_scatter_u: float
    p_scatter_l: float
    p_detect_upper: float
    p_detect_lower: float
    p_recycle: float
    post_detect_upper: MixedState | None
    post_detect_lower: MixedState | None


def run_mixed(fidelity: float) -> MixedPassResult:
    """Single traversal for the two-component mixed input with overlap ``fidelity`` on |Psi+>."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    inputs: list[tuple[float, IonPairState]] = []
    if fidelity > 0.0:
        inputs.append((fidelity, bell_psi_plus()))
    if fidelity < 1.0:
        inputs.append((1.0 - fidelity, bell_phi_plus()))
    runs = tuple((w, ions, single_pass(ions)) for w, ions in inputs)

    def pooled(value) -> float:
        return sum(w * value(r) for w, _, r in runs)

    def conditioned(prob, post) -> MixedState | None:
        total = pooled(prob)
        if total <= 0.0:
            return None
        parts = [(w * prob(r) / total, post(r)) for w, _, r in runs if post(r) is not None]
        return MixedState((weight, ion_pair_pure_state(state)) for weight, state in parts if weight > 0.0)

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
