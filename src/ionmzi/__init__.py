"""Single-photon interferometer simulator for post-selected two-ion entanglement.

A circularly polarized photon is split over the two arms of a
Mach-Zehnder interferometer, may be absorbed and re-scattered by the ion
sitting on either arm, and recombines before polarization-sensitive
detectors.  Conditioning on the lower detector projects the two ions
onto an entangled state; enclosing the interferometer between two
mirrors recycles the unscattered photon and raises the success
probability from one quarter to one third of the off-diagonal weight.
"""

from .states import (
    BasisState,
    Direction,
    IonId,
    IonLevel,
    ModeKind,
    PhotonMode,
    Polarization,
    Port,
    PureState,
    equal_up_to_global_phase,
    inner_product,
    normalize,
)
from .elements import MirrorId, beam_splitter, detect, ion_interaction, mirror
from .protocol import (
    ENTRY_LOWER_FORWARD,
    ENTRY_UPPER_BACKWARD,
    IonPairState,
    MixedPassResult,
    PassResult,
    SingleIonState,
    bell_phi_plus,
    bell_psi_minus,
    bell_psi_plus,
    evolve_single_pass,
    ion_pair_pure_state,
    run_mixed,
    single_pass,
)
from .recycler import (
    IterationResult,
    MonteCarloResult,
    iterate_analytic,
    iterate_numeric,
    monte_carlo,
)
from .efficiency import (
    ThroughputReport,
    cavity_decay_rate,
    cavity_emission_probability,
    cavity_mode_volume,
    coupling_constant,
    throughput,
)

__version__ = "0.1.0"

__all__ = [
    "BasisState",
    "Direction",
    "ENTRY_LOWER_FORWARD",
    "ENTRY_UPPER_BACKWARD",
    "IonId",
    "IonLevel",
    "IonPairState",
    "IterationResult",
    "MirrorId",
    "MixedPassResult",
    "ModeKind",
    "MonteCarloResult",
    "PassResult",
    "PhotonMode",
    "Polarization",
    "Port",
    "PureState",
    "SingleIonState",
    "ThroughputReport",
    "beam_splitter",
    "bell_phi_plus",
    "bell_psi_minus",
    "bell_psi_plus",
    "cavity_decay_rate",
    "cavity_emission_probability",
    "cavity_mode_volume",
    "coupling_constant",
    "detect",
    "equal_up_to_global_phase",
    "evolve_single_pass",
    "inner_product",
    "ion_interaction",
    "ion_pair_pure_state",
    "iterate_analytic",
    "iterate_numeric",
    "mirror",
    "monte_carlo",
    "normalize",
    "run_mixed",
    "single_pass",
    "throughput",
]
