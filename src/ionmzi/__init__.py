"""Single-photon interferometer simulator for post-selected two-ion entanglement.

A circularly polarized photon is split over the two arms of a
Mach-Zehnder interferometer, may be absorbed and re-scattered by the ion
sitting on either arm, and recombines before polarization-sensitive
detectors.  Conditioning on the lower detector projects the two ions
onto an entangled state; enclosing the interferometer between two
mirrors recycles the unscattered photon and raises the success
probability from one quarter to one third of the off-diagonal weight.
"""

from types import ModuleType as _ModuleType

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
    throughput,
)

__version__ = "0.1.0"

#: The public names: every name the imports above bind, except modules and names with a leading underscore.
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType))
