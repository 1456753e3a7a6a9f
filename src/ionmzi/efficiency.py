"""Cavity decay rate and end-to-end pair throughput.

The decay-rate formula is kept strictly separate from the quoted
operating-point constants in :data:`REFERENCE_POINT`: the reported decay
rate for the reference cavity (9.9e6/s) disagrees with what
``4*pi*c/(finesse*length)`` gives for the same inputs (6.609e7/s), and
both are exposed, labeled, and never reconciled.  The reported emission
probability 0.01 cannot be rederived without a dipole element and loss
rate, which have no published values here, so :func:`throughput` takes it
as given and no emission formula is evaluated.
"""

from __future__ import annotations

import math
from collections import namedtuple

SPEED_OF_LIGHT = 299_792_458.0


class ReferenceValue(namedtuple("ReferenceValue", "value unit label")):
    """A quoted operating-point constant, with its unit and provenance label: an immutable record."""

    __slots__ = ()


REFERENCE_POINT: dict[str, ReferenceValue] = {
    "finesse": ReferenceValue(
        19000.0, "", "cavity finesse chosen to maximize the emission probability"
    ),
    "cavity_length": ReferenceValue(
        3e-3, "m", "cavity length chosen to maximize the emission probability"
    ),
    "cavity_decay_rate_quoted": ReferenceValue(
        9.9e6,
        "1/s",
        "reported cavity decay rate for finesse 19000 and length 3 mm; "
        "disagrees with 4*pi*c/(finesse*length) = 6.609e7/s and is kept as quoted",
    ),
    "emission_probability_quoted": ReferenceValue(
        0.01,
        "",
        "reported operating-point emission probability; not derivable here "
        "without the dipole element and the non-cavity loss rate",
    ),
    "detector_efficiency": ReferenceValue(
        0.7, "", "assumed single-photon detector efficiency"
    ),
    "photon_rate": ReferenceValue(5000.0, "1/s", "assumed input photon rate"),
    "input_fidelity": ReferenceValue(
        0.7, "", "mixed-input overlap with |Psi+> used in the throughput example"
    ),
    "plus_population": ReferenceValue(
        0.7, "", "product-input m+ population used in the throughput example"
    ),
}


def cavity_decay_rate(finesse: float, length: float) -> float:
    """Decay rate 4*pi*c / (finesse * length), in 1/s."""
    if not (finesse > 0.0 and length > 0.0):
        raise ValueError("finesse and length must be positive")
    return 4.0 * math.pi * SPEED_OF_LIGHT / (finesse * length)


class ThroughputReport(namedtuple("ThroughputReport", "p_protocol p_cav p_total pairs_per_second")):
    """End-to-end success probability and entangled-pair rate: an immutable record."""

    __slots__ = ()


def throughput(
    p_protocol: float, *, p_cav: float, detector_efficiency: float, photon_rate: float, outcoupling: float = 1.0
) -> ThroughputReport:
    """Pairs per second: p_protocol * p_cav * detector efficiency * outcoupling * rate.

    ``p_cav``, the cavity emission probability, is given: the quoted operating point
    ``REFERENCE_POINT["emission_probability_quoted"]``, or any other value in [0, 1].
    """
    for name, value in (
        ("p_protocol", p_protocol),
        ("p_cav", p_cav),
        ("detector_efficiency", detector_efficiency),
        ("outcoupling", outcoupling),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 <= photon_rate < math.inf:
        raise ValueError("photon_rate must be nonnegative")
    p_total = p_protocol * p_cav * detector_efficiency * outcoupling
    return ThroughputReport(
        p_protocol=p_protocol,
        p_cav=p_cav,
        p_total=p_total,
        pairs_per_second=p_total * photon_rate,
    )
