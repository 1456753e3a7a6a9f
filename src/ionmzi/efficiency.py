"""Cavity-assisted emission efficiency and end-to-end pair throughput.

Formula evaluators are kept strictly separate from the quoted
operating-point constants in :data:`REFERENCE_POINT`: the reported decay
rate for the reference cavity (9.9e6/s) disagrees with what
``4*pi*c/(finesse*length)`` gives for the same inputs (6.609e7/s), and
the reported emission probability 0.01 cannot be rederived without a
dipole element and loss rate, which have no published values here, so
:func:`throughput` takes it as given.  Both sides are exposed, labeled,
and never reconciled or defaulted.
"""

from __future__ import annotations

import math
from collections import namedtuple

SPEED_OF_LIGHT = 299_792_458.0
PLANCK = 6.626_070_15e-34
HBAR = PLANCK / (2.0 * math.pi)
VACUUM_PERMITTIVITY = 8.854_187_8128e-12


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
    "wavelength": ReferenceValue(393e-9, "m", "wavelength of the detected transition"),
    "branching_ratio": ReferenceValue(
        1.0 / 30.0,
        "",
        "branching ratio of the 854 nm decay relative to the 393 nm decay "
        "(documentation only; not used by the model)",
    ),
    "transition_probability": ReferenceValue(
        0.5e7, "1/s", "393 nm transition probability (documentation only)"
    ),
}


def cavity_decay_rate(finesse: float, length: float) -> float:
    """Decay rate 4*pi*c / (finesse * length), in 1/s."""
    if not (finesse > 0.0 and length > 0.0):
        raise ValueError("finesse and length must be positive")
    return 4.0 * math.pi * SPEED_OF_LIGHT / (finesse * length)


def cavity_mode_volume(length: float, wavelength: float) -> float:
    """Confocal-cavity mode volume length^2 * wavelength / 4."""
    if not (length > 0.0 and wavelength > 0.0):
        raise ValueError("length and wavelength must be positive")
    return length * length * wavelength / 4.0


def coupling_constant(dipole_moment: float, wavelength: float, length: float) -> float:
    """Transition-cavity coupling (D/hbar) * sqrt(h*c / (2*eps0*wavelength*V)).

    Uses the confocal mode volume for V.
    """
    if not dipole_moment > 0.0:
        raise ValueError("dipole moment must be positive")
    volume = cavity_mode_volume(length, wavelength)
    return (
        dipole_moment
        / HBAR
        * math.sqrt(
            PLANCK * SPEED_OF_LIGHT / (2.0 * VACUUM_PERMITTIVITY * wavelength * volume)
        )
    )


def cavity_emission_probability(cavity_decay: float, coupling: float, loss_rate: float) -> float:
    """Probability 4*g*W^2 / ((g+G)*(g*G + 4*W^2)) of emitting into the cavity mode.

    ``cavity_decay`` is the cavity decay rate, ``coupling`` the
    transition-cavity coupling constant and ``loss_rate`` the non-cavity
    loss rate.  Lies in [0, 1] for any finite nonnegative rates; returned raw,
    never clamped.
    """
    if not all(0.0 <= rate < math.inf for rate in (cavity_decay, coupling, loss_rate)):
        raise ValueError("rates must be nonnegative")
    # The formula is homogeneous of degree 0 in the rates.  Scaling them exactly, by the power of two that
    # brings the largest into [0.5, 1), keeps its terms from overflowing or underflowing at any scale.
    _, exponent = math.frexp(max(cavity_decay, coupling, loss_rate))
    cavity_decay, coupling, loss_rate = (math.ldexp(rate, -exponent) for rate in (cavity_decay, coupling, loss_rate))
    denominator = (cavity_decay + loss_rate) * (
        cavity_decay * loss_rate + 4.0 * coupling * coupling
    )
    if denominator == 0.0:
        raise ValueError("zero denominator")
    return 4.0 * cavity_decay * coupling * coupling / denominator


class ThroughputReport(namedtuple("ThroughputReport", "p_protocol p_cav p_total pairs_per_second")):
    """End-to-end success probability and entangled-pair rate: an immutable record."""

    __slots__ = ()


def throughput(
    p_protocol: float, *, p_cav: float, detector_efficiency: float, photon_rate: float, outcoupling: float = 1.0
) -> ThroughputReport:
    """Pairs per second: p_protocol * p_cav * detector efficiency * outcoupling * rate.

    ``p_cav`` is given: the quoted operating point, or the cavity formulas composed as
    ``cavity_emission_probability(cavity_decay_rate(...), coupling_constant(...), loss_rate)``.
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
