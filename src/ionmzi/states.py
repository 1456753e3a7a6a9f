"""Sparse complex-amplitude states for one photon coupled to two trapped ions.

The single photonic excitation lives in one of a handful of modes: a
propagating interferometer mode (port x direction x polarization), a
"scattered at ion" marker once an ion has absorbed and re-emitted it, or
vacuum once a detector has consumed it.  Each ion sits in one of three
levels.  A pure state is a sparse map from joint basis kets to complex
amplitudes, held in canonical form (pruned below ``PRUNE_EPS``, sorted by
basis index) so that equality is structural.

The joint space is small and fixed: 11 photon modes times 9 ion-level
pairs, 99 kets in all.  A ket's integer index is its place in ``KETS``, and
a state stores its amplitudes keyed by that index; ``BasisState`` and
``PhotonMode`` remain the public view of a ket.  ``KETS`` is the only
statement of the layout: other modules read a ket through it and find one
through ``basis_index``, a lookup built from it.  Both are immutable
records: ``namedtuple`` subclasses without an instance ``__dict__``, and the
enums that label them hash by identity, so a ket hashes in C.

Global phase is never divided out automatically: ``normalize`` rescales by
a positive real factor only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import ItemsView, Iterable, Iterator, Mapping
from enum import Enum

#: Amplitudes below this modulus are dropped when a state is built.
PRUNE_EPS = 1e-12
#: Tolerance for unit-norm and unit-weight checks.
NORM_TOL = 1e-9


def abs2(z: complex) -> float:
    """|z|^2 without the square root detour."""
    return z.real * z.real + z.imag * z.imag


def _amplitude(value) -> complex:
    """``complex(value)``, refusing a string, which ``complex`` would parse."""
    if isinstance(value, str):
        raise TypeError("amplitude must be a number, not a string")
    return complex(value)


class _Label(Enum):
    """An enum hashed by identity: its members are singletons that compare by identity."""

    __hash__ = object.__hash__


class Polarization(_Label):
    """Circular photon polarization; each couples exactly one qubit level."""

    SIGMA_PLUS = "sigma_plus"
    SIGMA_MINUS = "sigma_minus"


class IonLevel(_Label):
    """Storable ion levels: the two metastable qubit levels and the ground level."""

    M_PLUS = "m_plus"
    M_MINUS = "m_minus"
    G = "g"


class Port(_Label):
    UPPER = "upper"
    LOWER = "lower"


class Direction(_Label):
    FORWARD = "forward"
    BACKWARD = "backward"


class IonId(_Label):
    ION_U = "ion_u"
    ION_L = "ion_l"


class ModeKind(_Label):
    PROPAGATING = "propagating"
    SCATTERED = "scattered"
    VACUUM = "vacuum"


class PhotonMode(namedtuple("PhotonMode", "kind port direction polarization scattered_at")):
    """Where the single photonic excitation lives.

    Build instances through :meth:`propagating`, :meth:`scattered` or
    :meth:`vacuum`; the constructor accepts exactly the members of
    ``MODES``, so it rejects a label that is not one of its enum's members
    and field combinations that do not belong to the chosen kind (vacuum
    carries nothing, a scattered photon carries only its scatter site).
    """

    __slots__ = ()

    def __new__(cls, kind: ModeKind, port: Port | None = None, direction: Direction | None = None,
                polarization: Polarization | None = None, scattered_at: IonId | None = None) -> "PhotonMode":
        mode = super().__new__(cls, kind, port, direction, polarization, scattered_at)
        if mode not in MODES:
            raise ValueError(
                f"invalid {getattr(kind, 'value', kind)} mode: propagating needs port, direction and polarization, "
                "scattered only a scatter site, vacuum nothing"
            )
        return mode

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that ``_replace`` checks too

    @staticmethod
    def propagating(port: Port, direction: Direction, polarization: Polarization) -> "PhotonMode":
        return PhotonMode(ModeKind.PROPAGATING, port=port, direction=direction, polarization=polarization)

    @staticmethod
    def scattered(at: IonId) -> "PhotonMode":
        return PhotonMode(ModeKind.SCATTERED, scattered_at=at)

    @staticmethod
    def vacuum() -> "PhotonMode":
        return PhotonMode(ModeKind.VACUUM)


class BasisState(namedtuple("BasisState", "photon ion_u ion_l")):
    """One joint basis ket: photon mode and the two ion levels (upper, lower)."""

    __slots__ = ()


#: Every photon mode in canonical order: propagating (port x direction x
#: polarization), then scattered (by ion), then vacuum.  Built from the raw
#: fields, since ``PhotonMode`` checks a mode against this table.
MODES: tuple[PhotonMode, ...] = tuple(tuple.__new__(PhotonMode, fields) for fields in (
    *((ModeKind.PROPAGATING, port, d, pol, None) for port in Port for d in Direction for pol in Polarization),
    *((ModeKind.SCATTERED, None, None, None, ion) for ion in IonId),
    (ModeKind.VACUUM, None, None, None, None),
))
#: The basis kets in index order, which is the canonical term order: by mode, then by
#: the two ion levels in ``IonLevel`` declaration order.
KETS = tuple(BasisState(mode, ion_u, ion_l) for mode in MODES for ion_u in IonLevel for ion_l in IonLevel)
_KET_INDEX = {ket: index for index, ket in enumerate(KETS)}


def basis_index(basis: BasisState) -> int:
    """Position of ``basis`` in ``KETS``; any other value raises ``ValueError``."""
    index = _KET_INDEX.get(basis)
    if index is None:
        raise ValueError(f"not a basis ket: {basis!r}")
    return index


class PureState:
    """Sparse complex-amplitude map over joint basis kets, in canonical form.

    The constructor merges duplicate keys, prunes amplitudes below ``PRUNE_EPS``,
    rejects any amplitude with a NaN part and orders the remaining terms by basis
    index, so two states built from the same amplitudes in any insertion order
    compare equal.  Terms are given either as ``BasisState`` keys, each a member
    of ``KETS``, or, through ``indexed``, as (basis index, amplitude) pairs, each
    index an ``int`` in ``range(len(KETS))``; any other key or index raises
    ``ValueError``.  Instances are immutable values and safe to share.
    """

    __slots__ = ("_amps",)

    def __init__(
        self,
        terms: Mapping[BasisState, complex] | Iterable[tuple[BasisState, complex]] = (),
        *,
        indexed: Iterable[tuple[int, complex]] | None = None,
    ) -> None:
        if indexed is None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            indexed = ((basis_index(basis), amp) for basis, amp in items)
        merged: dict[int, complex] = {}
        for index, amp in indexed:
            if type(index) is not int or not 0 <= index < len(KETS):
                raise ValueError(f"basis index not in range(len(KETS)): {index!r}")
            merged[index] = merged.get(index, 0j) + _amplitude(amp)
        self._amps = {index: merged[index] for index in sorted(merged) if abs(merged[index]) >= PRUNE_EPS}
        if any(amp != amp for amp in merged.values()):
            raise ValueError("amplitude is not a number")

    def items(self) -> Iterator[tuple[BasisState, complex]]:
        return ((KETS[index], amp) for index, amp in self._amps.items())

    def indexed_items(self) -> ItemsView[int, complex]:
        """(basis index, amplitude) pairs in canonical order."""
        return self._amps.items()

    def amplitude(self, basis: BasisState) -> complex:
        return self._amps.get(basis_index(basis), 0j)

    def norm_squared(self) -> float:
        total = 0.0
        for amp in self._amps.values():  # not builtin ``sum``, which compensates rounding from Python 3.12 on
            total += abs2(amp)
        return total

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return self._amps == other._amps

    def __hash__(self) -> int:
        return hash(tuple(self._amps.items()))

    def __repr__(self) -> str:
        return f"PureState({len(self._amps)} terms, norm={self.norm():.6g})"


def normalize(state: PureState) -> tuple[float, PureState]:
    """Return the l2 norm of ``state`` and its unit-norm rescaling.

    Only a positive real factor is divided out; the phase of every
    amplitude is kept exactly as given.
    """
    norm = state.norm()
    if norm == 0.0:
        raise ValueError("null state")
    inv = 1.0 / norm
    return norm, PureState(indexed=((index, amp * inv) for index, amp in state.indexed_items()))

