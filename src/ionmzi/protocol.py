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

``single_pass`` never evaluates these formulas.  At first use for a polarization and
entry it walks the input kets through the element tables (splitter, both ions, splitter)
and writes each step, with the branch readout, as one straight-line Python function that
repeats the element maps' arithmetic in their order.  That function is checked against the
composed element maps before it is cached, and is pinned against independent references in
the test suite.  Its post states skip the public constructor's conversions, but pass the
same norm check.  A caller that reads only some of them passes ``posts``: every branch
mass is computed as always, but an unpicked branch's post state is left None.

States and results are immutable records: ``namedtuple`` subclasses, so each also equals,
iterates and indexes as the plain tuple of its fields.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

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
    _amplitude,
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


class IonPairState(namedtuple("IonPairState", "c_pp c_pm c_mp c_mm")):
    """Two-ion amplitudes over the metastable levels, ordered (upper, lower).

    ``c_pm`` is the amplitude of |m+>_U |m->_L and so on.  The four
    amplitudes must be normalized; use :meth:`from_unnormalized` to
    rescale raw amplitudes first.
    """

    __slots__ = ()

    def __new__(cls, c_pp: complex = 0j, c_pm: complex = 0j, c_mp: complex = 0j, c_mm: complex = 0j) -> "IonPairState":
        return _post_state(_amplitude(c_pp), _amplitude(c_pm), _amplitude(c_mp), _amplitude(c_mm))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that ``_replace`` checks too

    @classmethod
    def from_unnormalized(
        cls, c_pp: complex = 0j, c_pm: complex = 0j, c_mp: complex = 0j, c_mm: complex = 0j
    ) -> "IonPairState":
        norm_sq = abs2(_amplitude(c_pp)) + abs2(_amplitude(c_pm)) + abs2(_amplitude(c_mp)) + abs2(_amplitude(c_mm))
        if not 2.0 ** -1022 <= norm_sq < math.inf:  # zero, below the normal range, overflowed or NaN
            # Shift every part exactly by 2**(100 j), the j that brings the largest part within a factor 2**51 of
            # one, so such an input gives the bits of the ordinary input it is 2**(100 j) times; in range nothing moves.
            amps = [complex(c) for c in (c_pp, c_pm, c_mp, c_mm)]
            shift = -100 * round(math.frexp(max(abs(part) for c in amps for part in (c.real, c.imag)))[1] / 100)
            c_pp, c_pm, c_mp, c_mm = (complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift)) for c in amps)
            norm_sq = abs2(c_pp) + abs2(c_pm) + abs2(c_mp) + abs2(c_mm)
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

    def fidelity(self, target: "IonPairState") -> float:
        """|<target|self>|^2."""
        overlap = (
            target.c_pp.conjugate() * self.c_pp
            + target.c_pm.conjugate() * self.c_pm
            + target.c_mp.conjugate() * self.c_mp
            + target.c_mm.conjugate() * self.c_mm
        )
        return abs2(overlap)


class SingleIonState(namedtuple("SingleIonState", "c_plus c_minus")):
    """One ion's amplitudes over (m+, m-)."""

    __slots__ = ()


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


class PassResult(namedtuple("PassResult", (
    "p_scatter_u p_scatter_l p_detect_upper p_detect_lower p_recycle "
    "post_detect_upper post_detect_lower post_recycle post_scatter_u post_scatter_l"
))):
    """Branch decomposition of one traversal.

    The five probabilities sum to one.  Port-conditioned ion states
    (IonPairState for a port, SingleIonState for a scatter site) carry
    the phase the evolution produced and are populated whenever the port
    has support and ``single_pass``'s ``posts`` picks it, as by default;
    zero-probability and unpicked branches hold None.  With a mirror on
    the exit port (``enclosed``), the mirror-port mass is booked under
    ``p_recycle`` instead of a detector click; ``post_recycle`` always
    mirrors the state at that port.
    """

    __slots__ = ()


def _place(ket: BasisState) -> tuple[int, int]:
    """Where an output ket is read: (branch, slot), the branches being scatter at U, scatter at L, the
    upper port and the lower port, and the slot a port's levels' place in IonPairState or a scatter
    site's surviving level in SingleIonState."""
    site = ket.photon.scattered_at
    if site is None:
        return 2 if ket.photon.port is Port.UPPER else 3, _PAIR_LEVELS.index((ket.ion_u, ket.ion_l))
    branch, survivor = (0, ket.ion_l) if site is IonId.ION_U else (1, ket.ion_u)
    return branch, _ION_LEVELS.index(survivor)


@functools.cache
def _kernel(photon_pol: Polarization, entry: Entry):
    """:func:`single_pass` at one polarization and entry: one straight-line function emitted from the tables.

    The input kets are walked through ``_SPLITTER``, on through both ion maps, and through ``_SPLITTER``
    again.  Each ket a splitter reaches is written as reached: its merge as ``0j + amp * factor * ...
    + ...`` over the tables' own factor objects, bound by name, pruned to 0j below ``PRUNE_EPS``.  Each
    branch's mass is summed in readout order (by :func:`_place`), and its post state, where ``posts`` picks the
    branch, scaled by ``mass ** -0.5``.

    A merged, pruned amplitude is *clean*: no part is -0.0, as ``0.0 + x`` never is, and it is 0j or
    not below ``PRUNE_EPS``.  ``0j +`` and the prune leave a clean amplitude as it is, and ``0.0 +``
    leaves a mass as it is, so the function omits them for a ket passing the second splitter unmoved
    and at the start of a readout sum.  A slot that no ket reaches holds ``0j``, which is ``0j * inv``
    for the positive finite ``inv``.

    The raw inputs need no pruned, cleaned copy of their own: every input ket is on the beam, so the first
    splitter moves it and scales each of its terms by sqrt(1/2) < 1, which prunes an input below ``PRUNE_EPS``;
    that stage's ``0j +`` clears any -0.0 part; and a zero part meets a nonzero value only by addition, which
    leaves the value as it is.  The pass-through rule, for clean amplitudes only, is kept off the first splitter.

    Called with ``final=True`` the function returns the last stage's amplitudes instead.  Those are
    checked here against :func:`propagate` for each unit input, so the code that runs was checked.
    The function keeps the text it was compiled from as its ``source``.
    """
    namespace = {  # ``_new`` builds a record from its fields' tuple, skipping the record's Python-level ``__new__``
        "PRUNE_EPS": PRUNE_EPS, "PassResult": PassResult, "SingleIonState": SingleIonState, "_post_state": _post_state,
        "_new": tuple.__new__,
    }
    factor_names: dict[int, str] = {}  # by the factor object's id

    def product(amp: str, factors: tuple) -> str:
        for factor in factors:
            name = factor_names.setdefault(id(factor), f"f{len(factor_names)}")
            namespace[name] = factor
            amp = f"{amp} * {name}"
        return amp

    photon = _entry_photon(photon_pol, entry)
    lines = ["def kernel(c_pp, c_pm, c_mp, c_mm, enclosed, final=False, posts=(True, True, True, True)):"]
    amps = {basis_index(BasisState(photon, *levels)): name  # by ket, in index order
            for levels, name in zip(_PAIR_LEVELS, ("c_pp", "c_pm", "c_mp", "c_mm"))}
    through_ions = [_ABSORPTION[IonId.ION_L][ket] for ket in _ABSORPTION[IonId.ION_U]]
    for number, moved in ((1, through_ions), (2, range(len(KETS)))):  # each splitter, then where its targets move
        merged: dict[int, list] = {}
        for ket, amp in amps.items():
            for target, factors in _SPLITTER[ket]:
                merged.setdefault(moved[target], []).append((amp, factors))
        amps = {}
        for index, ket in enumerate(sorted(merged)):
            (amp, factors), *more = terms = merged[ket]
            if number > 1 and not factors and not more:  # a clean amplitude passing through
                amps[ket] = amp
                continue
            name = f"a{number}_{index}"
            merge = " + ".join(["0j", *(product(amp, factors) for amp, factors in terms)])
            lines += [f"    {name} = {merge}", f"    {name} = {name} if abs({name}) >= PRUNE_EPS else 0j"]
            amps[ket] = name
    readout, amps = [_place(KETS[ket]) for ket in amps], list(amps.values())
    lines += ["    if final:", f"        return [{', '.join(amps)}]"]
    single, pair = "_new(SingleIonState, ({}))", "_post_state({})"
    for branch, make, levels in ((0, single, _ION_LEVELS), (1, single, _ION_LEVELS),
                                 (2, pair, _PAIR_LEVELS), (3, pair, _PAIR_LEVELS)):
        read = [(slot, amp) for (at, slot), amp in zip(readout, amps) if at == branch]
        mass = " + ".join(f"({amp}.real * {amp}.real + {amp}.imag * {amp}.imag)" for _, amp in read)
        sums = [" + ".join(amp for slot, amp in read if slot == target) for target in range(len(levels))]
        post = ", ".join(f"({amp_sum}) * inv" if amp_sum else "0j" for amp_sum in sums)
        lines += [
            f"    m{branch} = {mass}",
            f"    if m{branch} <= 0.0:",
            f"        m{branch}, s{branch} = 0.0, None",
            f"    elif not posts[{branch}]:",
            f"        s{branch} = None",
            "    else:",
            f"        inv = m{branch} ** -0.5",
            f"        s{branch} = {make.format(post)}",
        ]
    forward = entry[1] is Direction.FORWARD  # the mirror port is the upper one
    enclosed_masses = "0.0, m3, m2" if forward else "m2, 0.0, m3"  # the mirror port's mass recycles
    states = f"s2, s3, {'s2' if forward else 's3'}, s0, s1"
    lines += [
        "    if enclosed:",
        f"        return _new(PassResult, (m0, m1, {enclosed_masses}, {states}))",
        f"    return _new(PassResult, (m0, m1, m2, m3, 0.0, {states}))",
    ]
    filename = f"<single_pass {photon_pol.value} {entry[0].value} {entry[1].value}>"
    source = "\n".join(lines)
    exec(compile(source, filename, "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.source = source  # what was compiled, for the tests' goldens
    for start, levels in enumerate(_PAIR_LEVELS):
        final = kernel(*[complex(slot == start) for slot in range(4)], False, True)
        composed = propagate(PureState([(BasisState(photon, *levels), 1.0)])).indexed_items()
        reached = [(place, amp) for place, amp in zip(readout, final) if amp]
        if reached != [(_place(KETS[ket]), amp) for ket, amp in composed]:
            raise RuntimeError("generated single_pass disagrees with the element maps")
    return kernel


def _post_state(c_pp: complex, c_pm: complex, c_mp: complex, c_mm: complex) -> IonPairState:
    """An IonPairState from amplitudes that are already complex, through the one norm check for every
    IonPairState: the public constructor converts its amplitudes and calls this."""
    norm_squared = (  # the sum of the four abs2, each written out
        (c_pp.real * c_pp.real + c_pp.imag * c_pp.imag)
        + (c_pm.real * c_pm.real + c_pm.imag * c_pm.imag)
        + (c_mp.real * c_mp.real + c_mp.imag * c_mp.imag)
        + (c_mm.real * c_mm.real + c_mm.imag * c_mm.imag)
    )
    if not abs(norm_squared - 1.0) <= NORM_TOL:
        raise ValueError("ion-pair amplitudes must be normalized")
    return tuple.__new__(IonPairState, (c_pp, c_pm, c_mp, c_mm))


def single_pass(
    ions: IonPairState,
    photon_pol: Polarization = Polarization.SIGMA_PLUS,
    entry: Entry = ENTRY_LOWER_FORWARD,
    enclosed: bool = False,
    *,
    posts: tuple[bool, bool, bool, bool] = (True, True, True, True),
) -> PassResult:
    """Drive one traversal and decompose the outcome branches.

    For forward entry the mirror port is the upper-right output, so with
    ``enclosed`` the upper-port mass recycles; for backward entry the
    roles of the two ports swap.  Replays :func:`evolve_single_pass` bit for bit.
    ``posts`` picks, in readout order (scatter at U, scatter at L, upper port, lower port), the branches
    whose post state is built; an unpicked branch's state is None, with its mass unchanged.
    """
    return _kernel(photon_pol, entry)(ions.c_pp, ions.c_pm, ions.c_mp, ions.c_mm, enclosed, False, posts)


#: A heralded mixture: (weight, ion-pair state) components, weights in (0, 1] summing to one.
Ensemble = tuple[tuple[float, IonPairState], ...]


class MixedPassResult(namedtuple("MixedPassResult", (
    "input_fidelity components p_scatter_u p_scatter_l p_detect_upper p_detect_lower p_recycle "
    "post_detect_upper post_detect_lower"
))):
    """Per-component traversals and pooled branch statistics for a mixed input.

    The input ensemble is |Psi+> with weight ``input_fidelity`` and
    |Phi+> with the complement; ``components`` holds one (weight,
    IonPairState, PassResult) per component.  Each detector-conditioned
    output pools the components that reach that detector, as an
    ``Ensemble``, and is None if none does.
    """

    __slots__ = ()


@functools.cache
def _bell_component(index: int) -> tuple[IonPairState, PassResult]:
    """Mixed input component ``index``, |Psi+> (0) or |Phi+> (1), and its single pass: computed once per process."""
    ions = (bell_psi_plus, bell_phi_plus)[index]()
    return ions, single_pass(ions)


def _mixed_components(fidelity: float) -> tuple[tuple[float, int], ...]:
    """The mixed input as (weight, component index): |Psi+> weighs ``fidelity``, |Phi+> the rest, zero weights out."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    return tuple((weight, index) for index, weight in enumerate((fidelity, 1.0 - fidelity)) if weight > 0.0)


def _pooled(components: tuple, value) -> float:
    """``value(item)`` pooled over (weight, item, ...) components in a plain loop in component order, the one
    pooler of a mixture's figures: builtin ``sum`` compensates rounding from Python 3.12 on."""
    total = 0.0
    for weight, item, *_ in components:
        total += weight * value(item)
    return total


def run_mixed(fidelity: float) -> MixedPassResult:
    """Single traversal for the two-component mixed input with overlap ``fidelity`` on |Psi+>."""
    runs = tuple((w, *_bell_component(index)) for w, index in _mixed_components(fidelity))
    passes = tuple((w, r) for w, _, r in runs)

    def conditioned(prob, post) -> Ensemble | None:
        total = _pooled(passes, prob)
        if total <= 0.0:
            return None
        parts = [(w * prob(r) / total, post(r)) for w, r in passes if post(r) is not None]
        return tuple((weight, state) for weight, state in parts if weight > 0.0)

    return MixedPassResult(
        input_fidelity=fidelity,
        components=runs,
        **{name: _pooled(passes, lambda r: getattr(r, name)) for name in PassResult._fields if name.startswith("p_")},
        post_detect_upper=conditioned(lambda r: r.p_detect_upper, lambda r: r.post_detect_upper),
        post_detect_lower=conditioned(lambda r: r.p_detect_lower, lambda r: r.post_detect_lower),
    )
