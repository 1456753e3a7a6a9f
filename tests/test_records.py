"""The public form of the package's eleven result and state records.

Each record is pinned by the ``repr`` of one sample, written out as a literal; by
its constructor's field order and defaults; and by refusing assignment.  The sign-exact
pin and the post-state tests compare ``repr``s, so this file makes the ``repr`` form
``Name(field=value, ...)`` a checked fact.  The two validating records are pinned by
each rejection message as well.
"""

import inspect
import math

import pytest

from ionmzi import (
    BasisState,
    Direction,
    IonId,
    IonLevel,
    IonPairState,
    IterationResult,
    MixedPassResult,
    ModeKind,
    MonteCarloResult,
    PassResult,
    PhotonMode,
    Polarization,
    Port,
    SingleIonState,
    ThroughputReport,
    bell_phi_plus,
    bell_psi_minus,
    iterate_analytic,
    monte_carlo,
    single_pass,
    throughput,
)
from ionmzi.cli import RunConfig, parse_config
from ionmzi.efficiency import REFERENCE_POINT, ReferenceValue

_PSI_MINUS = "IonPairState(c_pp=0j, c_pm=(-0.7071067811865476+0j), c_mp=(0.7071067811865476+0j), c_mm=0j)"
_CONFIG_DEFAULTS = {
    "a2": 0.5, "alpha2": None, "phase_alpha": 0.0, "phase_beta": 0.0, "phase_a": 0.0, "phase_b": 0.0,
    "fidelity": 0.7, "trials": 100000, "seed": 0, "max_passes": 30, "preset": None, "format": "json",
    "axis": None, "sweep_from": None, "sweep_to": None, "points": None, "sweep_scenario": None, "p_cav": None,
    "detector_efficiency": None, "outcoupling": 1.0, "photon_rate": None, "protocol": None,
}

#: Per record: a sample, its repr, its constructor's fields in order, and their defaults.
RECORDS = {
    "PhotonMode": (
        lambda: PhotonMode.propagating(Port.LOWER, Direction.FORWARD, Polarization.SIGMA_PLUS),
        "PhotonMode(kind=<ModeKind.PROPAGATING: 'propagating'>, port=<Port.LOWER: 'lower'>, "
        "direction=<Direction.FORWARD: 'forward'>, polarization=<Polarization.SIGMA_PLUS: 'sigma_plus'>, "
        "scattered_at=None)",
        ["kind", "port", "direction", "polarization", "scattered_at"],
        {"port": None, "direction": None, "polarization": None, "scattered_at": None},
    ),
    "BasisState": (
        lambda: BasisState(PhotonMode.scattered(IonId.ION_U), IonLevel.G, IonLevel.M_MINUS),
        "BasisState(photon=PhotonMode(kind=<ModeKind.SCATTERED: 'scattered'>, port=None, direction=None, "
        "polarization=None, scattered_at=<IonId.ION_U: 'ion_u'>), ion_u=<IonLevel.G: 'g'>, "
        "ion_l=<IonLevel.M_MINUS: 'm_minus'>)",
        ["photon", "ion_u", "ion_l"],
        {},
    ),
    "IonPairState": (
        bell_psi_minus,
        _PSI_MINUS,
        ["c_pp", "c_pm", "c_mp", "c_mm"],
        {"c_pp": 0j, "c_pm": 0j, "c_mp": 0j, "c_mm": 0j},
    ),
    "SingleIonState": (
        lambda: SingleIonState(0.6 + 0j, 0.8j),
        "SingleIonState(c_plus=(0.6+0j), c_minus=0.8j)",
        ["c_plus", "c_minus"],
        {},
    ),
    "PassResult": (
        lambda: single_pass(IonPairState(c_pm=1)),
        "PassResult(p_scatter_u=0.5000000000000001, p_scatter_l=0.0, p_detect_upper=0.2500000000000001, "
        "p_detect_lower=0.2500000000000001, p_recycle=0.0, "
        "post_detect_upper=IonPairState(c_pp=0j, c_pm=1j, c_mp=0j, c_mm=0j), "
        "post_detect_lower=IonPairState(c_pp=0j, c_pm=(-1+0j), c_mp=0j, c_mm=0j), "
        "post_recycle=IonPairState(c_pp=0j, c_pm=1j, c_mp=0j, c_mm=0j), "
        "post_scatter_u=SingleIonState(c_plus=0j, c_minus=(1+0j)), post_scatter_l=None)",
        ["p_scatter_u", "p_scatter_l", "p_detect_upper", "p_detect_lower", "p_recycle",
         "post_detect_upper", "post_detect_lower", "post_recycle", "post_scatter_u", "post_scatter_l"],
        {},
    ),
    "MixedPassResult": (
        lambda: MixedPassResult(0.5, ((0.5, bell_phi_plus(), None),), 0.25, 0.25, 0.0, 0.5, 0.0, None,
                                ((1.0, bell_psi_minus()),)),
        "MixedPassResult(input_fidelity=0.5, components=((0.5, IonPairState(c_pp=(0.7071067811865476+0j), "
        "c_pm=0j, c_mp=0j, c_mm=(0.7071067811865476+0j)), None),), p_scatter_u=0.25, p_scatter_l=0.25, "
        "p_detect_upper=0.0, p_detect_lower=0.5, p_recycle=0.0, post_detect_upper=None, "
        f"post_detect_lower=((1.0, {_PSI_MINUS}),))",
        ["input_fidelity", "components", "p_scatter_u", "p_scatter_l", "p_detect_upper", "p_detect_lower",
         "p_recycle", "post_detect_upper", "post_detect_lower"],
        {},
    ),
    "IterationResult": (
        lambda: iterate_analytic(IonPairState(c_mm=1)),
        "IterationResult(p_entangled=0.0, p_scattered=0.0, p_stuck=1.0, p_truncated=0.0, post_entangled=None, "
        "passes_distribution={})",
        ["p_entangled", "p_scattered", "p_stuck", "p_truncated", "post_entangled", "passes_distribution"],
        {},
    ),
    "MonteCarloResult": (
        lambda: monte_carlo(IonPairState(c_pp=1), 4, 0),
        "MonteCarloResult(trials=4, seed=0, counts={'entangled': 0, 'scattered': 4, 'stuck': 0, 'truncated': 0}, "
        "frequencies={'entangled': 0.0, 'scattered': 1.0, 'stuck': 0.0, 'truncated': 0.0}, "
        "standard_errors={'entangled': 0.0, 'scattered': 0.0, 'stuck': 0.0, 'truncated': 0.0}, "
        "passes_distribution={}, post_entangled=None)",
        ["trials", "seed", "counts", "frequencies", "standard_errors", "passes_distribution", "post_entangled"],
        {},
    ),
    "ReferenceValue": (
        lambda: REFERENCE_POINT["photon_rate"],
        "ReferenceValue(value=5000.0, unit='1/s', label='assumed input photon rate')",
        ["value", "unit", "label"],
        {},
    ),
    "ThroughputReport": (
        lambda: throughput(0.25, p_cav=0.5, detector_efficiency=0.5, photon_rate=8.0),
        "ThroughputReport(p_protocol=0.25, p_cav=0.5, p_total=0.0625, pairs_per_second=0.5)",
        ["p_protocol", "p_cav", "p_total", "pairs_per_second"],
        {},
    ),
    "RunConfig": (
        lambda: parse_config(["single-pass", "--a2", "0.3"]),
        "RunConfig(scenario='single_pass', a2=0.3, alpha2=None, phase_alpha=0.0, phase_beta=0.0, phase_a=0.0, "
        "phase_b=0.0, fidelity=0.7, trials=100000, seed=0, max_passes=30, preset=None, format='json', axis=None, "
        "sweep_from=None, sweep_to=None, points=None, sweep_scenario=None, p_cav=None, detector_efficiency=None, "
        "outcoupling=1.0, photon_rate=None, protocol=None)",
        ["scenario", *_CONFIG_DEFAULTS],
        _CONFIG_DEFAULTS,
    ),
}
CLASSES = {
    cls.__name__: cls
    for cls in (PhotonMode, BasisState, IonPairState, SingleIonState, PassResult, MixedPassResult, IterationResult,
                MonteCarloResult, ReferenceValue, ThroughputReport, RunConfig)
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_fields_and_defaults(name):
    make, text, names, defaults = RECORDS[name]
    sample = make()
    assert type(sample) is CLASSES[name]
    assert repr(sample) == text
    parameters = inspect.signature(CLASSES[name]).parameters
    assert list(parameters) == names
    assert {key: value.default for key, value in parameters.items() if value.default is not value.empty} == defaults


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_assignment(name):
    sample = RECORDS[name][0]()
    field = RECORDS[name][2][0]
    with pytest.raises(AttributeError):
        setattr(sample, field, getattr(sample, field))
    with pytest.raises(AttributeError):
        sample.extra = 1
    assert not hasattr(sample, "extra")


def test_records_are_all_pinned():
    assert set(RECORDS) == set(CLASSES)


_UNNORMALIZED = (ValueError, "ion-pair amplitudes must be normalized")
#: ``complex()`` would parse a string, so a typo would pass as an amplitude.
_STRING = (TypeError, "amplitude must be a number, not a string")


@pytest.mark.parametrize(
    "build, amplitudes, expected",
    [
        (IonPairState, (), _UNNORMALIZED),
        (IonPairState, (2,), _UNNORMALIZED),
        (IonPairState, (1, 1), _UNNORMALIZED),
        (IonPairState, (math.nan,), _UNNORMALIZED),
        (IonPairState, (1, 0, 0, math.inf), _UNNORMALIZED),
        (IonPairState, (0.6, 0.6j, 0.6, 0.0), _UNNORMALIZED),
        (IonPairState, ("1",), _STRING),
        (IonPairState.from_unnormalized, ("2",), _STRING),
        (IonPairState.product, ("1", 0, 1, 0), _STRING),
    ],
    ids=["zero", "long", "two-units", "nan", "inf", "over", "string", "string-unnormalized", "string-product"],
)
def test_ion_pair_state_rejects_unnormalized(build, amplitudes, expected):
    error, message = expected
    with pytest.raises(error) as caught:
        build(*amplitudes)
    assert str(caught.value) == message


_MODE_MESSAGE = (
    "invalid {} mode: propagating needs port, direction and polarization, scattered only a scatter site, vacuum nothing"
)


@pytest.mark.parametrize(
    "kind, labels",
    [
        (ModeKind.PROPAGATING, {}),
        (ModeKind.PROPAGATING, {"port": Port.UPPER, "direction": Direction.FORWARD}),
        (ModeKind.PROPAGATING, {"port": Port.UPPER, "direction": Direction.FORWARD,
                                "polarization": Polarization.SIGMA_PLUS, "scattered_at": IonId.ION_U}),
        (ModeKind.SCATTERED, {}),
        (ModeKind.SCATTERED, {"port": Port.LOWER, "scattered_at": IonId.ION_L}),
        (ModeKind.VACUUM, {"scattered_at": IonId.ION_U}),
        (ModeKind.VACUUM, {"polarization": Polarization.SIGMA_MINUS}),
    ],
    ids=["propagating-bare", "propagating-unpolarized", "propagating-scattered", "scattered-nowhere",
         "scattered-on-port", "vacuum-scattered", "vacuum-polarized"],
)
def test_photon_mode_rejects_foreign_fields(kind, labels):
    with pytest.raises(ValueError) as caught:
        PhotonMode(kind, **labels)
    assert str(caught.value) == _MODE_MESSAGE.format(kind.value)


def test_record_is_the_tuple_of_its_fields():
    state = bell_psi_minus()
    assert state == tuple(state) == (0j, -state.c_mp, state.c_mp, 0j)
    assert state[1] == state.c_pm and len(state) == 4
    assert hash(state) == hash(tuple(state))


def test_replace_checks_as_the_constructor_does():
    assert bell_psi_minus()._replace(c_pm=0j, c_mp=1j) == IonPairState(c_mp=1j)
    with pytest.raises(ValueError, match="ion-pair amplitudes must be normalized"):
        bell_psi_minus()._replace(c_pp=1)
    with pytest.raises(ValueError, match="invalid vacuum mode"):
        PhotonMode.vacuum()._replace(port=Port.UPPER)
