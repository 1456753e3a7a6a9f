import math

import numpy as np
import pytest

from ionmzi.states import (
    BasisState,
    Direction,
    IonId,
    IonLevel,
    MixedState,
    PhotonMode,
    Port,
    PureState,
    equal_up_to_global_phase,
    inner_product,
    ion_fidelity,
    normalize,
)

VAC = PhotonMode.vacuum()
SQRT_HALF = 2.0 ** -0.5


def ion_ket(ion_u: IonLevel, ion_l: IonLevel) -> BasisState:
    return BasisState(VAC, ion_u, ion_l)


KET_PM = ion_ket(IonLevel.M_PLUS, IonLevel.M_MINUS)
KET_MP = ion_ket(IonLevel.M_MINUS, IonLevel.M_PLUS)
KET_MM = ion_ket(IonLevel.M_MINUS, IonLevel.M_MINUS)
KET_PP = ion_ket(IonLevel.M_PLUS, IonLevel.M_PLUS)


def psi_plus() -> PureState:
    return PureState({KET_PM: SQRT_HALF, KET_MP: SQRT_HALF})


def psi_minus() -> PureState:
    return PureState({KET_MP: SQRT_HALF, KET_PM: -SQRT_HALF})


def phi_plus() -> PureState:
    return PureState({KET_PP: SQRT_HALF, KET_MM: SQRT_HALF})


class TestPhotonMode:
    def test_vacuum_carries_nothing(self):
        with pytest.raises(ValueError):
            PhotonMode(kind=PhotonMode.vacuum().kind, port=Port.LOWER)

    def test_propagating_needs_all_labels(self):
        with pytest.raises(ValueError):
            PhotonMode.propagating(Port.LOWER, Direction.FORWARD, None)

    def test_scattered_needs_site_only(self):
        mode = PhotonMode.scattered(IonId.ION_U)
        assert mode.scattered_at is IonId.ION_U
        assert mode.port is None and mode.direction is None and mode.polarization is None

    def test_arm_assignment(self):
        assert IonId.ION_U.arm is Port.UPPER
        assert IonId.ION_L.arm is Port.LOWER


class TestNormalize:
    def test_scaling(self):
        norm, unit = normalize(PureState({KET_PM: 2.0}))
        assert norm == pytest.approx(2.0, abs=1e-15)
        assert unit.amplitude(KET_PM) == pytest.approx(1.0, abs=1e-15)

    def test_post_selected_branch_norm(self):
        # fourth-branch amplitudes (beta*a)/2 and -(alpha*b)/2 with every
        # coefficient 1/sqrt(2): the norm is sqrt(1/8)
        amp = 0.5 * SQRT_HALF * SQRT_HALF
        norm, unit = normalize(PureState({KET_MP: amp, KET_PM: -amp}))
        assert norm == pytest.approx(math.sqrt(0.125), abs=1e-15)
        assert abs(unit.norm() - 1.0) < 1e-12

    def test_identity_on_normalized(self):
        norm, unit = normalize(psi_plus())
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert unit == PureState(dict(psi_plus().items()))

    def test_null_state_rejected(self):
        with pytest.raises(ValueError, match="null state"):
            normalize(PureState({}))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = PureState(dict(zip((KET_PP, KET_PM, KET_MP, KET_MM), amps)))
            _, unit = normalize(state)
            norm2, _ = normalize(unit)
            assert abs(norm2 - 1.0) < 1e-12

    def test_global_phase_kept(self):
        phase = complex(math.cos(0.8), math.sin(0.8))
        _, unit = normalize(PureState({KET_PM: 3.0 * phase}))
        assert unit.amplitude(KET_PM) == pytest.approx(phase, abs=1e-12)


class TestCanonicalForm:
    def test_insertion_order_irrelevant(self):
        forward = PureState([(KET_PM, 0.6), (KET_MP, 0.8j)])
        backward = PureState([(KET_MP, 0.8j), (KET_PM, 0.6)])
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_duplicate_keys_merge(self):
        merged = PureState([(KET_PM, 0.25), (KET_PM, 0.75)])
        assert merged.amplitude(KET_PM) == pytest.approx(1.0)

    def test_tiny_amplitudes_pruned(self):
        state = PureState({KET_PM: 1.0, KET_MP: 1e-15})
        assert len(state) == 1

    def test_cancellation_pruned(self):
        state = PureState([(KET_PM, 1.0), (KET_PM, -1.0), (KET_MP, 1.0)])
        assert len(state) == 1

    @pytest.mark.parametrize("nan", [math.nan, complex(0.0, math.nan)])
    def test_nan_amplitude_rejected(self, nan):
        with pytest.raises(ValueError, match="not a number"):
            PureState(indexed=[(0, nan), (1, 1.0)])


class TestInnerProduct:
    def test_self_overlap_of_unit_vector(self):
        state = PureState({KET_PM: 1.0})
        assert inner_product(state, state) == pytest.approx(1.0)

    def test_orthogonal_ion_configurations(self):
        assert inner_product(PureState({KET_MP: 1.0}), PureState({KET_PM: 1.0})) == 0j

    def test_bell_states_orthogonal(self):
        assert abs(inner_product(psi_plus(), psi_minus())) < 1e-15

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        kets = (KET_PP, KET_PM, KET_MP, KET_MM)
        for _ in range(50):
            a = PureState(dict(zip(kets, rng.standard_normal(4) + 1j * rng.standard_normal(4))))
            b = PureState(dict(zip(kets, rng.standard_normal(4) + 1j * rng.standard_normal(4))))
            assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate(), abs=1e-12)

    def test_conjugate_linear_in_first_argument(self):
        a = PureState({KET_PM: 2j})
        b = PureState({KET_PM: 1.0})
        assert inner_product(a, b) == pytest.approx(-2j)
        assert inner_product(b, a) == pytest.approx(2j)


class TestEqualUpToGlobalPhase:
    def test_phase_rotation_is_same_ray(self):
        phase = complex(math.cos(1.1), math.sin(1.1))
        rotated = PureState({k: phase * v for k, v in psi_plus().items()})
        assert equal_up_to_global_phase(psi_plus(), rotated)

    def test_different_rays_differ(self):
        assert not equal_up_to_global_phase(psi_plus(), psi_minus())


class TestMixedState:
    def test_weights_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixedState([(0.5, psi_plus()), (0.4, phi_plus())])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            MixedState([(0.0, psi_plus()), (1.0, phi_plus())])

    def test_components_must_be_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            MixedState([(1.0, PureState({KET_PM: 0.5}))])


class TestIonFidelity:
    def test_pure_match(self):
        assert ion_fidelity(MixedState([(1.0, psi_plus())]), psi_plus()) == pytest.approx(1.0)

    def test_two_component_mixture(self):
        mixed = MixedState([(0.7, psi_plus()), (0.3, phi_plus())])
        assert ion_fidelity(mixed, psi_plus()) == pytest.approx(0.7, abs=1e-12)

    def test_photon_mode_traced_out(self):
        # photon marker differs from the target's vacuum but factorizes out
        scattered = PhotonMode.scattered(IonId.ION_U)
        moved = PureState(
            {BasisState(scattered, b.ion_u, b.ion_l): amp for b, amp in psi_plus().items()}
        )
        assert ion_fidelity(MixedState([(1.0, moved)]), psi_plus()) == pytest.approx(1.0)

    def test_entangled_photon_rejected(self):
        tangled = PureState(
            {
                BasisState(VAC, IonLevel.M_PLUS, IonLevel.M_MINUS): SQRT_HALF,
                BasisState(PhotonMode.scattered(IonId.ION_U), IonLevel.G, IonLevel.M_PLUS): SQRT_HALF,
            }
        )
        with pytest.raises(ValueError, match="photon not separable"):
            ion_fidelity(MixedState([(1.0, tangled)]), psi_plus())

    def test_conditioned_mixture_value(self):
        # lower-detector garbage branch bookkeeping: weights F/4 on Psi+
        # and (1-F)/2 on |m-,m->, renormalized, scored against Psi+
        fidelity_in = 0.7
        w_good = fidelity_in * 0.25
        w_bad = (1.0 - fidelity_in) * 0.5
        mixed = MixedState(
            [
                (w_good / (w_good + w_bad), psi_plus()),
                (w_bad / (w_good + w_bad), PureState({KET_MM: 1.0})),
            ]
        )
        expected = fidelity_in / (2.0 - fidelity_in)
        assert ion_fidelity(mixed, psi_plus()) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5384615384615384, abs=1e-12)
