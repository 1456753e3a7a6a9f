import math

import numpy as np
import pytest

from ionmzi.states import (
    PRUNE_EPS,
    BasisState,
    Direction,
    IonId,
    IonLevel,
    PhotonMode,
    Port,
    PureState,
    basis_index,
    normalize,
)

from oracles import equal_up_to_global_phase, inner_product

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


class TestBasisIndex:
    def test_every_index_round_trips(self):
        for index in range(99):
            ((basis, amp),) = PureState(indexed=[(index, 1.0)]).items()
            assert basis_index(basis) == index
            assert amp == 1.0


class TestNormalize:
    def test_scaling(self):
        norm, unit = normalize(PureState({KET_PM: 2.0}))
        assert norm == pytest.approx(2.0, abs=1e-15)
        assert unit.amplitude(KET_PM) == pytest.approx(1.0, abs=1e-15)

    def test_post_selected_branch_norm(self):
        # fourth-branch amplitudes (beta*a)/2 and -(alpha*b)/2 with every
        # coefficient 1/sqrt(2): the norm is sqrt(1/8)
        amp = 0.5 * SQRT_HALF * SQRT_HALF
        state = PureState({KET_MP: amp, KET_PM: -amp})
        assert repr(state) == "PureState(2 terms, norm=0.353553)"
        norm, unit = normalize(state)
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
        assert forward.__eq__(dict(forward.items())) is NotImplemented  # so a non-state compares by identity
        assert forward != dict(forward.items())

    def test_duplicate_keys_merge(self):
        merged = PureState([(KET_PM, 0.25), (KET_PM, 0.75)])
        assert merged.amplitude(KET_PM) == pytest.approx(1.0)

    def test_tiny_amplitudes_pruned(self):
        state = PureState({KET_PM: 1.0, KET_MP: 1e-15})
        assert len(state) == 1

    def test_prune_keeps_an_amplitude_of_exactly_prune_eps(self):
        assert len(PureState(indexed=[(0, PRUNE_EPS)])) == 1
        assert len(PureState(indexed=[(0, math.nextafter(PRUNE_EPS, 0.0))])) == 0

    def test_cancellation_pruned(self):
        state = PureState([(KET_PM, 1.0), (KET_PM, -1.0), (KET_MP, 1.0)])
        assert len(state) == 1

    @pytest.mark.parametrize(
        "nan", [math.nan, complex(0.0, math.nan), complex(math.inf, math.nan), complex(math.nan, math.inf)]
    )
    def test_nan_amplitude_rejected(self, nan):
        with pytest.raises(ValueError, match="not a number"):
            PureState(indexed=[(0, nan), (1, 1.0)])

    def test_string_amplitude_rejected(self):
        # complex() would parse it as the number 1
        for build in (lambda: PureState(indexed=[(0, "1")]), lambda: PureState({KET_PM: "1"})):
            with pytest.raises(TypeError, match="amplitude must be a number, not a string"):
                build()


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
        pairs = [
            tuple(PureState(dict(zip(kets, rng.standard_normal(4) + 1j * rng.standard_normal(4)))) for _ in range(2))
            for _ in range(50)
        ]
        pairs.append((PureState({KET_PM: 0.6, KET_MP: 0.8j}), pairs[0][0]))  # unequal support, shorter first
        for a, b in pairs:
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

