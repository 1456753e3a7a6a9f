import cmath
import json
import math
import random

import numpy as np
import pytest

from ionmzi import cli, protocol
from ionmzi.protocol import (
    ENTRY_LOWER_FORWARD,
    ENTRY_UPPER_BACKWARD,
    IonPairState,
    bell_phi_plus,
    bell_psi_minus,
    bell_psi_plus,
    evolve_single_pass,
    ion_pair_pure_state,
    propagate,
    run_mixed,
    single_pass,
)
from ionmzi.states import (
    PRUNE_EPS,
    Direction,
    PhotonMode,
    Polarization,
    Port,
    PureState,
)

from oracles import (
    SQRT_HALF,
    _replay,
    closed_form_final_state,
    ensemble_fidelity,
    max_amplitude_delta,
    random_edge_ion_pair,
    random_ion_pair,
    random_product_amplitudes,
    reference_schedule,
    reference_single_pass,
)


def balanced_product(a2: float) -> IonPairState:
    plus, minus = math.sqrt(a2), math.sqrt(1.0 - a2)
    return IonPairState.product(plus, minus, plus, minus)


class TestIonPairState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            IonPairState(c_pp=1.0, c_mm=1.0)
        for bad in (math.nan, math.inf, complex(0.0, math.nan)):
            with pytest.raises(ValueError, match="normalized"):
                IonPairState(c_pp=bad)
            for scale in (1.0, 1e-200, 1e200):  # the last two rescale by a power of two first
                with pytest.raises(ValueError, match="normalized"):
                    IonPairState.from_unnormalized(c_pp=bad, c_mm=scale)

    def test_from_unnormalized(self):
        state = IonPairState.from_unnormalized(c_pm=3.0, c_mp=4.0)
        assert state.c_pm == pytest.approx(0.6)
        assert state.c_mp == pytest.approx(0.8)

    def test_null_rejected(self):
        with pytest.raises(ValueError, match="null"):
            IonPairState.from_unnormalized()

    def test_from_unnormalized_at_extreme_scales(self):
        """Amplitudes whose squares overflow or underflow rescale to the unit-scale state, bit for bit."""
        rng = np.random.default_rng(97)
        for _ in range(5):
            amps = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4)]
            expected = repr(IonPairState.from_unnormalized(*amps))
            for k in (-900, -600, 600, 900):
                assert repr(IonPairState.from_unnormalized(*(c * 2.0 ** k for c in amps))) == expected
        for scale in (1e-200, 1e200, 5e-324):
            assert IonPairState.from_unnormalized(c_pm=scale) == IonPairState(c_pm=1.0)

    def test_bell_fidelities(self):
        assert bell_psi_plus().fidelity(bell_psi_minus()) == pytest.approx(0.0, abs=1e-15)
        assert bell_psi_plus().fidelity(bell_psi_plus()) == pytest.approx(1.0, abs=1e-12)


class TestSinglePassProduct:
    def test_detect_lower_branch_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            u_plus, u_minus, l_plus, l_minus = random_product_amplitudes(rng)
            result = single_pass(IonPairState.product(u_plus, u_minus, l_plus, l_minus))
            expected = 0.25 * (abs(u_minus * l_plus) ** 2 + abs(u_plus * l_minus) ** 2)
            assert result.p_detect_lower == pytest.approx(expected, abs=1e-12)
            assert result.p_scatter_u == pytest.approx(0.5 * abs(u_plus) ** 2, abs=1e-12)
            assert result.p_scatter_l == pytest.approx(0.5 * abs(l_plus) ** 2, abs=1e-12)

    def test_success_law_at_point_seven(self):
        result = single_pass(balanced_product(0.7))
        assert result.p_detect_lower == pytest.approx(0.5 * 0.7 * 0.3, abs=1e-12)

    def test_scatter_posts_are_the_survivors(self):
        u_plus, u_minus, l_plus, l_minus = 0.6, 0.8, 0.8, 0.6
        result = single_pass(IonPairState.product(u_plus, u_minus, l_plus, l_minus))
        # upper ion scattered: lower ion keeps its own superposition
        assert result.post_scatter_u is not None
        assert abs(result.post_scatter_u.c_plus) == pytest.approx(l_plus, abs=1e-12)
        assert abs(result.post_scatter_u.c_minus) == pytest.approx(l_minus, abs=1e-12)
        assert result.post_scatter_l is not None
        assert abs(result.post_scatter_l.c_plus) == pytest.approx(u_plus, abs=1e-12)
        assert abs(result.post_scatter_l.c_minus) == pytest.approx(u_minus, abs=1e-12)

    def test_detect_upper_carries_doubled_mm_amplitude(self):
        result = single_pass(balanced_product(0.5))
        post = result.post_detect_upper
        assert post is not None
        assert abs(post.c_mm) == pytest.approx(2.0 * abs(post.c_mp), abs=1e-12)
        assert result.p_detect_upper == pytest.approx(0.25 * (0.25 + 0.25) + 0.25, abs=1e-12)

    def test_detect_lower_orthogonal_to_diagonal_kets(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            result = single_pass(random_ion_pair(rng))
            if result.post_detect_lower is None:
                continue
            assert result.post_detect_lower.c_pp == 0j
            assert result.post_detect_lower.c_mm == 0j


class TestSinglePassBell:
    def test_psi_plus_branches(self):
        result = single_pass(bell_psi_plus())
        assert result.p_detect_upper == pytest.approx(0.25, abs=1e-12)
        assert result.p_detect_lower == pytest.approx(0.25, abs=1e-12)
        assert result.p_scatter_u + result.p_scatter_l == pytest.approx(0.5, abs=1e-12)
        assert result.post_detect_upper.fidelity(bell_psi_plus()) == pytest.approx(1.0, abs=1e-12)
        assert result.post_detect_lower.fidelity(bell_psi_minus()) == pytest.approx(1.0, abs=1e-12)

    def test_phi_plus_only_fires_upper(self):
        result = single_pass(bell_phi_plus())
        assert result.p_detect_upper == pytest.approx(0.5, abs=1e-12)
        assert result.p_detect_lower == pytest.approx(0.0, abs=1e-15)
        assert result.post_detect_lower is None
        assert result.p_scatter_u + result.p_scatter_l == pytest.approx(0.5, abs=1e-12)
        post = result.post_detect_upper
        assert abs(post.c_mm) == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    def test_driver_matches_hand_derived_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ions = random_ion_pair(rng)
            driven = evolve_single_pass(ions)
            assert max_amplitude_delta(driven, closed_form_final_state(ions)) < 1e-12

    def test_linearity_of_propagation(self):
        rng = np.random.default_rng(37)
        photon = PhotonMode.propagating(Port.LOWER, Direction.FORWARD, Polarization.SIGMA_PLUS)
        for _ in range(20):
            first = ion_pair_pure_state(random_ion_pair(rng), photon)
            second = ion_pair_pure_state(random_ion_pair(rng), photon)
            x = complex(rng.standard_normal(), rng.standard_normal())
            y = complex(rng.standard_normal(), rng.standard_normal())
            combined = PureState(
                list((b, x * amp) for b, amp in first.items())
                + list((b, y * amp) for b, amp in second.items())
            )
            left = propagate(combined)
            right = PureState(
                list((b, x * amp) for b, amp in propagate(first).items())
                + list((b, y * amp) for b, amp in propagate(second).items())
            )
            assert max_amplitude_delta(left, right) < 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            ions = random_ion_pair(rng)
            phase = cmath.exp(2j * math.pi * rng.random())
            rotated = IonPairState(
                ions.c_pp * phase, ions.c_pm * phase, ions.c_mp * phase, ions.c_mm * phase
            )
            base, turned = single_pass(ions), single_pass(rotated)
            for name in ("p_scatter_u", "p_scatter_l", "p_detect_upper", "p_detect_lower"):
                assert getattr(turned, name) == pytest.approx(getattr(base, name), abs=1e-12)
            if base.post_detect_lower is not None:
                assert turned.post_detect_lower.fidelity(bell_psi_minus()) == pytest.approx(
                    base.post_detect_lower.fidelity(bell_psi_minus()), abs=1e-12
                )

    def test_probability_completeness(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            result = single_pass(random_ion_pair(rng))
            total = (
                result.p_scatter_u
                + result.p_scatter_l
                + result.p_detect_upper
                + result.p_detect_lower
                + result.p_recycle
            )
            assert abs(total - 1.0) < 1e-10


class TestSchedule:
    def test_single_pass_matches_reference_decomposition(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            ions = random_edge_ion_pair(rng)
            for pol in Polarization:
                for entry in (ENTRY_LOWER_FORWARD, ENTRY_UPPER_BACKWARD):
                    for enclosed in (False, True):
                        assert repr(single_pass(ions, pol, entry, enclosed)) == repr(
                            reference_single_pass(ions, pol, entry, enclosed)
                        )

    def test_single_pass_matches_reference_at_the_prune_tie(self):
        """The first splitter takes this c_pp to exactly ``PRUNE_EPS``, which both paths keep."""
        c_pp = 1.414213562373095e-12
        assert c_pp * SQRT_HALF == PRUNE_EPS
        ions = IonPairState(c_pp=c_pp, c_mm=1.0)
        for pol in Polarization:
            for entry in (ENTRY_LOWER_FORWARD, ENTRY_UPPER_BACKWARD):
                for enclosed in (False, True):
                    assert repr(single_pass(ions, pol, entry, enclosed)) == repr(
                        reference_single_pass(ions, pol, entry, enclosed)
                    )

    def test_post_states_rebuild_through_the_public_constructor(self):
        """Post states are built without the public conversion loop: each holds complex amplitudes
        and passes the public check unchanged."""
        rng = np.random.default_rng(79)
        for _ in range(500):
            ions = random_edge_ion_pair(rng)
            for pol in Polarization:
                for entry in (ENTRY_LOWER_FORWARD, ENTRY_UPPER_BACKWARD):
                    for enclosed in (False, True):
                        result = single_pass(ions, pol, entry, enclosed)
                        for post in (result.post_detect_upper, result.post_detect_lower, result.post_recycle):
                            if post is None:
                                continue
                            amps = (post.c_pp, post.c_pm, post.c_mp, post.c_mm)
                            assert all(type(amp) is complex for amp in amps)
                            assert repr(IonPairState(*amps)) == repr(post)

    def test_post_states_keep_the_norm_check(self):
        with pytest.raises(ValueError, match="ion-pair amplitudes must be normalized"):
            protocol._post_state(1 + 0j, 1 + 0j, 0j, 0j)
        with pytest.raises(ValueError, match="ion-pair amplitudes must be normalized"):
            protocol._post_state(complex(math.nan, 0.0), 0j, 0j, 0j)

    @pytest.mark.parametrize("entry", [ENTRY_LOWER_FORWARD, ENTRY_UPPER_BACKWARD], ids=["forward", "backward"])
    @pytest.mark.parametrize("pol", list(Polarization), ids=lambda pol: pol.value)
    def test_schedule_matches_reference(self, pol, entry):
        """The generated function's last-stage amplitudes equal the reference schedule's replay by ``repr``,
        which shows a -0.0 part.  The reference keeps an input stage, merged and pruned as ``PureState``
        merges and prunes, that the generated function leaves out."""
        rng = np.random.default_rng(83)
        states = [
            *(IonPairState(*(complex(slot == start) for slot in range(4))) for start in range(4)),
            IonPairState(c_pp=1.414213562373095e-12, c_mm=1.0),  # the prune tie
            *(random_edge_ion_pair(rng) for _ in range(500)),
        ]
        stages, kernel = reference_schedule(pol, entry)[0], protocol._kernel(pol, entry)
        for ions in states:
            amps = [ions.c_pp, ions.c_pm, ions.c_mp, ions.c_mm]
            assert repr(kernel(*amps, False, True)) == repr(_replay(stages, amps))

    def test_first_use_checks_the_schedule_against_the_composed_maps(self, monkeypatch):
        composed = protocol.propagate

        def one_phase_flipped(state):
            (index, amp), *rest = composed(state).indexed_items()
            return PureState(indexed=[(index, -amp), *rest])

        monkeypatch.setattr(protocol, "propagate", one_phase_flipped)
        protocol._kernel.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="disagrees with the element maps"):
                single_pass(bell_psi_plus())
        finally:
            protocol._kernel.cache_clear()


class TestEntryAndPolarization:
    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="mirror-side"):
            single_pass(bell_psi_plus(), entry=(Port.LOWER, Direction.BACKWARD))

    def test_polarization_given_by_value_rejected(self):
        with pytest.raises(ValueError, match="invalid propagating mode"):
            single_pass(bell_psi_plus(), photon_pol="sigma_plus")

    def test_backward_entry_swaps_detector_port(self):
        ions = balanced_product(0.7)
        forward = single_pass(ions)
        backward = single_pass(ions, entry=ENTRY_UPPER_BACKWARD)
        assert backward.p_detect_upper == pytest.approx(forward.p_detect_lower, abs=1e-12)
        assert backward.p_detect_lower == pytest.approx(forward.p_detect_upper, abs=1e-12)
        assert backward.post_detect_upper.fidelity(bell_psi_minus()) == pytest.approx(
            forward.post_detect_lower.fidelity(bell_psi_minus()), abs=1e-12
        )

    def test_sigma_minus_swaps_roles(self):
        ions = balanced_product(0.7)
        result = single_pass(ions, photon_pol=Polarization.SIGMA_MINUS)
        # sigma- couples the m- populations: scatter weights follow 1 - a2
        assert result.p_scatter_u == pytest.approx(0.5 * 0.3, abs=1e-12)
        assert result.p_scatter_l == pytest.approx(0.5 * 0.3, abs=1e-12)
        assert result.p_detect_lower == pytest.approx(0.5 * 0.7 * 0.3, abs=1e-12)
        post = result.post_detect_upper
        # the persistent component is now |m+,m+>
        assert abs(post.c_pp) > 0.0
        assert post.c_mm == 0j

    @pytest.mark.parametrize(
        ("entry", "mirror_port"),
        [(ENTRY_LOWER_FORWARD, "upper"), (ENTRY_UPPER_BACKWARD, "lower")],
        ids=["forward", "backward"],
    )
    def test_enclosed_moves_upper_mass_to_recycle(self, entry, mirror_port):
        # the mirror closes the upper port for forward entry and the lower one for backward entry
        ions = balanced_product(0.7)
        plain = single_pass(ions, entry=entry)
        enclosed = single_pass(ions, entry=entry, enclosed=True)
        assert enclosed.p_recycle == pytest.approx(getattr(plain, f"p_detect_{mirror_port}"), abs=1e-15)
        assert getattr(enclosed, f"p_detect_{mirror_port}") == 0.0
        assert enclosed.post_recycle == getattr(plain, f"post_detect_{mirror_port}")


def single_pass_report(*flags: str) -> dict:
    """The results of a single-pass CLI report, read back from its JSON."""
    return json.loads(cli.run(cli.parse_config(["single-pass", *flags])))["results"]


class TestRunProduct:
    """A product input: ``single_pass`` on ``IonPairState.product``, and the single-pass report's balance."""

    def test_balanced_half_half(self):
        result = single_pass(IonPairState.product(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF))
        assert result.p_detect_lower == pytest.approx(0.125, abs=1e-12)
        assert result.post_detect_lower.fidelity(bell_psi_minus()) == pytest.approx(1.0, abs=1e-12)
        report = single_pass_report("--a2", "0.5")
        assert report["balanced"] is True
        assert report["fidelity_detect_lower_vs_psi_minus"] == pytest.approx(1.0, abs=1e-12)

    def test_opposite_poles(self):
        result = single_pass(IonPairState.product(1.0, 0.0, 0.0, 1.0))
        assert result.p_detect_lower == pytest.approx(0.25, abs=1e-12)
        post = result.post_detect_lower
        assert abs(post.c_pm) == pytest.approx(1.0, abs=1e-12)
        assert post.fidelity(bell_psi_minus()) == pytest.approx(0.5, abs=1e-12)
        report = single_pass_report("--a2", "0", "--alpha2", "1")
        assert report["balanced"] is False
        assert report["fidelity_detect_lower_vs_psi_minus"] == pytest.approx(0.5, abs=1e-12)

    def test_both_plus_always_scatters(self):
        result = single_pass(IonPairState.product(1.0, 0.0, 1.0, 0.0))
        assert result.p_scatter_u + result.p_scatter_l == pytest.approx(1.0, abs=1e-12)
        assert result.p_detect_upper == pytest.approx(0.0, abs=1e-15)
        assert result.p_detect_lower == pytest.approx(0.0, abs=1e-15)

    def test_unnormalized_inputs_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            IonPairState.product(1.0, 1.0, SQRT_HALF, SQRT_HALF)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="ion-pair amplitudes must be normalized"):
                IonPairState.product(bad, 1.0, 1.0, 0.0)
            with pytest.raises(ValueError, match="ion-pair amplitudes must be normalized"):
                IonPairState.product(1.0, 0.0, 0.0, bad)

    def test_balanced_moduli_with_phases_still_balanced(self):
        phase = cmath.exp(0.9j)
        result = single_pass(IonPairState.product(SQRT_HALF * phase, SQRT_HALF, SQRT_HALF, SQRT_HALF))
        # equal moduli guarantee maximal entanglement, not this particular ray
        expected = math.cos(0.45) ** 2
        assert result.post_detect_lower.fidelity(bell_psi_minus()) == pytest.approx(expected, abs=1e-12)
        report = single_pass_report("--a2", "0.5", "--phase-alpha", "0.9")
        assert report["balanced"] is True
        assert report["fidelity_detect_lower_vs_psi_minus"] == pytest.approx(expected, abs=1e-12)


class TestRunMixed:
    def test_success_probability_is_quarter_fidelity(self):
        run = run_mixed(0.7)
        assert run.p_detect_lower == pytest.approx(0.175, abs=1e-12)
        assert ensemble_fidelity(run.post_detect_lower, bell_psi_minus()) == pytest.approx(1.0, abs=1e-12)

    def test_pure_input_limit(self):
        assert run_mixed(1.0).p_detect_lower == pytest.approx(0.25, abs=1e-12)
        assert run_mixed(0.0).post_detect_lower is None

    def test_upper_branch_fidelity_degrades(self):
        for fidelity_in in (0.2, 0.5, 0.7, 0.9):
            run = run_mixed(fidelity_in)
            conditioned = ensemble_fidelity(run.post_detect_upper, bell_psi_plus())
            expected = fidelity_in / (2.0 - fidelity_in)
            assert conditioned == pytest.approx(expected, abs=1e-12)
            assert conditioned < fidelity_in

    def test_upper_branch_oracle_bookkeeping(self):
        # independent weight propagation: Psi+ hits the upper detector with
        # conditional probability 1/4 keeping Psi+, Phi+ with 1/2 leaving
        # |m-,m->; condition and renormalize
        fidelity_in = 0.7
        w_good = fidelity_in * 0.25
        w_bad = (1.0 - fidelity_in) * 0.5
        expected = w_good / (w_good + w_bad)
        run = run_mixed(fidelity_in)
        assert ensemble_fidelity(run.post_detect_upper, bell_psi_plus()) == pytest.approx(expected, abs=1e-12)

    def test_fidelity_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_mixed(1.4)

    def test_underflowing_component_weight_is_dropped(self):
        # the |Psi+> share of the upper-detector ensemble, 5e-324 * 0.25 / 0.5, underflows to 0
        run = run_mixed(5e-324)
        assert run.post_detect_upper == run_mixed(0.0).post_detect_upper
        assert run.post_detect_lower is None

    def test_pooled_branches_complete(self):
        rng = random.Random(20260)
        seeded = [rng.random() for _ in range(200)]
        for fidelity_in in (0.0, 0.3, 0.5, 0.8, 1.0, 5e-324, 1e-300, 1.0 - 1e-16, *seeded):
            run = run_mixed(fidelity_in)
            total = (
                run.p_scatter_u
                + run.p_scatter_l
                + run.p_detect_upper
                + run.p_detect_lower
                + run.p_recycle
            )
            assert total == pytest.approx(1.0, abs=1e-10)
            for ensemble in (run.post_detect_upper, run.post_detect_lower):
                if ensemble is not None:
                    weights = [w for w, _ in ensemble]
                    assert all(0.0 < w <= 1.0 for w in weights), fidelity_in
                    assert sum(weights) == pytest.approx(1.0, abs=1e-10)
                    # the constructor enforces the unit norm
                    assert all(isinstance(state, IonPairState) for _, state in ensemble)
