import numpy as np
import pytest

from ionmzi import elements
from ionmzi.elements import (
    MirrorId,
    beam_splitter,
    detect,
    ion_interaction,
    mirror,
)
from ionmzi.states import (
    BasisState,
    Direction,
    IonId,
    IonLevel,
    ModeKind,
    PhotonMode,
    Polarization,
    Port,
    PureState,
)

from oracles import SQRT_HALF, ket, reference_element_tables

M_P, M_M, G = IonLevel.M_PLUS, IonLevel.M_MINUS, IonLevel.G
SP = Polarization.SIGMA_PLUS
SM = Polarization.SIGMA_MINUS


def mode(port: Port, direction: Direction = Direction.FORWARD, pol: Polarization = SP) -> PhotonMode:
    return PhotonMode.propagating(port, direction, pol)


def photon_only(photon: PhotonMode, amp: complex = 1.0) -> PureState:
    return PureState({ket(photon, M_M, M_M): amp})


def random_propagating_state(
    rng,
    direction: Direction = Direction.FORWARD,
    polarizations: tuple[Polarization, ...] = (SP, SM),
) -> PureState:
    terms = {}
    for port in Port:
        for pol in polarizations:
            for ion_u in (M_P, M_M):
                for ion_l in (M_P, M_M):
                    amp = complex(rng.standard_normal(), rng.standard_normal())
                    terms[ket(mode(port, direction, pol), ion_u, ion_l)] = amp
    state = PureState(terms)
    return PureState({k: v / state.norm() for k, v in state.items()})


class TestElementTables:
    def test_tables_match_reference(self):
        splitter, absorption = reference_element_tables()
        # the reference's (crossed ket, reflection phase) entries, None off the beam, stated as moves
        splitter = [
            ((index, ()),) if entry is None else ((entry[0], (SQRT_HALF,)), (index, (SQRT_HALF, entry[1])))
            for index, entry in enumerate(splitter)
        ]
        assert (elements._SPLITTER, elements._ABSORPTION) == (splitter, absorption)


class TestBeamSplitter:
    def test_lower_input_splits_with_reflection_phase(self):
        out = beam_splitter(photon_only(mode(Port.LOWER)))
        assert out.amplitude(ket(mode(Port.UPPER), M_M, M_M)) == pytest.approx(SQRT_HALF)
        assert out.amplitude(ket(mode(Port.LOWER), M_M, M_M)) == pytest.approx(1j * SQRT_HALF)

    def test_upper_input_splits_symmetrically(self):
        out = beam_splitter(photon_only(mode(Port.UPPER)))
        assert out.amplitude(ket(mode(Port.LOWER), M_M, M_M)) == pytest.approx(SQRT_HALF)
        assert out.amplitude(ket(mode(Port.UPPER), M_M, M_M)) == pytest.approx(1j * SQRT_HALF)

    def test_backward_reflection_phase_conjugate(self):
        out = beam_splitter(photon_only(mode(Port.LOWER, Direction.BACKWARD)))
        assert out.amplitude(ket(mode(Port.LOWER, Direction.BACKWARD), M_M, M_M)) == pytest.approx(
            -1j * SQRT_HALF
        )

    def test_scattered_term_untouched(self):
        state = PureState({ket(PhotonMode.scattered(IonId.ION_U), G, M_P): 1.0})
        assert beam_splitter(state) == state

    def test_empty_interferometer_calibration(self):
        # two splitters in a row route the lower input to the upper port
        # with amplitude i: the upper detector fires with certainty
        out = beam_splitter(
            beam_splitter(photon_only(mode(Port.LOWER)))
        )
        assert len(out) == 1
        assert out.amplitude(ket(mode(Port.UPPER), M_M, M_M)) == pytest.approx(1j, abs=1e-15)

    def test_unitary_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = random_propagating_state(rng)
            out = beam_splitter(state)
            assert abs(out.norm() - state.norm()) < 1e-12

    def test_forward_then_backward_inverts(self):
        def flip(state: PureState) -> PureState:
            return PureState(
                {
                    ket(
                        mode(b.photon.port, Direction.BACKWARD
                             if b.photon.direction is Direction.FORWARD else Direction.FORWARD,
                             b.photon.polarization),
                        b.ion_u,
                        b.ion_l,
                    ): amp
                    for b, amp in state.items()
                }
            )

        rng = np.random.default_rng(5)
        for _ in range(50):
            state = random_propagating_state(rng)
            forward = beam_splitter(state)
            returned = flip(beam_splitter(flip(forward)))
            for basis, amp in state.items():
                assert returned.amplitude(basis) == pytest.approx(amp, abs=1e-12)

    def test_commutes_with_polarization_relabeling(self):
        def swap_pol(state: PureState) -> PureState:
            return PureState(
                {
                    ket(
                        mode(b.photon.port, b.photon.direction, SM if b.photon.polarization is SP else SP),
                        b.ion_u,
                        b.ion_l,
                    ): amp
                    for b, amp in state.items()
                }
            )

        rng = np.random.default_rng(9)
        state = random_propagating_state(rng)
        assert swap_pol(beam_splitter(state)) == beam_splitter(
            swap_pol(state)
        )


class TestIonInteraction:
    def test_matching_level_scatters(self):
        state = PureState({ket(mode(Port.UPPER), M_P, M_M): 1.0})
        out = ion_interaction(state, IonId.ION_U)
        assert out.amplitude(ket(PhotonMode.scattered(IonId.ION_U), G, M_M)) == pytest.approx(1.0)
        assert len(out) == 1

    def test_sigma_plus_ignores_m_minus(self):
        state = PureState({ket(mode(Port.UPPER), M_M, M_P): 1.0})
        assert ion_interaction(state, IonId.ION_U) == state

    def test_wrong_arm_ignored(self):
        state = PureState({ket(mode(Port.LOWER), M_P, M_P): 1.0})
        out = ion_interaction(state, IonId.ION_U)
        assert out == state

    def test_ground_level_cannot_absorb(self):
        state = PureState({ket(mode(Port.UPPER), G, M_P): 1.0})
        assert ion_interaction(state, IonId.ION_U) == state

    def test_sigma_minus_couples_m_minus(self):
        state = PureState({ket(mode(Port.LOWER, pol=SM), M_P, M_M): 1.0})
        out = ion_interaction(state, IonId.ION_L)
        assert out.amplitude(ket(PhotonMode.scattered(IonId.ION_L), M_P, G)) == pytest.approx(1.0)

    def test_norm_preserving_and_idempotent(self):
        # one polarization in flight, as in any single-photon run
        rng = np.random.default_rng(13)
        for _ in range(50):
            state = random_propagating_state(rng, polarizations=(SP,))
            once = ion_interaction(state, IonId.ION_U)
            assert abs(once.norm() - state.norm()) < 1e-12
            assert ion_interaction(once, IonId.ION_U) == once


class TestMirror:
    def test_m2_reflects_forward_upper(self):
        out = mirror(photon_only(mode(Port.UPPER), 1j), MirrorId.M2_RIGHT_UPPER)
        assert out.amplitude(ket(mode(Port.UPPER, Direction.BACKWARD), M_M, M_M)) == pytest.approx(1j)

    def test_m1_reflects_backward_lower(self):
        out = mirror(photon_only(mode(Port.LOWER, Direction.BACKWARD)), MirrorId.M1_LEFT_LOWER)
        assert out.amplitude(ket(mode(Port.LOWER, Direction.FORWARD), M_M, M_M)) == pytest.approx(1.0)

    def test_non_photon_terms_untouched(self):
        state = PureState({ket(PhotonMode.vacuum(), M_P, M_M): 1.0})
        assert mirror(state, MirrorId.M2_RIGHT_UPPER) == state

    def test_wrong_port_escapes(self):
        with pytest.raises(ValueError, match="photon escaped cavity"):
            mirror(photon_only(mode(Port.LOWER)), MirrorId.M2_RIGHT_UPPER)

    def test_wrong_direction_escapes(self):
        with pytest.raises(ValueError, match="photon escaped cavity"):
            mirror(photon_only(mode(Port.UPPER, Direction.BACKWARD)), MirrorId.M2_RIGHT_UPPER)

    def test_norm_preserved(self):
        rng = np.random.default_rng(21)
        terms = {}
        for pol in (SP, SM):
            for ion_u in (M_P, M_M):
                amp = complex(rng.standard_normal(), rng.standard_normal())
                terms[ket(mode(Port.UPPER, Direction.FORWARD, pol), ion_u, M_M)] = amp
        state = PureState(terms)
        out = mirror(state, MirrorId.M2_RIGHT_UPPER)
        assert abs(out.norm() - state.norm()) < 1e-12


class TestDetect:
    @staticmethod
    def eq4_output(alpha, beta, a, b) -> PureState:
        from ionmzi.protocol import IonPairState, evolve_single_pass

        return evolve_single_pass(IonPairState.product(alpha, beta, a, b))

    def test_lower_port_probability_and_post_state(self):
        alpha = beta = a = b = SQRT_HALF
        prob, post = detect(self.eq4_output(alpha, beta, a, b), Port.LOWER)
        assert prob == pytest.approx(0.125, abs=1e-12)
        vac = PhotonMode.vacuum()
        assert post.amplitude(BasisState(vac, M_M, M_P)) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert post.amplitude(BasisState(vac, M_P, M_M)) == pytest.approx(-SQRT_HALF, abs=1e-12)

    def test_general_lower_port_law(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            raw = rng.standard_normal(8)
            alpha, beta = raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]
            norm_u = (abs(alpha) ** 2 + abs(beta) ** 2) ** 0.5
            alpha, beta = alpha / norm_u, beta / norm_u
            a, b = raw[4] + 1j * raw[5], raw[6] + 1j * raw[7]
            norm_l = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
            a, b = a / norm_l, b / norm_l
            expected = 0.25 * (abs(beta * a) ** 2 + abs(alpha * b) ** 2)
            if expected < 1e-9:
                continue
            prob, _ = detect(self.eq4_output(alpha, beta, a, b), Port.LOWER)
            assert prob == pytest.approx(expected, abs=1e-12)

    def test_empty_interferometer_upper_certainty(self):
        state = beam_splitter(
            beam_splitter(photon_only(mode(Port.LOWER)))
        )
        prob, _ = detect(state, Port.UPPER)
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_probability_adds_in_plain_float_order(self):
        # masses 0.5, 2**-54 and 2**-54 at the upper port, in ket order: each small mass ties at half an ulp of 0.5
        # and rounds to even, so a plain sum stays at 0.5; the builtin ``sum`` of Python 3.12 and later gives
        # 0.5 + 2**-53
        state = PureState({
            ket(mode(Port.UPPER), M_P, M_P): 0.5 + 0.5j,  # |0.5 + 0.5j|^2 is 0.5 exactly, unlike SQRT_HALF**2
            ket(mode(Port.UPPER), M_P, M_M): 2.0 ** -27,
            ket(mode(Port.UPPER), M_M, M_P): 2.0 ** -27,
            ket(mode(Port.LOWER), M_M, M_M): 0.5 + 0.5j,
        })
        prob, _ = detect(state, Port.UPPER)
        assert prob == 0.5

    def test_no_support_rejected(self):
        state = beam_splitter(
            beam_splitter(photon_only(mode(Port.LOWER)))
        )
        with pytest.raises(ValueError, match="no support at detector"):
            detect(state, Port.LOWER)

    def test_scattered_terms_never_click(self):
        tangled = PureState(
            {
                ket(mode(Port.UPPER), M_M, M_P): SQRT_HALF,
                ket(PhotonMode.scattered(IonId.ION_U), G, M_P): SQRT_HALF,
            }
        )
        prob, post = detect(tangled, Port.UPPER)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert all(b.photon.kind is ModeKind.VACUUM for b, _ in post.items())

    def test_port_masses_complete(self):
        rng = np.random.default_rng(19)
        from oracles import random_ion_pair
        from ionmzi.protocol import evolve_single_pass

        for _ in range(25):
            final = evolve_single_pass(random_ion_pair(rng))
            total = 0.0
            for port in Port:
                try:
                    prob, _ = detect(final, port)
                except ValueError:
                    prob = 0.0
                total += prob
            scattered = sum(
                abs(ampl) ** 2
                for basis, ampl in final.items()
                if basis.photon.kind is ModeKind.SCATTERED
            )
            assert total + scattered == pytest.approx(1.0, abs=1e-10)
