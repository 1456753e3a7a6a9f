import math
import tracemalloc

import numpy as np
import pytest

from ionmzi import recycler
from ionmzi.elements import MirrorId, mirror
from ionmzi.protocol import (
    IonPairState,
    PassResult,
    bell_phi_plus,
    bell_psi_minus,
    bell_psi_plus,
    evolve_single_pass,
    ion_pair_pure_state,
    propagate,
    single_pass,
)
from ionmzi.recycler import (
    iterate_analytic,
    iterate_numeric,
    monte_carlo,
)
from ionmzi.states import ModeKind, PureState

import oracles
from oracles import (
    equal_up_to_global_phase,
    random_ion_pair,
    random_product_amplitudes,
    reference_iterate_numeric,
    reference_lane_constants,
    reference_monte_carlo,
    reference_repack,
    trial_stream_state,
    unmix,
)


def balanced_product(a2: float) -> IonPairState:
    plus, minus = math.sqrt(a2), math.sqrt(1.0 - a2)
    return IonPairState.product(plus, minus, plus, minus)


def product(a2: float, alpha2: float) -> IonPairState:
    """The CLI's unphased product: ``alpha2`` is the upper ion's m+ population, ``a2`` the lower's."""
    return IonPairState.product(math.sqrt(alpha2), math.sqrt(1.0 - alpha2), math.sqrt(a2), math.sqrt(1.0 - a2))


#: The walkers' equivalence grid: balanced products from all-stuck to all-scatter, the two
#: one-sided products, and 20 random phased products.
WALKER_STATES = [
    *(balanced_product(a2) for a2 in (0.0, 0.03, 0.25, 0.5, 0.97, 1.0)),
    product(1.0, 0.0),
    product(0.0, 1.0),
    *(IonPairState.product(*random_product_amplitudes(rng)) for rng in [np.random.default_rng(71)] * 20),
]


def count_single_pass_calls(monkeypatch, module) -> list[int]:
    """Route ``module.single_pass`` through a counter; the returned list grows by one per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return single_pass(*args, **kwargs)

    monkeypatch.setattr(module, "single_pass", counting)
    return calls


class TestIterateAnalytic:
    def test_matched_product_at_point_seven(self):
        result = iterate_analytic(balanced_product(0.7))
        assert result.p_entangled == pytest.approx(2.0 / 3.0 * 0.7 * 0.3, abs=1e-12)
        assert result.p_entangled == pytest.approx(0.14, abs=1e-12)

    def test_product_outcome_totals(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            u_plus, u_minus, l_plus, l_minus = random_product_amplitudes(rng)
            result = iterate_analytic(IonPairState.product(u_plus, u_minus, l_plus, l_minus))
            q = abs(u_plus * l_minus) ** 2 + abs(u_minus * l_plus) ** 2
            assert result.p_entangled == pytest.approx(q / 3.0, abs=1e-12)
            assert result.p_scattered == pytest.approx(
                0.5 * (abs(u_plus) ** 2 + abs(l_plus) ** 2) + q / 6.0, abs=1e-12
            )
            assert result.p_stuck == pytest.approx(abs(u_minus * l_minus) ** 2, abs=1e-12)
            total = result.p_entangled + result.p_scattered + result.p_stuck + result.p_truncated
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_psi_plus_reaches_one_third(self):
        result = iterate_analytic(bell_psi_plus())
        assert result.p_entangled == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.p_stuck == pytest.approx(0.0, abs=1e-15)

    def test_phi_plus_never_succeeds(self):
        result = iterate_analytic(bell_phi_plus())
        assert result.p_entangled == pytest.approx(0.0, abs=1e-15)
        assert result.p_stuck == pytest.approx(0.5, abs=1e-12)
        assert result.p_scattered == pytest.approx(0.5, abs=1e-12)

    def test_distribution_is_quartering_series(self):
        result = iterate_analytic(bell_psi_plus())
        assert result.passes_distribution[1] == pytest.approx(0.25, abs=1e-12)
        assert result.passes_distribution[2] == pytest.approx(0.0625, abs=1e-12)

    def test_post_state_is_target_ray(self):
        result = iterate_analytic(balanced_product(0.7))
        assert result.post_entangled.fidelity(bell_psi_minus()) == pytest.approx(1.0, abs=1e-12)


class TestIterateNumeric:
    def test_agrees_with_analytic(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            ions = random_ion_pair(rng)
            analytic = iterate_analytic(ions)
            numeric = iterate_numeric(ions, max_passes=30)
            assert abs(numeric.p_entangled - analytic.p_entangled) < 1e-10
            assert abs(numeric.p_scattered - analytic.p_scattered) < 1e-10
            assert abs(numeric.p_stuck - analytic.p_stuck) < 1e-10

    def test_geometric_convergence_bound(self):
        ions = balanced_product(0.6)
        analytic = iterate_analytic(ions)
        for max_passes in range(1, 13):
            numeric = iterate_numeric(ions, max_passes=max_passes)
            delta = abs(numeric.p_entangled - analytic.p_entangled)
            assert delta <= 2.0 * 4.0 ** -max_passes + 1e-12

    def test_single_round_matches_single_pass(self):
        ions = balanced_product(0.7)
        result = single_pass(ions, enclosed=True)
        numeric = iterate_numeric(ions, max_passes=1)
        assert numeric.p_entangled == pytest.approx(result.p_detect_lower, abs=1e-15)
        assert numeric.p_scattered == pytest.approx(
            result.p_scatter_u + result.p_scatter_l, abs=1e-15
        )
        assert numeric.p_stuck + numeric.p_truncated == pytest.approx(result.p_recycle, abs=1e-15)

    def test_stuck_input_never_resolves(self):
        result = iterate_numeric(IonPairState(c_mm=1.0))
        assert result.p_stuck == pytest.approx(1.0, abs=1e-12)
        assert result.p_entangled == 0.0
        assert result.passes_distribution == {}

    def test_outcome_total_and_mass_conservation(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            result = iterate_numeric(random_ion_pair(rng))
            total = result.p_entangled + result.p_scattered + result.p_stuck + result.p_truncated
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_per_round_mass_conservation(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            state = random_ion_pair(rng)
            weight = 1.0
            for _ in range(8):
                result = single_pass(state, enclosed=True)
                spent = weight * (
                    result.p_scatter_u + result.p_scatter_l + result.p_detect_lower
                )
                recycled = weight * result.p_recycle
                assert spent + recycled == pytest.approx(weight, abs=1e-10)
                if result.post_recycle is None:
                    break
                weight, state = recycled, result.post_recycle

    def test_per_round_detection_matches_analytic_series(self):
        ions = balanced_product(0.7)
        analytic = iterate_analytic(ions)
        numeric = iterate_numeric(ions)
        for index, probability in numeric.passes_distribution.items():
            assert probability == pytest.approx(analytic.passes_distribution[index], abs=1e-12)

    def test_round_invariant_post_ray(self):
        ions = balanced_product(0.55)
        state = ions
        reference = None
        for _ in range(6):
            result = single_pass(state, enclosed=True)
            if result.post_detect_lower is not None:
                if reference is None:
                    reference = result.post_detect_lower
                else:
                    assert equal_up_to_global_phase(
                        ion_pair_pure_state(result.post_detect_lower),
                        ion_pair_pure_state(reference),
                        tol=1e-9,
                    )
            state = result.post_recycle

    def test_reinject_leaves_nothing_truncated(self):
        ions = balanced_product(0.7)
        # A budget deep enough that the resolvable weight falls below TRUNCATION_EPSILON first.
        result = iterate_numeric(ions, max_passes=4096)
        analytic = iterate_analytic(ions)
        assert result.p_truncated <= 1e-12
        assert result.p_entangled == pytest.approx(analytic.p_entangled, abs=1e-10)
        assert result.p_stuck == pytest.approx(analytic.p_stuck, abs=1e-10)

    def test_truncation_stops_only_below_epsilon(self, monkeypatch):
        """A resolvable weight of exactly ``TRUNCATION_EPSILON`` after round 5 walks on to round 6."""
        ions = balanced_product(0.5)
        weight = 1.0
        for _, _, recycle, _, stuck in recycler._rounds(ions, 5):
            weight *= recycle
        tie = weight * (1.0 - stuck)
        for epsilon, rounds in ((tie, 6), (math.nextafter(tie, 1.0), 5)):
            monkeypatch.setattr(recycler, "TRUNCATION_EPSILON", epsilon)
            calls = count_single_pass_calls(monkeypatch, recycler)
            iterate_numeric(ions)
            assert len(calls) == rounds, epsilon

    def test_stop_reports_unresolved_mass(self):
        ions = balanced_product(0.7)
        result = iterate_numeric(ions, max_passes=2)
        q = 2.0 * 0.7 * 0.3
        assert result.p_truncated == pytest.approx(q / 16.0, abs=1e-12)
        assert result.p_stuck == pytest.approx(0.09, abs=1e-12)

    def test_bad_config_rejected(self):
        ions = balanced_product(0.7)
        with pytest.raises(ValueError, match="max_passes"):
            iterate_numeric(ions, max_passes=0)
        with pytest.raises(ValueError, match="max_passes"):
            monte_carlo(ions, 10, seed=1, max_passes=0)


class TestWalkersMatchReference:
    """Both walkers give the ``repr`` and the ``single_pass`` calls of the reference walkers."""

    @pytest.mark.parametrize("index", range(len(WALKER_STATES)))
    def test_iterate_numeric(self, monkeypatch, index):
        ions = WALKER_STATES[index]
        calls = count_single_pass_calls(monkeypatch, recycler)
        reference_calls = count_single_pass_calls(monkeypatch, oracles)
        for max_passes in range(1, 41):
            assert repr(iterate_numeric(ions, max_passes)) == repr(reference_iterate_numeric(ions, max_passes))
            assert len(calls) == len(reference_calls), max_passes

    @pytest.mark.parametrize("index", range(len(WALKER_STATES)))
    def test_monte_carlo(self, monkeypatch, index):
        ions = WALKER_STATES[index]
        calls = count_single_pass_calls(monkeypatch, recycler)
        reference_calls = count_single_pass_calls(monkeypatch, oracles)
        for trials in (1, 36, 300):
            for seed in (0, 7):
                for max_passes in (1, 2, 3, 5, 17, 30, 40):
                    result = monte_carlo(ions, trials, seed, max_passes)
                    assert repr(result) == repr(reference_monte_carlo(ions, trials, seed, max_passes))
                    assert len(calls) == len(reference_calls), (trials, seed, max_passes)


#: Seeds at the edges of the seed mask: zero, past 32 bits, the top 64-bit value and a negative one.
EDGE_SEEDS = (0, 2**40 + 3, 2**64 - 1, -1)


class TestPackedKernel:
    """The packed kernel matches the per-trial reference across lane-chunk and repacking borders."""

    @staticmethod
    def assert_matches_reference(monkeypatch, ions, trials, seed, max_passes):
        calls = count_single_pass_calls(monkeypatch, recycler)
        reference_calls = count_single_pass_calls(monkeypatch, oracles)
        result = monte_carlo(ions, trials, seed, max_passes)
        assert repr(result) == repr(reference_monte_carlo(ions, trials, seed, max_passes))
        assert len(calls) == len(reference_calls), (trials, seed, max_passes)
        return len(calls)

    @pytest.mark.parametrize("a2", [0.0, 0.03, 0.5, 0.97, 1.0])
    def test_small_chunks(self, monkeypatch, a2):
        """Chunks of 7 lanes: every trial count meets or crosses a chunk border.

        Each case also runs with ``_REPACK`` 1, which repacks a chunk once fewer
        than all of its lanes recycle, that is whenever any lane stops, down to
        a single lane.
        """
        monkeypatch.setattr(recycler, "_CHUNK", 7)
        repacks = []
        repack = recycler._repack

        def counting(streams, active, lanes):
            repacks.append(lanes)
            return repack(streams, active, lanes)

        monkeypatch.setattr(recycler, "_repack", counting)
        for ratio in (recycler._REPACK, 1):
            monkeypatch.setattr(recycler, "_REPACK", ratio)
            for trials in (1, 6, 7, 8, 17):
                for max_passes in (1, 2, 3, 30, 40):
                    for seed in EDGE_SEEDS:
                        self.assert_matches_reference(monkeypatch, balanced_product(a2), trials, seed, max_passes)
        # a2 0 and 1 resolve every lane of a chunk in the same round (all stuck, all scattered)
        assert bool(repacks) == (0.0 < a2 < 1.0)

    @pytest.mark.parametrize("a2, max_passes, first_skipped", [(0.0, 5, 1), (0.0, 64, 1), (0.5, 64, 41)])
    def test_rounds_that_decide_nothing(self, monkeypatch, a2, max_passes, first_skipped):
        """Rounds whose bounds are both 0 draw nothing, yet every later draw and every table read is as before.

        At ``a2`` 0 each round is such a round, so the table ends inside the skipped stretch; at 0.5 the
        stretch starts once the prune has cut the recycled ``c_pm`` and ``c_mp``.  Each runs with the
        module's chunks, and with chunks of 7 lanes repacked at the module's ratio and at 1, so that partial
        chunks and repacked lanes cross the skipped rounds.
        """
        ions = balanced_product(a2)
        decided = [scatter + detect > 0.0 for scatter, detect, *_ in recycler._rounds(ions, max_passes)]
        assert decided.index(False) + 1 == first_skipped and not any(decided[first_skipped - 1 :])
        drawn = [entry[0] for entry in recycler._drawn_rounds(ions, max_passes)]
        assert drawn == [*range(1, first_skipped), max_passes + 1]
        self.assert_matches_reference(monkeypatch, ions, 1, 2**40 + 3, max_passes)
        # with a trial stuck, the walk reads every row of the table, and one single_pass call per row, however
        # many chunks share the table
        for trials in (recycler._CHUNK + 1, 10 * recycler._CHUNK):
            assert self.assert_matches_reference(monkeypatch, ions, trials, 0, max_passes) == max_passes
        monkeypatch.setattr(recycler, "_CHUNK", 7)
        for ratio in (recycler._REPACK, 1):
            monkeypatch.setattr(recycler, "_REPACK", ratio)
            for trials in (6, 17):
                for seed in EDGE_SEEDS:
                    self.assert_matches_reference(monkeypatch, ions, trials, seed, max_passes)

    def test_draws_after_skipped_rounds(self, monkeypatch):
        """In a scripted round table, rounds that decide nothing sit between rounds that do.

        Walked from a real input, such rounds run on to the table's end, where the stuck fraction is 1 and
        no draw is read; here it is 1/4, so each draw after a skipped stretch shows in the counts.
        """
        table = [(0.25, 0.25), (0.0, 0.0), (0.0, 0.0), (0.125, 0.5), (0.0, 0.0)]

        def scripted():
            rows = iter(table)

            def scripted_single_pass(state, enclosed, *, posts=None):
                scatter, detect = next(rows)
                return PassResult(scatter, 0.0, 0.0, detect, 1.0 - scatter - detect, None, state, state, None, None)

            return scripted_single_pass

        ions = balanced_product(0.5)
        monkeypatch.setattr(recycler, "single_pass", scripted())
        # rounds 1 and 4 draw, and the end comes at round 6; the stuck |c_mm|^2 is an ulp above 1/4
        assert list(recycler._drawn_rounds(ions, len(table))) == [
            (1, 2**62, 2**63, ions), (4, 2**61, 5 * 2**61, ions), (6, None, 2**62 + 2**11, ions)
        ]
        for chunk, ratio in ((recycler._CHUNK, recycler._REPACK), (7, recycler._REPACK), (7, 1)):
            monkeypatch.setattr(recycler, "_CHUNK", chunk)
            monkeypatch.setattr(recycler, "_REPACK", ratio)
            for trials, seed in ((17, 0), (300, 2**64 - 1)):
                monkeypatch.setattr(recycler, "single_pass", scripted())
                result = monte_carlo(ions, trials, seed, len(table))
                monkeypatch.setattr(oracles, "single_pass", scripted())
                assert repr(result) == repr(reference_monte_carlo(ions, trials, seed, len(table)))
                assert 0 < result.counts["stuck"] < result.counts["stuck"] + result.counts["truncated"]

    def test_unmix_inverts_mix(self):
        rng = np.random.default_rng(33)
        for value in (0, 1, 2**31, 2**64 - 1, *map(int, rng.integers(0, 2**64, 100, dtype=np.uint64))):
            assert unmix(recycler._mix_lanes(value, recycler._MASK)) == value

    @pytest.mark.parametrize("lanes", [1, 7, 2047, 2048])
    def test_mix_lanes(self, lanes):
        """Each lane of a packed int mixes as one value does: 0 and 2**64 - 1 in the low lanes, then seeded values."""
        rng = np.random.default_rng(lanes)
        values = [0, 2**64 - 1, *map(int, rng.integers(0, 2**64, lanes, dtype=np.uint64))]
        low = recycler._chunk_constants(lanes)[1]
        for start in (0, 1, 2):
            pack = values[start : start + lanes]
            packed = sum(value << 128 * lane for lane, value in enumerate(pack))
            mixed = sum(oracles._mix64(value) << 128 * lane for lane, value in enumerate(pack))
            assert recycler._mix_lanes(packed, low) == mixed

    @pytest.mark.parametrize(
        "draw, outcome",
        [
            (0, "scattered"), (2**24 - 1, "scattered"), (2**24, "entangled"), (2**25 - 1, "entangled"),
            (2**25, None), (2**31 - 1, None), (2**31, None),
        ],
    )
    def test_low_bound_rounds(self, monkeypatch, draw, outcome):
        """In rounds of scatter and detect 2**-40 (bounds 2**24 and 2**25), one chosen trial draws ``draw`` in round 2.

        Another lane's output falls below 2**25 once in 2**39 draws, so only the chosen lane can resolve round 2:
        the exact integer test scatters it below 2**24, heralds it below 2**25 and recycles it from there on.  The
        seed is solved for with ``unmix``, for a trial in the first and in the second chunk of 7 lanes.
        """
        rows = 4

        def scripted(state, enclosed, *, posts=None):
            return PassResult(2.0**-41, 2.0**-41, 0.0, 2.0**-40, 1.0 - 2.0**-39, None, state, state, None, None)

        ions = balanced_product(0.5)
        monkeypatch.setattr(recycler, "single_pass", scripted)
        monkeypatch.setattr(oracles, "single_pass", scripted)
        assert list(recycler._drawn_rounds(ions, rows))[0] == (1, 2**24, 2**25, ions)
        for trial in (3, 12):
            state = unmix(draw) - 2 * recycler._GOLDEN & recycler._MASK  # the trial's stream before its first draw
            seed = unmix(unmix(state) ^ recycler._mix_lanes(trial + 1, recycler._MASK))
            assert trial_stream_state(seed, trial) == state
            for chunk, ratio in ((recycler._CHUNK, recycler._REPACK), (7, 1)):
                monkeypatch.setattr(recycler, "_CHUNK", chunk)
                monkeypatch.setattr(recycler, "_REPACK", ratio)
                result = monte_carlo(ions, 17, seed, rows)
                assert repr(result) == repr(reference_monte_carlo(ions, 17, seed, rows))
                assert result.counts["scattered"] == (outcome == "scattered")
                assert result.passes_distribution == ({2: 1 / 17} if outcome == "entangled" else {})

    @pytest.mark.parametrize("lanes", [1, 7, 2047, 2048])
    def test_repack(self, lanes):
        """One live lane, all lanes but one, and seeded random masks, each packed as lane by lane."""
        rng = np.random.default_rng(lanes)
        streams = sum(int(v) << 128 * lane for lane, v in enumerate(rng.integers(0, 2**64, lanes, dtype=np.uint64)))
        masks = [
            *({lane} for lane in {0, lanes // 2, lanes - 1}),
            *(set(range(lanes)) - {lane} for lane in {0, lanes // 2, lanes - 1}),
            *({lane for lane in range(lanes) if rng.random() < p} for p in (0.1, 0.5, 0.9)),
        ]
        for live in masks:
            active = sum(1 << 128 * lane + 64 for lane in live)
            assert recycler._repack(streams, active, lanes) == reference_repack(streams, active, lanes)

    def test_stuck_input_draws_only_past_the_table(self):
        """At ``a2`` 0 no round can decide a draw, so the table that draws holds only its end."""
        assert list(recycler._drawn_rounds(balanced_product(0.0), 4096)) == [(4097, None, 2**64, None)]

    #: Trial counts at the borders of the module's own chunk size.
    BORDER_TRIALS = (1, recycler._CHUNK - 1, recycler._CHUNK, recycler._CHUNK + 1, 2 * recycler._CHUNK + 3)

    @pytest.mark.parametrize(
        "a2, max_passes, seed",
        [
            (0.0, 2, 2**40 + 3), (0.0, 30, 0), (0.03, 30, -1), (0.03, 1, 2**64 - 1), (0.5, 40, 2**64 - 1),
            (0.5, 3, 2**40 + 3), (0.97, 3, 0), (0.97, 40, -1), (1.0, 1, 0), (1.0, 2, 2**64 - 1),
        ],
    )
    def test_module_chunks(self, monkeypatch, a2, max_passes, seed):
        """Each a2 twice, each pass budget twice and each edge seed at least twice."""
        for trials in self.BORDER_TRIALS:
            self.assert_matches_reference(monkeypatch, balanced_product(a2), trials, seed, max_passes)

    def test_lane_constants_do_not_depend_on_call_order(self, monkeypatch):
        """The lane constants are built once per chunk size: 7 lanes between two runs at the module's size."""
        default = recycler._CHUNK
        for chunk in (default, 7, default):
            monkeypatch.setattr(recycler, "_CHUNK", chunk)
            for trials in (1, chunk + 1, 2 * chunk + 3):
                self.assert_matches_reference(monkeypatch, balanced_product(0.5), trials, 2**40 + 3, 30)

    @pytest.mark.parametrize("lanes", [1, 7, 2047, 2048])
    def test_lane_constants(self, lanes):
        """Built directly or cut from the module's chunk, the constants are those of the division formulas."""
        expected = reference_lane_constants(lanes)
        assert recycler._chunk_constants(lanes) == expected
        assert tuple(recycler._low_lanes(recycler._chunk_constants(recycler._CHUNK), lanes)) == expected

    #: Peak traced allocation of the 200,000-trial run below, 0.42 MB when measured with chunks of
    #: 2048 lanes (2.4x under this budget); one int of 128-bit lanes for all trials is 3.2 MB, and
    #: an unchunked kernel peaked at 41 MB.
    PEAK_BUDGET = 1_000_000

    def test_peak_memory_is_chunked(self):
        ions = balanced_product(0.03)
        monte_carlo(ions, 1, seed=1)  # the single-pass function is generated once, outside the trace
        tracemalloc.start()
        try:
            monte_carlo(ions, 200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BUDGET


#: t = 3 * 2**-53 and 2**52 + 1 ulps below 1, each with its neighbours one ulp away.
_ULP_NEIGHBOURS = [
    math.nextafter(t, direction) for t in (3 * 2.0**-53, (2**52 + 1) * 2.0**-53) for direction in (0.0, 2.0)
]


class TestThreshold:
    """``_threshold(t)`` turns the float test ``draw < t`` into an exact integer test on the 64-bit output."""

    @pytest.mark.parametrize(
        "t",
        [0.0, 5e-324, 2.0**-53, 3 * 2.0**-53, (2**52 + 1) * 2.0**-53, *_ULP_NEIGHBOURS, 1.0 - 2.0**-53, 1.0, 0.7],
    )
    def test_bound_is_exact(self, t):
        bound = recycler._threshold(t)
        assert 0 <= bound <= 2**64
        for m in (bound - 1, bound):
            if 0 <= m < 2**64:
                assert ((m >> 11) * 2.0**-53 < t) == (m < bound), (t, m)

    @pytest.mark.parametrize("t", [1.0, math.nextafter(1.0, 2.0), 2.0, math.inf])
    def test_one_or_more_passes_every_draw(self, t):
        assert recycler._threshold(t) == 2**64  # above the largest output, 2**64 - 1

    @pytest.mark.parametrize("t", [0.0, -0.0, -1.0, -math.inf, math.nan])
    def test_zero_or_less_passes_no_draw(self, t):
        assert recycler._threshold(t) == 0


class TestPhysicalLoopConsistency:
    def test_mirror_loop_reproduces_folded_model(self):
        # drive the actual state through M2, a backward traversal and M1,
        # and compare against the folded per-round model
        ions = balanced_product(0.7)
        forward = single_pass(ions, enclosed=True)

        joint = evolve_single_pass(ions)
        recycled = PureState(
            (b, amp)
            for b, amp in joint.items()
            if b.photon.kind is ModeKind.PROPAGATING and b.photon.port.value == "upper"
        )
        reflected = mirror(recycled, MirrorId.M2_RIGHT_UPPER)
        backward = propagate(reflected)

        # detector for the backward traversal sits at the upper-left port
        upper_mass = sum(
            abs(amp) ** 2
            for b, amp in backward.items()
            if b.photon.kind is ModeKind.PROPAGATING and b.photon.port.value == "upper"
        )
        folded = single_pass(forward.post_recycle, enclosed=True)
        assert upper_mass / forward.p_recycle == pytest.approx(
            folded.p_detect_lower, abs=1e-12
        )
        # and the mirror-port branch heads back to M1 and reflects cleanly
        lower = PureState(
            (b, amp)
            for b, amp in backward.items()
            if b.photon.kind is ModeKind.PROPAGATING and b.photon.port.value == "lower"
        )
        mirror(lower, MirrorId.M1_LEFT_LOWER)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        ions = balanced_product(0.7)
        first = monte_carlo(ions, 2000, seed=42)
        second = monte_carlo(ions, 2000, seed=42)
        assert first == second

    def test_seed_changes_samples(self):
        ions = balanced_product(0.7)
        assert monte_carlo(ions, 2000, seed=1) != monte_carlo(ions, 2000, seed=2)

    def test_single_trial_single_outcome(self):
        result = monte_carlo(balanced_product(0.7), 1, seed=0)
        assert sum(result.counts.values()) == 1
        assert sorted(result.frequencies.values()) == [0.0, 0.0, 0.0, 1.0]

    def test_matches_analytic_within_three_sigma(self):
        ions = balanced_product(0.7)
        trials = 100_000
        result = monte_carlo(ions, trials, seed=7)
        analytic = iterate_analytic(ions)
        for name, expected in (
            ("entangled", analytic.p_entangled),
            ("scattered", analytic.p_scattered),
            ("stuck", analytic.p_stuck),
        ):
            sigma = math.sqrt(expected * (1.0 - expected) / trials)
            assert abs(result.frequencies[name] - expected) < 3.0 * sigma

    def test_stuck_input_classified_stuck(self):
        result = monte_carlo(IonPairState(c_mm=1.0), 50, seed=3)
        assert result.counts["stuck"] == 50

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            monte_carlo(balanced_product(0.5), 0, seed=0)

    def test_stream_states_distinct(self):
        states = {trial_stream_state(42, i) for i in range(10_000)}
        assert len(states) == 10_000

    def test_post_entangled_is_target_ray(self):
        result = monte_carlo(balanced_product(0.7), 100, seed=11)
        assert result.post_entangled.fidelity(bell_psi_minus()) == pytest.approx(1.0, abs=1e-12)

    def test_first_round_detection_frequency(self):
        ions = balanced_product(0.7)
        result = monte_carlo(ions, 200_000, seed=13)
        expected = iterate_analytic(ions).passes_distribution[1]
        sigma = math.sqrt(expected * (1.0 - expected) / 200_000)
        assert abs(result.passes_distribution[1] - expected) < 3.0 * sigma

    # Exact outcomes of monte_carlo(balanced_product(0.03), 500, seed=7) per pass budget.
    BUDGET_OUTCOMES = {
        1: ({"entangled": 8, "scattered": 14, "stuck": 473, "truncated": 5}, {1: 0.016}),
        5: ({"entangled": 10, "scattered": 19, "stuck": 471, "truncated": 0}, {1: 0.016, 2: 0.004}),
        30: ({"entangled": 10, "scattered": 19, "stuck": 471, "truncated": 0}, {1: 0.016, 2: 0.004}),
    }

    @pytest.mark.parametrize("max_passes", [1, 5, 30])
    def test_pass_budget_tabulates_no_extra_round(self, monkeypatch, max_passes):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return single_pass(*args, **kwargs)

        monkeypatch.setattr(recycler, "single_pass", counting)
        result = monte_carlo(balanced_product(0.03), 500, seed=7, max_passes=max_passes)
        assert result.counts["stuck"] + result.counts["truncated"] > 0  # some trials reach the budget
        assert len(calls) == max_passes
        counts, distribution = self.BUDGET_OUTCOMES[max_passes]
        assert result.counts == counts
        assert result.passes_distribution == distribution
        assert {name: getattr(result, f"p_{name}") for name in counts} == result.frequencies

    def test_walk_ends_when_no_state_is_left(self, monkeypatch):
        """At balanced ``a2`` 1 every photon scatters in round 1, so neither walker tabulates round 2."""
        calls = count_single_pass_calls(monkeypatch, recycler)
        ions = balanced_product(1.0)
        assert iterate_numeric(ions).p_scattered == pytest.approx(1.0, abs=1e-12)
        assert len(calls) == 1
        assert monte_carlo(ions, 50, seed=7).counts["scattered"] == 50
        assert len(calls) == 2
        # A trial past the last row would need a draw in the rounding gap below 1, so read the table itself.
        assert [row[2:] for row in recycler._rounds(ions, 30)] == [(0.0, None, 0.0)]
        assert len(calls) == 3
