"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure fails the corresponding criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from ionmzi.cli import main
from ionmzi.elements import beam_splitter, detect
from ionmzi.protocol import (
    IonPairState,
    bell_psi_minus,
    bell_psi_plus,
    evolve_single_pass,
    ion_pair_pure_state,
    run_mixed,
    single_pass,
)
from ionmzi.recycler import iterate_analytic, iterate_numeric, monte_carlo
from ionmzi.states import (
    Direction,
    IonLevel,
    PhotonMode,
    Polarization,
    Port,
    PureState,
    BasisState,
    ion_fidelity,
)

from oracles import closed_form_final_state, max_amplitude_delta, random_ion_pair


def balanced_product(a2: float) -> IonPairState:
    plus, minus = math.sqrt(a2), math.sqrt(1.0 - a2)
    return IonPairState.product(plus, minus, plus, minus)


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_01_empty_interferometer_calibration():
    photon = PhotonMode.propagating(Port.LOWER, Direction.FORWARD, Polarization.SIGMA_PLUS)
    start = PureState({BasisState(photon, IonLevel.G, IonLevel.G): 1.0})

    def calibration() -> float:
        out = beam_splitter(beam_splitter(start))
        prob, _ = detect(out, Port.UPPER)
        return prob

    calibration()  # warm up
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        prob = calibration()
        timings.append(time.perf_counter() - t0)
    best = min(timings)
    assert abs(prob - 1.0) < 1e-12
    assert best < 1e-3
    report(f"criterion 1: empty-interferometer photon reaches the upper detector with p=1 ({best * 1e6:.0f} us)")


def test_criterion_02_closed_form_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ions = random_ion_pair(rng)
        delta = max_amplitude_delta(evolve_single_pass(ions), closed_form_final_state(ions))
        worst = max(worst, delta)
        assert delta < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        f"criterion 2: 1000 random inputs match the closed form per coefficient "
        f"(worst {worst:.2e}, {elapsed:.2f} s)"
    )


def test_criterion_03_single_pass_success_law():
    for index in range(11):
        a2 = index / 10.0
        result = single_pass(balanced_product(a2))
        assert result.p_detect_lower == pytest.approx(0.5 * a2 * (1.0 - a2), abs=1e-12)
        # the general quarter-law with alpha = a, beta = b
        q = 2.0 * a2 * (1.0 - a2)
        assert result.p_detect_lower == pytest.approx(0.25 * q, abs=1e-12)
        if result.post_detect_lower is not None:
            assert result.post_detect_lower.fidelity(bell_psi_minus()) == pytest.approx(
                1.0, abs=1e-12
            )
    report("criterion 3: lower-detector law (a2 sweep, 11 points) and unit target fidelity")


def test_criterion_04_iterated_totals():
    rng = np.random.default_rng(103)
    for _ in range(25):
        raw = rng.standard_normal(8)
        alpha, beta = complex(raw[0], raw[1]), complex(raw[2], raw[3])
        scale_u = (abs(alpha) ** 2 + abs(beta) ** 2) ** 0.5
        alpha, beta = alpha / scale_u, beta / scale_u
        a, b = complex(raw[4], raw[5]), complex(raw[6], raw[7])
        scale_l = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
        a, b = a / scale_l, b / scale_l
        result = iterate_analytic(IonPairState.product(alpha, beta, a, b))
        q = abs(alpha * b) ** 2 + abs(beta * a) ** 2
        assert result.p_entangled == pytest.approx(q / 3.0, abs=1e-12)
        assert result.p_scattered == pytest.approx(
            0.5 * (abs(alpha) ** 2 + abs(a) ** 2) + q / 6.0, abs=1e-12
        )
        assert result.p_stuck == pytest.approx(abs(beta * b) ** 2, abs=1e-12)

    matched = iterate_analytic(balanced_product(0.7))
    assert matched.p_entangled == pytest.approx(0.14, abs=1e-12)
    assert matched.p_entangled == pytest.approx(2.0 / 3.0 * 0.7 * 0.3, abs=1e-12)

    numeric = iterate_numeric(balanced_product(0.7), max_passes=30)
    assert abs(numeric.p_entangled - matched.p_entangled) < 1e-10
    assert abs(numeric.p_scattered - matched.p_scattered) < 1e-10
    assert abs(numeric.p_stuck - matched.p_stuck) < 1e-10
    report("criterion 4: iterated totals (1/3, 1/2+1/6, stuck) and 30-round numeric agreement")


def test_criterion_05_mixed_state_case():
    psi_minus_target = ion_pair_pure_state(bell_psi_minus())
    psi_plus_target = ion_pair_pure_state(bell_psi_plus())
    for fidelity_in in (0.0, 0.25, 0.5, 0.7, 1.0):
        run = run_mixed(fidelity_in)
        assert run.p_detect_lower == pytest.approx(fidelity_in / 4.0, abs=1e-12)
        iterated = sum(
            weight * iterate_analytic(ions).p_entangled for weight, ions, _ in run.components
        )
        assert iterated == pytest.approx(fidelity_in / 3.0, abs=1e-12)
        if fidelity_in > 0.0:
            assert len(run.post_detect_lower.components) == 1  # pure conditional state
            assert ion_fidelity(run.post_detect_lower, psi_minus_target) == pytest.approx(
                1.0, abs=1e-12
            )
            conditioned = ion_fidelity(run.post_detect_upper, psi_plus_target)
            assert conditioned == pytest.approx(
                fidelity_in / (2.0 - fidelity_in), abs=1e-12
            )
            if fidelity_in < 1.0:
                assert conditioned < fidelity_in
    report("criterion 5: mixed case gives F/4 single pass, F/3 iterated, F/(2-F) garbage branch")


def test_criterion_06_crossover_claim():
    for index in range(101):
        fidelity_in = index / 100.0
        mixed = fidelity_in / 3.0
        product = 2.0 / 3.0 * fidelity_in * (1.0 - fidelity_in)
        if fidelity_in > 0.5:
            assert mixed > product + 1e-12
        elif fidelity_in < 0.5 and fidelity_in > 0.0:
            assert mixed < product - 1e-12 or mixed == pytest.approx(product, abs=1e-12)
        # library values agree with the closed forms
        if index % 10 == 0:
            run = run_mixed(fidelity_in)
            iterated = sum(
                weight * iterate_analytic(ions).p_entangled for weight, ions, _ in run.components
            )
            assert iterated == pytest.approx(mixed, abs=1e-12)
            assert iterate_analytic(balanced_product(fidelity_in)).p_entangled == pytest.approx(
                product, abs=1e-12
            )
    at_half = 0.5 / 3.0
    assert 2.0 / 3.0 * 0.5 * 0.5 == pytest.approx(at_half, abs=1e-12)
    report("criterion 6: iterated mixed beats iterated product exactly for F > 1/2 (101-point grid)")


def test_criterion_07_monte_carlo_consistency():
    ions = balanced_product(0.7)
    analytic = iterate_analytic(ions)
    start = time.perf_counter()

    big = monte_carlo(ions, 1_000_000, seed=42)
    sigma = math.sqrt(0.14 * 0.86 / 1_000_000)
    assert abs(big.p_entangled - 0.14) < 3.0 * sigma

    within = 0
    for seed in range(20):
        sample = monte_carlo(ions, 100_000, seed=seed)
        bound = 2.0 * math.sqrt(analytic.p_entangled * (1.0 - analytic.p_entangled) / 100_000)
        if abs(sample.p_entangled - analytic.p_entangled) <= bound:
            within += 1
    elapsed = time.perf_counter() - start
    assert within >= 18
    assert elapsed < 60.0
    report(
        f"criterion 7: 1e6-trial estimate within 3 sigma, {within}/20 seeds within "
        f"2 sigma ({elapsed:.1f} s)"
    )


def test_criterion_08_throughput_reproduction(capsys):
    code = main(["throughput", "--preset", "paper-mixed"])
    out = capsys.readouterr().out
    assert code == 0
    mixed_report = json.loads(out)
    pairs = mixed_report["results"]["pairs_per_second"]
    assert pairs == pytest.approx(0.7 / 3.0 * 0.01 * 0.7 * 5000.0, abs=1e-9)
    assert pairs == pytest.approx(8.17, abs=0.01)
    assert any("eight pairs" in note for note in mixed_report["notes"])

    code = main(["throughput", "--preset", "paper-product"])
    out = capsys.readouterr().out
    assert code == 0
    product_report = json.loads(out)
    pairs = product_report["results"]["pairs_per_second"]
    assert pairs == pytest.approx(2.0 / 3.0 * 0.21 * 0.01 * 0.7 * 5000.0, abs=1e-9)
    assert pairs == pytest.approx(4.90, abs=0.01)
    assert any("five pairs" in note for note in product_report["notes"])
    with capsys.disabled():
        report("criterion 8: presets reproduce 8.17 and 4.90 pairs/s with rounding notes")


def test_criterion_09_decay_rate_discrepancy_surfaced(capsys):
    code = main(["throughput", "--preset", "paper-cavity"])
    out = capsys.readouterr().out
    assert code == 0
    cavity = json.loads(out)["results"]["cavity"]
    assert cavity["decay_rate_formula_per_s"] == pytest.approx(6.61e7, rel=5e-3)
    assert cavity["decay_rate_quoted_per_s"] == pytest.approx(9.9e6, rel=1e-12)
    labels = cavity["labels"]
    assert "4*pi*c" in labels["decay_rate_formula_per_s"]
    assert "disagrees" in labels["decay_rate_quoted_per_s"]
    with capsys.disabled():
        report("criterion 9: formula decay rate 6.61e7/s and quoted 9.9e6/s both appear, labeled")


def test_criterion_10_conservation_suite():
    rng = np.random.default_rng(107)
    photon_pool = [
        PhotonMode.propagating(port, direction, pol)
        for port in Port
        for direction in Direction
        for pol in Polarization
    ]

    # splitter norm preservation on random photon-ion states
    for _ in range(10_000):
        picks = rng.choice(len(photon_pool), size=2, replace=False)
        terms = {}
        for pick in picks:
            ion_u = IonLevel.M_PLUS if rng.random() < 0.5 else IonLevel.M_MINUS
            ion_l = IonLevel.M_PLUS if rng.random() < 0.5 else IonLevel.M_MINUS
            amp = complex(rng.standard_normal(), rng.standard_normal())
            terms[BasisState(photon_pool[pick], ion_u, ion_l)] = amp
        state = PureState(terms)
        out = beam_splitter(state)
        assert abs(out.norm() - state.norm()) < 1e-12

    # traversal probability completeness and global-phase invariance
    for _ in range(10_000):
        ions = random_ion_pair(rng)
        result = single_pass(ions)
        total = (
            result.p_scatter_u
            + result.p_scatter_l
            + result.p_detect_upper
            + result.p_detect_lower
            + result.p_recycle
        )
        assert abs(total - 1.0) < 1e-10

        phase = complex(math.cos(2.1), math.sin(2.1))
        turned = single_pass(
            IonPairState(ions.c_pp * phase, ions.c_pm * phase, ions.c_mp * phase, ions.c_mm * phase)
        )
        assert abs(turned.p_detect_lower - result.p_detect_lower) < 1e-12
        assert abs(turned.p_detect_upper - result.p_detect_upper) < 1e-12
        assert abs(turned.p_scatter_u - result.p_scatter_u) < 1e-12
        assert abs(turned.p_scatter_l - result.p_scatter_l) < 1e-12
    report("criterion 10: splitter unitarity, completeness and phase invariance on 1e4 random states")
