import math

import numpy as np
import pytest

from ionmzi.efficiency import (
    REFERENCE_POINT,
    SPEED_OF_LIGHT,
    cavity_decay_rate,
    cavity_emission_probability,
    cavity_mode_volume,
    coupling_constant,
    throughput,
)


def reference_params(**overrides) -> dict:
    """Keyword values of the reference operating point, for ``throughput(p, **reference_params())``."""
    values = dict(
        detector_efficiency=REFERENCE_POINT["detector_efficiency"].value,
        photon_rate=REFERENCE_POINT["photon_rate"].value,
        p_cav=REFERENCE_POINT["emission_probability_quoted"].value,
    )
    values.update(overrides)
    return values


class TestCavityDecayRate:
    def test_reference_point_value(self):
        rate = cavity_decay_rate(19000.0, 3e-3)
        assert rate == pytest.approx(4.0 * math.pi * SPEED_OF_LIGHT / 57.0, rel=1e-15)
        assert rate == pytest.approx(6.609e7, rel=1e-3)

    def test_quoted_value_differs_from_formula(self):
        # the reference table keeps the reported 9.9e6/s even though the
        # formula gives 6.609e7/s for the same inputs
        quoted = REFERENCE_POINT["cavity_decay_rate_quoted"]
        assert quoted.value == pytest.approx(9.9e6)
        assert cavity_decay_rate(19000.0, 3e-3) / quoted.value > 6.0
        assert "disagrees" in quoted.label

    def test_inverse_proportionality(self):
        assert cavity_decay_rate(100.0, 0.02) == pytest.approx(
            2.0 * cavity_decay_rate(100.0, 0.04), rel=1e-12
        )
        assert cavity_decay_rate(100.0, 0.02) == pytest.approx(
            2.0 * cavity_decay_rate(200.0, 0.02), rel=1e-12
        )

    def test_large_finesse_limit(self):
        assert cavity_decay_rate(1e12, 1.0) < 1e-2

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            cavity_decay_rate(0.0, 1.0)
        with pytest.raises(ValueError):
            cavity_decay_rate(1.0, -1.0)
        with pytest.raises(ValueError, match="finesse and length must be positive"):
            cavity_decay_rate(math.nan, 3e-3)
        with pytest.raises(ValueError, match="finesse and length must be positive"):
            cavity_decay_rate(19000.0, math.nan)
        with pytest.raises(ValueError, match="length and wavelength must be positive"):
            cavity_mode_volume(math.nan, 393e-9)
        with pytest.raises(ValueError, match="dipole moment must be positive"):
            coupling_constant(math.nan, 393e-9, 3e-3)
        with pytest.raises(ValueError, match="length and wavelength must be positive"):
            coupling_constant(1e-29, math.nan, 3e-3)


class TestCouplingConstant:
    def test_volume_scaling(self):
        # quadrupling the mode volume (doubling the length) halves the coupling
        base = coupling_constant(1e-29, 393e-9, 3e-3)
        assert coupling_constant(1e-29, 393e-9, 6e-3) == pytest.approx(base / 2.0, rel=1e-12)

    def test_linear_in_dipole(self):
        base = coupling_constant(1e-29, 393e-9, 3e-3)
        assert coupling_constant(2e-29, 393e-9, 3e-3) == pytest.approx(2.0 * base, rel=1e-12)

    def test_positive(self):
        assert coupling_constant(1e-29, 393e-9, 3e-3) > 0.0

    def test_mode_volume_and_waist(self):
        assert cavity_mode_volume(3e-3, 393e-9) == pytest.approx(9e-6 * 393e-9 / 4.0, rel=1e-12)


class TestEmissionProbability:
    def test_lossless_limit_is_unity(self):
        assert cavity_emission_probability(1e7, 1e6, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_no_coupling_no_emission(self):
        assert cavity_emission_probability(1e7, 0.0, 1e6) == 0.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            cavity_emission_probability(0.0, 0.0, 0.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            cavity_emission_probability(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_nan_and_infinite_rates_rejected(self, bad, slot):
        rates = [1.0, 1.0, 1.0]
        rates[slot] = bad
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            cavity_emission_probability(*rates)

    def test_bounded_on_random_rates(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            decay, coupling, loss = 10.0 ** rng.uniform(-3, 9, size=3)
            value = cavity_emission_probability(decay, coupling, loss)
            assert 0.0 <= value <= 1.0


class TestThroughput:
    def test_mixed_reference_point(self):
        p_protocol = 0.7 / 3.0
        report = throughput(p_protocol, **reference_params())
        assert report.pairs_per_second == pytest.approx(
            p_protocol * 0.01 * 0.7 * 5000.0, abs=1e-9
        )
        assert report.pairs_per_second == pytest.approx(8.17, abs=0.01)

    def test_product_reference_point(self):
        p_protocol = 2.0 / 3.0 * 0.7 * 0.3
        report = throughput(p_protocol, **reference_params())
        assert report.pairs_per_second == pytest.approx(4.90, abs=0.01)

    def test_total_factorizes(self):
        report = throughput(0.2, **reference_params(outcoupling=0.9))
        assert report.p_total == pytest.approx(0.2 * 0.01 * 0.7 * 0.9, abs=1e-15)

    def test_zero_rate(self):
        report = throughput(0.2, **reference_params(photon_rate=0.0))
        assert report.pairs_per_second == 0.0

    def test_monotone_in_each_factor(self):
        base = throughput(0.2, **reference_params()).pairs_per_second
        assert throughput(0.3, **reference_params()).pairs_per_second >= base
        assert throughput(0.2, **reference_params(p_cav=0.02)).pairs_per_second >= base
        assert throughput(0.2, **reference_params(detector_efficiency=0.9)).pairs_per_second >= base
        assert throughput(0.2, **reference_params(photon_rate=9000.0)).pairs_per_second >= base

    def test_formula_chain_when_no_operating_point(self):
        finesse = REFERENCE_POINT["finesse"].value
        length = REFERENCE_POINT["cavity_length"].value
        wavelength = REFERENCE_POINT["wavelength"].value
        p_cav = cavity_emission_probability(
            cavity_decay_rate(finesse, length), coupling_constant(1e-29, wavelength, length), 1e7
        )
        report = throughput(0.2, **reference_params(p_cav=p_cav))
        assert report.p_cav == p_cav
        assert report.p_total == pytest.approx(0.2 * p_cav * 0.7, rel=1e-12)

    def test_p_protocol_bounds(self):
        with pytest.raises(ValueError):
            throughput(1.2, **reference_params())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            throughput(0.2, **reference_params(detector_efficiency=1.5))
        for key in ("p_cav", "detector_efficiency", "outcoupling"):
            for bad in (-0.1, 1.5, math.nan):
                with pytest.raises(ValueError, match=rf"{key} must lie in \[0, 1\]"):
                    throughput(0.2, **reference_params(**{key: bad}))
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="photon_rate must be nonnegative"):
                throughput(0.2, **reference_params(photon_rate=bad))
        with pytest.raises(ValueError, match="p_protocol must lie in"):
            throughput(math.nan, **reference_params())

    def test_operating_point_is_keyword_only(self):
        with pytest.raises(TypeError):
            throughput(0.2, 0.01, 0.7, 5000.0)
