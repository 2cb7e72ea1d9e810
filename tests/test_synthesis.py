import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risradar.arrays import ALL_SUBCARRIERS, CARRIER_ONLY, FieldError, RisConfig, angle_grid, normalize_pattern_db, power_patterns
from risradar.synthesis import (
    NotchSpec,
    analytic_peak,
    combine_convolve,
    multi_notch,
    normalize_coefficients,
    notch_config,
)


def carrier_pattern(coeffs, theta):
    """Independent summation oracle at the carrier (half-wavelength spacing)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    acc = 0.0 + 0.0j
    for l, c in enumerate(coeffs):
        acc += c * cmath.exp(-1j * np.pi * l * np.cos(theta))
    return acc


class TestAnalyticPeak:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(analytic_peak(np.pi / 2, 3).coefficients, [1, 1, 1], atol=1e-15)

    def test_pi_third_two_elements(self):
        # conjugate of the steering phase exp(-1j*pi*0.5): [1, exp(1j*pi/2)] = [1, j]
        np.testing.assert_allclose(analytic_peak(np.pi / 3, 2).coefficients, [1.0, 1.0j], atol=1e-12)

    @pytest.mark.parametrize("theta", [0.31, 1.0, 2.0 * np.pi / 5.0, 2.9])
    def test_coherent_sum_reaches_element_count(self, theta):
        config = analytic_peak(theta, 200)
        assert abs(carrier_pattern(config.coefficients, theta)) == pytest.approx(200.0, abs=1e-9)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            analytic_peak(1.0, 0)


class TestNotchConfig:
    def test_broadside(self):
        np.testing.assert_allclose(notch_config(np.pi / 2).coefficients, [1.0, -1.0], atol=1e-12)

    def test_pi_third(self):
        # -exp(1j*pi/2) = -j
        np.testing.assert_allclose(notch_config(np.pi / 3).coefficients, [1.0, -1.0j], atol=1e-12)

    def test_pi_quarter_satisfies_null_condition(self):
        config = notch_config(np.pi / 4).coefficients
        expected_c1 = -cmath.exp(1j * np.pi * np.cos(np.pi / 4))
        assert config[1] == pytest.approx(expected_c1, abs=1e-15)
        assert abs(carrier_pattern(config, np.pi / 4)) <= 1e-12

    def test_nulls_fifty_random_angles(self):
        rng = np.random.default_rng(2024)
        for theta_n in rng.uniform(0.0, np.pi, size=50):
            assert abs(carrier_pattern(notch_config(theta_n).coefficients, theta_n)) <= 1e-12

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            notch_config(-0.1)
        with pytest.raises(ValueError):
            notch_config(np.pi + 0.1)


class TestMultiNotch:
    def test_single_notch_reduces_to_notch_config(self):
        spec = NotchSpec(notch_angle_rad=1.0, num_notches=1, spacing_rad=0.5)
        np.testing.assert_array_equal(
            multi_notch(spec).coefficients, notch_config(1.0).coefficients
        )

    def test_zero_spacing_is_fourth_power(self, params):
        theta_n = np.pi / 4
        quad = multi_notch(NotchSpec(theta_n, num_notches=4, spacing_rad=0.0))
        single = notch_config(theta_n)
        assert quad.num_elements == 5
        grid = angle_grid(181)
        p1 = power_patterns((single,), params, grid, CARRIER_ONLY)[0]
        p4 = power_patterns((quad,), params, grid, CARRIER_ONLY)[0]
        # dB null is 4x deeper everywhere: |p|^8 = (|p|^2)^4
        np.testing.assert_allclose(p4, p1**4, rtol=1e-9, atol=1e-12)
        assert abs(carrier_pattern(quad.coefficients, theta_n)) <= 1e-12

    def test_spread_notches_have_distinct_zeros(self):
        theta_n, eps = np.pi / 4, 1e-2
        spec = NotchSpec(theta_n, num_notches=4, spacing_rad=eps)
        config = multi_notch(spec).coefficients
        zeros = spec.notch_angles()
        np.testing.assert_allclose(zeros, theta_n + np.array([-1.5, -0.5, 0.5, 1.5]) * eps)
        for theta in zeros:
            assert abs(carrier_pattern(config, theta)) < 1e-10
        midpoints = (zeros[:-1] + zeros[1:]) / 2.0
        for theta in midpoints:
            assert abs(carrier_pattern(config, theta)) > 1e-8

    def test_rejects_shifted_angle_outside_domain(self):
        with pytest.raises(ValueError):
            multi_notch(NotchSpec(notch_angle_rad=0.01, num_notches=4, spacing_rad=0.1))

    def test_spec_validation(self):
        cases = [
            ((1.0, 0), "num_notches"),
            ((1.0, 1, -1e-3), "spacing_rad"),
            ((1.0, 2, float("nan")), "spacing_rad"),
            ((4.0,), "notch_angle_rad"),
            ((float("nan"),), "notch_angle_rad"),
            ((0.01, 4, 0.1), "spacing_rad"),  # the shifted notches leave [0, pi]
        ]
        for args, field in cases:
            with pytest.raises(FieldError) as excinfo:
                NotchSpec(*args)
            assert excinfo.value.field == field


class TestCombineConvolve:
    def test_identity_element(self):
        out = combine_convolve(RisConfig([1, 1]), RisConfig([1]))
        np.testing.assert_array_equal(out.coefficients, [1, 1])

    def test_direct_convolution(self):
        out = combine_convolve(RisConfig([1, 1]), RisConfig([1, -1]))
        np.testing.assert_array_equal(out.coefficients, [1, 0, -1])

    def test_pattern_is_product_on_dense_grid(self, params):
        rng = np.random.default_rng(99)
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        b = rng.normal(size=7) + 1j * rng.normal(size=7)
        combined = combine_convolve(RisConfig(a), RisConfig(b)).coefficients
        worst = 0.0
        for theta in angle_grid(721):
            product = carrier_pattern(a, theta) * carrier_pattern(b, theta)
            worst = max(worst, abs(carrier_pattern(combined, theta) - product))
        assert worst < 1e-9

    def test_commutative_and_associative_at_pattern_level(self, params):
        rng = np.random.default_rng(4)
        a = RisConfig(rng.normal(size=3) + 1j * rng.normal(size=3))
        b = RisConfig(rng.normal(size=4) + 1j * rng.normal(size=4))
        c = RisConfig(rng.normal(size=5) + 1j * rng.normal(size=5))
        grid = angle_grid(721)
        ab_c = combine_convolve(combine_convolve(a, b), c).coefficients
        ba = combine_convolve(b, a).coefficients
        ab = combine_convolve(a, b).coefficients
        for theta in grid[::10]:
            pa, pb, pc = (carrier_pattern(x.coefficients, theta) for x in (a, b, c))
            assert abs(carrier_pattern(ab, theta) - carrier_pattern(ba, theta)) < 1e-9
            assert abs(carrier_pattern(ab_c, theta) - pa * pb * pc) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
        st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=np.pi),
    )
    def test_pattern_product_property(self, a, b, theta):
        combined = combine_convolve(RisConfig(a), RisConfig(b)).coefficients
        product = carrier_pattern(a, theta) * carrier_pattern(b, theta)
        assert abs(carrier_pattern(combined, theta) - product) < 1e-9


class TestNormalizeCoefficients:
    def test_unit_disk_and_shape_preserved(self, params):
        rng = np.random.default_rng(8)
        config = RisConfig(3.0 * (rng.normal(size=6) + 1j * rng.normal(size=6)))
        scaled = normalize_coefficients(config)
        assert np.abs(scaled.coefficients).max() == pytest.approx(1.0, rel=1e-15)
        grid = angle_grid(181)
        before = normalize_pattern_db(power_patterns((config,), params, grid, CARRIER_ONLY)[0])
        after = normalize_pattern_db(power_patterns((scaled,), params, grid, CARRIER_ONLY)[0])
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_rejects_zero_config(self):
        with pytest.raises(ValueError):
            normalize_coefficients(RisConfig([0.0, 0.0]))


class TestPeakPreservation:
    def test_combined_argmax_stays_at_peak(self, params):
        """Peak location survives the notch when the angles are separated
        by more than two analytic beamwidths (2 * 2/L in cos space).

        Target angles stay in [30, 150] deg: the argmax shift scales like
        1/(separation * sin(theta_t)), so the one-grid-step bound needs
        the lobe not stretched by the cos-space edge compression.
        """
        num_elements = 200
        grid = angle_grid(721)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 25:
            theta_t = rng.uniform(np.pi / 6, 5 * np.pi / 6)
            theta_n = rng.uniform(0.0, np.pi)
            if abs(np.cos(theta_t) - np.cos(theta_n)) <= 4.0 / num_elements:
                continue
            checked += 1
            peak = analytic_peak(theta_t, num_elements)
            combined = combine_convolve(peak, notch_config(theta_n))
            peak_idx = np.argmax(power_patterns((peak,), params, grid, CARRIER_ONLY)[0])
            comb_idx = np.argmax(power_patterns((combined,), params, grid, CARRIER_ONLY)[0])
            assert abs(int(peak_idx) - int(comb_idx)) <= 1


class TestSinr:
    def test_combined_beats_peak_alone(self, params):
        # SINR: all-subcarrier power at theta_t over that at theta_i plus unit noise
        theta_t, theta_i = 2.0 * np.pi / 5.0, np.pi / 4.0
        peak = analytic_peak(theta_t, 200)
        combined = combine_convolve(peak, notch_config(theta_i))
        patterns = power_patterns((peak, combined), params, [theta_t, theta_i], ALL_SUBCARRIERS)
        solo, both = (signal / (interference + 1.0) for signal, interference in patterns)
        assert both > solo
