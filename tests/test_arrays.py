import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risradar.arrays import (
    ALL_SUBCARRIERS,
    CARRIER_ONLY,
    DB_FLOOR,
    SPEED_OF_LIGHT,
    FieldError,
    OfdmParams,
    RisConfig,
    angle_grid,
    angle_grid_deg,
    normalize_pattern_db,
    power_patterns,
    steering,
    subcarrier_ratios,
)


def subcarrier_ratio(params, n):
    """f_n / f_c with f_n = f_c + n * df, one subcarrier at a time."""
    return (params.carrier_freq_hz + n * params.subcarrier_spacing) / params.carrier_freq_hz


def brute_force_steering(num_elements, params, n, theta):
    """Element-by-element oracle straight from the phase definition:
    half-wavelength spacing, phase 2*pi*(d/lambda_n)*l*cos(theta)."""
    lam = SPEED_OF_LIGHT / params.carrier_freq_hz
    lam_n = SPEED_OF_LIGHT / (params.carrier_freq_hz + n * params.subcarrier_spacing)
    out = np.empty(num_elements, dtype=complex)
    for l in range(num_elements):
        phase = -2.0 * np.pi * (0.5 * lam / lam_n) * l * np.cos(theta)
        out[l] = np.exp(1j * phase)
    return out


def brute_force_power(coeffs, params, theta, subcarriers, spacing=0.5):
    """Double loop over (subcarrier, element)."""
    total = 0.0
    for n in subcarriers:
        ratio = subcarrier_ratio(params, n)
        acc = 0.0 + 0.0j
        for l, c in enumerate(coeffs):
            acc += c * np.exp(-2j * np.pi * spacing * ratio * l * np.cos(theta))
        total += abs(acc) ** 2
    return total


class TestOfdmParams:
    def test_derived_quantities(self, params):
        assert params.subcarrier_spacing == 2e6
        assert params.symbol_time == 0.5e-6
        assert params.total_symbol_time == pytest.approx(0.5625e-6, rel=1e-15)
        assert params.range_bin_size == 0.75
        assert params.unambiguous_range == 75.0

    def test_subcarrier_wavelengths(self, params):
        assert subcarrier_ratios(params, CARRIER_ONLY).tolist() == [1.0]
        ratios = subcarrier_ratios(params, ALL_SUBCARRIERS)
        assert ratios[0] == 1.0
        n = 99
        f_n = 77e9 + n * 2e6
        assert ratios[n] == f_n / 77e9

    @pytest.mark.parametrize("num_subcarriers", [1, 7, 32, 100, 4096])
    def test_all_ratios_are_the_per_subcarrier_bits(self, num_subcarriers):
        params = OfdmParams(77e9, 200e6, num_subcarriers, 8)
        loop = np.array([subcarrier_ratio(params, n) for n in range(num_subcarriers)])
        assert subcarrier_ratios(params, ALL_SUBCARRIERS).tobytes() == loop.tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(carrier_freq_hz=0.0),
            dict(bandwidth_hz=-1.0),
            dict(num_subcarriers=0),
            dict(num_symbols=0),
            dict(cp_ratio=1.0),
            dict(cp_ratio=-0.1),
            dict(carrier_freq_hz=float("nan")),
            dict(bandwidth_hz=float("nan")),
            dict(cp_ratio=float("nan")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = dict(carrier_freq_hz=77e9, bandwidth_hz=200e6, num_subcarriers=100, num_symbols=50)
        base.update(kwargs)
        with pytest.raises(FieldError) as excinfo:
            OfdmParams(**base)
        assert [excinfo.value.field] == list(kwargs)


class TestSteeringVector:
    def test_single_element_is_unity(self):
        assert steering(1, 1.234) == pytest.approx([1.0 + 0.0j])

    def test_broadside_two_elements(self, params):
        values = steering(2, np.pi / 2, subcarrier_ratio(params, 57))
        assert values == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_four_elements_at_pi_third(self):
        # cos(pi/3) = 1/2 gives phases exp(-1j*pi*l/2): 1, -j, -1, j
        assert steering(4, np.pi / 3) == pytest.approx([1.0, -1.0j, -1.0, 1.0j], abs=1e-12)

    def test_matches_brute_force(self, params):
        subcarriers = (0, 13, 99)
        thetas = np.array([0.3, 1.1, 2.7])
        ratios = np.array([subcarrier_ratio(params, n) for n in subcarriers])
        values = steering(5, thetas, ratios)
        assert values.shape == (3, 3, 5)
        for i, n in enumerate(subcarriers):
            for j, theta in enumerate(thetas):
                np.testing.assert_allclose(values[i, j], brute_force_steering(5, params, n, theta), atol=1e-12)

    def test_phase_order_is_pinned(self, params):
        # r * ((pi*l) * cos(theta)), bit for bit: training and the simulated
        # gains were recorded with this order
        ratios = np.array([subcarrier_ratio(params, n) for n in range(100)])
        for theta in np.random.default_rng(4).uniform(0.0, np.pi, size=20):
            phase = (np.pi * np.arange(16)) * np.cos(theta)
            np.testing.assert_array_equal(steering(16, theta), np.exp(-1j * phase))
            np.testing.assert_array_equal(steering(16, theta, ratios), np.exp(-1j * np.outer(ratios, phase)))

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(min_value=0.0, max_value=np.pi), n=st.integers(min_value=0, max_value=99))
    def test_unit_magnitude_without_offsets(self, params, theta, n):
        values = steering(16, theta, subcarrier_ratio(params, n))
        assert np.all(np.abs(np.abs(values) - 1.0) < 1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            steering(0, 0.5)
        with pytest.raises(ValueError):
            steering(-1, 0.5)


class TestPatternValue:
    """A pattern value is the kernel times the coefficients: steering(...) @ c."""

    def test_two_element_cancellation(self):
        assert steering(2, np.pi / 2) @ np.array([1, -1]) == pytest.approx(0.0, abs=1e-12)

    def test_two_element_coherent(self):
        assert steering(2, np.pi / 2) @ np.array([1, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_matches_termwise_sum(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
        theta = 1.1
        acc = 0.0 + 0.0j
        for l in range(8):
            acc += coeffs[l] * np.exp(-1j * np.pi * l * np.cos(theta))
        assert steering(8, theta) @ coeffs == pytest.approx(acc, abs=1e-12)

    def test_agrees_with_steering_dot_product(self, params):
        # the batched (R, A, L) kernel equals one evaluation per (ratio, angle)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        ratios = np.array([subcarrier_ratio(params, n) for n in (0, 42)])
        thetas = np.array([0.8, 2.1])
        batch = steering(6, thetas, ratios)
        for i, ratio in enumerate(ratios):
            for j, theta in enumerate(thetas):
                single = steering(6, theta, ratio)
                np.testing.assert_array_equal(batch[i, j], single)
                assert (batch @ coeffs)[i, j] == pytest.approx(np.dot(coeffs, single), abs=1e-12)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            steering(2, np.ones((2, 2)))
        with pytest.raises(ValueError):
            steering(2, 0.5, np.ones((2, 2)))


class TestPowerPattern:
    def test_coherent_broadside_sum(self, params):
        config = RisConfig(np.ones(6))
        value = power_patterns((config,), params, np.pi / 2, CARRIER_ONLY)[0]
        assert value[0] == pytest.approx(6**2, rel=1e-12)  # L^2

    def test_notch_is_null(self, params):
        from risradar.synthesis import notch_config

        theta_n = 0.9
        value = power_patterns((notch_config(theta_n),), params, theta_n, CARRIER_ONLY)[0]
        assert value[0] <= 1e-24

    def test_matches_brute_force_triple_sum(self, params):
        small = OfdmParams(77e9, 200e6, num_subcarriers=3, num_symbols=2)
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        angles = np.array([0.2, 1.0, 2.2])
        fast = power_patterns((RisConfig(coeffs),), small, angles, ALL_SUBCARRIERS)[0]
        slow = [brute_force_power(coeffs, small, theta, range(3)) for theta in angles]
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_all_subcarriers_dominates_each_subcarrier(self, params):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
        angles = angle_grid(181)
        combined = power_patterns((RisConfig(coeffs),), params, angles, ALL_SUBCARRIERS)[0]
        for n in (0, 50, 99):
            single = np.array([brute_force_power(coeffs, params, theta, [n]) for theta in angles])
            assert np.all(combined >= single - 1e-9)

    def test_global_phase_invariance(self, params):
        rng = np.random.default_rng(123)
        coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
        angles = angle_grid(91)
        reference = power_patterns((RisConfig(coeffs),), params, angles, CARRIER_ONLY)[0]
        for psi in rng.uniform(0, 2 * np.pi, size=100):
            rotated = power_patterns((RisConfig(coeffs * np.exp(1j * psi)),), params, angles, CARRIER_ONLY)[0]
            np.testing.assert_allclose(rotated, reference, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=8),
        st.floats(min_value=0.05, max_value=np.pi - 0.05),
    )
    def test_mirror_symmetry_for_real_configs(self, params, values, theta):
        config = RisConfig(np.array(values, dtype=float))
        p1 = power_patterns((config,), params, theta, CARRIER_ONLY)[0][0]
        p2 = power_patterns((config,), params, np.pi - theta, CARRIER_ONLY)[0][0]
        assert p2 == pytest.approx(p1, rel=1e-9, abs=1e-9)

    def test_rejects_empty_grid_and_shape_mismatch(self, params):
        config = RisConfig(np.ones(4))
        with pytest.raises(ValueError):
            power_patterns((config,), params, np.array([]), CARRIER_ONLY)
        with pytest.raises(ValueError):
            power_patterns((config,), params, np.ones((2, 2)), CARRIER_ONLY)
        with pytest.raises(ValueError):
            power_patterns((config,), params, 0.5, "bogus")


# Runs in a fresh interpreter so that the BLAS thread count takes effect.
SLICED_BLOCK_CHECK = """
import sys
import numpy as np
from risradar.arrays import OfdmParams, RisConfig, angle_grid, power_patterns, steering

params = OfdmParams(77e9, 200e6, num_subcarriers=100, num_symbols=50)
rng = np.random.default_rng(7)
configs = [RisConfig(rng.normal(size=n) + 1j * rng.normal(size=n)) for n in (2, 48, 49)]
angles = angle_grid(721)
fc, df = params.carrier_freq_hz, params.subcarrier_spacing
all_ratios = [(fc + n * df) / fc for n in range(params.num_subcarriers)]
for mode, ratios in (("carrier", [None]), ("all", all_ratios)):
    shared = power_patterns(configs, params, angles, mode)
    for config, pattern in zip(configs, shared):
        own = np.zeros(angles.shape)
        for ratio in ratios:
            own += np.abs(steering(config.num_elements, angles, ratio) @ config.coefficients) ** 2
        if pattern.tobytes() != own.tobytes():
            sys.exit(f"{mode} mode, {config.num_elements} elements: bits differ from its own block")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_shared_block_gives_each_configuration_its_own_bits(threads):
    """One steering block serves configurations of 2, 48 and 49 elements;
    each one's leading columns must give the bits of its own block."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.update({name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    run = subprocess.run([sys.executable, "-c", SLICED_BLOCK_CHECK], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


class TestNormalizePatternDb:
    def test_decade_ratio(self):
        np.testing.assert_allclose(normalize_pattern_db([1.0, 10.0]), [-10.0, 0.0], atol=1e-12)

    def test_constant_pattern(self):
        np.testing.assert_allclose(normalize_pattern_db([5.0, 5.0]), [0.0, 0.0])

    def test_exact_zero_maps_to_floor(self):
        # 10*log10(2/4) evaluated at high precision: -3.010299956639812
        out = normalize_pattern_db([4.0, 2.0, 0.0])
        assert out[0] == 0.0
        assert out[1] == pytest.approx(-3.010299956639812, abs=1e-12)
        assert out[2] == -300.0

    def test_zero_maps_to_the_db_floor(self):
        assert normalize_pattern_db([1.0, 0.0])[1] == DB_FLOOR

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            normalize_pattern_db([0.0, 0.0])
        with pytest.raises(ValueError):
            normalize_pattern_db([1.0, -0.5])


class TestRisConfig:
    def test_vector_stays_a_complex_vector(self):
        config = RisConfig([1, 2, 3])
        assert config.num_elements == 3
        assert config.coefficients.shape == (3,)
        assert config.coefficients.dtype == complex
        assert config.static_column() is config.coefficients

    @pytest.mark.parametrize(
        "coefficients",
        [np.ones((2, 1)), np.ones((1, 2)), np.ones((2, 2, 2)), [], np.ones((0, 1)), 1.0],
        ids=["column", "row", "3-d", "empty", "empty-matrix", "scalar"],
    )
    def test_rejects_matrix_and_empty_input(self, coefficients):
        with pytest.raises(ValueError, match="non-empty vector"):
            RisConfig(coefficients)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RisConfig([1.0, np.inf])

    def test_coefficients_are_read_only(self):
        config = RisConfig([1.0, 2.0])
        with pytest.raises(ValueError):
            config.coefficients[0] = 5.0


def test_angle_grid_is_inclusive_quarter_degree():
    deg = angle_grid_deg()
    assert deg.size == 721
    assert deg[0] == 0.0
    assert deg[-1] == 180.0
    assert deg[1] - deg[0] == 0.25
    rad = angle_grid()
    assert rad[0] == 0.0
    assert rad[-1] == pytest.approx(np.pi, rel=1e-15)
