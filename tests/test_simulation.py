from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risradar import (
    InterferenceParams,
    NoiseParams,
    OfdmParams,
    RadarScenario,
    RisConfig,
    TargetParams,
    analytic_peak,
    combine_convolve,
    estimate_target,
    frame_difference,
    generate_symbols,
    normalize_coefficients,
    notch_config,
    range_error_metric,
    rv_map,
    simulate_frame_pair,
    simulate_received,
)
from risradar.arrays import ALL_SUBCARRIERS, CARRIER_ONLY, SPEED_OF_LIGHT

QPSK = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))


def single_element_scenario(params, target, **kwargs):
    symbols = kwargs.pop("symbols", generate_symbols(params, 1))
    return RadarScenario(params=params, config=RisConfig([1.0]), target=target, symbols=symbols, **kwargs)


class TestGenerateSymbols:
    def test_unit_modulus(self, params):
        grid = generate_symbols(params, 0)
        assert np.all(np.abs(np.abs(grid.values) - 1.0) < 1e-15)
        assert grid.values.shape == (100, 50)

    def test_deterministic_per_seed(self, params):
        a = generate_symbols(params, 42)
        b = generate_symbols(params, 42)
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_symbols(params, 43)
        assert not np.array_equal(a.values, c.values)

    def test_constellation_is_uniform_over_a_million_draws(self):
        big = OfdmParams(77e9, 200e6, num_subcarriers=1000, num_symbols=1000)
        values = generate_symbols(big, 7).values.ravel()
        for point in QPSK:
            frequency = np.mean(np.abs(values - point) < 1e-9)
            assert abs(frequency - 0.25) <= 0.0025  # within 1% of 1/4

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        shape=st.tuples(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64)),
    )
    def test_table_lookup_is_bitwise_the_direct_exp(self, seed, shape):
        params = OfdmParams(77e9, 200e6, num_subcarriers=shape[0], num_symbols=shape[1])
        k = np.random.default_rng(seed).integers(0, 4, size=shape)
        direct = np.exp(1j * (np.pi / 4 + k * np.pi / 2))
        values = generate_symbols(params, seed).values
        assert values.dtype == direct.dtype
        assert values.tobytes() == direct.tobytes()


class TestSimulateReceived:
    def test_all_phases_unity(self, params):
        target = TargetParams(range_m=0.0, angle_rad=1.0, velocity_mps=0.0, amplitude=1.0)
        grid = simulate_received(single_element_scenario(params, target))
        np.testing.assert_allclose(grid, np.ones((100, 50)), atol=1e-12)

    def test_delay_phase_peaks_at_expected_range_bin(self, params):
        # 2*R*B/c = 2*30*200e6/3e8 = 40
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        grid = simulate_received(single_element_scenario(params, target))
        profile = np.abs(np.fft.ifft(grid, axis=0))
        np.testing.assert_array_equal(np.argmax(profile, axis=0), np.full(50, 40))

    def test_delay_peak_agrees_with_dense_correlation_oracle(self, params):
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        grid = simulate_received(single_element_scenario(params, target))
        taus = np.linspace(0.0, 60.0, 2401) * 2.0 / SPEED_OF_LIGHT
        n = np.arange(params.num_subcarriers)
        correlation = np.abs(
            np.exp(2j * np.pi * np.outer(taus, n) * params.subcarrier_spacing) @ grid[:, 0]
        )
        best_tau = taus[int(np.argmax(correlation))]
        assert best_tau * SPEED_OF_LIGHT / 2.0 == pytest.approx(30.0, abs=0.05)

    def test_doppler_phase_peaks_at_velocity_bin_one(self, params):
        target = TargetParams(range_m=0.0, angle_rad=1.0, velocity_mps=params.velocity_bin_size)
        grid = simulate_received(single_element_scenario(params, target))
        spectrum = np.abs(np.fft.fft(grid, axis=1))
        np.testing.assert_array_equal(np.argmax(spectrum, axis=1), np.full(100, 1))

    def test_linearity_of_target_and_interferer(self, params):
        symbols = generate_symbols(params, 3)
        target = TargetParams(range_m=12.0, angle_rad=1.1, velocity_mps=4.0, amplitude=0.7 + 0.2j)
        interference = InterferenceParams(
            delay_s=2e-7, angle_rad=0.8, doppler_scale=1e-8, amplitude=2.0 - 1.0j, symbol_seed=9
        )
        config = RisConfig(np.exp(1j * np.linspace(0, 1, 4)))
        both = simulate_received(
            RadarScenario(params=params, config=config, target=target, symbols=symbols, interference=interference)
        )
        target_only = simulate_received(
            RadarScenario(params=params, config=config, target=target, symbols=symbols)
        )
        silent = TargetParams(range_m=12.0, angle_rad=1.1, velocity_mps=4.0, amplitude=0.0)
        interferer_only = simulate_received(
            RadarScenario(params=params, config=config, target=silent, symbols=symbols, interference=interference)
        )
        np.testing.assert_allclose(both, target_only + interferer_only, atol=1e-12)

    def test_noise_variance(self, params):
        silent = TargetParams(range_m=0.0, angle_rad=1.0, amplitude=0.0)
        grid = simulate_received(
            single_element_scenario(params, silent, noise=NoiseParams(variance=3.0, seed=11))
        )
        measured = np.mean(np.abs(grid) ** 2)
        assert measured == pytest.approx(3.0, rel=0.05)

    def test_per_slot_configuration(self, params):
        # alternating-sign slots flip the received sign symbol by symbol
        coeffs = np.ones((1, params.num_symbols)) * ((-1.0) ** np.arange(params.num_symbols))
        target = TargetParams(range_m=0.0, angle_rad=1.0)
        scenario = RadarScenario(
            params=params, config=RisConfig(coeffs), target=target, symbols=generate_symbols(params, 1)
        )
        grid = simulate_received(scenario)
        np.testing.assert_allclose(grid[:, 0::2], np.ones((100, 25)), atol=1e-12)
        np.testing.assert_allclose(grid[:, 1::2], -np.ones((100, 25)), atol=1e-12)

    def test_rejects_bad_shapes_and_ranges(self, params):
        target = TargetParams(range_m=10.0, angle_rad=1.0)
        with pytest.raises(ValueError):
            simulate_received(
                RadarScenario(
                    params=params,
                    config=RisConfig(np.ones((2, 7))),  # neither 1 nor M slots
                    target=target,
                    symbols=generate_symbols(params, 0),
                )
            )
        far = TargetParams(range_m=80.0, angle_rad=1.0)  # beyond c/(2 df) = 75 m
        with pytest.raises(ValueError):
            simulate_received(single_element_scenario(params, far))
        with pytest.raises(ValueError):
            TargetParams(range_m=-1.0, angle_rad=1.0)
        for variance in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                NoiseParams(variance)


class TestFrameDifference:
    def test_static_term_cancels_exactly(self, params):
        rng = np.random.default_rng(5)
        static = rng.normal(size=(100, 50)) + 1j * rng.normal(size=(100, 50))
        target = TargetParams(range_m=21.0, angle_rad=0.9, velocity_mps=3.0)
        scenario = single_element_scenario(params, target)
        with_static = frame_difference(*simulate_frame_pair(scenario, static_term=static))
        without = frame_difference(*simulate_frame_pair(scenario))
        # (y+s) and (-y+s) each round once, so cancellation is machine-precision
        np.testing.assert_allclose(with_static, without, atol=1e-13)
        huge = frame_difference(*simulate_frame_pair(scenario, static_term=1e6 * static))
        np.testing.assert_allclose(huge, without, atol=1e-7)

    def test_ris_path_preserved_exactly(self, params):
        target = TargetParams(range_m=21.0, angle_rad=0.9, velocity_mps=3.0)
        interference = InterferenceParams(delay_s=1e-7, angle_rad=0.4, amplitude=3.0, symbol_seed=2)
        scenario = single_element_scenario(params, target, interference=interference)
        recovered = frame_difference(*simulate_frame_pair(scenario))
        np.testing.assert_array_equal(recovered, simulate_received(scenario))

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=12)),
        num_elements=st.integers(min_value=1, max_value=16),
        multi_slot=st.booleans(),
        mode=st.sampled_from([CARRIER_ONLY, ALL_SUBCARRIERS]),
        with_interference=st.booleans(),
        with_static=st.booleans(),
        variance=st.sampled_from([None, 0.0, 0.5, 2.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_each_frame_equals_simulating_that_frame(
        self, shape, num_elements, multi_slot, mode, with_interference, with_static, variance, seed
    ):
        # the pair computes the array path once and negates it for frame b;
        # each frame must still be exactly a full simulation of that frame
        n_sub, n_sym = shape
        params = OfdmParams(77e9, 200e6, num_subcarriers=n_sub, num_symbols=n_sym)
        rng = np.random.default_rng(seed)
        slots = n_sym if multi_slot else 1
        config = RisConfig(
            rng.normal(size=(num_elements, slots)) + 1j * rng.normal(size=(num_elements, slots))
        )
        target = TargetParams(
            range_m=rng.uniform(0.0, 0.9 * params.unambiguous_range),
            angle_rad=rng.uniform(0.0, np.pi),
            velocity_mps=rng.normal(scale=5.0),
            amplitude=complex(rng.normal(), rng.normal()),
        )
        interference = None
        if with_interference:
            interference = InterferenceParams(
                delay_s=rng.uniform(0.0, 5e-7),
                angle_rad=rng.uniform(0.0, np.pi),
                doppler_scale=rng.normal(scale=1e-8),
                amplitude=rng.uniform(0.0, 100.0),
                symbol_seed=int(rng.integers(2**32)),
            )
        static = None
        if with_static:
            static = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        seeds = tuple(int(s) for s in rng.integers(2**32, size=2))

        def noise(noise_seed):
            return None if variance is None else NoiseParams(variance, noise_seed)

        scenario = RadarScenario(
            params=params,
            config=config,
            target=target,
            symbols=generate_symbols(params, seed),
            interference=interference,
            noise=noise(0),
            subcarrier_mode=mode,
        )
        y_a, y_b = simulate_frame_pair(scenario, static_term=static, noise_seeds=seeds)
        for frame, frame_config, noise_seed in ((y_a, config, seeds[0]), (y_b, config.negated(), seeds[1])):
            expected = simulate_received(replace(scenario, config=frame_config, noise=noise(noise_seed)))
            if static is not None:
                expected = expected + static
            assert np.array_equal(frame, expected)

    def test_noise_variance_halves(self, params):
        silent = TargetParams(range_m=0.0, angle_rad=1.0, amplitude=0.0)
        sigma2 = 2.0
        samples = []
        for trial in range(2):  # 2 x 5000 = 1e4 noise samples
            scenario = single_element_scenario(params, silent, noise=NoiseParams(sigma2, seed=trial))
            samples.append(frame_difference(*simulate_frame_pair(scenario)).ravel())
        measured = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert measured == pytest.approx(sigma2 / 2.0, rel=0.05)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            frame_difference(np.ones((2, 2)), np.ones((2, 3)))


class TestRvMap:
    def test_constant_grid_single_peak(self, params):
        rv = rv_map(np.ones((100, 50)), params)
        magnitude = np.abs(rv.values)
        assert magnitude[0, 0] == pytest.approx(5000.0, rel=1e-12)
        magnitude[0, 0] = 0.0
        assert magnitude.max() < 1e-8

    def test_target_peak_magnitude_and_location(self, params):
        gain = 0.7
        target = TargetParams(range_m=30.0, angle_rad=1.0, amplitude=gain)
        rv = rv_map(simulate_received(single_element_scenario(params, target)), params)
        estimate = estimate_target(rv)
        assert estimate.exact_bins == (40, 0)
        assert np.sqrt(estimate.peak_power) == pytest.approx(5000.0 * gain, rel=1e-9)

    def test_interference_spreads_like_noise(self, params):
        # no bin should exceed 10/sqrt(N*M) of the concentrated level
        silent = TargetParams(range_m=0.0, angle_rad=1.0, amplitude=0.0)
        bound = 10.0 * np.sqrt(5000.0)  # |g_i| = 1 for the single-element config
        exceeded = 0
        for seed in range(200):
            interference = InterferenceParams(delay_s=2e-7, angle_rad=0.5, amplitude=1.0, symbol_seed=seed)
            scenario = single_element_scenario(
                params, silent, symbols=generate_symbols(params, 1000 + seed), interference=interference
            )
            rv = rv_map(simulate_received(scenario), params)
            if np.abs(rv.values).max() > bound:
                exceeded += 1
        assert exceeded <= 2  # 99% of seeds

    def test_parseval_consistency(self, params):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(100, 50)) + 1j * rng.normal(size=(100, 50))
        for pads in ((1, 1), (4, 2)):
            rv = rv_map(y, params, *pads)
            energy_map = np.sum(np.abs(rv.values) ** 2) / (rv.num_range_bins * rv.num_velocity_bins)
            assert energy_map == pytest.approx(np.sum(np.abs(y) ** 2), rel=1e-9)

    def test_zero_padding_scales_bins(self, params):
        rv = rv_map(np.ones((100, 50)), params, pad_range=4, pad_velocity=2)
        assert rv.values.shape == (400, 100)
        assert rv.range_bin_m == params.range_bin_size / 4
        assert rv.velocity_bin_mps == params.velocity_bin_size / 2

    def test_rejects_bad_padding(self, params):
        with pytest.raises(ValueError):
            rv_map(np.ones((4, 4)), params, pad_range=0)

    def test_delay_doppler_separability(self, params):
        base = TargetParams(range_m=30.0, angle_rad=1.0, velocity_mps=2 * params.velocity_bin_size)
        shifted = TargetParams(
            range_m=30.0 + params.range_bin_size, angle_rad=1.0, velocity_mps=2 * params.velocity_bin_size
        )
        bins_base = estimate_target(rv_map(simulate_received(single_element_scenario(params, base)), params)).exact_bins
        bins_shift = estimate_target(
            rv_map(simulate_received(single_element_scenario(params, shifted)), params)
        ).exact_bins
        assert bins_base == (40, 2)
        assert bins_shift == (41, 2)


class TestEstimateTarget:
    def test_on_grid_target_zero_error(self, params):
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        rv = rv_map(simulate_received(single_element_scenario(params, target)), params)
        estimate = estimate_target(rv)
        assert estimate.range_m == 30.0
        assert range_error_metric(30.0, estimate.range_m) == 0.0

    def test_tie_breaks_to_lowest_bins(self, params):
        from risradar.simulation import RvMap

        values = np.zeros((6, 6), dtype=complex)
        values[4, 1] = 2.0
        values[2, 5] = 2.0
        rv = RvMap(values=values, range_bin_m=1.0, velocity_bin_mps=1.0, pad_range=1, pad_velocity=1)
        assert estimate_target(rv).exact_bins == (2, 5)

    def test_negative_velocity_wraps(self, params):
        target = TargetParams(range_m=15.0, angle_rad=1.0, velocity_mps=-params.velocity_bin_size)
        rv = rv_map(simulate_received(single_element_scenario(params, target)), params)
        estimate = estimate_target(rv)
        assert estimate.velocity_mps == pytest.approx(-params.velocity_bin_size, rel=1e-12)

    def test_interference_at_exact_null_angle(self, params):
        theta_t, theta_i = 2 * np.pi / 5, np.pi / 4
        combined = normalize_coefficients(
            combine_convolve(analytic_peak(theta_t, 200), notch_config(theta_i))
        )
        interference = InterferenceParams(
            delay_s=3e-7, angle_rad=theta_i, amplitude=10 ** (30.0 / 20.0), symbol_seed=5
        )
        scenario = RadarScenario(
            params=params,
            config=combined,
            target=TargetParams(range_m=30.0, angle_rad=theta_t),
            symbols=generate_symbols(params, 4),
            interference=interference,
        )
        estimate = estimate_target(rv_map(simulate_received(scenario), params))
        assert estimate.exact_bins == (40, 0)
        assert estimate.range_m == 30.0


class TestNullSuppression:
    def test_interference_term_suppressed_below_minus_80_db(self, params):
        """Combined peak*notch config versus a config phase-aligned to the
        interferer: every grid cell at least 80 dB (1e-4 amplitude) down."""
        theta_t, theta_i = 2 * np.pi / 5, np.pi / 4
        combined = normalize_coefficients(
            combine_convolve(analytic_peak(theta_t, 200), notch_config(theta_i))
        )
        aligned = analytic_peak(theta_i, combined.num_elements)
        silent = TargetParams(range_m=0.0, angle_rad=theta_t, amplitude=0.0)
        interference = InterferenceParams(delay_s=3e-7, angle_rad=theta_i, amplitude=1.0, symbol_seed=8)
        symbols = generate_symbols(params, 2)

        def interference_grid(config):
            scenario = RadarScenario(
                params=params, config=config, target=silent, symbols=symbols, interference=interference
            )
            return simulate_received(scenario)

        suppressed = np.abs(interference_grid(combined))
        reference = np.abs(interference_grid(aligned))
        assert np.all(reference > 0.0)
        assert np.all(suppressed <= 1e-4 * reference)


class TestRangeErrorMetric:
    def test_exact_match(self):
        assert range_error_metric(30.0, 30.0) == 0.0

    def test_one_bin(self):
        assert range_error_metric(30.0, 30.75) == pytest.approx(0.75, abs=1e-15)

    def test_error_grows_with_interference_power(self):
        """High-leakage setup (no notch, small grid): mean error over 100
        seeds climbs with the interference-to-target power ratio."""
        small = OfdmParams(77e9, 200e6, num_subcarriers=32, num_symbols=8)
        theta_t, theta_i = 2 * np.pi / 5, np.pi / 4
        config = analytic_peak(theta_t, 16)
        true_range = 9.75
        means = []
        for ratio_db in (20.0, 40.0, 60.0, 80.0):
            errors = []
            for seed in range(100):
                seq = np.random.SeedSequence([int(ratio_db), seed])
                s_sym, s_int, s_noise = (int(v) for v in seq.generate_state(3))
                scenario = RadarScenario(
                    params=small,
                    config=config,
                    target=TargetParams(range_m=true_range, angle_rad=theta_t),
                    symbols=generate_symbols(small, s_sym),
                    interference=InterferenceParams(
                        delay_s=3e-7, angle_rad=theta_i, amplitude=10 ** (ratio_db / 20.0), symbol_seed=s_int
                    ),
                    noise=NoiseParams(1.0, s_noise),
                )
                estimate = estimate_target(rv_map(simulate_received(scenario), small, 4, 4))
                errors.append(range_error_metric(true_range, estimate.range_m))
            means.append(float(np.mean(errors)))
        assert means[0] <= small.range_bin_size
        assert means[-1] > 2.0
        bin_m = small.range_bin_size
        assert all(b >= a - bin_m for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]
