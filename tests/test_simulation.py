import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risradar import simulation
from risradar.arrays import ALL_SUBCARRIERS, CARRIER_ONLY, SPEED_OF_LIGHT, OfdmParams, RisConfig, steering
from risradar.simulation import (
    InterferenceParams,
    TargetParams,
    TrialDraws,
    draw_trial,
    estimate_target,
    frame_terms,
    trial_grid,
)
from risradar.synthesis import analytic_peak, combine_convolve, normalize_coefficients, notch_config

from oracles import (
    PairDraws,
    draw_pair,
    frame_difference,
    frame_pair,
    full_map_bins,
    full_map_range,
    generate_symbols,
    padded_map,
    range_error_rate,
    velocity_bin_mps,
)

QPSK = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))


# adds exact zeros to the array path, so a frame with it holds the target term alone
SILENT_INTERFERER = InterferenceParams(delay_s=0.0, angle_rad=0.0, amplitude=0.0)


def single_element_terms(params, target, interference=SILENT_INTERFERER, noise_variance=0.0):
    return frame_terms(params, RisConfig([1.0]), target, interference, noise_variance)


def simulated_pair(terms, symbol_seeds, noise_seeds):
    """Frames a and b of c and -c, drawn and built by the two-frame model."""
    return frame_pair(terms, draw_pair(terms, symbol_seeds, noise_seeds))


def received(terms, symbol_seeds, noise_seed):
    """One frame: frame a of a pair whose noise grids both come from `noise_seed`."""
    return simulated_pair(terms, symbol_seeds, (noise_seed, noise_seed))[0]


class TestGenerateSymbols:
    def test_unit_modulus(self, params):
        grid = generate_symbols(params, 0)
        assert np.all(np.abs(np.abs(grid) - 1.0) < 1e-15)
        assert grid.shape == (100, 50)

    def test_deterministic_per_seed(self, params):
        a = generate_symbols(params, 42)
        b = generate_symbols(params, 42)
        np.testing.assert_array_equal(a, b)
        c = generate_symbols(params, 43)
        assert not np.array_equal(a, c)

    def test_constellation_is_uniform_over_a_million_draws(self):
        big = OfdmParams(77e9, 200e6, num_subcarriers=1000, num_symbols=1000)
        values = generate_symbols(big, 7).ravel()
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
        values = generate_symbols(params, seed)
        assert values.dtype == direct.dtype
        assert values.tobytes() == direct.tobytes()


class TestReceivedFrame:
    def test_all_phases_unity(self, params):
        target = TargetParams(range_m=0.0, angle_rad=1.0, velocity_mps=0.0, amplitude=1.0)
        grid = received(single_element_terms(params, target), (1, 0), 0)
        np.testing.assert_allclose(grid, np.ones((100, 50)), atol=1e-12)

    def test_delay_phase_peaks_at_expected_range_bin(self, params):
        # 2*R*B/c = 2*30*200e6/3e8 = 40
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        grid = received(single_element_terms(params, target), (1, 0), 0)
        profile = np.abs(np.fft.ifft(grid, axis=0))
        np.testing.assert_array_equal(np.argmax(profile, axis=0), np.full(50, 40))

    def test_delay_peak_agrees_with_dense_correlation_oracle(self, params):
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        grid = received(single_element_terms(params, target), (1, 0), 0)
        taus = np.linspace(0.0, 60.0, 2401) * 2.0 / SPEED_OF_LIGHT
        n = np.arange(params.num_subcarriers)
        correlation = np.abs(
            np.exp(2j * np.pi * np.outer(taus, n) * params.subcarrier_spacing) @ grid[:, 0]
        )
        best_tau = taus[int(np.argmax(correlation))]
        assert best_tau * SPEED_OF_LIGHT / 2.0 == pytest.approx(30.0, abs=0.05)

    def test_doppler_phase_peaks_at_velocity_bin_one(self, params):
        assert velocity_bin_mps(params) == pytest.approx(SPEED_OF_LIGHT / (2 * 77e9 * 50 * 0.5625e-6), rel=1e-15)
        target = TargetParams(range_m=0.0, angle_rad=1.0, velocity_mps=velocity_bin_mps(params))
        grid = received(single_element_terms(params, target), (1, 0), 0)
        spectrum = np.abs(np.fft.fft(grid, axis=1))
        np.testing.assert_array_equal(np.argmax(spectrum, axis=1), np.full(100, 1))

    def test_linearity_of_target_and_interferer(self, params):
        symbol_seeds = (3, 9)
        target = TargetParams(range_m=12.0, angle_rad=1.1, velocity_mps=4.0, amplitude=0.7 + 0.2j)
        interference = InterferenceParams(delay_s=2e-7, angle_rad=0.8, doppler_scale=1e-8, amplitude=2.0 - 1.0j)
        config = RisConfig(np.exp(1j * np.linspace(0, 1, 4)))
        both = received(frame_terms(params, config, target, interference, 0.0), symbol_seeds, 0)
        target_only = received(frame_terms(params, config, target, SILENT_INTERFERER, 0.0), symbol_seeds, 0)
        silent = TargetParams(range_m=12.0, angle_rad=1.1, velocity_mps=4.0, amplitude=0.0)
        interferer_only = received(frame_terms(params, config, silent, interference, 0.0), symbol_seeds, 0)
        np.testing.assert_allclose(both, target_only + interferer_only, atol=1e-12)

    def test_zero_amplitude_interferer_leaves_the_target_term(self, params):
        target = TargetParams(range_m=12.0, angle_rad=1.1, velocity_mps=4.0, amplitude=0.7 + 0.2j)
        terms = frame_terms(params, RisConfig(np.exp(1j * np.linspace(0, 1, 4))), target, SILENT_INTERFERER, 0.0)
        assert received(terms, (3, 9), 0).tobytes() == terms.target.tobytes()

    @pytest.mark.parametrize("mode", [CARRIER_ONLY, ALL_SUBCARRIERS])
    def test_matches_the_formula_built_here(self, mode):
        # y = g_t * ramp_t + g_i * (d_i / d_r) * ramp_i, with g = a * (b(theta) @ c),
        # written out from the module docstring without frame_terms or _path
        params = OfdmParams(77e9, 200e6, num_subcarriers=24, num_symbols=10)
        coeffs = np.exp(1j * np.linspace(0.0, 2.0, 6)) * np.linspace(1.0, 0.5, 6)
        target = TargetParams(range_m=12.0, angle_rad=1.2, velocity_mps=5.0, amplitude=0.7 + 0.2j)
        interference = InterferenceParams(delay_s=2e-7, angle_rad=0.6, doppler_scale=3e-8, amplitude=2.0 - 1.0j)
        grid = received(frame_terms(params, RisConfig(coeffs), target, interference, 0.0, mode), (9, 3), 0)

        fc, df, symbol_time = params.carrier_freq_hz, params.subcarrier_spacing, params.total_symbol_time
        ratios = None
        if mode == ALL_SUBCARRIERS:
            ratios = np.array([(fc + k * df) / fc for k in range(params.num_subcarriers)])
        n = np.arange(params.num_subcarriers)[:, None]
        m = np.arange(params.num_symbols)[None, :]

        def gain(amplitude, theta):
            return amplitude * np.reshape(steering(coeffs.size, theta, ratios) @ coeffs, (-1, 1))

        def ramp(delay_s, doppler_scale):
            return np.exp(-2j * np.pi * n * df * delay_s) * np.exp(
                2j * np.pi * params.carrier_freq_hz * doppler_scale * m * symbol_time
            )

        d_r, d_i = generate_symbols(params, 9), generate_symbols(params, 3)
        expected = gain(target.amplitude, target.angle_rad) * ramp(target.delay_s, target.doppler_scale)
        expected = expected + gain(interference.amplitude, interference.angle_rad) * (d_i / d_r) * ramp(
            interference.delay_s, interference.doppler_scale
        )
        assert grid.shape == expected.shape
        np.testing.assert_allclose(grid, expected, rtol=1e-12)

    def test_noise_variance(self, params):
        silent = TargetParams(range_m=0.0, angle_rad=1.0, amplitude=0.0)
        grid = received(single_element_terms(params, silent, noise_variance=3.0), (1, 0), 11)
        measured = np.mean(np.abs(grid) ** 2)
        assert measured == pytest.approx(3.0, rel=0.05)

    def test_rejects_bad_shapes_and_ranges(self, params):
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        bad = [
            (TargetParams(range_m=80.0, angle_rad=1.0), 0.0, CARRIER_ONLY, "target range"),  # beyond c/(2 df) = 75 m
            (TargetParams(range_m=-1.0, angle_rad=1.0), 0.0, CARRIER_ONLY, "target range"),
            *((target, variance, CARRIER_ONLY, "noise variance") for variance in (-1.0, np.inf, np.nan)),
            (target, 0.0, "bogus", "subcarrier_mode"),
        ]
        for bad_target, variance, mode, message in bad:
            with pytest.raises(ValueError, match=message):
                frame_terms(params, RisConfig([1.0]), bad_target, SILENT_INTERFERER, variance, mode)


class TestFrameDifference:
    def test_static_term_cancels_exactly(self, params):
        rng = np.random.default_rng(5)
        static = rng.normal(size=(100, 50)) + 1j * rng.normal(size=(100, 50))
        target = TargetParams(range_m=21.0, angle_rad=0.9, velocity_mps=3.0)
        y_a, y_b = simulated_pair(single_element_terms(params, target), (1, 0), (0, 1))
        with_static = frame_difference(y_a + static, y_b + static)
        without = frame_difference(y_a, y_b)
        # (y+s) and (-y+s) each round once, so cancellation is machine-precision
        np.testing.assert_allclose(with_static, without, atol=1e-13)
        huge = frame_difference(y_a + 1e6 * static, y_b + 1e6 * static)
        np.testing.assert_allclose(huge, without, atol=1e-7)

    def test_ris_path_preserved_exactly(self, params):
        target = TargetParams(range_m=21.0, angle_rad=0.9, velocity_mps=3.0)
        interference = InterferenceParams(delay_s=1e-7, angle_rad=0.4, amplitude=3.0)
        terms = single_element_terms(params, target, interference=interference)
        recovered = frame_difference(*simulated_pair(terms, (1, 2), (0, 1)))
        np.testing.assert_array_equal(recovered, received(terms, (1, 2), 0))

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=12)),
        num_elements=st.integers(min_value=1, max_value=16),
        mode=st.sampled_from([CARRIER_ONLY, ALL_SUBCARRIERS]),
        with_interference=st.booleans(),
        variance=st.sampled_from([0.0, 0.5, 2.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_each_frame_equals_simulating_that_frame(
        self, shape, num_elements, mode, with_interference, variance, seed
    ):
        # the pair computes the array path once and negates it for frame b;
        # each frame must still be exactly a full simulation of that frame
        n_sub, n_sym = shape
        params = OfdmParams(77e9, 200e6, num_subcarriers=n_sub, num_symbols=n_sym)
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=num_elements) + 1j * rng.normal(size=num_elements)
        config = RisConfig(coeffs)
        target = TargetParams(
            range_m=rng.uniform(0.0, 0.9 * params.unambiguous_range),
            angle_rad=rng.uniform(0.0, np.pi),
            velocity_mps=rng.normal(scale=5.0),
            amplitude=complex(rng.normal(), rng.normal()),
        )
        interference = SILENT_INTERFERER
        symbol_seeds = (seed, 0)
        if with_interference:
            interference = InterferenceParams(
                delay_s=rng.uniform(0.0, 5e-7),
                angle_rad=rng.uniform(0.0, np.pi),
                doppler_scale=rng.normal(scale=1e-8),
                amplitude=rng.uniform(0.0, 100.0),
            )
            symbol_seeds = (seed, int(rng.integers(2**32)))
        seeds = tuple(int(s) for s in rng.integers(2**32, size=2))

        def terms(frame_config):
            return frame_terms(params, frame_config, target, interference, variance, mode)

        pair_terms = terms(config)
        draws = draw_pair(pair_terms, symbol_seeds, seeds)
        inputs = [
            array
            for array in (draws.ratio, *draws.noise, pair_terms.target, pair_terms.gain_i, pair_terms.ramp_i)
            if array is not None
        ]
        before = [array.tobytes() for array in inputs]
        y_a, y_b = frame_pair(pair_terms, draws)
        # the draws and terms are read-only inputs: a second build from them
        # gives the same bytes, and neither build changed them
        assert [frame.tobytes() for frame in frame_pair(pair_terms, draws)] == [y_a.tobytes(), y_b.tobytes()]
        assert [array.tobytes() for array in inputs] == before
        for frame, frame_config, noise_seed in ((y_a, config, seeds[0]), (y_b, RisConfig(-coeffs), seeds[1])):
            expected = received(terms(frame_config), symbol_seeds, noise_seed)
            assert np.array_equal(frame, expected)
        for array in inputs:
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            draws.ratio = None

    def test_noise_variance_halves(self, params):
        silent = TargetParams(range_m=0.0, angle_rad=1.0, amplitude=0.0)
        sigma2 = 2.0
        samples = []
        for trial in range(2):  # 2 x 5000 = 1e4 noise samples
            terms = single_element_terms(params, silent, noise_variance=sigma2)
            noise_seeds = tuple(int(s) for s in np.random.SeedSequence(trial).generate_state(2))
            samples.append(frame_difference(*simulated_pair(terms, (1, 0), noise_seeds)).ravel())
        measured = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert measured == pytest.approx(sigma2 / 2.0, rel=0.05)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            frame_difference(np.ones((2, 2)), np.ones((2, 3)))

    def test_in_place_difference_is_bitwise_the_fresh_one(self):
        rng = np.random.default_rng(5)
        y_a, y_b = (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)) for _ in range(2))
        fresh = frame_difference(y_a, y_b)
        assert frame_difference(y_a, y_b, out=y_a) is y_a
        assert y_a.tobytes() == fresh.tobytes()
        np.testing.assert_array_equal(frame_difference(np.array([3, 1]), np.array([0, 0])), [1.5, 0.5])


class TestTrialDraw:
    """The one draw of a sweep trial against the two-frame model it replaces."""

    # 200 x 100 = 20000 cells in one draw
    BIG = OfdmParams(77e9, 200e6, num_subcarriers=200, num_symbols=100)
    EXACT_RATIOS = np.array([1, 1j, -1, -1j])

    def terms(self, params, noise_variance, mode=CARRIER_ONLY, interference=SILENT_INTERFERER):
        target = TargetParams(range_m=0.3 * params.unambiguous_range, angle_rad=0.9, velocity_mps=3.0)
        config = RisConfig(np.exp(1j * np.linspace(0.0, 2.0, 5)))
        return frame_terms(params, config, target, interference, noise_variance, mode)

    def test_ratio_cells_are_the_four_exact_values_drawn_uniformly(self):
        ratio = draw_trial(self.terms(self.BIG, 0.0), 7).ratio
        cells = ratio.view(np.int64).reshape(-1, 2)
        exact = self.EXACT_RATIOS.view(np.int64).reshape(-1, 2)
        matches = np.all(cells[:, None, :] == exact[None, :, :], axis=2)
        assert np.all(matches.sum(axis=1) == 1)  # every cell bytewise one exact value
        n = cells.shape[0]
        # each count is Binomial(n, 1/4): within 4.5 of its standard deviations
        assert np.all(np.abs(matches.sum(axis=0) - n / 4) <= 4.5 * np.sqrt(n * 0.25 * 0.75))

    def test_noise_parts_have_a_quarter_of_the_variance_like_the_pair_difference(self):
        sigma2 = 2.0
        terms = self.terms(self.BIG, sigma2)
        noise = draw_trial(terms, 11).noise
        n = noise.size
        # sum of n squared N(0, v) draws over n*v is chi-square(n)/n: mean 1, std sqrt(2/n)
        for part in (noise.real, noise.imag):
            assert abs(np.mean(part**2) / (sigma2 / 4) - 1.0) <= 4.5 * np.sqrt(2.0 / n)
        # |z|^2 over sigma^2/2, for z = n or the noise-only pair difference,
        # is chi-square(2n)/(2n): mean 1, std sqrt(1/n)
        silent_target = TargetParams(range_m=0.0, angle_rad=1.0, amplitude=0.0)
        silent = frame_terms(self.BIG, RisConfig([1.0]), silent_target, SILENT_INTERFERER, sigma2)
        difference = frame_difference(*frame_pair(silent, draw_pair(silent, (1, 0), (3, 4))))
        measured = [np.mean(np.abs(z) ** 2) / (sigma2 / 2) for z in (noise, difference)]
        assert all(abs(m - 1.0) <= 4.5 * np.sqrt(1.0 / n) for m in measured)
        assert abs(measured[0] - measured[1]) <= 4.5 * np.sqrt(2.0 / n)

    def test_zero_variance_draws_no_noise_and_the_grid_is_the_path(self, params):
        terms = self.terms(params, 0.0, interference=InterferenceParams(delay_s=1e-7, angle_rad=0.4, amplitude=3.0))
        draws = draw_trial(terms, 5)
        assert draws.noise is None
        a, b = frame_pair(terms, PairDraws(draws.ratio, (None, None)))
        assert trial_grid(terms, draws).tobytes() == a.tobytes() == (-b).tobytes()

    def test_one_seed_reproduces_the_draw_and_the_draw_is_read_only(self, params):
        terms = self.terms(params, 1.5)
        draws = draw_trial(terms, 42)
        again = draw_trial(terms, 42)
        assert (draws.ratio.tobytes(), draws.noise.tobytes()) == (again.ratio.tobytes(), again.noise.tobytes())
        assert draw_trial(terms, 43).noise.tobytes() != draws.noise.tobytes()
        for array in (draws.ratio, draws.noise):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            draws.noise = None
        assert isinstance(draws, TrialDraws)

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.tuples(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=12)),
        mode=st.sampled_from([CARRIER_ONLY, ALL_SUBCARRIERS]),
        variance=st.sampled_from([0.0, 0.5, 2.0]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_grid_is_the_frame_difference_of_a_pair_with_opposite_noise(self, shape, mode, variance, seed):
        # path + n is bit for bit the difference of frames path + n and -path - n
        params = OfdmParams(77e9, 200e6, num_subcarriers=shape[0], num_symbols=shape[1])
        interference = InterferenceParams(delay_s=2e-7, angle_rad=0.6, doppler_scale=1e-8, amplitude=40.0)
        terms = self.terms(params, variance, mode, interference)
        draws = draw_trial(terms, seed)
        noise = (None, None) if draws.noise is None else (draws.noise, -draws.noise)
        pair = frame_pair(terms, PairDraws(draws.ratio, noise))
        assert trial_grid(terms, draws).tobytes() == frame_difference(*pair).tobytes()


class TestMap:
    """The map the peak search reads, through the oracle `padded_map`."""

    def test_constant_grid_single_peak(self):
        magnitude = np.abs(padded_map(np.ones((100, 50)), 1, 1))
        assert magnitude[0, 0] == pytest.approx(5000.0, rel=1e-12)
        magnitude[0, 0] = 0.0
        assert magnitude.max() < 1e-8

    def test_target_peak_magnitude_and_location(self, params):
        gain = 0.7
        target = TargetParams(range_m=30.0, angle_rad=1.0, amplitude=gain)
        y = received(single_element_terms(params, target), (1, 0), 0)
        bins = full_map_bins(y, 1, 1)
        assert bins == (40, 0)
        assert np.abs(padded_map(y, 1, 1)[bins]) == pytest.approx(5000.0 * gain, rel=1e-9)

    def test_interference_spreads_like_noise(self, params):
        # no bin should exceed 10/sqrt(N*M) of the concentrated level
        silent = TargetParams(range_m=0.0, angle_rad=1.0, amplitude=0.0)
        bound = 10.0 * np.sqrt(5000.0)  # |g_i| = 1 for the single-element config
        exceeded = 0
        for seed in range(200):
            interference = InterferenceParams(delay_s=2e-7, angle_rad=0.5, amplitude=1.0)
            terms = single_element_terms(params, silent, interference=interference)
            if np.abs(padded_map(received(terms, (1000 + seed, seed), 0), 1, 1)).max() > bound:
                exceeded += 1
        assert exceeded <= 2  # 99% of seeds

    def test_parseval_consistency(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(100, 50)) + 1j * rng.normal(size=(100, 50))
        for pads in ((1, 1), (4, 2)):
            values = padded_map(y, *pads)
            energy_map = np.sum(np.abs(values) ** 2) / values.size
            assert energy_map == pytest.approx(np.sum(np.abs(y) ** 2), rel=1e-9)

    def test_zero_padding_scales_bins(self, params):
        assert padded_map(np.ones((100, 50)), 4, 2).shape == (400, 100)
        # 30 m is range bin 40 at 0.75 m and bin 160 at 0.75 / 4 m
        y = received(single_element_terms(params, TargetParams(range_m=30.0, angle_rad=1.0)), (1, 0), 0)
        assert full_map_bins(y, 4, 2) == (160, 0)
        assert estimate_target(y, params, pad_range=4, pad_velocity=2) == 30.0

    def test_rejects_bad_padding(self, params):
        with pytest.raises(ValueError, match="padding factors"):
            estimate_target(np.ones((4, 4)), params, pad_range=0)

    def test_delay_doppler_separability(self, params):
        base = TargetParams(range_m=30.0, angle_rad=1.0, velocity_mps=2 * velocity_bin_mps(params))
        shifted = TargetParams(
            range_m=30.0 + params.range_bin_size, angle_rad=1.0, velocity_mps=2 * velocity_bin_mps(params)
        )
        base_grid = received(single_element_terms(params, base), (1, 0), 0)
        shift_grid = received(single_element_terms(params, shifted), (1, 0), 0)
        assert full_map_bins(base_grid, 1, 1) == (40, 2)
        assert full_map_bins(shift_grid, 1, 1) == (41, 2)


class TestEstimateTarget:
    def test_on_grid_target_zero_error(self, params):
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        estimate = estimate_target(received(single_element_terms(params, target), (1, 0), 0), params)
        assert estimate == 30.0
        assert abs(30.0 - estimate) == 0.0

    def test_tie_breaks_to_lowest_bins(self):
        # two on-grid tones at map cells (3, 1) and (1, 3): every value is a
        # power of 1j, so the 4-point transforms are exact and the tie is too
        small = OfdmParams(77e9, 200e6, num_subcarriers=4, num_symbols=4)
        n, m = np.ogrid[:4, :4]
        y = np.array([1, 1j, -1, -1j])[(m * 1 - n * 3) % 4] + np.array([1, 1j, -1, -1j])[(m * 3 - n * 1) % 4]
        magnitude = np.abs(padded_map(y, 1, 1))
        assert magnitude[3, 1] == magnitude[1, 3] == magnitude.max() == 16.0
        assert full_map_bins(y, 1, 1) == (1, 3)
        assert estimate_target(y, small) == full_map_range(y, small, 1, 1) == small.range_bin_size

    @pytest.mark.parametrize(
        "bad",
        [
            np.nan,
            # inf - inf in the transforms is numpy's "invalid value" warning before the error
            pytest.param(np.inf, marks=pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")),
            complex(np.nan, 1.0),
        ],
    )
    def test_rejects_non_finite_peak(self, bad):
        small = OfdmParams(77e9, 200e6, num_subcarriers=6, num_symbols=6)
        y = np.ones((6, 6), dtype=complex)
        y[3, 2] = bad
        with pytest.raises(ValueError, match="not finite"):
            estimate_target(y, small)

    def test_negative_velocity_wraps(self, params):
        # a velocity of minus one bin lands in the last velocity bin
        target = TargetParams(range_m=15.0, angle_rad=1.0, velocity_mps=-velocity_bin_mps(params))
        y = received(single_element_terms(params, target), (1, 0), 0)
        n_vel = padded_map(y, 1, 1).shape[1]
        range_bin, velocity_bin = full_map_bins(y, 1, 1)
        assert (range_bin, velocity_bin) == (20, n_vel - 1)
        wrapped = (velocity_bin - n_vel) * velocity_bin_mps(params)
        assert wrapped == pytest.approx(-velocity_bin_mps(params), rel=1e-12)
        assert estimate_target(y, params) == 15.0

    def test_interference_at_exact_null_angle(self, params):
        theta_t, theta_i = 2 * np.pi / 5, np.pi / 4
        combined = normalize_coefficients(
            combine_convolve(analytic_peak(theta_t, 200), notch_config(theta_i))
        )
        interference = InterferenceParams(delay_s=3e-7, angle_rad=theta_i, amplitude=10 ** (30.0 / 20.0))
        terms = frame_terms(params, combined, TargetParams(range_m=30.0, angle_rad=theta_t), interference, 0.0)
        y = received(terms, (4, 5), 0)
        assert full_map_bins(y, 1, 1) == (40, 0)
        assert estimate_target(y, params) == full_map_range(y, params, 1, 1) == 30.0


GRID_KINDS = ("noise", "tone", "chirp", "rounded", "zero", "constant", "one cell", "huge", "non-finite")


def search_grid(kind, shape, seed):
    """A received grid of the given kind, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    n_sub, n_sym = shape
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "noise":
        return noise
    if kind == "tone":  # a dominant tone, on the bin grid or off it
        on_grid = rng.integers(0, 2)
        k_range = rng.integers(0, n_sub) + (0.0 if on_grid else rng.uniform())
        k_vel = rng.integers(0, n_sym) + (0.0 if on_grid else rng.uniform())
        n, m = np.ogrid[:n_sub, :n_sym]
        return 0.1 * noise + 5.0 * np.exp(-2j * np.pi * n * k_range / n_sub) * np.exp(2j * np.pi * m * k_vel / n_sym)
    if kind == "chirp":  # the largest bound on a flat-spectrum chirp row, the peak on a weaker constant row
        n, m = np.ogrid[:n_sub, :n_sym]
        k_chirp, k_tone = rng.integers(0, n_sub, size=2)
        chirp = np.exp(-1j * np.pi * m * (m + n_sym % 2) / n_sym)
        return 4.0 * np.exp(-2j * np.pi * n * k_chirp / n_sub) * chirp + 1.9 * np.exp(-2j * np.pi * n * k_tone / n_sub)
    if kind == "rounded":  # small integers: maps with exact ties
        return np.round(noise)
    if kind == "zero":
        return np.zeros(shape, dtype=complex)
    if kind == "constant":
        return np.full(shape, complex(*rng.integers(-3, 4, size=2)))
    if kind == "one cell":
        y = np.zeros(shape, dtype=complex)
        y[rng.integers(0, n_sub), rng.integers(0, n_sym)] = complex(*rng.normal(size=2))
        return y
    if kind == "huge":
        return noise * 1e300
    y = noise  # non-finite
    bad = (np.nan, np.inf, -np.inf, complex(np.nan, 1.0))[rng.integers(0, 4)]
    y[rng.integers(0, n_sub), rng.integers(0, n_sym)] = bad
    return y


def assert_search_reads_the_map(y, params, pad_range, pad_velocity):
    """Each map row the search transforms is, byte for byte, that row of
    `padded_map`, and the search returns the range of the map's peak. The
    map rows are the search's own buffer, read after it has been scaled.
    Returns the number of rows the search transformed."""
    searches = []  # [chosen range rows, their map rows] per velocity transform
    real_peak_rows, real_fft = simulation._peak_rows, np.fft.fft

    def peak_rows(rows, chosen, *args):
        searches.append([chosen.copy(), None])
        return real_peak_rows(rows, chosen, *args)

    def fft(a, *args, out=None, **kwargs):
        if out is not None:
            searches[-1][1] = out
        return real_fft(a, *args, out=out, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_peak_rows", peak_rows)
        patch.setattr(np.fft, "fft", fft)
        estimate = estimate_target(y, params, pad_range, pad_velocity)
    expected = padded_map(y, pad_range, pad_velocity)
    assert searches
    for chosen, values in searches:
        assert values.dtype == expected.dtype
        assert values.tobytes() == expected[chosen].tobytes()
    assert estimate == full_map_range(y, params, pad_range, pad_velocity)
    return sum(chosen.size for chosen, _ in searches)


class TestSearchTransforms:
    """The search's in-place transforms against the two padded transforms
    computed out of place, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=24)),
        pads=st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_in_place_transform_is_bitwise_the_padded_fft_pair(self, shape, pads, seed):
        n_sub, n_sym = shape
        pad_range, pad_velocity = pads
        params = OfdmParams(77e9, 200e6, num_subcarriers=n_sub, num_symbols=n_sym)
        rng = np.random.default_rng(seed)
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = np.fft.ifft(y, n=pad_range * n_sub, axis=0)
        rows = simulation._range_rows(y, pad_range, pad_velocity)
        assert rows.dtype == expected.dtype
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
        assert_search_reads_the_map(y, params, pad_range, pad_velocity)

    @pytest.mark.parametrize("ratio_db", [20.0, 80.0, 100.0])
    def test_equals_an_independent_numpy_composition(self, params, ratio_db):
        # default sweep trials, the analytic peak standing in for the trained one:
        # the interferer 0.02 rad off the notch leaks more as its power grows
        theta_t, theta_i = 2 * np.pi / 5, np.pi / 4
        config = normalize_coefficients(combine_convolve(analytic_peak(theta_t, 200), notch_config(theta_i)))
        target = TargetParams(range_m=30.0, angle_rad=theta_t)
        interference = InterferenceParams(delay_s=3e-7, angle_rad=theta_i + 0.02, amplitude=10.0 ** (ratio_db / 20.0))
        terms = frame_terms(params, config, target, interference, 1.0)
        for seed in range(5):
            assert_search_reads_the_map(trial_grid(terms, draw_trial(terms, seed)), params, 4, 4)

    def test_an_all_row_search_reads_the_map(self, params):
        # the magnitudes of all 400 map rows are taken in one pass: a noise-only
        # grid, and the analytic peak alone at 100 dB, the interferer 0.02 rad off it
        assert assert_search_reads_the_map(search_grid("noise", (100, 50), 0), params, 4, 4) == 400
        theta_t, theta_i = 2 * np.pi / 5, np.pi / 4
        target = TargetParams(range_m=30.0, angle_rad=theta_t)
        interference = InterferenceParams(delay_s=3e-7, angle_rad=theta_i + 0.02, amplitude=10.0**5)
        terms = frame_terms(params, analytic_peak(theta_t, 200), target, interference, 1.0)
        assert assert_search_reads_the_map(trial_grid(terms, draw_trial(terms, 0)), params, 4, 4) == 400


class TestPeakSearch:
    """`estimate_target` transforms only the range rows that can hold the
    map's peak; it must find the peak of the full map, `padded_map`."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(GRID_KINDS),
        shape=st.tuples(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=12)),
        pads=st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_finds_the_full_map_peak(self, kind, shape, pads, seed):
        params = OfdmParams(77e9, 200e6, num_subcarriers=shape[0], num_symbols=shape[1])
        y = search_grid(kind, shape, seed)
        with np.errstate(all="ignore"):
            try:
                expected = full_map_range(y, params, *pads)
            except ValueError:
                with pytest.raises(ValueError, match="not finite"):
                    estimate_target(y, params, *pads)
                return
            assert estimate_target(y, params, *pads) == expected

    @pytest.mark.parametrize(
        "near_row, far_row",
        [
            # the far row's bound is 2 * 7, and its flat spectrum peaks at bin 0
            # with exactly 2 * 3; the near row is a delta, so its peak and its bound
            # are both exactly 2 * 3: below half the largest bound, yet a tie it must win
            ([3, 0, 0, 0, 0, 0], [-1, 1, -1, 1, 2, 1]),
            # the far row is a chirp with a flat spectrum of about 4 * sqrt(12) and
            # a bound of 4 * 12; the constant near row beats it with 1.9 * 12 < 48 / 2
            (np.full(12, 1.9), 4.0 * np.exp(-1j * np.pi * 5 * np.arange(12) ** 2 / 12)),
        ],
        ids=["tie", "win"],
    )
    def test_a_row_below_half_the_largest_bound_can_hold_the_peak(self, near_row, far_row):
        near_row, far_row = np.asarray(near_row, dtype=complex), np.asarray(far_row, dtype=complex)
        y = np.array([near_row + far_row, near_row - far_row])  # range rows 0 and 1: near, far
        small = OfdmParams(77e9, 200e6, num_subcarriers=2, num_symbols=y.shape[1])
        assert full_map_bins(y, 1, 1) == (0, 0)
        assert estimate_target(y, small) == full_map_range(y, small, 1, 1) == 0.0

    def test_ties_in_one_transform_go_to_the_lowest_row(self):
        # one nonzero cell in subcarrier 0: every map row holds the same bits,
        # so every row has the same bound and all are transformed in one call
        small = OfdmParams(77e9, 200e6, num_subcarriers=8, num_symbols=4)
        y = np.zeros((8, 4), dtype=complex)
        y[0, 1] = 1.0 + 1.0j
        assert full_map_bins(y, 1, 1) == (0, 0)
        assert estimate_target(y, small) == full_map_range(y, small, 1, 1) == 0.0

    @pytest.fixture
    def transformed_rows(self, monkeypatch):
        """The range rows each search transforms, in the order it does."""
        rows = []
        real_peak_rows = simulation._peak_rows

        def record(range_rows, chosen, *args):
            rows.extend(chosen.tolist())
            return real_peak_rows(range_rows, chosen, *args)

        monkeypatch.setattr(simulation, "_peak_rows", record)
        return rows

    def test_each_row_is_transformed_at_most_once(self, params, transformed_rows):
        estimate_target(search_grid("noise", (100, 50), 0), params, 4, 4)
        assert len(transformed_rows) == len(set(transformed_rows)) <= 400

    def test_a_dominant_target_needs_few_rows(self, params, transformed_rows):
        target = TargetParams(range_m=30.0, angle_rad=1.0)
        y = received(single_element_terms(params, target, noise_variance=1.0), (1, 0), 0)
        assert estimate_target(y, params, 4, 4) == full_map_range(y, params, 4, 4)
        assert len(transformed_rows) <= 10  # of 400 rows


class TestKeptBuffers:
    """The transforms write into buffers kept for the last grid shape; no call
    may see what an earlier one left in them."""

    @pytest.mark.parametrize("first_kind", ["huge", "non-finite"])
    @pytest.mark.parametrize("seed", range(5))
    def test_a_shape_reached_from_another_grid_keeps_nothing_stale(self, first_kind, seed):
        # 24 subcarriers at range padding 1 and 6 at padding 4 both give 24
        # range rows of 12 symbols; the second grid's padded tail must be zeros
        for kind, n_sub, pad_range in ((first_kind, 24, 1), ("noise", 6, 4), (first_kind, 24, 1), ("noise", 6, 4)):
            params = OfdmParams(77e9, 200e6, num_subcarriers=n_sub, num_symbols=12)
            y = search_grid(kind, (n_sub, 12), seed)
            with np.errstate(all="ignore"):
                if kind == "noise":  # finite: a stale non-finite tail would raise
                    assert_search_reads_the_map(y, params, pad_range, 2)
                    continue
                try:
                    expected = full_map_range(y, params, pad_range, 2)
                except ValueError:
                    with pytest.raises(ValueError, match="not finite"):
                        estimate_target(y, params, pad_range, 2)
                    continue
                assert estimate_target(y, params, pad_range, 2) == expected

    def test_same_shape_calls_reuse_one_buffer_per_role(self, params):
        first = simulation._range_rows(search_grid("noise", (100, 50), 0), 4, 4)
        second = simulation._range_rows(search_grid("noise", (100, 50), 1), 4, 4)
        assert np.shares_memory(first, second)
        estimate_target(search_grid("noise", (100, 50), 2), params, 4, 4)
        kept = simulation._search_buffers((400, 50))
        misses = simulation._search_buffers.cache_info().misses
        estimate_target(search_grid("noise", (100, 50), 3), params, 4, 4)
        assert simulation._search_buffers.cache_info().misses == misses
        assert [np.shares_memory(a, b) for a, b in zip(simulation._search_buffers((400, 50)), kept)] == [True, True]
        assert [buffer.dtype for buffer in kept] == [complex, float]

    def test_a_new_shape_replaces_both_buffers(self, params):
        estimate_target(search_grid("noise", (100, 50), 0), params, 4, 4)
        small = OfdmParams(77e9, 200e6, num_subcarriers=24, num_symbols=12)
        rows = simulation._range_rows(search_grid("noise", (24, 12), 0), 1, 2)
        estimate_target(search_grid("noise", (24, 12), 1), small, 1, 2)
        info = simulation._search_buffers.cache_info()
        assert info.currsize == 1
        kept = simulation._search_buffers((24, 12))
        assert simulation._search_buffers.cache_info().misses == info.misses  # the new shape's pair is the one kept
        assert np.shares_memory(kept[0], rows) and kept[1].shape == (24, 12)
        simulation._search_buffers((400, 50))
        assert simulation._search_buffers.cache_info().misses == info.misses + 1  # the old shape's pair is gone

    def test_a_search_after_the_first_allocates_nothing_grid_sized(self, params):
        # a default grid's range rows (400 x 50) and their magnitudes took
        # 480 KB a call when allocated fresh; freed, they went back to the
        # system, and each bench sweep trial faulted in about 130 fresh pages
        y = search_grid("tone", (100, 50), 0)
        estimate_target(y, params, 4, 4)
        tracemalloc.start()
        try:
            estimate_target(y, params, 4, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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
        interference = InterferenceParams(delay_s=3e-7, angle_rad=theta_i, amplitude=1.0)

        def interference_grid(config):
            return received(frame_terms(params, config, silent, interference, 0.0), (2, 8), 0)

        suppressed = np.abs(interference_grid(combined))
        reference = np.abs(interference_grid(aligned))
        assert np.all(reference > 0.0)
        assert np.all(suppressed <= 1e-4 * reference)


class TestRangeErrorMetric:
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
                terms = frame_terms(
                    small,
                    config,
                    TargetParams(range_m=true_range, angle_rad=theta_t),
                    InterferenceParams(delay_s=3e-7, angle_rad=theta_i, amplitude=10 ** (ratio_db / 20.0)),
                    1.0,
                )
                estimate = estimate_target(received(terms, (s_sym, s_int), s_noise), small, 4, 4)
                errors.append(abs(true_range - estimate))
            means.append(float(np.mean(errors)))
        assert means[0] <= small.range_bin_size
        assert means[-1] > 2.0
        bin_m = small.range_bin_size
        assert all(b >= a - bin_m for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]

    @pytest.mark.parametrize("mode", ["noise", "interferer"])
    def test_error_rate_follows_detection_theory(self, mode):
        """One element on a 32 x 8 grid, unpadded, the target on range bin 5 at
        zero velocity: at cell SINR |g_t|^2 N M / (a^2 |g_i|^2 + sigma^2/2) of
        6, 8 and 10 dB, from noise alone or from the interferer alone, the
        rate of trials whose peak leaves the target's row lies within K
        binomial standard errors of `range_error_rate`."""
        k = 4.0
        trials = 1500
        params = OfdmParams(77e9, 200e6, num_subcarriers=32, num_symbols=8)
        n_m = params.num_subcarriers * params.num_symbols
        true_range = 5 * params.range_bin_size
        target = TargetParams(range_m=true_range, angle_rad=np.pi / 3)
        for level, sinr_db in enumerate((6.0, 8.0, 10.0)):
            sinr = 10 ** (sinr_db / 10)
            amplitude, noise_variance = (0.0, 2 * n_m / sinr) if mode == "noise" else (np.sqrt(n_m / sinr), 0.0)
            # the interferer's delay puts it on range bin 12, off the target's
            interference = InterferenceParams(delay_s=12 / params.bandwidth_hz, angle_rad=np.pi / 4, amplitude=amplitude)
            terms = single_element_terms(params, target, interference, noise_variance)
            errors = sum(
                estimate_target(trial_grid(terms, draw_trial(terms, seed)), params) != true_range
                for seed in range(level * trials, (level + 1) * trials)
            )
            theory = range_error_rate(1.0, 1.0, amplitude, noise_variance, params.num_subcarriers, params.num_symbols)
            standard_error = np.sqrt(theory * (1 - theory) / trials)
            assert abs(errors / trials - theory) <= k * standard_error, (sinr_db, errors / trials, theory)
