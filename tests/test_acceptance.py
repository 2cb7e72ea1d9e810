"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see
them live). Criteria 3, 4, and 6 share the session-trained default
network, whose wall time counts against their runtime budgets.
"""

import time

import numpy as np
import pytest

from risradar.arrays import (
    ALL_SUBCARRIERS,
    CARRIER_ONLY,
    RisConfig,
    angle_grid,
    angle_grid_deg,
    normalize_pattern_db,
    power_patterns,
    steering,
)
from risradar.cli import main as cli_main
from risradar.experiments import notch_specs, run_interference_sweep, run_multinotch_study
from risradar.scenario import default_scenario
from risradar.simulation import InterferenceParams, TargetParams, estimate_target, frame_terms
from risradar.synthesis import (
    PeakNetSpec,
    PeakNetwork,
    analytic_peak,
    combine_convolve,
    normalize_coefficients,
    notch_config,
)

from oracles import draw_pair, frame_difference, frame_pair, padded_map


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_combined(default_training):
    scenario = default_scenario()
    return normalize_coefficients(
        combine_convolve(default_training.config, notch_config(scenario.interferer_angle_rad))
    )


def test_criterion_1_convolution_pattern_product():
    start = time.monotonic()
    rng = np.random.default_rng(2718)
    omega = np.pi * np.cos(angle_grid(721))
    worst = 0.0
    for _ in range(100):
        len_a, len_b = rng.integers(1, 17, size=2)
        a = rng.normal(size=len_a) + 1j * rng.normal(size=len_a)
        b = rng.normal(size=len_b) + 1j * rng.normal(size=len_b)
        conv = combine_convolve(RisConfig(a), RisConfig(b)).coefficients
        p_a = np.exp(-1j * np.outer(omega, np.arange(len_a))) @ a
        p_b = np.exp(-1j * np.outer(omega, np.arange(len_b))) @ b
        p_conv = np.exp(-1j * np.outer(omega, np.arange(conv.size))) @ conv
        worst = max(worst, float(np.max(np.abs(p_conv - p_a * p_b))))
    elapsed = time.monotonic() - start
    announce(
        "criterion 1 (convolution pattern product, 100 pairs x 721 angles)",
        worst < 1e-9 and elapsed < 2.0,
        f"max |pattern(a*b) - pattern(a)pattern(b)| = {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_null_exactness(params):
    start = time.monotonic()
    rng = np.random.default_rng(31415)
    worst_null = 0.0
    for theta_n in rng.uniform(0.0, np.pi, size=50):
        value = steering(2, theta_n) @ notch_config(theta_n).coefficients
        worst_null = max(worst_null, abs(value))

    scenario = default_scenario()
    combined = normalize_coefficients(
        combine_convolve(
            analytic_peak(scenario.target_angle_rad, scenario.num_peak_elements),
            notch_config(scenario.interferer_angle_rad),
        )
    )
    grid = angle_grid(721)
    pattern = power_patterns((combined,), params, grid, ALL_SUBCARRIERS)[0]
    at_interferer = power_patterns((combined,), params, scenario.interferer_angle_rad, ALL_SUBCARRIERS)[0][0]
    null_db = 10.0 * np.log10(at_interferer / pattern.max())
    elapsed = time.monotonic() - start
    announce(
        "criterion 2 (null exactness, carrier + all-subcarrier modes)",
        worst_null <= 1e-12 and null_db <= -40.0 and elapsed < 5.0,
        f"max carrier null = {worst_null:.3e}, all-subcarrier level = {null_db:.1f} dB, {elapsed:.2f}s",
    )


def test_criterion_3_peak_training_and_gradient(default_training):
    start = time.monotonic()
    net = PeakNetwork(4, PeakNetSpec(num_layers=3, hidden_width=8, init_seed=3))
    theta = 1.1
    _, bp_w, bp_b = net.loss_and_gradients(theta)
    step = 1e-5
    worst_rel = 0.0
    for k in range(len(net.weights)):
        for params_array, grads in ((net.weights[k], bp_w[k]), (net.biases[k], bp_b[k])):
            it = np.nditer(params_array, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                params_array[idx] += step
                up = net.loss(theta)
                params_array[idx] -= 2 * step
                down = net.loss(theta)
                params_array[idx] += step
                fd = (up - down) / (2 * step)
                denom = max(abs(fd), abs(grads[idx]), 1e-10)
                worst_rel = max(worst_rel, abs(fd - grads[idx]) / denom)
    elapsed = time.monotonic() - start + default_training.wall_time_s
    announce(
        "criterion 3 (trained gain ratio >= 0.9; gradient check < 1e-4)",
        default_training.gain_ratio >= 0.9 and worst_rel < 1e-4 and elapsed < 60.0,
        f"gain = {default_training.gain_ratio:.4f}, grad rel err = {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_combined_pattern_figure(params, default_training, default_combined):
    start = time.monotonic()
    grid_deg = angle_grid_deg(721)
    pattern = normalize_pattern_db(power_patterns((default_combined,), params, angle_grid(721), CARRIER_ONLY)[0])
    argmax_deg = float(grid_deg[int(np.argmax(pattern))])
    at_45 = float(pattern[int(np.argmin(np.abs(grid_deg - 45.0)))])
    elapsed = time.monotonic() - start + default_training.wall_time_s
    announce(
        "criterion 4 (combined pattern: argmax at 72 deg, floor at 45 deg)",
        abs(argmax_deg - 72.0) <= 0.25 and at_45 <= -60.0 and elapsed < 60.0,
        f"argmax = {argmax_deg} deg, level(45 deg) = {at_45:.1f} dB, {elapsed:.1f}s",
    )


def test_criterion_5_range_pipeline_exactness(params):
    start = time.monotonic()
    target = TargetParams(range_m=30.0, angle_rad=1.0)
    silent = InterferenceParams(delay_s=0.0, angle_rad=0.0, amplitude=0.0)  # adds exact zeros
    terms = frame_terms(params, RisConfig([1.0]), target, silent, 0.0)
    grid, _ = frame_pair(terms, draw_pair(terms, (1, 0), (0, 0)))
    values = padded_map(grid, 1, 1)
    bins = tuple(int(b) for b in np.unravel_index(np.argmax(np.abs(values)), values.shape))
    error = abs(30.0 - estimate_target(grid, params))
    energy_map = np.sum(np.abs(values) ** 2) / values.size
    parseval_rel = abs(energy_map - np.sum(np.abs(grid) ** 2)) / np.sum(np.abs(grid) ** 2)
    elapsed = time.monotonic() - start
    announce(
        "criterion 5 (on-grid 30 m target: bin 40, zero error, Parseval)",
        bins == (40, 0) and error == 0.0 and parseval_rel < 1e-9 and elapsed < 1.0,
        f"bins = {bins}, error = {error} m, parseval rel = {parseval_rel:.1e}, {elapsed:.2f}s",
    )


def test_criterion_6_interference_sweep_trends(default_combined):
    start = time.monotonic()
    scenario = default_scenario()
    result = run_interference_sweep(scenario, config=default_combined)
    bin_m = result.range_bin_m
    by_offset = {}
    for point in result.points:
        by_offset.setdefault(point.angle_offset_rad, []).append(
            (point.power_ratio_db, point.mean_range_error_m)
        )

    at_null = [m for r, m in by_offset[0.0] if r <= 30.0]
    cond_a = all(m <= bin_m for m in at_null)

    series_b = sorted(by_offset[0.01])
    means_b = [m for _, m in series_b]
    cond_b = all(later >= earlier - bin_m for earlier, later in zip(means_b, means_b[1:]))

    at_30 = {}
    for point in result.points:
        if point.power_ratio_db == 30.0:
            at_30.setdefault(abs(point.angle_offset_rad), []).append(point.mean_range_error_m)
    series_c = [float(np.mean(v)) for _, v in sorted(at_30.items())]
    cond_c = all(later >= earlier for earlier, later in zip(series_c, series_c[1:]))

    elapsed = time.monotonic() - start
    announce(
        "criterion 6 (sweep trends: null-protected, monotone in power and |offset|)",
        cond_a and cond_b and cond_c and elapsed < 300.0,
        f"max@delta0 = {max(at_null):.3f} m, delta=0.01 means = {means_b}, |delta| means = {series_c}, {elapsed:.1f}s",
    )


def test_criterion_7_multinotch_tradeoff(tmp_path):
    start = time.monotonic()
    scenario = default_scenario()
    result = run_multinotch_study(
        scenario, tmp_path, notch_specs(scenario, (0.0, 1e-3, 1e-2)), None
    )
    widths = [entry.bandwidth_rad for entry in result.entries]
    depths = [entry.min_inband_suppression_db for entry in result.entries]
    ordered = widths[2] > widths[1] > widths[0] and depths[2] < depths[1] < depths[0]
    elapsed = time.monotonic() - start
    announce(
        "criterion 7 (multi-notch: wider band, shallower in-band suppression)",
        ordered and elapsed < 300.0,
        f"bandwidths = {[f'{w:.6f}' for w in widths]} rad, suppressions = {[f'{d:.1f}' for d in depths]} dB, {elapsed:.1f}s",
    )


def test_criterion_8_frame_difference_cancellation(params):
    start = time.monotonic()
    rng = np.random.default_rng(6)
    static = 10.0 * (rng.normal(size=(100, 50)) + 1j * rng.normal(size=(100, 50)))
    target = TargetParams(range_m=18.0, angle_rad=1.2, velocity_mps=5.0)
    interference = InterferenceParams(delay_s=2e-7, angle_rad=0.6, amplitude=2.0)
    terms = frame_terms(params, RisConfig(np.exp(1j * np.linspace(0.0, 2.0, 8))), target, interference, 0.0)
    expected, _ = frame_pair(terms, draw_pair(terms, (9, 3), (0, 0)))
    y_a, y_b = frame_pair(terms, draw_pair(terms, (9, 3), (0, 1)))
    clean = frame_difference(y_a, y_b)
    with_static = frame_difference(y_a + static, y_b + static)
    exact = np.array_equal(clean, expected)
    residual = float(np.max(np.abs(with_static - expected)))
    elapsed = time.monotonic() - start
    announce(
        "criterion 8 (frame difference: static removed, array path preserved)",
        exact and residual < 1e-12 and elapsed < 1.0,
        f"path preserved exactly = {exact}, static residual = {residual:.2e}, {elapsed:.2f}s",
    )


def test_criterion_9_full_run_determinism(tmp_path):
    start = time.monotonic()
    runs = []
    for tag, extra in (("seq", []), ("par", ["--workers", "2"]), ("rerun", [])):
        out = tmp_path / tag
        assert cli_main(["sweep", "--out", str(out)] + extra) == 0
        runs.append(out)
    names = ("sweep.csv", "sweep_records.csv", "scenario_used.txt")
    identical = all(
        (runs[0] / name).read_bytes() == (other / name).read_bytes()
        for other in runs[1:]
        for name in names
    )
    elapsed = time.monotonic() - start
    announce(
        "criterion 9 (default run byte-identical across reruns and workers)",
        identical,
        f"3 runs compared on {', '.join(names)}, {elapsed:.1f}s",
    )
