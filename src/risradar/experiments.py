"""End-to-end studies driven by a Scenario.

* pattern study: peak / notch / combined beampatterns plus their
  argmax-and-null metrics,
* interference sweep: range-error statistics over a grid of
  interference-to-target power ratios and interferer-angle offsets,
* multi-notch study: widened notches for a list of spacings, with
  suppression-bandwidth and in-band-suppression metrics (and error sweeps
  when it is handed a trained peak),
* report: aggregate whatever studies an output directory holds into one
  pass/fail summary.

Sweep grid points are independent: each trial's one seed derives from
(master_seed, ratio index, offset index, trial index) through one
SeedSequence rule, so results do not depend on execution order or the
number of workers. The seed does not depend on the configuration, so a
point sweeps every configuration of a study on one draw per trial.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import (
    CARRIER_ONLY,
    DB_FLOOR,
    GRID_POINTS,
    FieldError,
    RisConfig,
    angle_grid,
    angle_grid_deg,
    normalize_pattern_db,
    power_patterns,
    steering,
)
from .fileio import (
    read_keyvals,
    read_multinotch_summary,
    read_sweep_file,
    write_keyvals,
    write_lines,
    write_multinotch_summary,
    write_pattern_table,
    write_peak_records,
    write_sweep_table,
)
from .scenario import Scenario, ScenarioError
from .simulation import (
    FrameTerms,
    InterferenceParams,
    TargetParams,
    TrialDraws,
    draw_trial,
    estimate_target,
    frame_terms,
    trial_grid,
)
from .synthesis import (
    NotchSpec,
    TrainingResult,
    combine_convolve,
    multi_notch,
    normalize_coefficients,
    train_peak_network,
)

SUPPRESSION_THRESHOLD_DB = -30.0


# ---------------------------------------------------------------------------
# configuration synthesis shared by the studies


def train_peak(scenario: Scenario) -> TrainingResult:
    """The scenario's peak network, trained for its target angle."""
    return train_peak_network(scenario.target_angle_rad, scenario.num_peak_elements, scenario.network_spec())


@dataclass
class SynthesisBundle:
    notch: RisConfig
    combined: RisConfig


def _combined(peak: RisConfig, notch: RisConfig) -> RisConfig:
    """The peak convolved with the notch, rescaled into the unit disk."""
    return normalize_coefficients(combine_convolve(peak, notch))


def synthesize_configs(scenario: Scenario, training: TrainingResult) -> SynthesisBundle:
    """Build the scenario's notch and its combination with the trained peak."""
    notch = multi_notch(scenario.notch_spec())
    return SynthesisBundle(notch=notch, combined=_combined(training.config, notch))


# ---------------------------------------------------------------------------
# pattern study


@dataclass
class PatternStudyResult:
    peak_path: Path
    notch_path: Path
    combined_path: Path
    metrics_path: Path
    argmax_deg: float
    combined_db_at_interferer: float
    gain_ratio: float


def run_pattern_study(
    scenario: Scenario,
    out_dir,
    training: TrainingResult,
    subcarrier_mode: str = CARRIER_ONLY,
    grid_points: int = GRID_POINTS,
) -> PatternStudyResult:
    """Emit normalized dB patterns for the trained peak, the notch, and
    their combination over the angle grid, plus a metrics file."""
    out_dir = Path(out_dir)
    params = scenario.ofdm_params()
    bundle = synthesize_configs(scenario, training)
    grid_deg = angle_grid_deg(grid_points)
    grid_rad = angle_grid(grid_points)

    configs = (training.config, bundle.notch, bundle.combined)
    linear = power_patterns(configs, params, grid_rad, subcarrier_mode)
    patterns = dict(zip(("peak", "notch", "combined"), map(normalize_pattern_db, linear)))

    peak_path = write_pattern_table(out_dir / "pattern_peak.csv", grid_deg, patterns["peak"])
    notch_path = write_pattern_table(out_dir / "pattern_notch.csv", grid_deg, patterns["notch"])
    combined_path = write_pattern_table(out_dir / "pattern_combined.csv", grid_deg, patterns["combined"])

    argmax_deg = float(grid_deg[int(np.argmax(patterns["combined"]))])
    interferer_idx = int(np.argmin(np.abs(grid_rad - scenario.interferer_angle_rad)))
    db_at_interferer = float(patterns["combined"][interferer_idx])
    metrics = {
        "target_angle_deg": float(np.degrees(scenario.target_angle_rad)),
        "interferer_angle_deg": float(np.degrees(scenario.interferer_angle_rad)),
        "combined_argmax_deg": argmax_deg,
        "combined_db_at_interferer": db_at_interferer,
        "peak_gain_ratio": training.gain_ratio,
        "grid_points": grid_points,
        "subcarrier_mode": subcarrier_mode,
    }
    metrics_path = write_keyvals(out_dir / "pattern_metrics.txt", metrics)
    return PatternStudyResult(
        peak_path=peak_path,
        notch_path=notch_path,
        combined_path=combined_path,
        metrics_path=metrics_path,
        argmax_deg=argmax_deg,
        combined_db_at_interferer=db_at_interferer,
        gain_ratio=training.gain_ratio,
    )


# ---------------------------------------------------------------------------
# interference sweep


@dataclass(frozen=True)
class SweepPoint:
    power_ratio_db: float
    angle_offset_rad: float
    mean_range_error_m: float
    std_range_error_m: float
    trials: int


@dataclass
class SweepResult:
    points: list[SweepPoint]
    records: list[tuple[int, float, float, float]]
    interferer_angle_rad: float
    range_bin_m: float


def trial_seeds(master_seed: int, ratio_idx: int, offset_idx: int, trial: int) -> int:
    """Fixed splitting rule: the one seed of a trial's generator, which the
    records keep, is the first word of the state of the SeedSequence of
    (master seed, ratio index, offset index, trial)."""
    seq = np.random.SeedSequence([int(master_seed), int(ratio_idx), int(offset_idx), int(trial)])
    return int(seq.generate_state(1)[0])


def _point_terms(
    scenario: Scenario, config: RisConfig, power_ratio_db: float, angle_offset_rad: float, subcarrier_mode: str
) -> FrameTerms:
    """The frame terms of one sweep point, which all of its trials share."""
    target = TargetParams(
        range_m=scenario.target_range_m,
        angle_rad=scenario.target_angle_rad,
        velocity_mps=scenario.target_velocity_mps,
    )
    interference = InterferenceParams(
        delay_s=scenario.interferer_delay_s,
        angle_rad=scenario.interferer_angle_rad + angle_offset_rad,
        doppler_scale=scenario.interferer_doppler_scale,
        amplitude=10.0 ** (power_ratio_db / 20.0),
    )
    return frame_terms(scenario.ofdm_params(), config, target, interference, scenario.noise_variance, subcarrier_mode)


def _range_error(scenario: Scenario, terms: FrameTerms, draws: TrialDraws) -> float:
    """A trial's absolute range error in metres: the peak search on the grid
    that the trial's draws give the point's terms."""
    grid = trial_grid(terms, draws)
    return abs(scenario.target_range_m - estimate_target(grid, terms.params, scenario.pad_range, scenario.pad_velocity))


def run_trial(
    scenario: Scenario,
    config: RisConfig,
    power_ratio_db: float,
    angle_offset_rad: float,
    seed: int,
    subcarrier_mode: str = CARRIER_ONLY,
) -> float:
    """One simulated measurement replayed from its seed; returns the absolute
    range error in meters, the one a sweep records for that trial."""
    terms = _point_terms(scenario, config, power_ratio_db, angle_offset_rad, subcarrier_mode)
    return _range_error(scenario, terms, draw_trial(terms, seed))


def _point_errors(
    scenario: Scenario, configs: tuple[RisConfig, ...], subcarrier_mode: str, point
) -> tuple[list[int], np.ndarray]:
    """The trial seeds and the (configurations, trials) range errors of one
    grid point ((ratio index, ratio), (offset index, offset)). Each trial
    draws once, and every configuration reads those draws."""
    (ratio_idx, ratio_db), (offset_idx, offset_rad) = point
    point_terms = [_point_terms(scenario, config, ratio_db, offset_rad, subcarrier_mode) for config in configs]
    seeds = [trial_seeds(scenario.master_seed, ratio_idx, offset_idx, trial) for trial in range(scenario.trials)]
    errors = np.empty((len(configs), scenario.trials))
    for trial, seed in enumerate(seeds):
        draws = draw_trial(point_terms[0], seed)
        for k, terms in enumerate(point_terms):
            errors[k, trial] = _range_error(scenario, terms, draws)
    return seeds, errors


def _map_points(work, points: list, workers: int) -> list:
    """`work` over the points, in order; a pool's workers take them in
    chunks, about four a worker, so few messages go out yet none idles long.
    A pool forks all its workers at once, so it gets no more than the points."""
    workers = min(workers, len(points))
    if workers <= 1:
        return [work(point) for point in points]
    chunksize = max(1, math.ceil(len(points) / (4 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, points, chunksize=chunksize))


def _sweep_results(scenario: Scenario, configs, subcarrier_mode: str, workers: int) -> list[SweepResult]:
    """One `SweepResult` per configuration, all swept on one pass over the
    grid points, in (ratio, offset) order. A pool gets the scenario and the
    configurations once a chunk, bound into the work, not once a point."""
    configs = tuple(configs)
    if not configs:
        return []
    points = list(
        itertools.product(enumerate(sorted(scenario.power_ratios_db)), enumerate(sorted(scenario.angle_offsets_rad)))
    )
    outcomes = _map_points(functools.partial(_point_errors, scenario, configs, subcarrier_mode), points, workers)
    range_bin_m = scenario.ofdm_params().range_bin_size
    results = [SweepResult([], [], scenario.interferer_angle_rad, range_bin_m) for _ in configs]
    for ((_, ratio_db), (_, offset_rad)), (seeds, errors) in zip(points, outcomes):
        angle = float(scenario.interferer_angle_rad + offset_rad)
        for result, config_errors in zip(results, errors):
            result.points.append(
                SweepPoint(
                    power_ratio_db=float(ratio_db),
                    angle_offset_rad=float(offset_rad),
                    mean_range_error_m=float(np.mean(config_errors)),
                    std_range_error_m=float(np.std(config_errors, ddof=1)) if scenario.trials > 1 else 0.0,
                    trials=scenario.trials,
                )
            )
            result.records.extend((seed, float(ratio_db), angle, float(error)) for seed, error in zip(seeds, config_errors))
    return results


def run_interference_sweep(
    scenario: Scenario, config: RisConfig, subcarrier_mode: str = CARRIER_ONLY, workers: int = 1
) -> SweepResult:
    """Range-error statistics of `config` over (power ratio, interferer-angle offset).

    Every grid point runs `scenario.trials` fresh-symbol, fresh-noise
    measurements of the frame difference, each drawn from its own seed.
    Results are sorted by (ratio, offset) and identical for any worker
    count; `write_sweep_files` writes them.
    """
    return _sweep_results(scenario, (config,), subcarrier_mode, workers)[0]


def write_sweep_files(result: SweepResult, out_dir: Path, stem: str = "sweep") -> tuple[Path, Path]:
    comments = (
        "error_statistic=mean_over_trials",
        "spread_statistic=sample_std_ddof1",
        f"interferer_angle_rad={float(result.interferer_angle_rad)!r}",
        f"range_bin_m={float(result.range_bin_m)!r}",
    )
    table = write_sweep_table(out_dir / f"{stem}.csv", result.points, comments)
    records = write_peak_records(out_dir / f"{stem}_records.csv", result.records)
    return table, records


# ---------------------------------------------------------------------------
# multi-notch study


SPACINGS = (0.0, 1e-3, 1e-2)  # the study's default notch spacings (rad)


def _carrier_power(column: np.ndarray, thetas) -> np.ndarray:
    return np.abs(steering(column.size, np.atleast_1d(thetas)) @ column) ** 2


def _unit_circle_angles(coefficients: np.ndarray) -> np.ndarray:
    """Angles in [0, pi] of the unit-circle roots of sum_k coefficients[k] z^k, z = exp(-1j*pi*cos(theta))."""
    roots = np.roots(coefficients[::-1])
    roots = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
    return np.arccos(np.clip(-np.angle(roots) / np.pi, -1.0, 1.0))


def carrier_peak(column: np.ndarray) -> float:
    """Maximum of the carrier pattern sum_k r_k z^k (r the column's autocorrelation): its largest value
    at the unit-circle roots of the derivative's coefficients k * r_k, a circle that [0, pi] covers."""
    lags = np.arange(1 - column.size, column.size)
    return float(_carrier_power(column, _unit_circle_angles(lags * np.correlate(column, column, "full"))).max())


def suppression_band(column: np.ndarray, center_rad: float, peak: float) -> tuple[float, float]:
    """Contiguous angle span around `center_rad` where the carrier pattern
    stays below SUPPRESSION_THRESHOLD_DB relative to `peak`. On each side, the
    nearest unit-circle root of the pattern's polynomial less the threshold,
    pushed 1e-7 rad outward, brackets the edge, which is then bisected from
    the center; a side with no such root extends to 0 or pi."""
    threshold = peak * 10.0 ** (SUPPRESSION_THRESHOLD_DB / 10.0)

    def above(theta: float) -> bool:
        return _carrier_power(column, theta)[0] >= threshold

    if above(center_rad):
        return (center_rad, center_rad)

    def find_edge(outside: float) -> float:
        inside = center_rad
        for _ in range(80):
            mid = 0.5 * (inside + outside)
            if above(mid):
                outside = mid
            else:
                inside = mid
        return 0.5 * (inside + outside)

    shifted = np.correlate(column, column, "full")
    shifted[column.size - 1] -= threshold  # lag 0
    crossings = _unit_circle_angles(shifted)
    left, right = crossings[crossings < center_rad], crossings[crossings > center_rad]
    low = find_edge(max(left.max() - 1e-7, 0.0)) if left.size else 0.0
    high = find_edge(min(right.min() + 1e-7, np.pi)) if right.size else float(np.pi)
    return (low, high)


def min_inband_suppression_db(column: np.ndarray, center_rad: float, peak: float, spacing_rad: float, num_notches: int) -> float:
    """Worst-case suppression (positive dB, capped at 300) relative to
    `peak` over the span between the outermost notch angles around
    `center_rad`; at zero spacing, the depth at the center itself."""
    half_span = (num_notches - 1) / 2.0 * spacing_rad
    if half_span == 0.0:
        worst = _carrier_power(column, center_rad)[0]
    else:
        span = np.linspace(center_rad - half_span, center_rad + half_span, 4001)
        worst = _carrier_power(column, span).max()
    if worst == 0.0:
        return -DB_FLOOR
    return float(min(-10.0 * np.log10(worst / peak), -DB_FLOOR))


@dataclass
class MultinotchEntry:
    epsilon_rad: float
    notch: RisConfig
    pattern_path: Path
    sweep: SweepResult | None
    band: tuple[float, float]
    bandwidth_rad: float
    min_inband_suppression_db: float


@dataclass
class MultinotchStudyResult:
    entries: list[MultinotchEntry]
    summary_path: Path


def _study_notches(scenario: Scenario) -> int:
    return scenario.num_notches if scenario.num_notches >= 2 else 4  # a single notch cannot widen; 4 is the default


def notch_specs(scenario: Scenario, spacings) -> list[NotchSpec]:
    """The multi-notch study's widened notch for each spacing; a spacing that
    NotchSpec rejects, as one outside [0, pi] once shifted, is a ScenarioError."""
    specs = []
    for epsilon in spacings:
        try:
            specs.append(scenario.notch_spec(_study_notches(scenario), epsilon))
        except FieldError as exc:
            raise ScenarioError(f"notch spacing {epsilon} {exc.requirement}") from None
    return specs


def run_multinotch_study(
    scenario: Scenario,
    out_dir,
    specs: list[NotchSpec],
    training: TrainingResult | None,
    subcarrier_mode: str = CARRIER_ONLY,
    workers: int = 1,
    grid_points: int = GRID_POINTS,
) -> MultinotchStudyResult:
    """Widened notches for each of `notch_specs`: pattern file, suppression
    metrics, and, when handed a trained peak, the error sweep with each
    combined config, all written under out_dir with the summary table."""
    params = scenario.ofdm_params()
    grid_deg = angle_grid_deg(grid_points)
    grid_rad = angle_grid(grid_points)
    out_dir = Path(out_dir)

    notches = [multi_notch(spec) for spec in specs]
    sweeps = [None] * len(notches)
    if training is not None:
        # every spacing is swept at each point on the same draws, in one pool
        # forked before the pattern blocks leave freed heap behind
        combined = [_combined(training.config, notch) for notch in notches]
        sweeps = _sweep_results(scenario, combined, subcarrier_mode, workers)
    center = scenario.interferer_angle_rad
    patterns = power_patterns(notches, params, grid_rad, subcarrier_mode)
    entries = []
    for spec, notch, sweep, pattern in zip(specs, notches, sweeps, patterns):
        epsilon = float(spec.spacing_rad)
        peak = carrier_peak(notch.coefficients)
        band = suppression_band(notch.coefficients, center, peak)
        entry = MultinotchEntry(
            epsilon_rad=epsilon,
            notch=notch,
            pattern_path=write_pattern_table(
                out_dir / f"multinotch_pattern_eps{epsilon!r}.csv", grid_deg, normalize_pattern_db(pattern)
            ),
            sweep=sweep,
            band=band,
            bandwidth_rad=float(band[1] - band[0]),
            min_inband_suppression_db=min_inband_suppression_db(notch.coefficients, center, peak, epsilon, spec.num_notches),
        )
        if sweep is not None:
            write_sweep_files(sweep, out_dir, stem=f"multinotch_sweep_eps{epsilon!r}")
        entries.append(entry)

    comments = (
        f"suppression_threshold_db={SUPPRESSION_THRESHOLD_DB!r}",
        f"center_rad={float(center)!r}",
        f"num_notches={_study_notches(scenario)}",
        "peak and edge brackets from the roots of the carrier pattern's polynomial; edges bisected on the pattern",
    )
    rows = [(e.epsilon_rad, e.bandwidth_rad, *e.band, e.min_inband_suppression_db) for e in entries]
    summary_path = write_multinotch_summary(out_dir / "multinotch_summary.csv", rows, comments)
    return MultinotchStudyResult(entries=entries, summary_path=summary_path)


# ---------------------------------------------------------------------------
# report


@dataclass
class ReportResult:
    path: Path
    num_studies: int
    checks: list[tuple[str, bool, str]]

    @property
    def verdict(self) -> str:
        """The one pass rule: `pass` when a study was found, a check was made
        and every check passed; otherwise what is missing, or `fail`."""
        if not self.num_studies:
            return "nothing-run"
        if not self.checks:
            return "nothing-checked"
        return "pass" if all(ok for _, ok, _ in self.checks) else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


class ReportError(ValueError):
    """A study file that `report` cannot parse; the message leads with its path."""


@contextmanager
def _parsing(path: Path):
    try:
        yield
    except (KeyError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc).removeprefix(f"{path}: ")
        raise ReportError(f"{path}: {reason}") from None


def _check(checks: list, name: str, detail: str, cases, holds) -> None:
    """The one check rule: `name` passes when `holds(*case)` is true of every
    case, and is made only when it has a case to judge."""
    cases = list(cases)
    if cases:
        checks.append((name, all(holds(*case) for case in cases), detail))


def _steps(series):
    """The consecutive (before, after) values of a series of (key, value) pairs, in sorted order."""
    return itertools.pairwise(value for _, value in sorted(series))


def _check_pattern_study(out_dir: Path, checks: list, artifacts: list) -> bool:
    path = out_dir / "pattern_metrics.txt"
    if not path.exists():
        return False
    for name in ("pattern_peak.csv", "pattern_notch.csv", "pattern_combined.csv", "pattern_metrics.txt"):
        if (out_dir / name).exists():
            artifacts.append(out_dir / name)
    with _parsing(path):
        metrics = read_keyvals(path)
        keys = ("combined_argmax_deg", "target_angle_deg", "combined_db_at_interferer")
        argmax, target, null_db = values = [float(metrics[key]) for key in keys]
        for key, value in zip(keys, values):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
    name = "pattern: combined argmax within 0.25 deg of target"
    _check(checks, name, f"argmax={argmax} target={target}", [(argmax, target)], lambda a, t: abs(a - t) <= 0.25)
    name = "pattern: combined level at interferer <= -60 dB"
    _check(checks, name, f"level={null_db} dB", [(null_db,)], lambda level: level <= -60.0)
    return True


def _check_sweep(out_dir: Path, checks: list, artifacts: list, stem: str = "sweep") -> bool:
    path = out_dir / f"{stem}.csv"
    if not path.exists():
        return False
    artifacts.append(path)
    with _parsing(path):
        rows, comments = read_sweep_file(path)
        if not rows:
            raise ValueError("no data rows")
        bin_m = float(comments["range_bin_m"])
        if not 0.0 < bin_m < math.inf:
            raise ValueError(f"range_bin_m must be finite and positive, got {bin_m}")
    by_offset: dict = {}
    for ratio, offset, mean, _std, _trials in rows:
        by_offset.setdefault(offset, []).append((ratio, mean))

    def within_one_bin(a, b):
        return b >= a - bin_m

    at_null = [mean for ratio, mean in by_offset.get(0.0, []) if ratio <= 30.0]
    name = f"{stem}: mean error at zero offset <= one range bin (ratios <= 30 dB)"
    _check(checks, name, f"max={max(at_null, default=None)} bin={bin_m}", [(m,) for m in at_null], lambda m: m <= bin_m)
    ratio_steps = [step for series in by_offset.values() for step in _steps(series)]
    name = f"{stem}: mean error non-decreasing in power ratio (one-bin tolerance)"
    _check(checks, name, f"offsets={len(by_offset)}", ratio_steps, within_one_bin)
    top_ratio = max(r for r, *_ in rows)
    top_steps = _steps((abs(offset), mean) for ratio, offset, mean, _s, _t in rows if ratio == top_ratio)
    name = f"{stem}: mean error non-decreasing in |offset| at the top ratio (one-bin tolerance)"
    _check(checks, name, f"ratio={top_ratio}", top_steps, within_one_bin)
    return True


def _check_multinotch(out_dir: Path, checks: list, artifacts: list) -> bool:
    path = out_dir / "multinotch_summary.csv"
    if not path.exists():
        return False
    artifacts.append(path)
    artifacts.extend(sorted(out_dir.glob("multinotch_pattern_eps*.csv")))
    with _parsing(path):
        rows = sorted((eps, bw, sup) for eps, bw, _lo, _hi, sup in read_multinotch_summary(path))
    bandwidths = [bw for _, bw, _ in rows]
    name = "multinotch: suppression bandwidth strictly increasing with spacing"
    _check(checks, name, ",".join(map(repr, bandwidths)), itertools.pairwise(bandwidths), lambda a, b: b > a)
    suppressions = [sup for _, _, sup in rows]
    name = "multinotch: minimum in-band suppression strictly decreasing with spacing"
    _check(checks, name, ",".join(map(repr, suppressions)), itertools.pairwise(suppressions), lambda a, b: b < a)
    return True


def report(out_dir) -> ReportResult:
    """Aggregate study outputs under out_dir into summary.txt.

    The summary ends with `ReportResult.verdict`, also when no study or no
    check was found; any verdict but `pass` makes the front ends exit 1. A
    path that is not a directory is a ReportError, raised before anything is
    written.
    """
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ReportError(f"{out_dir}: not a directory")
    checks: list[tuple[str, bool, str]] = []
    artifacts: list[Path] = []
    num_studies = 0
    num_studies += _check_pattern_study(out_dir, checks, artifacts)
    num_studies += _check_sweep(out_dir, checks, artifacts)
    for sweep_path in sorted(out_dir.glob("multinotch_sweep_eps*.csv")):
        if not sweep_path.stem.endswith("_records"):
            _check_sweep(out_dir, checks, artifacts, stem=sweep_path.stem)
    num_studies += _check_multinotch(out_dir, checks, artifacts)

    lines = [f"studies: {num_studies}"]
    scenario_echo = out_dir / "scenario_used.txt"
    if scenario_echo.exists():
        lines.append("")
        lines.append("parameters:")
        lines += ["  " + ln for ln in scenario_echo.read_text().splitlines()]
    if artifacts:
        lines.append("")
        lines.append("files:")
        lines += [f"  {p}" for p in artifacts]
    if checks:
        lines.append("")
        lines.append("checks:")
        for name, ok, detail in checks:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    result = ReportResult(path=out_dir / "summary.txt", num_studies=num_studies, checks=checks)
    lines.append("")
    lines.append(f"result: {result.verdict}")
    write_lines(result.path, lines)
    return result
