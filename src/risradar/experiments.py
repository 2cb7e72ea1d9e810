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


def synthesize_configs(scenario: Scenario, training: TrainingResult) -> SynthesisBundle:
    """Build the notch, convolve the trained peak with it, and rescale the
    combination into the unit disk."""
    notch = multi_notch(scenario.notch_spec())
    combined = normalize_coefficients(combine_convolve(training.config, notch))
    return SynthesisBundle(notch=notch, combined=combined)


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
    records keep. It is the first word of the SeedSequence's state, the word
    that seeded the radar symbols when a trial drew from four generators, so
    the records' seed column kept its values."""
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


def run_trial(
    scenario: Scenario,
    config: RisConfig,
    power_ratio_db: float,
    angle_offset_rad: float,
    seed: int,
    subcarrier_mode: str = CARRIER_ONLY,
    terms: FrameTerms | None = None,
    draws: TrialDraws | None = None,
) -> float:
    """One simulated measurement; returns the absolute range error in meters.
    A sweep passes the point's prebuilt `terms` and the trial's `draws`, which
    the trial only reads; without them the trial builds its own and draws
    from `seed`."""
    if terms is None:
        terms = _point_terms(scenario, config, power_ratio_db, angle_offset_rad, subcarrier_mode)
    if draws is None:
        draws = draw_trial(terms, seed)
    grid = trial_grid(terms, draws)
    return abs(scenario.target_range_m - estimate_target(grid, terms.params, scenario.pad_range, scenario.pad_velocity))


def _sweep_point(args) -> list[tuple[SweepPoint, list[tuple[int, float, float, float]]]]:
    """Every configuration's statistics and records at one grid point. Each
    trial draws once, and every configuration reads those draws."""
    scenario, configs, ratio_db, ratio_idx, offset_rad, offset_idx, mode = args
    point_terms = [_point_terms(scenario, config, ratio_db, offset_rad, mode) for config in configs]
    errors = np.empty((len(configs), scenario.trials))
    seeds = [trial_seeds(scenario.master_seed, ratio_idx, offset_idx, trial) for trial in range(scenario.trials)]
    for trial, seed in enumerate(seeds):
        draws = draw_trial(point_terms[0], seed)
        for k, (config, terms) in enumerate(zip(configs, point_terms)):
            errors[k, trial] = run_trial(scenario, config, ratio_db, offset_rad, seed, mode, terms, draws)
    angle = float(scenario.interferer_angle_rad + offset_rad)
    outcomes = []
    for config_errors in errors:
        point = SweepPoint(
            power_ratio_db=float(ratio_db),
            angle_offset_rad=float(offset_rad),
            mean_range_error_m=float(np.mean(config_errors)),
            std_range_error_m=float(np.std(config_errors, ddof=1)) if scenario.trials > 1 else 0.0,
            trials=scenario.trials,
        )
        records = [(seed, float(ratio_db), angle, float(error)) for seed, error in zip(seeds, config_errors)]
        outcomes.append((point, records))
    return outcomes


def _sweep_tasks(scenario: Scenario, configs: tuple[RisConfig, ...], subcarrier_mode: str) -> list[tuple]:
    """One task per (ratio, offset) point, carrying every configuration swept there."""
    if not configs:
        return []
    ratios = sorted(scenario.power_ratios_db)
    offsets = sorted(scenario.angle_offsets_rad)
    return [
        (scenario, configs, ratio, i, offset, j, subcarrier_mode)
        for i, ratio in enumerate(ratios)
        for j, offset in enumerate(offsets)
    ]


def _map_points(tasks: list[tuple], workers: int) -> list:
    """`_sweep_point` over the tasks, in order; a pool's workers take them in
    chunks, about four a worker, so few messages go out yet none idles long.
    A pool forks all its workers at once, so it gets no more than the tasks."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_sweep_point(t) for t in tasks]
    chunksize = max(1, math.ceil(len(tasks) / (4 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_point, tasks, chunksize=chunksize))


def _sweep_results(scenario: Scenario, configs, subcarrier_mode: str, workers: int) -> list[SweepResult]:
    """One `SweepResult` per configuration, all swept on one pass over the grid points."""
    outcomes = _map_points(_sweep_tasks(scenario, tuple(configs), subcarrier_mode), workers)
    return [
        SweepResult(
            points=[point_outcomes[k][0] for point_outcomes in outcomes],
            records=[record for point_outcomes in outcomes for record in point_outcomes[k][1]],
            interferer_angle_rad=scenario.interferer_angle_rad,
            range_bin_m=scenario.ofdm_params().range_bin_size,
        )
        for k in range(len(configs))
    ]


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
        combined = [normalize_coefficients(combine_convolve(training.config, notch)) for notch in notches]
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
    def passed(self) -> bool:
        """The one pass rule: a study was found and every check passed."""
        return bool(self.num_studies) and all(ok for _, ok, _ in self.checks)


class ReportError(ValueError):
    """A study file that `report` cannot parse; the message leads with its path."""


@contextmanager
def _parsing(path: Path):
    try:
        yield
    except (KeyError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc).removeprefix(f"{path}: ")
        raise ReportError(f"{path}: {reason}") from None


def _check_pattern_study(out_dir: Path, checks: list, artifacts: list) -> bool:
    path = out_dir / "pattern_metrics.txt"
    if not path.exists():
        return False
    for name in ("pattern_peak.csv", "pattern_notch.csv", "pattern_combined.csv", "pattern_metrics.txt"):
        if (out_dir / name).exists():
            artifacts.append(out_dir / name)
    with _parsing(path):
        metrics = read_keyvals(path)
        argmax = float(metrics["combined_argmax_deg"])
        target = float(metrics["target_angle_deg"])
        null_db = float(metrics["combined_db_at_interferer"])
    checks.append(
        (
            "pattern: combined argmax within 0.25 deg of target",
            abs(argmax - target) <= 0.25,
            f"argmax={argmax} target={target}",
        )
    )
    checks.append(
        (
            "pattern: combined level at interferer <= -60 dB",
            null_db <= -60.0,
            f"level={null_db} dB",
        )
    )
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
    by_offset: dict = {}
    for ratio, offset, mean, _std, _trials in rows:
        by_offset.setdefault(offset, []).append((ratio, mean))

    at_null = [mean for ratio, mean in by_offset.get(0.0, []) if ratio <= 30.0]
    if at_null:
        checks.append(
            (
                f"{stem}: mean error at zero offset <= one range bin (ratios <= 30 dB)",
                all(m <= bin_m for m in at_null),
                f"max={max(at_null)} bin={bin_m}",
            )
        )
    monotone = True
    for offset, series in by_offset.items():
        series.sort()
        means = [m for _, m in series]
        if any(b < a - bin_m for a, b in zip(means, means[1:])):
            monotone = False
    checks.append(
        (
            f"{stem}: mean error non-decreasing in power ratio (one-bin tolerance)",
            monotone,
            f"offsets={len(by_offset)}",
        )
    )
    top_ratio = max(r for r, *_ in rows)
    top = sorted((abs(offset), mean) for ratio, offset, mean, _s, _t in rows if ratio == top_ratio)
    offset_monotone = all(b >= a - bin_m for (_, a), (_, b) in zip(top, top[1:]))
    checks.append(
        (
            f"{stem}: mean error non-decreasing in |offset| at the top ratio (one-bin tolerance)",
            offset_monotone,
            f"ratio={top_ratio}",
        )
    )
    return True


def _check_multinotch(out_dir: Path, checks: list, artifacts: list) -> bool:
    path = out_dir / "multinotch_summary.csv"
    if not path.exists():
        return False
    artifacts.append(path)
    artifacts.extend(sorted(out_dir.glob("multinotch_pattern_eps*.csv")))
    with _parsing(path):
        rows = sorted((eps, bw, sup) for eps, bw, _lo, _hi, sup in read_multinotch_summary(path))
    bw_ordered = all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
    sup_ordered = all(b[2] < a[2] for a, b in zip(rows, rows[1:]))
    checks.append(
        (
            "multinotch: suppression bandwidth strictly increasing with spacing",
            bw_ordered,
            ",".join(repr(r[1]) for r in rows),
        )
    )
    checks.append(
        (
            "multinotch: minimum in-band suppression strictly decreasing with spacing",
            sup_ordered,
            ",".join(repr(r[2]) for r in rows),
        )
    )
    return True


def report(out_dir) -> ReportResult:
    """Aggregate study outputs under out_dir into summary.txt.

    Zero discovered studies still writes the summary, which then ends
    `result: nothing-run`; `ReportResult.passed` is false, and the front
    ends exit 1. A path that is not a directory is a ReportError, raised
    before anything is written.
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
    lines.append(f"result: {'pass' if result.passed else 'fail' if num_studies else 'nothing-run'}")
    write_lines(result.path, lines)
    return result
