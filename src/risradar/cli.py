"""Command-line front end: pattern / train-peak / sweep / multinotch / report."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .arrays import ALL_SUBCARRIERS, CARRIER_ONLY, GRID_POINTS
from .experiments import (
    SPACINGS,
    ReportError,
    notch_specs,
    report,
    run_interference_sweep,
    run_multinotch_study,
    run_pattern_study,
    synthesize_configs,
    write_sweep_files,
)
from .fileio import read_config_file, read_loss_history, write_config_file, write_lines, write_loss_history
from .scenario import ScenarioError, default_scenario, load_scenario
from .synthesis import TrainingDivergedError, TrainingResult, peak_gain_ratio, train_peak_network

_PEAK_FILES = ("peak_config.txt", "training_loss.csv")  # the peak configuration, its loss history


class _Parser(argparse.ArgumentParser):
    """Argument errors print one line and exit with status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _integer_at_least(minimum: int):
    """An argparse type for an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _spacings(text: str) -> list[float]:
    """--epsilon value: a comma list of distinct, finite, non-negative notch spacings,
    compared as floats (1e-3 repeats 0.001, and -0 repeats 0), with no empty item."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(math.isfinite(v) and v >= 0.0 for v in values) or len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected a comma list of distinct finite spacings >= 0, got {text!r}")
    return values


def _common_flags(parser: argparse.ArgumentParser, seed: bool = True, grid: bool = True, mode: bool = True) -> None:
    """Add the shared flags a command reads; it is offered no others."""
    parser.add_argument("--scenario", type=Path, default=None, help="scenario file (defaults apply if omitted)")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="override the scenario master seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory (overrides scenario output_dir)")
    if grid:
        parser.add_argument("--grid", type=_integer_at_least(2), default=GRID_POINTS, help="angle grid points over [0, 180] deg")
    if mode:
        group = parser.add_mutually_exclusive_group()
        group.add_argument(
            "--carrier-only", dest="mode", action="store_const", const=CARRIER_ONLY, help="carrier-wavelength patterns/simulation (default)"
        )
        group.add_argument(
            "--all-subcarriers", dest="mode", action="store_const", const=ALL_SUBCARRIERS, help="exact per-subcarrier wavelengths"
        )
        parser.set_defaults(mode=CARRIER_ONLY)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="risradar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the master seed drives only the sweeps' trial draws; training uses network.init_seed
    p_pattern = sub.add_parser("pattern", help="emit peak/notch/combined beampatterns")
    _common_flags(p_pattern, seed=False)

    p_train = sub.add_parser("train-peak", help="train the peak network and save its configuration")
    _common_flags(p_train, seed=False, grid=False, mode=False)

    p_sweep = sub.add_parser("sweep", help="interference power / angle-offset error sweep")
    _common_flags(p_sweep, grid=False)
    p_sweep.add_argument("--workers", type=_integer_at_least(1), default=1, help="parallel workers over sweep grid points")

    p_multi = sub.add_parser("multinotch", help="widened-notch study over a list of spacings")
    _common_flags(p_multi)
    p_multi.add_argument("--workers", type=_integer_at_least(1), default=1)
    p_multi.add_argument("--epsilon", type=_spacings, default=SPACINGS, help="comma-separated notch spacings (rad)")
    p_multi.add_argument("--no-sweeps", action="store_true", help="skip the per-spacing error sweeps")

    p_report = sub.add_parser("report", help="summarize the studies found in the output directory")
    p_report.add_argument("--out", type=Path, required=True)
    return parser


def _load(args, overrides: dict | None = None) -> tuple:
    """The overridden scenario, the output directory and the notch specs of `args.epsilon`,
    all checked before the directory is created with the echo `scenario_used.txt`."""
    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    if getattr(args, "seed", None) is not None:
        scenario = scenario.replace(master_seed=args.seed)
    if overrides:
        scenario = scenario.replace(**overrides)
    specs = notch_specs(scenario, getattr(args, "epsilon", ()))
    out_dir = Path(args.out) if args.out is not None else Path(scenario.output_dir)
    try:
        write_lines(out_dir / "scenario_used.txt", scenario.to_text().splitlines())
    except OSError as exc:
        raise ScenarioError(f"output directory {out_dir}: {exc.strerror or exc}") from None
    return scenario, out_dir, specs


def _exit_status(run, *args) -> int:
    """run(*args); a bad scenario, output directory, study file, file access or exhausted
    memory exits 2, divergence 3, each with one stderr line."""
    try:
        return run(*args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"file error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's failed allocations raise a subclass
        print(f"memory error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _exit_status(_commands, args, (args.command,))


def _commands(args, commands, overrides: dict | None = None) -> int:
    """Run the bodies of `commands` in order on one loaded scenario and one taken peak
    (none under `--no-sweeps`, and no scenario for a bare `report`); the last body's status."""
    if commands == ("report",):
        return _run("report", None, args.out, (), None, args)
    scenario, out_dir, specs = _load(args, overrides)
    training = None if getattr(args, "no_sweeps", False) else _peak(scenario, out_dir)
    for command in commands:
        status = _run(command, scenario, out_dir, specs, training, args)
    return status


def _peak(scenario, out_dir: Path) -> TrainingResult:
    """The scenario's trained peak, kept in `out_dir` as `peak_config.txt`, whose header
    records the seven inputs it was trained from, and `training_loss.csv`. The peak kept
    there is reused when its inputs are the scenario's; otherwise (no files, other
    inputs, a file cut short or unparsable) the peak is trained and the two files written."""
    spec = scenario.network_spec()
    header = {
        "theta_t": scenario.target_angle_rad,
        "seed": spec.init_seed,
        "layers": spec.num_layers,
        "width": spec.hidden_width,
        "learning_rate": spec.learning_rate,
        "iterations": spec.num_iterations,
    }
    inputs = {"elements": scenario.num_peak_elements, **header}
    config_path, loss_path = (out_dir / name for name in _PEAK_FILES)
    try:
        config, kept = read_config_file(config_path)
        losses = read_loss_history(loss_path)
    except (OSError, ValueError):
        kept, losses = {}, ()
    if {key: kept.get(key) for key in inputs} == inputs and len(losses) == spec.num_iterations:
        return TrainingResult(config, losses, peak_gain_ratio(config, scenario.target_angle_rad))
    training = train_peak_network(scenario.target_angle_rad, scenario.num_peak_elements, spec)
    write_config_file(config_path, training.config, **header)
    write_loss_history(loss_path, training.loss_history)
    return training


def _run(command: str, scenario, out_dir: Path, specs, training, args) -> int:
    """The body of `command` on the loaded scenario and the trained peak it is handed; 0, or the report's status."""
    if command == "pattern":
        result = run_pattern_study(scenario, out_dir, training, args.mode, args.grid)
        print(f"combined argmax: {result.metrics['combined_argmax_deg']} deg")
        print(f"combined level at interferer: {result.metrics['combined_db_at_interferer']} dB")
        print(f"peak gain ratio: {result.metrics['peak_gain_ratio']}")
        for path in result.paths.values():
            print(f"wrote {path}")
    elif command == "train-peak":
        print(f"gain ratio vs analytic optimum: {training.gain_ratio}")
        for label, name in zip(("peak configuration", "loss history"), _PEAK_FILES):
            print(f"{label}: {out_dir / name}")
    elif command == "sweep":
        config = synthesize_configs(scenario, training).combined
        result = run_interference_sweep(scenario, config, subcarrier_mode=args.mode, workers=args.workers)
        table, records = write_sweep_files(result, out_dir)
        print(f"wrote {table}")
        print(f"wrote {records}")
    elif command == "multinotch":
        result = run_multinotch_study(scenario, out_dir, specs, training, args.mode, args.workers, args.grid)
        for row in result.rows:
            print(
                f"epsilon={row.epsilon_rad}: bandwidth={row.suppression_bandwidth_rad} rad, "
                f"min in-band suppression={row.min_inband_suppression_db} dB"
            )
        print(f"wrote {result.summary_path}")
    elif command == "report":  # write and print the summary of the studies in `out_dir`: 0 when it passes, else 1
        result = report(out_dir)
        print(result.path.read_text(), end="")
        return 0 if result.passed else 1
    return 0


def study_script(quick_overrides: dict) -> int:
    """`scripts/run_full_study.py`: the commands' one flow over the `pattern`, `sweep`, `multinotch` and
    `report` bodies, with the default notch spacings (`--quick` applies `quick_overrides`), under the
    CLI's exit statuses."""
    parser = _Parser(description="Run every study end to end and write the summary report.")
    _common_flags(parser, seed=False, grid=False, mode=False)
    parser.add_argument("--workers", type=_integer_at_least(1), default=1)
    parser.add_argument("--quick", action="store_true", help="scaled-down scenario")
    parser.set_defaults(mode=CARRIER_ONLY, grid=GRID_POINTS, epsilon=SPACINGS)
    args = parser.parse_args()
    commands = ("pattern", "sweep", "multinotch", "report")
    return _exit_status(_commands, args, commands, quick_overrides if args.quick else None)


if __name__ == "__main__":
    sys.exit(main())
