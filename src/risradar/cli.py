"""Command-line front end: pattern / train-peak / sweep / multinotch / report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arrays import ALL_SUBCARRIERS, CARRIER_ONLY
from .experiments import (
    report,
    run_interference_sweep,
    run_multinotch_study,
    run_pattern_study,
    write_sweep_files,
)
from .fileio import write_config_file, write_loss_history
from .scenario import ScenarioError, default_scenario, load_scenario
from .synthesis import TrainingDivergedError, train_peak_network


class _Parser(argparse.ArgumentParser):
    """Argument errors print one line and exit with status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _grid_points(text: str) -> int:
    """--grid value: an angle grid needs at least two points."""
    try:
        points = int(text)
    except ValueError:
        points = 0
    if points < 2:
        raise argparse.ArgumentTypeError(f"expected an integer >= 2, got {text!r}")
    return points


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", type=Path, default=None, help="scenario file (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario master seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory (overrides scenario output_dir)")
    parser.add_argument("--grid", type=_grid_points, default=721, help="angle grid points over [0, 180] deg")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--carrier-only", dest="mode", action="store_const", const=CARRIER_ONLY, help="carrier-wavelength patterns/simulation (default)"
    )
    mode.add_argument(
        "--all-subcarriers", dest="mode", action="store_const", const=ALL_SUBCARRIERS, help="exact per-subcarrier wavelengths"
    )
    parser.set_defaults(mode=CARRIER_ONLY)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="risradar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_pattern = sub.add_parser("pattern", help="emit peak/notch/combined beampatterns")
    _common_flags(p_pattern)

    p_train = sub.add_parser("train-peak", help="train the peak network and save its configuration")
    _common_flags(p_train)

    p_sweep = sub.add_parser("sweep", help="interference power / angle-offset error sweep")
    _common_flags(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel workers over sweep grid points")

    p_multi = sub.add_parser("multinotch", help="widened-notch study over a list of spacings")
    _common_flags(p_multi)
    p_multi.add_argument("--workers", type=int, default=1)
    p_multi.add_argument("--epsilon", type=str, default="0,1e-3,1e-2", help="comma-separated notch spacings (rad)")
    p_multi.add_argument("--no-sweeps", action="store_true", help="skip the per-spacing error sweeps")

    p_report = sub.add_parser("report", help="summarize the studies found in the output directory")
    p_report.add_argument("--out", type=Path, required=True)
    return parser


def _load(args) -> tuple:
    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    if args.seed is not None:
        scenario = scenario.replace(master_seed=args.seed)
    out_dir = Path(args.out) if args.out is not None else Path(scenario.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "scenario_used.txt").write_text(scenario.to_text())
    return scenario, out_dir


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            result = report(args.out)
            print(result.path.read_text(), end="")
            return 1 if result.num_studies == 0 else 0

        scenario, out_dir = _load(args)
        if args.command == "pattern":
            result = run_pattern_study(scenario, out_dir, subcarrier_mode=args.mode, grid_points=args.grid)
            print(f"combined argmax: {result.argmax_deg} deg")
            print(f"combined level at interferer: {result.combined_db_at_interferer} dB")
            print(f"peak gain ratio: {result.gain_ratio}")
            for path in (result.peak_path, result.notch_path, result.combined_path, result.metrics_path):
                print(f"wrote {path}")
        elif args.command == "train-peak":
            training = train_peak_network(
                scenario.target_angle_rad, scenario.num_peak_elements, scenario.network_spec()
            )
            config_path = write_config_file(
                out_dir / "peak_config.txt",
                training.config,
                theta_t=scenario.target_angle_rad,
                seed=scenario.net_init_seed,
            )
            loss_path = write_loss_history(out_dir / "training_loss.csv", training.loss_history)
            print(f"gain ratio vs analytic optimum: {training.gain_ratio}")
            print(f"wrote {config_path}")
            print(f"wrote {loss_path}")
        elif args.command == "sweep":
            result = run_interference_sweep(
                scenario, out_dir=None, subcarrier_mode=args.mode, workers=args.workers
            )
            table, records = write_sweep_files(result, out_dir)
            print(f"wrote {table}")
            print(f"wrote {records}")
        elif args.command == "multinotch":
            epsilons = [float(v) for v in args.epsilon.split(",") if v.strip()]
            result = run_multinotch_study(
                scenario,
                epsilon_list=epsilons,
                out_dir=out_dir,
                subcarrier_mode=args.mode,
                workers=args.workers,
                grid_points=args.grid,
                include_sweeps=not args.no_sweeps,
            )
            for entry in result.entries:
                print(
                    f"epsilon={entry.epsilon_rad}: bandwidth={entry.bandwidth_rad} rad, "
                    f"min in-band suppression={entry.min_inband_suppression_db} dB"
                )
            print(f"wrote {result.summary_path}")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
