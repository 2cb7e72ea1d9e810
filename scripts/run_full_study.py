#!/usr/bin/env python3
"""Run every study end to end and write the summary report.

    python scripts/run_full_study.py --out out [--scenario file] [--quick] [--workers N]

--quick swaps in a scaled-down scenario (small grid, small network) so the
whole pipeline finishes in seconds; omit it to run the full default setup.
Exit status: 0 when every check passes, 1 when one fails, 2 on a bad
argument, scenario, notch spacing (checked before training or any output)
or study file, an output file that cannot be written or exhausted memory
(one `scenario error:`, `report error:`, `file error:` or `memory error:`
line), 3 when training diverges.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from risradar.cli import study_script
from risradar.experiments import (
    report,
    run_interference_sweep,
    run_multinotch_study,
    run_pattern_study,
    synthesize_configs,
    train_peak,
    write_sweep_files,
)

QUICK_OVERRIDES = dict(
    num_subcarriers=32,
    num_symbols=8,
    num_peak_elements=48,
    net_num_layers=3,
    net_hidden_width=32,
    net_num_iterations=500,
    trials=5,
    target_range_m=9.75,
    pad_range=2,
    pad_velocity=2,
)


def run_study(scenario, out_dir: Path, specs, workers: int) -> int:
    """Every study in turn on one trained network, the multi-notch study on
    the checked `specs`; 0 when the report's checks all pass, else 1."""
    print("training peak network ...")
    training = train_peak(scenario)
    print(f"  gain ratio vs analytic optimum: {training.gain_ratio:.4f}")

    print("pattern study ...")
    patterns = run_pattern_study(scenario, out_dir, training)
    print(f"  combined argmax {patterns.argmax_deg} deg, "
          f"level at interferer {patterns.combined_db_at_interferer:.1f} dB")

    print("interference sweep ...")
    config = synthesize_configs(scenario, training).combined
    sweep = run_interference_sweep(scenario, config, workers=workers)
    write_sweep_files(sweep, out_dir)
    worst = max(p.mean_range_error_m for p in sweep.points)
    print(f"  {len(sweep.points)} grid points, worst mean error {worst:.3f} m")

    print("multi-notch study ...")
    multi = run_multinotch_study(scenario, out_dir, specs, training, workers=workers)
    for entry in multi.entries:
        print(f"  eps={entry.epsilon_rad}: bandwidth {entry.bandwidth_rad:.6f} rad, "
              f"min in-band suppression {entry.min_inband_suppression_db:.1f} dB")

    summary = report(out_dir)
    print(summary.path.read_text())
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    sys.exit(study_script(run_study, QUICK_OVERRIDES))
