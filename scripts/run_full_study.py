#!/usr/bin/env python3
"""Run every study end to end and write the summary report.

    python scripts/run_full_study.py [--out dir] [--scenario file] [--quick] [--workers N]

It runs the `risradar` commands `pattern`, `sweep`, `multinotch` and `report`
on one trained peak and prints their output. Files go to --out, else to the
scenario's output_dir (`out` by default).

--quick swaps in a scaled-down scenario (small grid, small network) so the
whole pipeline finishes in seconds; omit it to run the full default setup.
Exit status: 0 when the report passes, 1 when it does not, 2 on a bad
argument, scenario, notch spacing (checked before training or any output)
or study file, an output file that cannot be written or exhausted memory
(one `scenario error:`, `report error:`, `file error:` or `memory error:`
line), 3 when training diverges.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from risradar.cli import study_script

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


if __name__ == "__main__":
    sys.exit(study_script(QUICK_OVERRIDES))
