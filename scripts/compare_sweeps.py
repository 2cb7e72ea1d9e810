#!/usr/bin/env python3
"""Compare two sweep tables point by point.

    python scripts/compare_sweeps.py OLD.csv NEW.csv

For each grid point it prints the two mean range errors and
z = |m1 - m2| / sqrt(se1^2 + se2^2), with se = std / sqrt(trials), then how
many points lie within 3 standard errors. Points whose means are equal
count as z = 0, and points whose means differ with both spreads zero as
z = inf. Exit status: 0, or 2 with one line when a table cannot be read
(a table holding a non-finite number or a row with fewer than one trial
counts as unreadable) or the two tables do not cover the same grid.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from risradar.fileio import SweepPoint, read_sweep_file  # noqa: E402


def z_score(old: SweepPoint, new: SweepPoint) -> float:
    """|m1 - m2| / sqrt(se1^2 + se2^2) of two sweep points."""
    gap = abs(old.mean_range_error_m - new.mean_range_error_m)
    se2 = old.std_range_error_m**2 / old.trials + new.std_range_error_m**2 / new.trials
    if gap == 0.0:
        return 0.0
    return gap / math.sqrt(se2) if se2 > 0.0 else math.inf


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_sweeps.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    try:
        old, new = (read_sweep_file(path)[0] for path in argv)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if [(p.power_ratio_db, p.angle_offset_rad) for p in old] != [(p.power_ratio_db, p.angle_offset_rad) for p in new]:
        print("error: the tables do not cover the same (ratio, offset) grid", file=sys.stderr)
        return 2
    print("power_ratio_db,angle_offset_rad,old_mean_m,new_mean_m,z")
    within = 0
    for a, b in zip(old, new):
        z = z_score(a, b)
        within += z <= 3.0
        print(f"{a.power_ratio_db!r},{a.angle_offset_rad!r},{a.mean_range_error_m!r},{b.mean_range_error_m!r},{z:.3f}")
    print(f"within 3 standard errors: {within} of {len(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
