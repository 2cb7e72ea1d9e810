#!/usr/bin/env python3
"""Render emitted pattern tables (angle_deg,power_db) as PNGs.

    python scripts/plot_patterns.py out/pattern_*.csv [--floor -80] [--out-dir out]

Needs matplotlib; everything else in the package runs without it.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit("matplotlib is required for plotting (pip install matplotlib)")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from risradar.fileio import read_pattern_table  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("patterns", nargs="+", type=Path)
    parser.add_argument("--floor", type=float, default=-80.0, help="clip the y axis at this dB level")
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args()

    for path in args.patterns:
        angles, power = read_pattern_table(path)
        fig, ax = plt.subplots(figsize=(6, 3.5))
        ax.plot(angles, np.maximum(power, args.floor))
        ax.set_xlabel("angle (deg)")
        ax.set_ylabel("normalized power (dB)")
        ax.set_xlim(0, 180)
        ax.set_ylim(args.floor, 2)
        ax.grid(True, alpha=0.3)
        ax.set_title(path.stem)
        out_dir = args.out_dir or path.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{path.stem}.png"
        fig.savefig(target, dpi=150, bbox_inches="tight")
        plt.close(fig)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
