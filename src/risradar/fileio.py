"""Plain-text export/import for patterns, configurations, metrics, and sweeps.

All floats are written with repr (shortest round-trip form) so parsing
an emitted file reproduces the in-memory values exactly, and repeated
runs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .arrays import RisConfig


def _fmt(x) -> str:
    return repr(float(x))


def _write_lines(path, lines) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _data_lines(path) -> list[str]:
    lines = Path(path).read_text().splitlines()
    return [ln for ln in lines if ln and not ln.startswith("#")]


def write_pattern_table(path, angles_deg, power_db) -> Path:
    """Two-column `angle_deg,power_db` table, one row per grid point."""
    angles_deg = np.asarray(angles_deg, dtype=float)
    power_db = np.asarray(power_db, dtype=float)
    if angles_deg.shape != power_db.shape:
        raise ValueError("angle and power columns must have equal length")
    lines = ["angle_deg,power_db"]
    lines += [f"{_fmt(a)},{_fmt(p)}" for a, p in zip(angles_deg, power_db)]
    return _write_lines(path, lines)


def read_pattern_table(path) -> tuple[np.ndarray, np.ndarray]:
    lines = _data_lines(path)
    if not lines or lines[0] != "angle_deg,power_db":
        raise ValueError(f"{path}: not a pattern table")
    rows = [ln.split(",") for ln in lines[1:]]
    angles = np.array([float(r[0]) for r in rows])
    power = np.array([float(r[1]) for r in rows])
    return angles, power


def write_config_file(path, config: RisConfig, theta_t: float | None = None, seed: int | None = None) -> Path:
    """One `re,im` line per element, with a header carrying the element
    count, the fixed `slots=1`, and (when known) the trained angle and seed."""
    header = f"# elements={config.num_elements} slots=1"
    if theta_t is not None:
        header += f" theta_t={_fmt(theta_t)}"
    if seed is not None:
        header += f" seed={int(seed)}"
    lines = [header, "re,im"]
    lines += [f"{_fmt(c.real)},{_fmt(c.imag)}" for c in config.coefficients]
    return _write_lines(path, lines)


def read_config_file(path) -> tuple[RisConfig, dict]:
    text_lines = Path(path).read_text().splitlines()
    if not text_lines or not text_lines[0].startswith("#"):
        raise ValueError(f"{path}: missing configuration header")
    meta: dict = {}
    for token in text_lines[0].lstrip("#").split():
        key, _, value = token.partition("=")
        meta[key] = value
    if "elements" not in meta:
        raise ValueError(f"{path}: header key elements is missing")
    for key, kind in (("elements", int), ("theta_t", float), ("seed", int)):
        if key in meta:
            try:
                meta[key] = kind(meta[key])
            except ValueError:
                raise ValueError(f"{path}: header key {key} must be {kind.__name__}, got {meta[key]!r}") from None
    elements = meta["elements"]
    if meta.get("slots") != "1":
        raise ValueError(f"{path}: expected slots=1, found slots={meta.get('slots')}")
    rows = [ln for ln in text_lines[1:] if ln and not ln.startswith("#")][1:]  # skip column header
    if len(rows) != elements:
        raise ValueError(f"{path}: expected {elements} element rows, found {len(rows)}")
    coeffs = np.empty(elements, dtype=complex)
    for l, row in enumerate(rows):
        vals = [float(v) for v in row.split(",")]
        if len(vals) != 2:
            raise ValueError(f"{path}: row {l} has {len(vals)} values, expected 2")
        coeffs[l] = complex(vals[0], vals[1])
    return RisConfig(coeffs), meta


PEAK_RECORD_HEADER = "seed,power_ratio_db,angle_rad,range_err_m"


def write_peak_records(path, records) -> Path:
    """Per-trial records: `seed,power_ratio_db,angle_rad,range_err_m`."""
    lines = [PEAK_RECORD_HEADER]
    for seed, ratio_db, angle_rad, err_m in records:
        lines.append(f"{int(seed)},{_fmt(ratio_db)},{_fmt(angle_rad)},{_fmt(err_m)}")
    return _write_lines(path, lines)


def read_peak_records(path) -> list[tuple[int, float, float, float]]:
    lines = _data_lines(path)
    if not lines or lines[0] != PEAK_RECORD_HEADER:
        raise ValueError(f"{path}: not a peak record file")
    out = []
    for ln in lines[1:]:
        seed, ratio, angle, err = ln.split(",")
        out.append((int(seed), float(ratio), float(angle), float(err)))
    return out


SWEEP_HEADER = "power_ratio_db,angle_offset_rad,mean_range_error_m,std_range_error_m,trials"


def write_sweep_table(path, points, comments=()) -> Path:
    """Sweep statistics table; comment lines document the estimator choices."""
    lines = [f"# {c}" for c in comments]
    lines.append(SWEEP_HEADER)
    for p in points:
        lines.append(
            f"{_fmt(p.power_ratio_db)},{_fmt(p.angle_offset_rad)},"
            f"{_fmt(p.mean_range_error_m)},{_fmt(p.std_range_error_m)},{int(p.trials)}"
        )
    return _write_lines(path, lines)


def read_sweep_table(path) -> list[tuple[float, float, float, float, int]]:
    lines = _data_lines(path)
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"{path}: not a sweep table")
    out = []
    for ln in lines[1:]:
        ratio, offset, mean, std, trials = ln.split(",")
        out.append((float(ratio), float(offset), float(mean), float(std), int(trials)))
    return out


def write_loss_history(path, losses) -> Path:
    lines = ["iteration,loss"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(np.asarray(losses, dtype=float))]
    return _write_lines(path, lines)


def write_keyvals(path, pairs: dict, comments=()) -> Path:
    """`key = value` metrics file (floats via repr, ints as-is)."""
    lines = [f"# {c}" for c in comments]
    for key, value in pairs.items():
        if isinstance(value, (bool, int, str)):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {_fmt(value)}")
    return _write_lines(path, lines)


def read_keyvals(path) -> dict:
    out: dict = {}
    for ln in _data_lines(path):
        key, _, value = ln.partition("=")
        out[key.strip()] = value.strip()
    return out
