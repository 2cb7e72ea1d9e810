"""Plain-text export/import for patterns, configurations, metrics, and sweeps.

Each table is declared once, as its header and the kind of each column.
Its values are written with repr (shortest round-trip form) so parsing
an emitted file reproduces the in-memory values exactly, and repeated
runs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .arrays import RisConfig


class Table(NamedTuple):
    header: str
    kinds: tuple[type, ...]


PEAK_RECORD_HEADER = "seed,power_ratio_db,angle_rad,range_err_m"
SWEEP_HEADER = "power_ratio_db,angle_offset_rad,mean_range_error_m,std_range_error_m,trials"
MULTINOTCH_SUMMARY_HEADER = "epsilon_rad,suppression_bandwidth_rad,band_low_rad,band_high_rad,min_inband_suppression_db"

PATTERN_TABLE = Table("angle_deg,power_db", (float, float))
CONFIG_TABLE = Table("re,im", (float, float))
PEAK_RECORD_TABLE = Table(PEAK_RECORD_HEADER, (int, float, float, float))
SWEEP_TABLE = Table(SWEEP_HEADER, (float, float, float, float, int))
LOSS_TABLE = Table("iteration,loss", (int, float))
MULTINOTCH_SUMMARY_TABLE = Table(MULTINOTCH_SUMMARY_HEADER, (float, float, float, float, float))


def write_lines(path, lines) -> Path:
    """Write `lines`, each ended by a newline, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _lines(path) -> list[str]:
    """The lines of a file, read once; every reader parses from them."""
    return Path(path).read_text().splitlines()


def _put(pairs: dict, path, number: int, key: str, value: str) -> None:
    """Add one parsed pair; a key already read is a ValueError naming the file and line."""
    if key in pairs:
        raise ValueError(f"{path}: line {number}: repeated key {key}")
    pairs[key] = value


def _comment_meta(path, lines) -> dict:
    """The `# key=value` comment lines, as strings; free-text comments are ignored."""
    meta: dict = {}
    for number, line in enumerate(lines, 1):
        if line.startswith("#"):
            key, sep, value = line.lstrip("# ").partition("=")
            if sep:
                _put(meta, path, number, key.strip(), value.strip())
    return meta


def _columns(rows, width: int) -> list:
    """The columns of `rows`; `width` empty columns when there are none."""
    return list(zip(*rows, strict=True)) or [()] * width


def _write_table(path, table: Table, columns, comments=()) -> Path:
    """`# ` comment lines, the header, then one comma-separated row per record;
    each column is converted to its kind once, and columns of unequal length are a ValueError."""
    cells = [np.asarray(column, dtype=kind).tolist() for column, kind in zip(columns, table.kinds, strict=True)]
    rows = map(",".join, zip(*(map(repr, column) for column in cells), strict=True))
    return write_lines(path, [*(f"# {c}" for c in comments), table.header, *rows])


def _parse_table(path, lines, table: Table) -> list[list]:
    """The typed columns of the `table` file `path` whose lines are `lines`; a wrong
    header, a row with the wrong number of values or a value of the wrong kind is a
    ValueError naming the path."""
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines or lines[0] != table.header:
        raise ValueError(f"{path}: expected the header {table.header}")
    rows = [line.split(",") for line in lines[1:]]
    for number, values in enumerate(rows, 1):
        if len(values) != len(table.kinds):
            raise ValueError(f"{path}: row {number} has {len(values)} values, expected {len(table.kinds)}")
    try:
        return [list(map(kind, column)) for kind, column in zip(table.kinds, _columns(rows, len(table.kinds)))]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_table(path, table: Table) -> list[list]:
    return _parse_table(path, _lines(path), table)


def write_pattern_table(path, angles_deg, power_db) -> Path:
    """The pattern table: one (angle in degrees, power in dB) row per grid point."""
    return _write_table(path, PATTERN_TABLE, (angles_deg, power_db))


def read_pattern_table(path) -> tuple[np.ndarray, np.ndarray]:
    angles, power = _read_table(path, PATTERN_TABLE)
    return np.array(angles, dtype=float), np.array(power, dtype=float)


def write_config_file(path, config: RisConfig, *, theta_t: float, seed: int) -> Path:
    """One (real, imaginary) row per element, under a comment carrying the element
    count, the fixed `slots=1`, the trained angle and the seed."""
    header = f"elements={config.num_elements} slots=1 theta_t={float(theta_t)!r} seed={int(seed)}"
    coeffs = config.coefficients
    return _write_table(path, CONFIG_TABLE, (coeffs.real, coeffs.imag), comments=(header,))


def read_config_file(path) -> tuple[RisConfig, dict]:
    lines = _lines(path)
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing configuration header")
    meta: dict = {}
    for token in lines[0].lstrip("#").split():
        key, _, value = token.partition("=")
        _put(meta, path, 1, key, value)
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
    real, imag = _parse_table(path, lines, CONFIG_TABLE)
    if len(real) != elements:
        raise ValueError(f"{path}: expected {elements} element rows, found {len(real)}")
    return RisConfig([complex(re, im) for re, im in zip(real, imag)]), meta


def write_peak_records(path, records) -> Path:
    """Per-trial records: (trial seed, power ratio, interferer angle, range error) tuples."""
    return _write_table(path, PEAK_RECORD_TABLE, _columns(records, 4))


def read_peak_records(path) -> list[tuple[int, float, float, float]]:
    return list(zip(*_read_table(path, PEAK_RECORD_TABLE)))


def write_sweep_table(path, points, comments=()) -> Path:
    """Sweep statistics table; comment lines document the estimator choices."""
    rows = [(p.power_ratio_db, p.angle_offset_rad, p.mean_range_error_m, p.std_range_error_m, p.trials) for p in points]
    return _write_table(path, SWEEP_TABLE, _columns(rows, 5), comments)


def read_sweep_file(path) -> tuple[list[tuple[float, float, float, float, int]], dict]:
    """A sweep table's rows and its `# key=value` comments, from one read."""
    lines = _lines(path)
    return list(zip(*_parse_table(path, lines, SWEEP_TABLE))), _comment_meta(path, lines)


def read_sweep_table(path) -> list[tuple[float, float, float, float, int]]:
    return read_sweep_file(path)[0]


def write_loss_history(path, losses) -> Path:
    return _write_table(path, LOSS_TABLE, (range(len(losses)), losses))


def write_multinotch_summary(path, rows, comments=()) -> Path:
    """One (spacing, bandwidth, band low, band high, minimum in-band
    suppression) row per notch spacing."""
    return _write_table(path, MULTINOTCH_SUMMARY_TABLE, _columns(rows, 5), comments)


def read_multinotch_summary(path) -> list[tuple[float, float, float, float, float]]:
    return list(zip(*_read_table(path, MULTINOTCH_SUMMARY_TABLE)))


def write_keyvals(path, pairs: dict) -> Path:
    """`key = value` metrics file (floats via repr, ints as-is)."""
    lines = []
    for key, value in pairs.items():
        if isinstance(value, (bool, int, str)):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {float(value)!r}")
    return write_lines(path, lines)


def read_keyvals(path) -> dict:
    """A `key = value` metrics file, as strings; a line without `=` or a
    repeated key is a ValueError naming the file and line."""
    out: dict = {}
    for number, line in enumerate(_lines(path), 1):
        if line and not line.startswith("#"):
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: line {number}: expected key = value")
            _put(out, path, number, key.strip(), value.strip())
    return out
