"""Plain-text export/import for patterns, configurations, metrics, and sweeps.

Each table is declared once, as a NamedTuple row type: its fields are the
header and its annotations the kind of each column. Its values are written
with repr (shortest round-trip form) so parsing an emitted file reproduces
the in-memory values exactly, and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import functools
import math
import typing
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .arrays import RisConfig


class SweepPoint(NamedTuple):
    """One row of the sweep table: the range-error statistics of a grid point."""

    power_ratio_db: float
    angle_offset_rad: float
    mean_range_error_m: float
    std_range_error_m: float
    trials: int


class PeakRecord(NamedTuple):
    """One row of a sweep's records: the range error of one trial, with the seed it replays from."""

    seed: int
    power_ratio_db: float
    angle_rad: float
    range_err_m: float


class MultinotchRow(NamedTuple):
    """One row of the multi-notch summary: a notch spacing's suppression band and in-band depth."""

    epsilon_rad: float
    suppression_bandwidth_rad: float
    band_low_rad: float
    band_high_rad: float
    min_inband_suppression_db: float


PatternRow = NamedTuple("PatternRow", [("angle_deg", float), ("power_db", float)])
ConfigRow = NamedTuple("ConfigRow", [("re", float), ("im", float)])
LossRow = NamedTuple("LossRow", [("iteration", int), ("loss", float)])
# the kind of each key a configuration file's header may carry besides `slots`; a
# trained peak's file adds the four network keys to the angle and the seed
CONFIG_HEADER_KINDS = {
    "elements": int,
    "theta_t": float,
    "seed": int,
    "layers": int,
    "width": int,
    "learning_rate": float,
    "iterations": int,
}


def write_lines(path, lines) -> Path:
    """Write `lines`, each ended by a newline, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _lines(path) -> list[str]:
    """The lines of a file, read once; every reader parses from them. Every
    writer ends a file with a newline, so one that does not was cut short."""
    text = Path(path).read_text()
    if text and not text.endswith("\n"):
        raise ValueError(f"{path}: the last line is cut short")
    return text.splitlines()


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


@functools.cache
def _table(row) -> tuple[str, tuple[type, ...]]:
    """The header and the column kinds of the `row` table: its fields and its annotations, resolved once."""
    return ",".join(row._fields), tuple(typing.get_type_hints(row).values())


def _write_table(path, row, columns, comments=()) -> Path:
    """`# ` comment lines, the header of `row`, then one comma-separated line per record;
    each column is converted to its kind once, and columns of unequal length are a ValueError."""
    header, kinds = _table(row)
    cells = [np.asarray(column, dtype=kind).tolist() for column, kind in zip(columns, kinds, strict=True)]
    lines = map(",".join, zip(*(map(repr, column) for column in cells), strict=True))
    return write_lines(path, [*(f"# {c}" for c in comments), header, *lines])


def write_rows(path, row, rows, comments=()) -> Path:
    """The `row` table of `rows`, each a `row` or a tuple in its field order, under `comments`."""
    return _write_table(path, row, _columns(rows, len(row._fields)), comments)


def _parse_table(path, lines, row) -> list[list]:
    """The typed columns of the `row` table file `path` whose lines are `lines`; a
    wrong header, a row with the wrong number of values, a value of the wrong kind
    or a non-finite number is a ValueError naming the path."""
    header, kinds = _table(row)
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected the header {header}")
    rows = [line.split(",") for line in lines[1:]]
    for number, values in enumerate(rows, 1):
        if len(values) != len(kinds):
            raise ValueError(f"{path}: row {number} has {len(values)} values, expected {len(kinds)}")
    try:
        columns = [list(map(kind, column)) for kind, column in zip(kinds, _columns(rows, len(kinds)))]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    floats = [column for kind, column in zip(kinds, columns) if kind is float]
    for number, values in enumerate(zip(*floats), 1):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: row {number} has a non-finite value")
    return columns


def _parse_rows(path, lines, row) -> list:
    return list(map(row._make, zip(*_parse_table(path, lines, row))))


def read_rows(path, row) -> list:
    """The records of the `row` table file `path`, each a `row`."""
    return _parse_rows(path, _lines(path), row)


def write_pattern_table(path, angles_deg, power_db) -> Path:
    """The pattern table: one (angle in degrees, power in dB) row per grid point."""
    return _write_table(path, PatternRow, (angles_deg, power_db))


def read_pattern_table(path) -> tuple[np.ndarray, np.ndarray]:
    angles, power = _parse_table(path, _lines(path), PatternRow)
    return np.array(angles, dtype=float), np.array(power, dtype=float)


def write_config_file(path, config: RisConfig, *, theta_t: float, seed: int, **network) -> Path:
    """One (real, imaginary) row per element, under a comment carrying the element
    count, the fixed `slots=1`, the trained angle, the seed and then the `network`
    keys of CONFIG_HEADER_KINDS given, so a trained peak's file names all it was trained from."""
    pairs = {"theta_t": theta_t, "seed": seed, **network}
    tokens = (f"{key}={CONFIG_HEADER_KINDS[key](value)!r}" for key, value in pairs.items())
    header = " ".join([f"elements={config.num_elements} slots=1", *tokens])
    coeffs = config.coefficients
    return _write_table(path, ConfigRow, (coeffs.real, coeffs.imag), comments=(header,))
def read_config_file(path) -> tuple[RisConfig, dict]:
    """The configuration and its header's `key=value` pairs, each key of
    CONFIG_HEADER_KINDS converted to its kind."""
    lines = _lines(path)
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing configuration header")
    meta: dict = {}
    for token in lines[0].lstrip("#").split():
        key, _, value = token.partition("=")
        _put(meta, path, 1, key, value)
    if "elements" not in meta:
        raise ValueError(f"{path}: header key elements is missing")
    for key, kind in CONFIG_HEADER_KINDS.items():
        if key in meta:
            try:
                meta[key] = kind(meta[key])
            except ValueError:
                raise ValueError(f"{path}: header key {key} must be {kind.__name__}, got {meta[key]!r}") from None
    elements = meta["elements"]
    if meta.get("slots") != "1":
        raise ValueError(f"{path}: expected slots=1, found slots={meta.get('slots')}")
    real, imag = _parse_table(path, lines, ConfigRow)
    if len(real) != elements:
        raise ValueError(f"{path}: expected {elements} element rows, found {len(real)}")
    return RisConfig([complex(re, im) for re, im in zip(real, imag)]), meta


def read_peak_records(path) -> list[PeakRecord]:
    return read_rows(path, PeakRecord)


def read_sweep_file(path) -> tuple[list[SweepPoint], dict]:
    """A sweep table's points and its `# key=value` comments, from one read; a
    row with fewer than one trial is a ValueError naming the file and the row."""
    lines = _lines(path)
    points = _parse_rows(path, lines, SweepPoint)
    for number, point in enumerate(points, 1):
        if point.trials < 1:
            raise ValueError(f"{path}: row {number} has {point.trials} trials, expected at least 1")
    return points, _comment_meta(path, lines)


def read_sweep_table(path) -> list[SweepPoint]:
    return read_sweep_file(path)[0]


def write_loss_history(path, losses) -> Path:
    return _write_table(path, LossRow, (range(len(losses)), losses))


def read_loss_history(path) -> np.ndarray:
    """The losses of a training run, one an iteration from 0; a file whose
    iterations do not count up from 0 is a ValueError."""
    iterations, losses = _parse_table(path, _lines(path), LossRow)
    if iterations != list(range(len(iterations))):
        raise ValueError(f"{path}: iterations must count up from 0")
    return np.array(losses, dtype=float)


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
