"""Declarative experiment scenarios.

Flat `key = value` text files with dotted sections (ofdm.*, geometry.*,
angles.*, network.*, notch.*, sweep.*) plus the top-level master_seed
and output_dir. Unknown keys, duplicate keys, out-of-domain values and a
value repeated on a sweep axis are rejected with distinct diagnostics; a
check on a key the file sets names its line. The ofdm.*, network.* and
notch.* rules are those of OfdmParams, PeakNetSpec and NotchSpec, whose
FieldError names the key section + field; the scenario states the rest.
Omitted keys fall back to the defaults below (77 GHz carrier, 200 MHz
bandwidth, 100 x 50 grid, 200-element peak array, target at 2*pi/5,
interferer at pi/4).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .arrays import DB_FLOOR, FieldError, OfdmParams
from .synthesis import NotchSpec, PeakNetSpec


class ScenarioError(ValueError):
    """Scenario rejected: carries a single-problem diagnostic and, when
    one field is at fault, the scenario key that names it."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _require(ok: bool, key: str, requirement: str) -> None:
    if not ok:
        raise ScenarioError(f"{key} {requirement}", key)


def _float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(float(v) for v in items)


# key -> (attribute, converter)
_SCHEMA = {
    "ofdm.carrier_freq_hz": ("carrier_freq_hz", float),
    "ofdm.bandwidth_hz": ("bandwidth_hz", float),
    "ofdm.num_subcarriers": ("num_subcarriers", int),
    "ofdm.num_symbols": ("num_symbols", int),
    "ofdm.cp_ratio": ("cp_ratio", float),
    "geometry.num_peak_elements": ("num_peak_elements", int),
    "angles.target_rad": ("target_angle_rad", float),
    "angles.interferer_rad": ("interferer_angle_rad", float),
    "network.num_layers": ("net_num_layers", int),
    "network.hidden_width": ("net_hidden_width", int),
    "network.learning_rate": ("net_learning_rate", float),
    "network.num_iterations": ("net_num_iterations", int),
    "network.init_seed": ("net_init_seed", int),
    "notch.num_notches": ("num_notches", int),
    "notch.spacing_rad": ("notch_spacing_rad", float),
    "sweep.power_ratios_db": ("power_ratios_db", _float_list),
    "sweep.angle_offsets_rad": ("angle_offsets_rad", _float_list),
    "sweep.trials": ("trials", int),
    "sweep.target_range_m": ("target_range_m", float),
    "sweep.target_velocity_mps": ("target_velocity_mps", float),
    "sweep.interferer_delay_s": ("interferer_delay_s", float),
    "sweep.interferer_doppler_scale": ("interferer_doppler_scale", float),
    "sweep.noise_variance": ("noise_variance", float),
    "sweep.pad_range": ("pad_range", int),
    "sweep.pad_velocity": ("pad_velocity", int),
    "master_seed": ("master_seed", int),
    "output_dir": ("output_dir", str),
}

@dataclasses.dataclass(frozen=True)
class Scenario:
    carrier_freq_hz: float = 77e9
    bandwidth_hz: float = 200e6
    num_subcarriers: int = 100
    num_symbols: int = 50
    cp_ratio: float = 0.125
    num_peak_elements: int = 200
    target_angle_rad: float = 2.0 * np.pi / 5.0
    interferer_angle_rad: float = np.pi / 4.0
    net_num_layers: int = 6
    net_hidden_width: int = 128
    net_learning_rate: float = 1e-2
    net_num_iterations: int = 5000
    net_init_seed: int = 0
    num_notches: int = 1
    notch_spacing_rad: float = 0.0
    power_ratios_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    angle_offsets_rad: tuple[float, ...] = (-0.02, -0.015, -0.01, -0.005, 0.0, 0.005, 0.01, 0.015, 0.02)
    trials: int = 50
    target_range_m: float = 30.0
    target_velocity_mps: float = 0.0
    interferer_delay_s: float = 3e-7
    interferer_doppler_scale: float = 0.0
    noise_variance: float = 1.0
    pad_range: int = 4
    pad_velocity: int = 4
    master_seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        for key, (attr, conv) in _SCHEMA.items():
            if conv in (float, _float_list):
                _require(np.all(np.isfinite(getattr(self, attr))), key, "must be finite")
        _require(self.num_peak_elements >= 1, "geometry.num_peak_elements", "must be a positive integer")
        _require(0.0 <= self.target_angle_rad <= np.pi, "angles.target_rad", "must lie in [0, pi]")
        _require(0.0 <= self.interferer_angle_rad <= np.pi, "angles.interferer_rad", "must lie in [0, pi]")
        for section, build in (("ofdm.", self.ofdm_params), ("network.", self.network_spec), ("notch.", self.notch_spec)):
            try:
                build()
            except FieldError as exc:
                raise ScenarioError(f"{section}{exc}", section + exc.field) from None
        # the program's dB floor and cap; far beyond it the amplitude 10**(r/20) overflows
        _require(bool(np.all(np.abs(self.power_ratios_db) <= -DB_FLOOR)), "sweep.power_ratios_db", "must lie in [-300, 300] dB")
        shifted = self.interferer_angle_rad + np.asarray(self.angle_offsets_rad)
        _require(
            bool(np.all((0.0 <= shifted) & (shifted <= np.pi))),
            "sweep.angle_offsets_rad",
            "pushes the interferer outside [0, pi]",
        )
        for key, axis in (("sweep.power_ratios_db", self.power_ratios_db), ("sweep.angle_offsets_rad", self.angle_offsets_rad)):
            _require(len(set(map(float, axis))) == len(axis), key, "must not repeat a value")  # -0.0 repeats 0.0
        _require(self.trials >= 1, "sweep.trials", "must be a positive integer")
        max_range = self.ofdm_params().unambiguous_range
        _require(
            0.0 <= self.target_range_m < max_range,
            "sweep.target_range_m",
            f"must lie in [0, {max_range!r}) m, below the unambiguous range",
        )
        _require(self.noise_variance >= 0.0, "sweep.noise_variance", "must be non-negative")
        _require(self.pad_range >= 1, "sweep.pad_range", "must be a padding factor >= 1")
        _require(self.pad_velocity >= 1, "sweep.pad_velocity", "must be a padding factor >= 1")
        _require(self.master_seed >= 0, "master_seed", "must be non-negative")

    def ofdm_params(self) -> OfdmParams:
        return OfdmParams(
            carrier_freq_hz=self.carrier_freq_hz,
            bandwidth_hz=self.bandwidth_hz,
            num_subcarriers=self.num_subcarriers,
            num_symbols=self.num_symbols,
            cp_ratio=self.cp_ratio,
        )

    def network_spec(self) -> PeakNetSpec:
        return PeakNetSpec(
            num_layers=self.net_num_layers,
            hidden_width=self.net_hidden_width,
            learning_rate=self.net_learning_rate,
            num_iterations=self.net_num_iterations,
            init_seed=self.net_init_seed,
        )

    def notch_spec(self, num_notches: int | None = None, spacing_rad: float | None = None) -> NotchSpec:
        return NotchSpec(
            notch_angle_rad=self.interferer_angle_rad,
            num_notches=self.num_notches if num_notches is None else num_notches,
            spacing_rad=self.notch_spacing_rad if spacing_rad is None else spacing_rad,
        )

    def replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def to_text(self) -> str:
        """Echo every resolved key, parseable by parse_scenario."""
        lines = []
        for key, (attr, conv) in _SCHEMA.items():
            value = getattr(self, attr)
            if conv is _float_list:
                rendered = ",".join(repr(float(v)) for v in value)
            elif conv is float:
                rendered = repr(float(value))
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from `key = value` text; every diagnostic about a
    key the text sets starts with `line N: `."""
    values: dict = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ScenarioError(f"line {lineno}: unknown scenario key {key!r}")
        if key in line_of:
            raise ScenarioError(f"line {lineno}: duplicate scenario key {key!r}")
        line_of[key] = lineno
        attr, conv = _SCHEMA[key]
        try:
            values[attr] = conv(value)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    try:
        return Scenario(**values)
    except ScenarioError as exc:
        if exc.key not in line_of:
            raise
        raise ScenarioError(f"line {line_of[exc.key]}: {exc}", exc.key) from None


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_scenario(text)


def default_scenario() -> Scenario:
    return Scenario()
