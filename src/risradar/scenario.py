"""Declarative experiment scenarios.

Flat `key = value` text files with dotted sections (ofdm.*, geometry.*,
angles.*, network.*, notch.*, sweep.*) plus the top-level master_seed
and output_dir. Unknown keys, duplicates, and out-of-domain values are
rejected with distinct diagnostics. Omitted keys fall back to the
defaults below (77 GHz carrier, 200 MHz bandwidth, 100 x 50 grid,
200-element peak array, target at 2*pi/5, interferer at pi/4).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .arrays import OfdmParams
from .synthesis import NotchSpec, PeakNetSpec


class ScenarioError(ValueError):
    """Scenario file rejected: carries a single-problem diagnostic."""


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
    "geometry.element_spacing_wavelengths": ("element_spacing_wavelengths", float),
    "angles.target_rad": ("target_angle_rad", float),
    "angles.interferer_rad": ("interferer_angle_rad", float),
    "network.num_layers": ("net_num_layers", int),
    "network.hidden_width": ("net_hidden_width", int),
    "network.learning_rate": ("net_learning_rate", float),
    "network.num_iterations": ("net_num_iterations", int),
    "network.init_seed": ("net_init_seed", int),
    "network.optimizer": ("net_optimizer", str),
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

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _SCHEMA.items()}


@dataclass(frozen=True)
class Scenario:
    carrier_freq_hz: float = 77e9
    bandwidth_hz: float = 200e6
    num_subcarriers: int = 100
    num_symbols: int = 50
    cp_ratio: float = 0.125
    num_peak_elements: int = 200
    element_spacing_wavelengths: float = 0.5
    target_angle_rad: float = 2.0 * np.pi / 5.0
    interferer_angle_rad: float = np.pi / 4.0
    net_num_layers: int = 6
    net_hidden_width: int = 128
    net_learning_rate: float = 1e-2
    net_num_iterations: int = 5000
    net_init_seed: int = 0
    net_optimizer: str = "adam"
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
            if conv in (float, _float_list) and not np.all(np.isfinite(getattr(self, attr))):
                raise ScenarioError(f"{key} must be finite")
        if self.num_subcarriers < 1:
            raise ScenarioError("ofdm.num_subcarriers must be a positive integer")
        if self.num_symbols < 1:
            raise ScenarioError("ofdm.num_symbols must be a positive integer")
        if not 0.0 <= self.target_angle_rad <= np.pi:
            raise ScenarioError("angles.target_rad must lie in [0, pi]")
        if not 0.0 <= self.interferer_angle_rad <= np.pi:
            raise ScenarioError("angles.interferer_rad must lie in [0, pi]")
        if self.notch_spacing_rad < 0.0:
            raise ScenarioError("notch.spacing_rad must be non-negative")
        if self.num_notches < 1:
            raise ScenarioError("notch.num_notches must be at least 1")
        if self.trials < 1:
            raise ScenarioError("sweep.trials must be a positive integer")
        if self.num_peak_elements < 1:
            raise ScenarioError("geometry.num_peak_elements must be a positive integer")
        if self.noise_variance < 0.0:
            raise ScenarioError("sweep.noise_variance must be non-negative")
        if self.pad_range < 1 or self.pad_velocity < 1:
            raise ScenarioError("sweep padding factors must be >= 1")

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
            optimizer=self.net_optimizer,
        )

    def notch_spec(self, num_notches: int | None = None, spacing_rad: float | None = None) -> NotchSpec:
        return NotchSpec(
            notch_angle_rad=self.interferer_angle_rad,
            num_notches=self.num_notches if num_notches is None else num_notches,
            spacing_rad=self.notch_spacing_rad if spacing_rad is None else spacing_rad,
        )

    def replace(self, **changes) -> "Scenario":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(changes)
        return Scenario(**values)

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
    values: dict = {}
    seen: set[str] = set()
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
        if key in seen:
            raise ScenarioError(f"line {lineno}: duplicate scenario key {key!r}")
        seen.add(key)
        attr, conv = _SCHEMA[key]
        try:
            values[attr] = conv(value)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return Scenario(**values)


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def default_scenario() -> Scenario:
    return Scenario()
