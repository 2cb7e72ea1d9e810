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
interferer at pi/4); a key whose domain field has a default takes it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .arrays import DB_FLOOR, FieldError, OfdmParams
from .simulation import TargetParams
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
    """A comma list of floats; an empty item, as a leading, doubled or trailing comma gives, is a ValueError."""
    items = [part.strip() for part in str(text).split(",")]
    if not all(items):
        raise ValueError(f"empty item in {text!r}")
    return tuple(float(v) for v in items)


_CONVERTERS = {"float": float, "int": int, "str": str, "tuple[float, ...]": _float_list}
# the key sections whose fields are those of a domain type
_DOMAINS = {"ofdm.": OfdmParams, "network.": PeakNetSpec, "notch.": NotchSpec}


def _key(key: str, default):
    """A Scenario field that the text sets under `key`; its annotation picks the converter."""
    return dataclasses.field(default=default, metadata={"key": key})


@dataclasses.dataclass(frozen=True)
class Scenario:
    carrier_freq_hz: float = _key("ofdm.carrier_freq_hz", 77e9)
    bandwidth_hz: float = _key("ofdm.bandwidth_hz", 200e6)
    num_subcarriers: int = _key("ofdm.num_subcarriers", 100)
    num_symbols: int = _key("ofdm.num_symbols", 50)
    cp_ratio: float = _key("ofdm.cp_ratio", OfdmParams.cp_ratio)
    num_peak_elements: int = _key("geometry.num_peak_elements", 200)
    target_angle_rad: float = _key("angles.target_rad", 2.0 * np.pi / 5.0)
    interferer_angle_rad: float = _key("angles.interferer_rad", np.pi / 4.0)
    net_num_layers: int = _key("network.num_layers", PeakNetSpec.num_layers)
    net_hidden_width: int = _key("network.hidden_width", PeakNetSpec.hidden_width)
    net_learning_rate: float = _key("network.learning_rate", PeakNetSpec.learning_rate)
    net_num_iterations: int = _key("network.num_iterations", PeakNetSpec.num_iterations)
    net_init_seed: int = _key("network.init_seed", PeakNetSpec.init_seed)
    num_notches: int = _key("notch.num_notches", NotchSpec.num_notches)
    notch_spacing_rad: float = _key("notch.spacing_rad", NotchSpec.spacing_rad)
    power_ratios_db: tuple[float, ...] = _key("sweep.power_ratios_db", (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0))
    angle_offsets_rad: tuple[float, ...] = _key(
        "sweep.angle_offsets_rad", (-0.02, -0.015, -0.01, -0.005, 0.0, 0.005, 0.01, 0.015, 0.02)
    )
    trials: int = _key("sweep.trials", 50)
    target_range_m: float = _key("sweep.target_range_m", 30.0)
    target_velocity_mps: float = _key("sweep.target_velocity_mps", 0.0)
    interferer_delay_s: float = _key("sweep.interferer_delay_s", 3e-7)
    interferer_doppler_scale: float = _key("sweep.interferer_doppler_scale", 0.0)
    noise_variance: float = _key("sweep.noise_variance", 1.0)
    pad_range: int = _key("sweep.pad_range", 4)
    pad_velocity: int = _key("sweep.pad_velocity", 4)
    master_seed: int = _key("master_seed", 0)
    output_dir: str = _key("output_dir", "out")

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
        params = self.ofdm_params()
        # the largest phases of the delay and Doppler ramps, formed in the order the simulation forms them
        delay_phase = 2.0 * np.pi * (params.num_subcarriers - 1) * params.subcarrier_spacing
        doppler_phase = 2.0 * np.pi * (params.carrier_freq_hz * params.total_symbol_time)
        target_scale = TargetParams(self.target_range_m, self.target_angle_rad, self.target_velocity_mps).doppler_scale
        for key, phase in (
            ("sweep.interferer_delay_s", delay_phase * abs(self.interferer_delay_s)),
            ("sweep.interferer_doppler_scale", doppler_phase * abs(self.interferer_doppler_scale) * (self.num_symbols - 1)),
            ("sweep.target_velocity_mps", doppler_phase * abs(target_scale) * (self.num_symbols - 1)),
        ):
            _require(bool(np.isfinite(phase)), key, "must keep its phase ramp over the frame finite")
        max_range = params.unambiguous_range
        _require(
            0.0 <= self.target_range_m < max_range,
            "sweep.target_range_m",
            f"must lie in [0, {max_range!r}) m, below the unambiguous range",
        )
        _require(self.noise_variance >= 0.0, "sweep.noise_variance", "must be non-negative")
        _require(self.pad_range >= 1, "sweep.pad_range", "must be a padding factor >= 1")
        _require(self.pad_velocity >= 1, "sweep.pad_velocity", "must be a padding factor >= 1")
        _require(self.master_seed >= 0, "master_seed", "must be non-negative")

    def _domain(self, section: str, **given):
        """The section's domain object from its keys' values; a value given, unless None, sets its field."""
        fields = {field: getattr(self, attr) for field, attr in _SECTIONS[section]}
        fields.update((field, value) for field, value in given.items() if value is not None)
        return _DOMAINS[section](**fields)

    def ofdm_params(self) -> OfdmParams:
        return self._domain("ofdm.")

    def network_spec(self) -> PeakNetSpec:
        return self._domain("network.")

    def notch_spec(self, num_notches: int | None = None, spacing_rad: float | None = None) -> NotchSpec:
        return self._domain(
            "notch.", notch_angle_rad=self.interferer_angle_rad, num_notches=num_notches, spacing_rad=spacing_rad
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


# key -> (attribute, converter), in field order
_SCHEMA = {f.metadata["key"]: (f.name, _CONVERTERS[f.type]) for f in dataclasses.fields(Scenario)}
# section -> (domain field, attribute) of each of its keys
_SECTIONS = {
    section: tuple((key.removeprefix(section), attr) for key, (attr, _) in _SCHEMA.items() if key.startswith(section))
    for section in _DOMAINS
}


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
