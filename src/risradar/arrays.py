"""OFDM parameters, the array-response kernel, and beampattern evaluation.

Shared math substrate for configuration synthesis and the OFDM radar
simulation.  All angles are in radians over [0, pi] (linear-array
half-space).  The array has half-wavelength element spacing at the
carrier, so element l responds to a plane wave from theta at subcarrier
n with exp(-1j * pi * (f_n / f_c) * l * cos(theta)); `steering` is the
one place that phase is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Radar convention (not the CODATA value): keeps c/(2B) range bins at
# exact decimals for the default 200 MHz bandwidth.
SPEED_OF_LIGHT = 3.0e8

CARRIER_ONLY = "carrier"
ALL_SUBCARRIERS = "all"
_MODES = (CARRIER_ONLY, ALL_SUBCARRIERS)

DB_FLOOR = -300.0
GRID_POINTS = 721  # the default angle grid over [0, 180] deg: 0.25 deg steps


class FieldError(ValueError):
    """A domain object's field breaks its rule; the message is `<field> <requirement>`."""

    def __init__(self, field: str, requirement: str):
        super().__init__(field, requirement)  # every argument, so a pickled error rebuilds
        self.field = field
        self.requirement = requirement

    def __str__(self) -> str:
        return f"{self.field} {self.requirement}"


@dataclass(frozen=True)
class OfdmParams:
    """OFDM waveform parameters and the quantities derived from them.

    Subcarrier frequencies are f_n = carrier_freq_hz + n * subcarrier_spacing
    for n in 0..num_subcarriers-1, so subcarrier 0 sits exactly at the
    carrier.
    """

    carrier_freq_hz: float
    bandwidth_hz: float
    num_subcarriers: int
    num_symbols: int
    cp_ratio: float = 0.125

    def __post_init__(self):
        if not self.carrier_freq_hz > 0:
            raise FieldError("carrier_freq_hz", "must be positive")
        if not self.bandwidth_hz > 0:
            raise FieldError("bandwidth_hz", "must be positive")
        if not self.num_subcarriers >= 1:
            raise FieldError("num_subcarriers", "must be a positive integer")
        if not self.num_symbols >= 1:
            raise FieldError("num_symbols", "must be a positive integer")
        if not 0.0 <= self.cp_ratio < 1.0:
            raise FieldError("cp_ratio", "must lie in [0, 1)")

    @property
    def subcarrier_spacing(self) -> float:
        return self.bandwidth_hz / self.num_subcarriers

    @property
    def symbol_time(self) -> float:
        return 1.0 / self.subcarrier_spacing

    @property
    def total_symbol_time(self) -> float:
        """Symbol duration including the cyclic prefix."""
        return self.symbol_time * (1.0 + self.cp_ratio)

    @property
    def range_bin_size(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def unambiguous_range(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.subcarrier_spacing)


@dataclass(frozen=True)
class RisConfig:
    """Complex reflection coefficients, one per element.

    Magnitudes are unconstrained (convolution-combined configurations
    need amplitude freedom).
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)  # private, read-only copy
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def num_elements(self) -> int:
        return self.coefficients.size

    def static_column(self) -> np.ndarray:
        """The coefficient vector, an alias of `coefficients` that the benchmark calls."""
        return self.coefficients


def subcarrier_ratios(params: OfdmParams, subcarrier_mode: str) -> np.ndarray:
    """lambda / lambda_n = (f_c + n * df) / f_c, the per-subcarrier phase
    stretch, for every subcarrier n in "all" mode and for n = 0 alone, the
    carrier's exact 1.0, in "carrier" mode. An unknown mode is a ValueError."""
    if subcarrier_mode not in _MODES:
        raise ValueError(f"subcarrier_mode must be one of {_MODES}")
    count = params.num_subcarriers if subcarrier_mode == ALL_SUBCARRIERS else 1
    fc = params.carrier_freq_hz
    return (fc + np.arange(count) * params.subcarrier_spacing) / fc


def steering(num_elements: int, thetas, ratios=None) -> np.ndarray:
    """Array response b_l = exp(-1j * pi * r * l * cos(theta)).

    `thetas` and `ratios` (r = f_n / f_c, the carrier alone when omitted)
    are scalars or 1-D; the result has shape (A, L), or (R, A, L) with
    ratios, where a scalar contributes no axis.  The pattern of
    coefficients c is steering(...) @ c.

    The phase is formed as r * ((pi * l) * cos(theta)); training and the
    simulated gains are pinned bit for bit to that order.
    """
    if num_elements < 1:
        raise ValueError("num_elements must be a positive integer")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim > 1 or (ratios is not None and np.ndim(ratios) > 1):
        raise ValueError("thetas and ratios must be scalars or 1-D arrays")
    phase = np.multiply.outer(np.cos(thetas), np.pi * np.arange(num_elements))
    if ratios is not None:
        phase = np.multiply.outer(ratios, phase)
    # exponentiate in place so the real phase never outlives its complex image
    b = -1j * phase
    del phase
    return np.exp(b, out=b)


def power_patterns(configs, params: OfdmParams, angles, subcarrier_mode: str = CARRIER_ONLY) -> list[np.ndarray]:
    """Received power versus angle, sum_n |c^T b_n(phi)|^2, for each configuration.

    Parameters
    ----------
    configs : sequence of RisConfig
        Share one steering block per subcarrier; one of L elements reads its leading L columns.
    angles : array of radians
        Evaluation grid (non-empty).
    subcarrier_mode : "carrier" or "all"
        "carrier" restricts the sum to the carrier subcarrier (n = 0);
        "all" sums over every subcarrier with its exact wavelength.
    """
    coeffs = [config.coefficients for config in configs]
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size == 0:
        raise ValueError("angle grid must be non-empty")
    ratios = subcarrier_ratios(params, subcarrier_mode)
    totals = [np.zeros(angles.shape) for _ in coeffs]
    # one (angles x elements) block per subcarrier, freed before the next, keeps memory flat in N
    for ratio in ratios:
        block = steering(max((c.size for c in coeffs), default=1), angles, ratio)
        for total, c in zip(totals, coeffs):
            total += np.abs(block[:, : c.size] @ c) ** 2
        del block
    return totals


def normalize_pattern_db(pattern) -> np.ndarray:
    """Normalize a linear power pattern to peak 0 dB.

    Exact zeros map to DB_FLOOR so log-scale plots stay finite; an
    all-zero pattern is rejected.
    """
    p = np.atleast_1d(np.asarray(pattern, dtype=float))
    if np.any(p < 0.0):
        raise ValueError("power pattern must be non-negative")
    peak = p.max() if p.size else 0.0
    if peak <= 0.0:
        raise ValueError("pattern has no positive entry to normalize against")
    out = np.full(p.shape, DB_FLOOR)
    nonzero = p > 0.0
    out[nonzero] = 10.0 * np.log10(p[nonzero] / peak)
    return out


def angle_grid_deg(num_points: int = GRID_POINTS) -> np.ndarray:
    """Inclusive [0, 180] degree grid."""
    if num_points < 2:
        raise ValueError("angle grid needs at least two points")
    return np.linspace(0.0, 180.0, num_points)


def angle_grid(num_points: int = GRID_POINTS) -> np.ndarray:
    """Inclusive [0, pi] radian grid matching angle_grid_deg."""
    return np.deg2rad(angle_grid_deg(num_points))
