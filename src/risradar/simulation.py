"""Symbol-domain OFDM radar simulation with a reflecting element array.

Generates the post-FFT, symbol-divided received grid y[n, m] containing
a target echo, an optional synchronized interferer, and complex Gaussian
noise:

    y[n,m] = g_t[n,m] * exp(-2j*pi*n*df*tau)   * exp(+2j*pi*fc*nu*m*T)
           + g_i[n,m] * (d_i/d_v)[n,m]
                      * exp(-2j*pi*n*df*tau_i) * exp(+2j*pi*fc*nu_i*m*T)
           + z[n,m]

where g = amplitude * (C_m^T b_n(angle)) makes the array gain explicit.
The noise-free sum of the two array-path terms is built by one helper
that `simulate_received` and `simulate_frame_pair` share. A frame pair
builds it once and negates it for the -C frame: negation is exact in
IEEE arithmetic, so -path equals the path simulated with the negated
configuration bit for bit.
Range/velocity are read off a zero-padded 2-D transform of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (
    ALL_SUBCARRIERS,
    CARRIER_ONLY,
    SPEED_OF_LIGHT,
    ArrayGeometry,
    OfdmParams,
    RisConfig,
)

_MODES = (CARRIER_ONLY, ALL_SUBCARRIERS)


@dataclass(frozen=True)
class TargetParams:
    """Point target: two-way delay tau = 2R/c, Doppler scale nu = 2v/c."""

    range_m: float
    angle_rad: float
    velocity_mps: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.range_m < 0.0:
            raise ValueError("target range must be non-negative")

    @property
    def delay_s(self) -> float:
        return 2.0 * self.range_m / SPEED_OF_LIGHT

    @property
    def doppler_scale(self) -> float:
        return 2.0 * self.velocity_mps / SPEED_OF_LIGHT


@dataclass(frozen=True)
class InterferenceParams:
    """Synchronized interfering radar: its own delay/Doppler/angle and
    an independent symbol stream drawn from symbol_seed."""

    delay_s: float
    angle_rad: float
    doppler_scale: float = 0.0
    amplitude: complex = 1.0 + 0.0j
    symbol_seed: int = 0


@dataclass(frozen=True)
class NoiseParams:
    variance: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.variance < np.inf:
            raise ValueError("noise variance must be finite and non-negative")


@dataclass(frozen=True)
class SymbolGrid:
    """Unit-power QPSK symbols, one per (subcarrier, symbol) cell."""

    values: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.array(self.values, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("symbol grid must be 2-D (subcarriers x symbols)")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


_QPSK = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))


def generate_symbols(params: OfdmParams, seed: int) -> SymbolGrid:
    """Draw an N x M QPSK grid, reproducible per seed.

    Constellation points exp(1j*(pi/4 + k*pi/2)), k in 0..3, equiprobable.
    """
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 4, size=(params.num_subcarriers, params.num_symbols))
    return SymbolGrid(values=_QPSK[k], seed=int(seed))


@dataclass(frozen=True)
class RadarScenario:
    """Everything one received-grid realization depends on."""

    params: OfdmParams
    config: RisConfig
    target: TargetParams
    symbols: SymbolGrid
    interference: InterferenceParams | None = None
    noise: NoiseParams | None = None
    geometry: ArrayGeometry | None = None
    subcarrier_mode: str = CARRIER_ONLY


def _gain_matrix(
    config: RisConfig,
    params: OfdmParams,
    geometry: ArrayGeometry | None,
    theta: float,
    subcarrier_mode: str,
) -> np.ndarray:
    """g[n, m] = C_m^T b_n(theta) for every subcarrier and symbol slot."""
    coeffs = config.coefficients
    num_elements = coeffs.shape[0]
    if geometry is None:
        geometry = ArrayGeometry(num_elements)
    elif geometry.num_elements != num_elements:
        raise ValueError(
            f"geometry has {geometry.num_elements} elements, config has {num_elements}"
        )
    n_sub, n_sym = params.num_subcarriers, params.num_symbols
    if config.num_slots not in (1, n_sym):
        raise ValueError(f"config must have 1 or {n_sym} time slots, has {config.num_slots}")

    l = np.arange(num_elements)
    base = -2.0 * np.pi * geometry.element_spacing_wavelengths * l * np.cos(theta)
    offsets = geometry.offsets
    if subcarrier_mode == CARRIER_ONLY:
        ratios = np.ones(1)
    else:
        ratios = np.array([params.wavelength_ratio(n) for n in range(n_sub)])
    b = np.exp(1j * np.outer(ratios, base))  # (n_eff, L)
    if np.any(offsets != 0.0):
        freqs = params.carrier_freq_hz + np.arange(len(ratios)) * params.subcarrier_spacing
        b = b * np.exp(-2j * np.pi * np.outer(freqs / SPEED_OF_LIGHT, offsets))
    per_slot = b @ coeffs  # (n_eff, num_slots)
    if subcarrier_mode == CARRIER_ONLY:
        per_slot = np.broadcast_to(per_slot, (n_sub, config.num_slots))
    if config.num_slots == 1:
        per_slot = np.broadcast_to(per_slot, (n_sub, n_sym))
    return np.array(per_slot)


def _path_grid(scenario: RadarScenario) -> np.ndarray:
    """Noise-free array-path terms: target echo plus interferer."""
    params = scenario.params
    if scenario.subcarrier_mode not in _MODES:
        raise ValueError(f"subcarrier_mode must be one of {_MODES}")
    if scenario.target.range_m >= params.unambiguous_range:
        raise ValueError("target range beyond the unambiguous range")
    n_sub, n_sym = params.num_subcarriers, params.num_symbols
    if scenario.symbols.values.shape != (n_sub, n_sym):
        raise ValueError("symbol grid shape does not match the OFDM parameters")

    n = np.arange(n_sub)
    m = np.arange(n_sym)
    df = params.subcarrier_spacing
    fc_t = params.carrier_freq_hz * params.total_symbol_time

    target = scenario.target
    gain_t = scenario.target.amplitude * _gain_matrix(
        scenario.config, params, scenario.geometry, target.angle_rad, scenario.subcarrier_mode
    )
    grid = gain_t * np.outer(
        np.exp(-2j * np.pi * n * df * target.delay_s),
        np.exp(2j * np.pi * fc_t * target.doppler_scale * m),
    )

    interference = scenario.interference
    if interference is not None:
        gain_i = interference.amplitude * _gain_matrix(
            scenario.config, params, scenario.geometry, interference.angle_rad, scenario.subcarrier_mode
        )
        ratio = generate_symbols(params, interference.symbol_seed).values / scenario.symbols.values
        grid = grid + gain_i * ratio * np.outer(
            np.exp(-2j * np.pi * n * df * interference.delay_s),
            np.exp(2j * np.pi * fc_t * interference.doppler_scale * m),
        )
    return grid


def _add_noise(grid: np.ndarray, noise: NoiseParams | None) -> np.ndarray:
    """grid plus circular complex Gaussian noise of the given variance."""
    if noise is None or noise.variance == 0.0:
        return grid
    rng = np.random.default_rng(noise.seed)
    scale = np.sqrt(noise.variance / 2.0)
    return grid + scale * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def simulate_received(scenario: RadarScenario) -> np.ndarray:
    """One symbol-divided received grid for the given scenario."""
    return _add_noise(_path_grid(scenario), scenario.noise)


def simulate_frame_pair(
    scenario: RadarScenario,
    static_term: np.ndarray | None = None,
    noise_seeds: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two consecutive frames with sign-flipped configurations.

    Both frames share the symbol streams and any static (array-independent)
    additive term; noise is drawn independently per frame. The array path
    is computed once: frame a is path + noise_a, frame b is -path + noise_b,
    which equals simulating the negated configuration bit for bit. Frame
    differencing therefore preserves the array-path terms and cancels the
    static term exactly.
    """
    noise = scenario.noise
    if noise_seeds is None:
        if noise is not None:
            seq = np.random.SeedSequence(noise.seed)
            noise_seeds = tuple(int(s) for s in seq.generate_state(2))
        else:
            noise_seeds = (0, 0)

    def one_frame(signed_path: np.ndarray, seed: int) -> np.ndarray:
        grid = _add_noise(signed_path, None if noise is None else NoiseParams(noise.variance, seed))
        if static_term is not None:
            grid = grid + np.asarray(static_term)
        return grid

    path = _path_grid(scenario)
    return one_frame(path, noise_seeds[0]), one_frame(-path, noise_seeds[1])


def frame_difference(y_a: np.ndarray, y_b: np.ndarray) -> np.ndarray:
    """(y_a - y_b) / 2 for frames simulated with configs C and -C.

    Array-path terms are preserved exactly; additive terms common to
    both frames cancel exactly; independent noise averages to variance
    sigma^2 / 2.
    """
    y_a = np.asarray(y_a)
    y_b = np.asarray(y_b)
    if y_a.shape != y_b.shape:
        raise ValueError(f"frame shapes differ: {y_a.shape} vs {y_b.shape}")
    return (y_a - y_b) / 2.0


@dataclass(frozen=True)
class RvMap:
    """Range-velocity map with bin-to-physical-unit scale factors."""

    values: np.ndarray
    range_bin_m: float
    velocity_bin_mps: float
    pad_range: int
    pad_velocity: int

    @property
    def num_range_bins(self) -> int:
        return self.values.shape[0]

    @property
    def num_velocity_bins(self) -> int:
        return self.values.shape[1]


def rv_map(y: np.ndarray, params: OfdmParams, pad_range: int = 1, pad_velocity: int = 1) -> RvMap:
    """Map a received grid to range-velocity space.

    Inverse DFT along subcarriers (length pad_range*N) matches the
    delay kernel exp(+2j*pi*n*df*tau_hat); forward DFT along symbols
    (length pad_velocity*M) matches the Doppler kernel
    exp(-2j*pi*m*T*fc*nu_hat). No windowing, no 1/N normalization: a
    constant grid transforms to a single peak of magnitude N*M.
    """
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError("received grid must be 2-D")
    if int(pad_range) < 1 or int(pad_velocity) < 1:
        raise ValueError("padding factors must be >= 1")
    n_sub, n_sym = y.shape
    n_range = int(pad_range) * n_sub
    n_vel = int(pad_velocity) * n_sym
    values = n_range * np.fft.fft(np.fft.ifft(y, n=n_range, axis=0), n=n_vel, axis=1)
    return RvMap(
        values=values,
        range_bin_m=params.range_bin_size / int(pad_range),
        velocity_bin_mps=params.velocity_bin_size / int(pad_velocity),
        pad_range=int(pad_range),
        pad_velocity=int(pad_velocity),
    )


@dataclass(frozen=True)
class PeakEstimate:
    range_m: float
    velocity_mps: float
    peak_power: float
    exact_bins: tuple[int, int]


def estimate_target(rv: RvMap) -> PeakEstimate:
    """Maximum-magnitude peak search over the map.

    Ties break toward the lowest range bin, then the lowest velocity
    bin. Velocity bins above the midpoint wrap to negative velocities.
    """
    magnitude = np.abs(rv.values)
    if magnitude.size == 0:
        raise ValueError("range-velocity map is empty")
    range_bin, velocity_bin = np.unravel_index(int(np.argmax(magnitude)), magnitude.shape)
    n_vel = rv.num_velocity_bins
    signed_vel_bin = velocity_bin if velocity_bin < (n_vel + 1) // 2 else velocity_bin - n_vel
    return PeakEstimate(
        range_m=float(range_bin * rv.range_bin_m),
        velocity_mps=float(signed_vel_bin * rv.velocity_bin_mps),
        peak_power=float(magnitude[range_bin, velocity_bin] ** 2),
        exact_bins=(int(range_bin), int(velocity_bin)),
    )


def range_error_metric(true_range_m: float, estimated_range_m: float) -> float:
    """Absolute range estimation error in meters."""
    return abs(float(true_range_m) - float(estimated_range_m))
