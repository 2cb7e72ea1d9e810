"""Symbol-domain OFDM radar simulation with a reflecting element array.

Generates the post-FFT, symbol-divided received grid y[n, m] containing
a target echo, a synchronized interferer, and complex Gaussian noise:

    y[n,m] = g_t[n,m] * exp(-2j*pi*n*df*tau)   * exp(+2j*pi*fc*nu*m*T)
           + g_i[n,m] * (d_i/d_r)[n,m]
                      * exp(-2j*pi*n*df*tau_i) * exp(+2j*pi*fc*nu_i*m*T)
           + z[n,m]

where g = amplitude * (c^T b_n(angle)) makes the array gain explicit.
What no symbol or noise draw changes is built once by `frame_terms`.
A trial's draws (the symbol ratio d_i/d_r and the noise of both frames)
come from `draw_trial` and do not depend on the configuration, so
`frame_pair` can build the frames of several configurations from one
draw; that draw-then-build sequence is the one way a frame is simulated.
A frame pair builds the path once and negates it for the -c frame:
negation is exact in IEEE arithmetic, so -path equals the path simulated
with the configuration -c bit for bit.
Range and velocity are read off the peak of the zero-padded 2-D transform
of the grid, `rv_map`. A sweep trial calls `estimate_target`, which finds
that peak without building the map: after the range transform it bounds
each range row's largest map magnitude by the triangle inequality and runs
the velocity transform only on the rows whose bound can reach the best
magnitude found. Each transformed row equals that row of `rv_map` bit for
bit, so the peak is the same. The range rows and their magnitudes are
written into buffers kept for the last grid shape (`_kept`), so the trials
of a sweep reuse that memory instead of allocating it afresh. The module is
single-threaded and the sweep's pool uses processes, so no two calls use
the buffers at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import CARRIER_ONLY, SPEED_OF_LIGHT, OfdmParams, RisConfig, steering, subcarrier_ratios


@dataclass(frozen=True)
class TargetParams:
    """Point target: two-way delay tau = 2R/c, Doppler scale nu = 2v/c."""

    range_m: float
    angle_rad: float
    velocity_mps: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    @property
    def delay_s(self) -> float:
        return 2.0 * self.range_m / SPEED_OF_LIGHT

    @property
    def doppler_scale(self) -> float:
        return 2.0 * self.velocity_mps / SPEED_OF_LIGHT


@dataclass(frozen=True)
class InterferenceParams:
    """Synchronized interfering radar with its own delay, Doppler and angle."""

    delay_s: float
    angle_rad: float
    doppler_scale: float = 0.0
    amplitude: complex = 1.0 + 0.0j


_QPSK = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))


def generate_symbols(params: OfdmParams, seed: int) -> np.ndarray:
    """Draw an N x M QPSK grid, reproducible per seed: constellation points
    exp(1j*(pi/4 + k*pi/2)), k in 0..3, equiprobable."""
    return _QPSK[np.random.default_rng(seed).integers(0, 4, size=(params.num_subcarriers, params.num_symbols))]


def _gain_matrix(config: RisConfig, params: OfdmParams, theta: float, ratios: np.ndarray | None) -> np.ndarray:
    """g[n, m] = c^T b_n(theta) for every subcarrier n (b at the carrier for
    all n when `ratios` is None), repeated over the symbols m."""
    coeffs = config.coefficients
    gains = steering(coeffs.size, theta, ratios) @ coeffs  # scalar, or one per subcarrier
    return np.array(np.broadcast_to(np.reshape(gains, (-1, 1)), (params.num_subcarriers, params.num_symbols)))


@dataclass(frozen=True)
class FrameTerms:
    """What no symbol or noise draw changes: the target term g_t * ramp_t,
    the interferer's gain and ramp (a draw scales their product by d_i/d_r
    cell by cell), and the noise variance."""

    params: OfdmParams
    target: np.ndarray
    gain_i: np.ndarray
    ramp_i: np.ndarray
    noise_variance: float


def frame_terms(
    params: OfdmParams,
    config: RisConfig,
    target: TargetParams,
    interference: InterferenceParams,
    noise_variance: float,
    subcarrier_mode: str = CARRIER_ONLY,
) -> FrameTerms:
    """Check the mode, the target range (0 <= range < the unambiguous range)
    and the noise variance, then build the draw-independent terms."""
    ratios = subcarrier_ratios(params, subcarrier_mode)
    if not 0.0 <= target.range_m < params.unambiguous_range:
        raise ValueError("target range must lie in [0, unambiguous range)")
    if not 0.0 <= noise_variance < np.inf:
        raise ValueError("noise variance must be finite and non-negative")
    n = np.arange(params.num_subcarriers)
    m = np.arange(params.num_symbols)
    df = params.subcarrier_spacing
    fc_t = params.carrier_freq_hz * params.total_symbol_time

    def ramp(delay_s: float, doppler_scale: float) -> np.ndarray:
        return np.outer(np.exp(-2j * np.pi * n * df * delay_s), np.exp(2j * np.pi * fc_t * doppler_scale * m))

    gain_t = target.amplitude * _gain_matrix(config, params, target.angle_rad, ratios)
    target_term = gain_t * ramp(target.delay_s, target.doppler_scale)
    gain_i = interference.amplitude * _gain_matrix(config, params, interference.angle_rad, ratios)
    ramp_i = ramp(interference.delay_s, interference.doppler_scale)
    return FrameTerms(params, target_term, gain_i, ramp_i, noise_variance)


@dataclass
class TrialDraws:
    """One trial's random draws, which every configuration at a sweep point
    shares: the symbol ratio d_i/d_r and one complex noise grid per frame
    (None at zero variance). A consuming `frame_pair` writes its frames into
    the noise grids and empties the draws, setting both fields to None."""

    ratio: np.ndarray | None
    noise: tuple


def _symbol_ratio(params: OfdmParams, symbol_seeds: tuple[int, int]) -> np.ndarray:
    """d_i/d_r; both symbol grids are freed on return, before any noise is drawn."""
    radar, interferer = (generate_symbols(params, seed) for seed in symbol_seeds)
    return interferer / radar


def _noise(shape: tuple[int, int], variance: float, seed: int) -> np.ndarray | None:
    """Circular complex Gaussian noise with no complex temporary: the normal
    draws are scaled straight into the real and imaginary parts."""
    if variance == 0.0:
        return None
    rng = np.random.default_rng(seed)
    scale = np.sqrt(variance / 2.0)
    out = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out


def draw_trial(terms: FrameTerms, symbol_seeds: tuple[int, int], noise_seeds: tuple[int, ...]) -> TrialDraws:
    """The radar and interferer symbols from the (radar, interferer)
    `symbol_seeds`, reduced to their ratio, and one noise grid from each of
    `noise_seeds`. Only the terms' grid size and noise variance matter, so
    the draws serve every configuration whose terms share those."""
    ratio = _symbol_ratio(terms.params, symbol_seeds)
    shape = terms.target.shape
    return TrialDraws(ratio, tuple(_noise(shape, terms.noise_variance, seed) for seed in noise_seeds))


def _path(terms: FrameTerms, ratio: np.ndarray) -> np.ndarray:
    """Noise-free array path target + (g_i * d_i/d_r) * ramp_i, built in one
    buffer: IEEE addition commutes, so adding the target last in place gives
    the same bits, and the drawn noise grids get no second temporary beside them."""
    path = terms.gain_i * ratio
    path *= terms.ramp_i
    path += terms.target
    return path


def _frame(path: np.ndarray, noise: np.ndarray | None, negate: bool = False, into: bool = False) -> np.ndarray:
    """path (-path if negate) plus the drawn noise, written into the noise
    grid when `into`; without noise, frame a is the path's own fresh buffer.
    IEEE addition commutes and x - y equals x + (-y), so the bits are those
    of path + noise (-path + noise)."""
    if noise is None:
        return -path if negate else path
    out = noise if into else None
    return np.subtract(noise, path, out=out) if negate else np.add(noise, path, out=out)


def frame_pair(terms: FrameTerms, draws: TrialDraws, consume: bool = False) -> tuple:
    """Frames a and b of the sign-flipped configurations c and -c from one
    trial's draws, frame a with the first noise grid, frame b with the second.
    The path is computed once. Without `consume` the frames are fresh arrays
    and the draws serve the next configuration; with it the frames take over
    the noise grids and the draws are emptied, so nothing else holds them."""
    path = _path(terms, draws.ratio)
    noise_a, noise_b = draws.noise
    if consume:
        draws.ratio = draws.noise = None
    return _frame(path, noise_a, into=consume), _frame(path, noise_b, negate=True, into=consume)


def frame_difference(y_a: np.ndarray, y_b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(y_a - y_b) / 2 for frames simulated with configs c and -c, written
    into `out` when given (which may be y_a itself).

    Array-path terms are preserved exactly; additive terms common to
    both frames cancel exactly; independent noise averages to variance
    sigma^2 / 2.
    """
    y_a = np.asarray(y_a)
    y_b = np.asarray(y_b)
    if y_a.shape != y_b.shape:
        raise ValueError(f"frame shapes differ: {y_a.shape} vs {y_b.shape}")
    return np.divide(np.subtract(y_a, y_b, out=out), 2.0, out=out)


@dataclass(frozen=True)
class RvMap:
    """Range-velocity map with bin-to-physical-unit scale factors."""

    values: np.ndarray
    range_bin_m: float
    velocity_bin_mps: float


# The range rows and their magnitudes, one buffer per role, kept for the
# last shape asked. Allocated fresh, these grid-sized buffers went back to
# the system when freed, so each bench sweep trial faulted in about 130
# fresh pages. The module is single-threaded and the sweep's pool uses
# processes, so one set serves every call.
_KEPT: dict[str, np.ndarray] = {}


def _kept(role: str, shape: tuple[int, int], dtype: type) -> np.ndarray:
    """The buffer kept for `role`, replaced when `shape` differs from its own.
    It holds whatever the last call left, and no caller holds it past its return."""
    buffer = _KEPT.get(role)
    if buffer is None or buffer.shape != shape:
        buffer = _KEPT[role] = np.empty(shape, dtype=dtype)
    return buffer


def _range_rows(y: np.ndarray, pad_range: int, pad_velocity: int) -> np.ndarray:
    """The range transform of `rv_map`, after the checks on the grid and both
    padding factors: the inverse DFT along subcarriers of the grid zero-padded
    to pad_range*N, as an (n_range, M) array whose row r feeds range bin r.
    The array is the kept range-rows buffer, which the next call overwrites."""
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError("received grid must be 2-D")
    if int(pad_range) < 1 or int(pad_velocity) < 1:
        raise ValueError("padding factors must be >= 1")
    if y.size == 0:
        raise ValueError("range-velocity map is empty")
    rows = _kept("range rows", (int(pad_range) * y.shape[0], y.shape[1]), complex)
    rows[: y.shape[0]] = y
    rows[y.shape[0] :] = 0
    np.fft.ifft(rows, axis=0, out=rows)
    return rows


def _map_rows(rows: np.ndarray, n_range: int, n_vel: int) -> np.ndarray:
    """The map rows of the given range rows: each zero-padded to n_vel,
    transformed along the symbols in place and scaled by n_range. A row's
    bits do not depend on which other rows share the call."""
    values = np.zeros((rows.shape[0], n_vel), dtype=complex)
    values[:, : rows.shape[1]] = rows
    np.fft.fft(values, axis=1, out=values)
    values *= n_range
    return values


def _bin_sizes(params: OfdmParams, pad_range: int, pad_velocity: int) -> tuple[float, float]:
    return params.range_bin_size / int(pad_range), params.velocity_bin_size / int(pad_velocity)


def rv_map(y: np.ndarray, params: OfdmParams, pad_range: int = 1, pad_velocity: int = 1) -> RvMap:
    """Map a received grid to range-velocity space.

    Inverse DFT along subcarriers (length pad_range*N) matches the
    delay kernel exp(+2j*pi*n*df*tau_hat); forward DFT along symbols
    (length pad_velocity*M) matches the Doppler kernel
    exp(-2j*pi*m*T*fc*nu_hat). No windowing, no 1/N normalization: a
    constant grid transforms to a single peak of magnitude N*M. The
    sweep does not build this map (see `estimate_target`); it is the
    reference the peak search is held to.
    """
    rows = _range_rows(y, pad_range, pad_velocity)
    n_range, n_sym = rows.shape
    range_bin_m, velocity_bin_mps = _bin_sizes(params, pad_range, pad_velocity)
    return RvMap(_map_rows(rows, n_range, int(pad_velocity) * n_sym), range_bin_m, velocity_bin_mps)


@dataclass(frozen=True)
class PeakEstimate:
    range_m: float
    velocity_mps: float
    exact_bins: tuple[int, int]


# A map row's transform errs by about log2(n) * 2**-53 of its bound, so a
# row whose bound times this stays below the best magnitude cannot tie it.
_BOUND_MARGIN = 1.0 + 1e-9
# The transform of a row whose magnitudes sum to a large part of the float
# maximum can overflow although its cells would not (seen at 0.84 of it), so
# a row whose bound reaches this is always in the first batch: a skipped row
# never hides a non-finite cell of the full map.
_OVERFLOW_RISK = np.finfo(float).max / 4
# Map cells whose magnitudes are taken at a time. A noise-only search
# transforms every row, as the full map does; taking all their magnitudes at
# once put its heap peak (range rows, map rows and magnitudes) at glibc's trim
# threshold, so every call faulted in fresh pages. The range rows and their
# magnitudes are now kept between calls (see `_kept`); the map rows are not.
_BLOCK_CELLS = 16384


def _peak_rows(rows: np.ndarray, chosen: np.ndarray, n_range: int, n_vel: int) -> tuple[float, int, int]:
    """(magnitude, range bin, velocity bin) of the first largest |map| cell
    in row-major order over the chosen (sorted) range rows, which are
    transformed in one call; a non-finite cell raises ValueError."""
    values = _map_rows(rows[chosen], n_range, n_vel)
    peak = (-1.0, 0, 0)
    step = max(1, _BLOCK_CELLS // n_vel)
    for start in range(0, chosen.size, step):
        magnitude = np.abs(values[start : start + step])
        row, velocity_bin = divmod(int(np.argmax(magnitude)), n_vel)
        value = float(magnitude[row, velocity_bin])
        if not math.isfinite(value):  # argmax picks a NaN's index
            raise ValueError("range-velocity map is not finite")
        if value > peak[0]:
            peak = (value, int(chosen[start + row]), velocity_bin)
    return peak


def estimate_target(y: np.ndarray, params: OfdmParams, pad_range: int = 1, pad_velocity: int = 1) -> PeakEstimate:
    """The maximum-magnitude cell of rv_map(y, params, pad_range, pad_velocity),
    found without building the map.

    Map row r is n_range times the DFT of range row X[r], so none of its
    cells exceeds n_range * sum_m |X[r, m]| (the triangle inequality). The
    rows whose bound is at least half the largest are transformed first,
    then any other row whose bound (times a margin far above FFT rounding)
    reaches the best magnitude found. Each transformed row is bit for bit
    that row of the map, so the peak is the map's: ties break toward the
    lowest range bin, then the lowest velocity bin, and a map holding a
    non-finite value raises ValueError. Velocity bins above the midpoint
    wrap to negative velocities.
    """
    rows = _range_rows(y, pad_range, pad_velocity)
    n_range, n_sym = rows.shape
    n_vel = int(pad_velocity) * n_sym
    bounds = n_range * np.abs(rows, out=_kept("range magnitudes", rows.shape, float)).sum(axis=1)
    cut = min(0.5 * bounds.max(), _OVERFLOW_RISK)  # NaN once a bound is NaN: then every row goes first
    first = ~(bounds < cut)
    peaks = [_peak_rows(rows, np.flatnonzero(first), n_range, n_vel)]
    best = peaks[0][0]
    if best < cut * _BOUND_MARGIN:  # else no row below the cut can reach the best
        rest = np.flatnonzero(~first & (bounds * _BOUND_MARGIN >= best))
        if rest.size:
            peaks.append(_peak_rows(rows, rest, n_range, n_vel))
    _, range_bin, velocity_bin = min(peaks, key=lambda peak: (-peak[0], peak[1]))
    range_bin_m, velocity_bin_mps = _bin_sizes(params, pad_range, pad_velocity)
    signed_vel_bin = velocity_bin if velocity_bin < (n_vel + 1) // 2 else velocity_bin - n_vel
    return PeakEstimate(
        range_m=float(range_bin * range_bin_m),
        velocity_mps=float(signed_vel_bin * velocity_bin_mps),
        exact_bins=(range_bin, velocity_bin),
    )
