"""Symbol-domain OFDM radar simulation with a reflecting element array.

Generates the post-FFT, symbol-divided received grid y[n, m] containing
a target echo, a synchronized interferer, and complex Gaussian noise:

    y[n,m] = g_t[n,m] * exp(-2j*pi*n*df*tau)   * exp(+2j*pi*fc*nu*m*T)
           + g_i[n,m] * (d_i/d_r)[n,m]
                      * exp(-2j*pi*n*df*tau_i) * exp(+2j*pi*fc*nu_i*m*T)
           + z[n,m]

where g = amplitude * (c^T b_n(angle)) makes the array gain explicit.
What no symbol or noise draw changes is built once by `frame_terms`.

The radar measures the frames of the sign-flipped configurations c and -c
and keeps their difference (y_a - y_b)/2 = path + (z_a - z_b)/2: every term
goes through the array, so the difference keeps the whole path, and the
noise difference is circular Gaussian of variance sigma^2/2. With
independent, uniform QPSK symbols the ratio d_i/d_r is uniform on
{1, j, -1, -j}. So a sweep trial draws, from one generator, exactly what
the difference reads (`draw_trial`): one index grid into those four exact
values and one noise grid of variance sigma^2/2. `trial_grid` builds
path + noise in one buffer, and every configuration at a sweep point
reads the same read-only draws.

The target's range is read off the peak of the range-velocity map of the
grid. The grid, zero-padded to pad_range*N subcarriers and pad_velocity*M
symbols, goes through the inverse DFT along subcarriers, whose kernel
exp(+2j*pi*n*df*tau_hat) matches the delay term, and the forward DFT along
symbols, whose kernel exp(-2j*pi*m*T*fc*nu_hat) matches the Doppler term,
and is scaled by pad_range*N. With no window and no other normalization, a
constant grid maps to one peak of magnitude N*M. `estimate_target` finds
that peak's range without building the map: after the range transform it
bounds each range row's largest map magnitude by the triangle inequality
and runs the velocity transform only on the rows whose bound can reach the
best magnitude found. A transformed row has the bits of that row of the
full map, so the peak is the same. The range rows and their magnitudes are
written into the pair of buffers kept for the last grid shape
(`_search_buffers`), so the trials of a sweep reuse that memory instead of
allocating it afresh. The module is single-threaded and the sweep's pool
uses processes, so no two calls use the buffers at once.
"""

from __future__ import annotations

import functools
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


def _gain_column(config: RisConfig, theta: float, ratios: np.ndarray) -> np.ndarray:
    """g[n] = c^T b_n(theta) as a (len(ratios), 1) column, for broadcasting
    over the symbols."""
    coeffs = config.coefficients
    return np.reshape(steering(coeffs.size, theta, ratios) @ coeffs, (-1, 1))


def _freeze(*arrays) -> None:
    for array in arrays:
        if array is not None:
            array.flags.writeable = False


@dataclass(frozen=True)
class FrameTerms:
    """What no symbol or noise draw changes: the (N, M) target term
    g_t * ramp_t, the interferer's gain column and ramp (a draw scales their
    product by d_i/d_r cell by cell), and the noise variance. The arrays are
    read-only, so the terms serve every trial at a sweep point."""

    params: OfdmParams
    target: np.ndarray
    gain_i: np.ndarray
    ramp_i: np.ndarray
    noise_variance: float

    def __post_init__(self):
        _freeze(self.target, self.gain_i, self.ramp_i)


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

    gain_t = target.amplitude * _gain_column(config, target.angle_rad, ratios)
    target_term = gain_t * ramp(target.delay_s, target.doppler_scale)
    gain_i = interference.amplitude * _gain_column(config, interference.angle_rad, ratios)
    ramp_i = ramp(interference.delay_s, interference.doppler_scale)
    return FrameTerms(params, target_term, gain_i, ramp_i, noise_variance)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, int], part_variance: float) -> np.ndarray:
    """Circular complex Gaussian grid with no complex temporary: the real
    parts are drawn first, then the imaginary parts, each N(0, part_variance)
    and scaled straight into its half of the grid."""
    scale = np.sqrt(part_variance)
    out = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out


# d_i/d_r of two QPSK symbols, exactly: exp(1j*k*pi/2) for k = 0..3
_RATIOS = np.array([1.0, 1.0j, -1.0, -1.0j])


@dataclass(frozen=True)
class TrialDraws:
    """One sweep trial's draws, which every configuration at its point reads:
    the symbol ratio d_i/d_r, each cell exactly one of {1, j, -1, -j}, and the
    noise of the frame difference (None at zero variance). The arrays are
    read-only."""

    ratio: np.ndarray
    noise: np.ndarray | None

    def __post_init__(self):
        _freeze(self.ratio, self.noise)


def draw_trial(terms: FrameTerms, seed: int) -> TrialDraws:
    """Everything a trial's frame difference reads, from one generator seeded
    with `seed`: the ratio as uniform indices into {1, j, -1, -j}, then one
    complex noise grid of variance sigma^2/2 (sigma^2/4 a part), the variance
    of (z_a - z_b)/2. Only the terms' grid size and noise variance matter, so
    the draws serve every configuration whose terms share those."""
    rng = np.random.default_rng(seed)
    shape = terms.target.shape
    ratio = _RATIOS[rng.integers(0, 4, shape)]
    noise = None if terms.noise_variance == 0.0 else _complex_normal(rng, shape, terms.noise_variance / 4.0)
    return TrialDraws(ratio, noise)


def trial_grid(terms: FrameTerms, draws: TrialDraws) -> np.ndarray:
    """The grid a sweep trial searches, path + noise, built in one buffer:
    the frame difference (y_a - y_b)/2 of the sign-flipped pair, with the
    pair's two noise draws replaced by the one noise grid of their
    difference. The path is target + (g_i * d_i/d_r) * ramp_i; IEEE addition
    commutes, so adding the target last in place gives the same bits."""
    grid = terms.gain_i * draws.ratio
    grid *= terms.ramp_i
    grid += terms.target
    if draws.noise is not None:
        grid += draws.noise
    return grid


# Allocated fresh, the search's grid-sized buffers went back to the system
# when freed, so each bench sweep trial faulted in about 130 fresh pages.
@functools.lru_cache(maxsize=1)
def _search_buffers(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The range rows (complex) and their magnitudes (float) for range rows of
    `shape`, kept for the last shape asked; a new shape replaces the pair.
    They hold whatever the last call left, and no caller holds them past its return."""
    return np.empty(shape, dtype=complex), np.empty(shape, dtype=float)


def _range_rows(y: np.ndarray, pad_range: int, pad_velocity: int) -> np.ndarray:
    """The range transform of the map, after the checks on the grid and both
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
    rows = _search_buffers((int(pad_range) * y.shape[0], y.shape[1]))[0]
    rows[: y.shape[0]] = y
    rows[y.shape[0] :] = 0
    np.fft.ifft(rows, axis=0, out=rows)
    return rows


# A map row's transform errs by about log2(n) * 2**-53 of its bound, so a
# row whose bound times this stays below the best magnitude cannot tie it.
_BOUND_MARGIN = 1.0 + 1e-9
# The transform of a row whose magnitudes sum to a large part of the float
# maximum can overflow although its cells would not (seen at 0.84 of it), so
# a row whose bound reaches this is always in the first batch: a skipped row
# never hides a non-finite cell of the full map.
_OVERFLOW_RISK = np.finfo(float).max / 4


def _peak_rows(rows: np.ndarray, chosen: np.ndarray, n_range: int, n_vel: int) -> tuple[float, int]:
    """(magnitude, range bin) of the first largest |map| cell in row-major
    order over the chosen (sorted) range rows; a non-finite cell raises
    ValueError. The rows are zero-padded to n_vel, transformed along the
    symbols in one call, in place, and scaled by n_range, which gives map row
    r for range row r: a row's bits do not depend on which other rows share
    the call."""
    values = np.zeros((chosen.size, n_vel), dtype=complex)
    values[:, : rows.shape[1]] = rows[chosen]
    np.fft.fft(values, axis=1, out=values)
    values *= n_range
    magnitude = np.abs(values)
    cell = int(np.argmax(magnitude))
    value = float(magnitude.flat[cell])
    if not math.isfinite(value):  # argmax picks a NaN's index
        raise ValueError("range-velocity map is not finite")
    return value, int(chosen[cell // n_vel])


def estimate_target(y: np.ndarray, params: OfdmParams, pad_range: int = 1, pad_velocity: int = 1) -> float:
    """The range in metres of the maximum-magnitude cell of the range-velocity
    map of y padded by pad_range and pad_velocity (module docstring), found
    without building the map: the cell's range bin times the padded bin size
    range_bin_size / pad_range.

    Map row r is n_range times the DFT of range row X[r], so none of its
    cells exceeds n_range * sum_m |X[r, m]| (the triangle inequality). The
    rows whose bound is at least half the largest are transformed first,
    then any other row whose bound (times a margin far above FFT rounding)
    reaches the best magnitude found. Each transformed row is bit for bit
    that row of the map, so the peak is the map's: ties break toward the
    lowest range bin, and a map holding a non-finite value raises ValueError.
    """
    rows = _range_rows(y, pad_range, pad_velocity)
    n_range, n_sym = rows.shape
    n_vel = int(pad_velocity) * n_sym
    bounds = n_range * np.abs(rows, out=_search_buffers(rows.shape)[1]).sum(axis=1)
    cut = min(0.5 * bounds.max(), _OVERFLOW_RISK)  # NaN once a bound is NaN: then every row goes first
    first = ~(bounds < cut)
    peaks = [_peak_rows(rows, np.flatnonzero(first), n_range, n_vel)]
    best = peaks[0][0]
    if best < cut * _BOUND_MARGIN:  # else no row below the cut can reach the best
        rest = np.flatnonzero(~first & (bounds * _BOUND_MARGIN >= best))
        if rest.size:
            peaks.append(_peak_rows(rows, rest, n_range, n_vel))
    _, range_bin = min(peaks, key=lambda peak: (-peak[0], peak[1]))
    return float(range_bin * (params.range_bin_size / int(pad_range)))
