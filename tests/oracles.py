"""Independent references the tests hold the program to.

They use only numpy and the public names of the package, and share no
helper with the code under test:

* The range-velocity map, `padded_map`: the two padded transforms computed
  out of place. The peak search must find its peak (`full_map_bins`,
  `full_map_range`), and `velocity_bin_mps` gives its velocity bin.
* The two-frame model that a sweep trial's one draw replaces: both QPSK
  grids (`generate_symbols`) and one noise grid a frame (`draw_pair`), the
  frames a and b of the sign-flipped configurations c and -c
  (`frame_pair`), and their difference (`frame_difference`). The trial grid
  is held to it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risradar.arrays import SPEED_OF_LIGHT


def padded_map(y, pad_range, pad_velocity):
    """The map from the two padded transforms computed out of place, with no
    buffer or helper of the simulation module: the search's oracle."""
    n_sub, n_sym = y.shape
    return np.fft.fft(np.fft.ifft(y, n=pad_range * n_sub, axis=0), n=pad_velocity * n_sym, axis=1) * (pad_range * n_sub)


def full_map_bins(y, pad_range, pad_velocity):
    """The first largest cell of the full map in row-major order, as the
    peak search must find it; a map holding a non-finite value raises."""
    magnitude = np.abs(padded_map(y, pad_range, pad_velocity))
    if not np.all(np.isfinite(magnitude)):
        raise ValueError("range-velocity map is not finite")
    return tuple(int(b) for b in np.unravel_index(np.argmax(magnitude), magnitude.shape))


def full_map_range(y, params, pad_range, pad_velocity):
    """The range of the full map's first largest cell, as the peak search
    must return it."""
    return full_map_bins(y, pad_range, pad_velocity)[0] * (params.range_bin_size / pad_range)


def velocity_bin_mps(params):
    """The unpadded map's velocity bin, c / (2 * fc * M * T): a target at this
    velocity peaks in velocity bin 1."""
    return SPEED_OF_LIGHT / (2.0 * params.carrier_freq_hz * params.num_symbols * params.total_symbol_time)


_QPSK = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))


def generate_symbols(params, seed):
    """Draw an N x M QPSK grid, reproducible per seed: constellation points
    exp(1j*(pi/4 + k*pi/2)), k in 0..3, equiprobable."""
    return _QPSK[np.random.default_rng(seed).integers(0, 4, size=(params.num_subcarriers, params.num_symbols))]


@dataclass(frozen=True)
class PairDraws:
    """The draws of the two-frame model: the ratio of two drawn QPSK grids
    and one complex noise grid a frame (None at zero variance). The arrays
    are read-only."""

    ratio: np.ndarray
    noise: tuple

    def __post_init__(self):
        for array in (self.ratio, *self.noise):
            if array is not None:
                array.flags.writeable = False


def draw_pair(terms, symbol_seeds, noise_seeds):
    """The radar and interferer symbols from the (radar, interferer)
    `symbol_seeds`, reduced to their ratio, and one noise grid of variance
    sigma^2 from each of `noise_seeds`, each from its own generator: the
    real parts first, then the imaginary parts, each N(0, sigma^2/2)."""
    radar, interferer = (generate_symbols(terms.params, seed) for seed in symbol_seeds)
    shape, variance = terms.target.shape, terms.noise_variance
    noise = []
    for seed in noise_seeds:
        grid = None
        if variance != 0.0:
            rng, scale = np.random.default_rng(seed), np.sqrt(variance / 2.0)
            grid = np.empty(shape, dtype=complex)
            grid.real = rng.standard_normal(shape) * scale
            grid.imag = rng.standard_normal(shape) * scale
        noise.append(grid)
    return PairDraws(interferer / radar, tuple(noise))


def frame_pair(terms, draws):
    """Frames a and b of the sign-flipped configurations c and -c from one
    pair draw, frame a with the first noise grid, frame b with the second.
    The path (g_i * d_i/d_r) * ramp_i + target is computed once; frame a is
    fresh and frame b takes the path's buffer. IEEE addition commutes and
    x - y equals x + (-y), so the bits are those of path + noise and
    -path + noise."""
    path = (terms.gain_i * draws.ratio) * terms.ramp_i + terms.target
    noise_a, noise_b = draws.noise
    if noise_a is None:
        return path, -path
    return np.add(noise_a, path), np.subtract(noise_b, path, out=path)


def frame_difference(y_a, y_b, out=None):
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
