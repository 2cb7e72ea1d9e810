"""RIS configuration synthesis.

Produces the building-block configurations and their combination:

* a trained phase-head network that places a beampattern peak at a
  requested angle,
* closed-form two-element notches that null a requested angle,
* widened multi-notch configurations (convolution of shifted notches),
* convolution combining, whose pattern is the product of the input
  patterns.

Synthesis works in the carrier approximation: the array response
`steering` at subcarrier index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import FieldError, RisConfig, steering


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, iteration: int):
        super().__init__(iteration)  # every argument, so a pickled error rebuilds
        self.iteration = iteration

    def __str__(self) -> str:
        return f"training loss became non-finite at iteration {self.iteration}"


@dataclass(frozen=True)
class PeakNetSpec:
    """Hyperparameters of the peak-steering network.

    The network maps the angle encoding [cos(theta), sin(theta)] through
    `num_layers` linear layers with tanh activations to unit-modulus
    coefficients, one per element; it is trained with Adam.
    """

    num_layers: int = 6
    hidden_width: int = 128
    learning_rate: float = 1e-2
    num_iterations: int = 5000
    init_seed: int = 0

    def __post_init__(self):
        if not self.num_layers >= 2:
            raise FieldError("num_layers", "must be at least 2")
        if not self.hidden_width >= 1:
            raise FieldError("hidden_width", "must be a positive integer")
        if not 0 < self.learning_rate < np.inf:
            raise FieldError("learning_rate", "must be finite" if self.learning_rate > 0 else "must be positive")
        if not self.num_iterations >= 0:
            raise FieldError("num_iterations", "must be non-negative")
        if not self.init_seed >= 0:
            raise FieldError("init_seed", "must be non-negative")


def _layer_views(flat: np.ndarray, dims: list[int]):
    """Per-layer weight and bias views into one flat vector."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[start:stop].reshape(fan_out, fan_in))
        biases.append(flat[stop : stop + fan_out])
        start = stop + fan_out
    return weights, biases


class PeakNetwork:
    """Feed-forward network emitting a unit-modulus configuration.

    Architecture: `num_layers` linear layers; tanh after each hidden
    layer, and the head's raw outputs z become phases phi = pi*tanh(z),
    so coefficients exp(1j*phi) stay on the unit circle by construction.
    Every weight and bias is a view into the flat vector `params`, every
    gradient a view into `grads`, so one in-place step updates them all.
    """

    def __init__(self, num_elements: int, spec: PeakNetSpec):
        if num_elements < 1:
            raise ValueError("num_elements must be positive")
        self.num_elements = num_elements
        dims = [2] + [spec.hidden_width] * (spec.num_layers - 1) + [num_elements]
        self.params = np.empty(sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims[:-1], dims[1:])))
        self.grads = np.zeros_like(self.params)
        self.weights, self.biases = _layer_views(self.params, dims)
        self._weight_grads, self._bias_grads = _layer_views(self.grads, dims)
        rng = np.random.default_rng(spec.init_seed)
        for W, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(W.shape[1])
            W[...] = rng.uniform(-bound, bound, W.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)
        self._steer_theta, self._steer = None, None

    @staticmethod
    def _encode(theta: float) -> np.ndarray:
        return np.array([np.cos(theta), np.sin(theta)])

    def _forward(self, theta: float):
        activations = [self._encode(theta)]
        a = activations[0]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(W @ a + b)
            activations.append(a)
        head_tanh = np.tanh(self.weights[-1] @ a + self.biases[-1])
        coeffs = np.exp(1j * np.pi * head_tanh)
        return activations, head_tanh, coeffs

    def _steering(self, theta: float) -> np.ndarray:
        """Carrier steering vector, rebuilt only when theta changes."""
        if theta != self._steer_theta:
            self._steer_theta, self._steer = theta, steering(self.num_elements, theta)
        return self._steer

    def config_for(self, theta: float) -> np.ndarray:
        """Emit the length-L complex configuration for an input angle."""
        return self._forward(theta)[2]

    def loss_and_gradients(self, theta: float):
        """Loss plus exact backpropagated gradients for every parameter.

        Returns (loss, weight_grads, bias_grads) with the gradient lists
        ordered like self.weights / self.biases.  The gradients are views
        into self.grads, overwritten by the next call.
        """
        activations, head_tanh, coeffs = self._forward(theta)
        steer = self._steering(theta)
        s = np.sum(coeffs * steer)
        power = float(np.abs(s) ** 2)
        loss = 1.0 / power
        # d(1/P)/dphi_l = 2*Im(conj(s) * c_l * b_l) / P^2
        dphi = 2.0 * np.imag(np.conj(s) * coeffs * steer) / power**2
        delta = dphi * np.pi * (1.0 - head_tanh**2)

        np.multiply.outer(delta, activations[-1], out=self._weight_grads[-1])
        self._bias_grads[-1][...] = delta
        for k in range(len(self.weights) - 2, -1, -1):
            delta = (self.weights[k + 1].T @ delta) * (1.0 - activations[k + 1] ** 2)
            np.multiply.outer(delta, activations[k], out=self._weight_grads[k])
            self._bias_grads[k][...] = delta
        return loss, self._weight_grads, self._bias_grads


@dataclass
class TrainingResult:
    config: RisConfig
    loss_history: np.ndarray
    gain_ratio: float


@np.errstate(all="ignore")
def train_peak_network(theta_t: float, num_elements: int, spec: PeakNetSpec) -> TrainingResult:
    """Train the peak network for one target angle.

    Full-batch Adam updates on the single encoded input (plain gradient
    descent on the 1/power loss stalls: the gradient scale collapses like
    1/power^2 as the peak grows). The reported gain_ratio is the trained
    configuration's peak_gain_ratio.

    Raises TrainingDivergedError if the loss leaves the finite range;
    the overflow that leads there raises no floating-point warnings.
    """
    net = PeakNetwork(num_elements, spec)
    history = np.empty(spec.num_iterations)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    g = net.grads
    m, v, step, denom = (np.zeros_like(g) for _ in range(4))

    for it in range(spec.num_iterations):
        loss = net.loss_and_gradients(theta_t)[0]
        if not np.isfinite(loss):
            raise TrainingDivergedError(it)
        history[it] = loss
        t = it + 1
        # params -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), in place and in
        # the written-out expression's elementwise order, so it matches bit for bit
        m *= beta1
        m += np.multiply(g, 1 - beta1, out=step)
        v *= beta2
        v += np.multiply(np.square(g, out=step), 1 - beta2, out=step)
        np.divide(m, 1 - beta1**t, out=step)
        step *= spec.learning_rate
        np.divide(v, 1 - beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        net.params -= step

    coeffs = net.config_for(theta_t)
    if not np.all(np.isfinite(coeffs)):
        raise TrainingDivergedError(spec.num_iterations)
    config = RisConfig(coeffs)
    return TrainingResult(config=config, loss_history=history, gain_ratio=peak_gain_ratio(config, theta_t))


def peak_gain_ratio(config: RisConfig, theta_t: float) -> float:
    """|c^T b(theta_t)| / L at the carrier: the gain a peak attains at its
    target angle, relative to the coherent optimum of analytic_peak."""
    gain = np.abs(np.sum(config.coefficients * steering(config.num_elements, theta_t)))
    return float(gain / config.num_elements)


def analytic_peak(theta_t: float, num_elements: int) -> RisConfig:
    """Conjugate phase alignment: c = conj(b(theta_t)) at the carrier.

    Pattern magnitude at theta_t equals num_elements exactly; the
    closed-form optimum the trained network is measured against.
    """
    return RisConfig(np.conj(steering(num_elements, theta_t)))


def notch_config(theta_n: float) -> RisConfig:
    """Two-element configuration whose pattern is exactly zero at theta_n.

    The null condition 1 + c_1*exp(-1j*pi*cos(theta_n)) = 0 gives
    c_1 = -exp(+1j*pi*cos(theta_n)).
    """
    if not 0.0 <= theta_n <= np.pi:
        raise ValueError("notch angle must lie in [0, pi]")
    return RisConfig(np.array([1.0, -np.exp(1j * np.pi * np.cos(theta_n))]))


@dataclass(frozen=True)
class NotchSpec:
    """One or more notches centered on notch_angle_rad, spaced spacing_rad apart."""

    notch_angle_rad: float
    num_notches: int = 1
    spacing_rad: float = 0.0

    def __post_init__(self):
        if not self.num_notches >= 1:
            raise FieldError("num_notches", "must be at least 1")
        if not self.spacing_rad >= 0.0:
            raise FieldError("spacing_rad", "must be non-negative")
        if not 0.0 <= self.notch_angle_rad <= np.pi:
            raise FieldError("notch_angle_rad", "must lie in [0, pi]")
        angles = self.notch_angles()
        if not np.all((0.0 <= angles) & (angles <= np.pi)):
            raise FieldError("spacing_rad", "pushes the shifted notches outside [0, pi]")

    def notch_angles(self) -> np.ndarray:
        k = np.arange(self.num_notches)
        return self.notch_angle_rad + (k - (self.num_notches - 1) / 2.0) * self.spacing_rad


def multi_notch(spec: NotchSpec) -> RisConfig:
    """Convolve K two-element notches on a grid centered at the notch angle.

    Output has K+1 elements and, being a convolution, its pattern is the
    product of the individual notch patterns: K zeros at the shifted
    angles (all coincident when spacing is zero).
    """
    coeffs = np.array([1.0 + 0.0j])
    for theta in spec.notch_angles():
        coeffs = np.convolve(coeffs, notch_config(theta).coefficients)
    return RisConfig(coeffs)


def combine_convolve(a: RisConfig, b: RisConfig) -> RisConfig:
    """Discrete convolution of two configurations.

    The output pattern equals the product of the input patterns at every
    angle; output length is L_a + L_b - 1.
    """
    return RisConfig(np.convolve(a.coefficients, b.coefficients))


def normalize_coefficients(config: RisConfig) -> RisConfig:
    """Scale so the largest coefficient magnitude is 1.

    Global scaling leaves the pattern shape (and any normalized pattern)
    unchanged while keeping combined configurations inside the unit disk.
    """
    coeffs = config.coefficients
    peak = np.abs(coeffs).max()
    if peak == 0.0:
        raise ValueError("cannot normalize an all-zero configuration")
    return RisConfig(coeffs / peak)
