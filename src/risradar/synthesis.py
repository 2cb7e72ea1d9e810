"""RIS configuration synthesis.

Produces the building-block configurations and their combination:

* a trained phase-head network that places a beampattern peak at a
  requested angle,
* closed-form two-element notches that null a requested angle,
* widened multi-notch configurations (convolution of shifted notches),
* convolution combining, whose pattern is the product of the input
  patterns,
* the SINR objective used to judge a configuration against an
  interferer angle.

Synthesis works in the carrier approximation: element phase
pi * l * cos(theta), i.e. subcarrier index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ALL_SUBCARRIERS, OfdmParams, RisConfig, _as_matrix, power_pattern


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, iteration: int):
        super().__init__(f"training loss became non-finite at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class PeakNetSpec:
    """Hyperparameters of the peak-steering network.

    The network maps the angle encoding [cos(theta), sin(theta)] through
    `num_layers` linear layers with tanh activations to unit-modulus
    coefficients; its emitted configuration of length L is 2*L real
    values (one complex number per element).
    """

    num_layers: int = 6
    hidden_width: int = 128
    activation: str = "tanh"
    learning_rate: float = 1e-2
    num_iterations: int = 5000
    init_seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.num_layers < 2:
            raise ValueError("num_layers must be at least 2")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be positive")
        if self.activation != "tanh":
            raise ValueError("only tanh activation is supported")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        if self.optimizer not in ("adam", "gd"):
            raise ValueError("optimizer must be 'adam' or 'gd'")


def carrier_steering(num_elements: int, theta: float) -> np.ndarray:
    """b(theta) at the carrier: exp(-1j*pi*l*cos(theta))."""
    return np.exp(-1j * np.pi * np.arange(num_elements) * np.cos(theta))


class PeakNetwork:
    """Feed-forward network emitting a unit-modulus configuration.

    Architecture: `num_layers` linear layers; tanh after each hidden
    layer, and the head's raw outputs z become phases phi = pi*tanh(z),
    so coefficients exp(1j*phi) stay on the unit circle by construction.
    """

    def __init__(self, num_elements: int, spec: PeakNetSpec):
        if num_elements < 1:
            raise ValueError("num_elements must be positive")
        self.num_elements = num_elements
        self.spec = spec
        dims = [2] + [spec.hidden_width] * (spec.num_layers - 1) + [num_elements]
        rng = np.random.default_rng(spec.init_seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
            self.biases.append(rng.uniform(-bound, bound, fan_out))

    @property
    def output_size(self) -> int:
        """Real values in the emitted configuration (2 per element)."""
        return 2 * self.num_elements

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

    def config_for(self, theta: float) -> np.ndarray:
        """Emit the length-L complex configuration for an input angle."""
        return self._forward(theta)[2]

    def loss(self, theta: float) -> float:
        """1 / |c^T b(theta)|^2 under the carrier approximation."""
        coeffs = self.config_for(theta)
        s = np.sum(coeffs * carrier_steering(self.num_elements, theta))
        return float(1.0 / np.abs(s) ** 2)

    def loss_and_gradients(self, theta: float):
        """Loss plus exact backpropagated gradients for every parameter.

        Returns (loss, weight_grads, bias_grads) with the gradient lists
        ordered like self.weights / self.biases.
        """
        activations, head_tanh, coeffs = self._forward(theta)
        steer = carrier_steering(self.num_elements, theta)
        s = np.sum(coeffs * steer)
        power = float(np.abs(s) ** 2)
        loss = 1.0 / power
        # d(1/P)/dphi_l = 2*Im(conj(s) * c_l * b_l) / P^2
        dphi = 2.0 * np.imag(np.conj(s) * coeffs * steer) / power**2
        delta = dphi * np.pi * (1.0 - head_tanh**2)

        weight_grads: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        bias_grads: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        weight_grads[-1] = np.outer(delta, activations[-1])
        bias_grads[-1] = delta
        upstream = self.weights[-1].T @ delta
        for k in range(len(self.weights) - 2, -1, -1):
            delta = upstream * (1.0 - activations[k + 1] ** 2)
            weight_grads[k] = np.outer(delta, activations[k])
            bias_grads[k] = delta
            upstream = self.weights[k].T @ delta
        return loss, weight_grads, bias_grads


@dataclass
class TrainingResult:
    config: RisConfig
    loss_history: np.ndarray
    gain_ratio: float
    network: PeakNetwork


@np.errstate(all="ignore")
def train_peak_network(theta_t: float, num_elements: int, spec: PeakNetSpec | None = None) -> TrainingResult:
    """Train the peak network for one target angle.

    Full-batch updates on the single encoded input; Adam by default
    (plain gradient descent on the 1/power loss stalls: the gradient
    scale collapses like 1/power^2 as the peak grows). The reported
    gain_ratio is |c^T b(theta_t)| / L, i.e. relative to the coherent
    optimum attained by analytic_peak.

    Raises TrainingDivergedError if the loss leaves the finite range;
    the overflow that leads there raises no floating-point warnings.
    """
    spec = spec or PeakNetSpec()
    net = PeakNetwork(num_elements, spec)
    history = np.empty(spec.num_iterations)

    if spec.optimizer == "adam":
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m_w = [np.zeros_like(w) for w in net.weights]
        v_w = [np.zeros_like(w) for w in net.weights]
        m_b = [np.zeros_like(b) for b in net.biases]
        v_b = [np.zeros_like(b) for b in net.biases]

    for it in range(spec.num_iterations):
        loss, grads_w, grads_b = net.loss_and_gradients(theta_t)
        if not np.isfinite(loss):
            raise TrainingDivergedError(it)
        history[it] = loss
        if spec.optimizer == "gd":
            for k in range(len(net.weights)):
                net.weights[k] -= spec.learning_rate * grads_w[k]
                net.biases[k] -= spec.learning_rate * grads_b[k]
        else:
            t = it + 1
            for k in range(len(net.weights)):
                m_w[k] = beta1 * m_w[k] + (1 - beta1) * grads_w[k]
                v_w[k] = beta2 * v_w[k] + (1 - beta2) * grads_w[k] ** 2
                m_b[k] = beta1 * m_b[k] + (1 - beta1) * grads_b[k]
                v_b[k] = beta2 * v_b[k] + (1 - beta2) * grads_b[k] ** 2
                net.weights[k] -= spec.learning_rate * (m_w[k] / (1 - beta1**t)) / (
                    np.sqrt(v_w[k] / (1 - beta2**t)) + eps
                )
                net.biases[k] -= spec.learning_rate * (m_b[k] / (1 - beta1**t)) / (
                    np.sqrt(v_b[k] / (1 - beta2**t)) + eps
                )

    coeffs = net.config_for(theta_t)
    gain = np.abs(np.sum(coeffs * carrier_steering(num_elements, theta_t)))
    final_loss = float(1.0 / gain**2)
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(spec.num_iterations)
    return TrainingResult(
        config=RisConfig(coeffs),
        loss_history=history,
        gain_ratio=float(gain / num_elements),
        network=net,
    )


def analytic_peak(theta_t: float, num_elements: int) -> RisConfig:
    """Conjugate phase alignment: element l = exp(+1j*pi*l*cos(theta_t)).

    Pattern magnitude at theta_t equals num_elements exactly; the
    closed-form optimum the trained network is measured against.
    """
    if num_elements < 1:
        raise ValueError("num_elements must be positive")
    return RisConfig(np.exp(1j * np.pi * np.arange(num_elements) * np.cos(theta_t)))


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
        if self.num_notches < 1:
            raise ValueError("num_notches must be at least 1")
        if self.spacing_rad < 0.0:
            raise ValueError("spacing_rad must be non-negative")
        if not 0.0 <= self.notch_angle_rad <= np.pi:
            raise ValueError("notch angle must lie in [0, pi]")

    def notch_angles(self) -> np.ndarray:
        k = np.arange(self.num_notches)
        return self.notch_angle_rad + (k - (self.num_notches - 1) / 2.0) * self.spacing_rad


def multi_notch(spec: NotchSpec) -> RisConfig:
    """Convolve K two-element notches on a grid centered at the notch angle.

    Output has K+1 elements and, being a convolution, its pattern is the
    product of the individual notch patterns: K zeros at the shifted
    angles (all coincident when spacing is zero).
    """
    angles = spec.notch_angles()
    if np.any(angles < 0.0) or np.any(angles > np.pi):
        raise ValueError("shifted notch angles must stay inside [0, pi]")
    coeffs = np.array([1.0 + 0.0j])
    for theta in angles:
        coeffs = np.convolve(coeffs, notch_config(theta).static_column())
    return RisConfig(coeffs)


def combine_convolve(a: RisConfig, b: RisConfig) -> RisConfig:
    """Per-slot discrete convolution of two configurations.

    The output pattern equals the product of the input patterns at every
    angle; output length is L_a + L_b - 1. A single-slot (static) input
    broadcasts against a multi-slot one.
    """
    ca = _as_matrix(a)
    cb = _as_matrix(b)
    slots_a, slots_b = ca.shape[1], cb.shape[1]
    if slots_a != slots_b and slots_a != 1 and slots_b != 1:
        raise ValueError(f"incompatible time-slot counts: {slots_a} vs {slots_b}")
    slots = max(slots_a, slots_b)
    out = np.empty((ca.shape[0] + cb.shape[0] - 1, slots), dtype=complex)
    for m in range(slots):
        col_a = ca[:, m if slots_a > 1 else 0]
        col_b = cb[:, m if slots_b > 1 else 0]
        out[:, m] = np.convolve(col_a, col_b)
    return RisConfig(out)


def normalize_coefficients(config: RisConfig) -> RisConfig:
    """Scale so the largest coefficient magnitude is 1.

    Global scaling leaves the pattern shape (and any normalized pattern)
    unchanged while keeping combined configurations inside the unit disk.
    """
    coeffs = _as_matrix(config)
    peak = np.abs(coeffs).max()
    if peak == 0.0:
        raise ValueError("cannot normalize an all-zero configuration")
    return RisConfig(coeffs / peak)


@dataclass(frozen=True)
class SinrReport:
    signal_power: float
    interference_power: float
    noise_power: float
    sinr_linear: float

    @property
    def sinr_db(self) -> float:
        return 10.0 * np.log10(self.sinr_linear)


def sinr(
    config,
    theta: float,
    theta_i: float,
    sigma2: float,
    params: OfdmParams,
    subcarrier_mode: str = ALL_SUBCARRIERS,
) -> SinrReport:
    """Signal power at theta over interference power at theta_i plus noise."""
    if sigma2 <= 0.0:
        raise ValueError("noise power sigma2 must be positive")
    signal = float(power_pattern(config, params, theta, subcarrier_mode)[0])
    interference = float(power_pattern(config, params, theta_i, subcarrier_mode)[0])
    return SinrReport(
        signal_power=signal,
        interference_power=interference,
        noise_power=sigma2,
        sinr_linear=signal / (interference + sigma2),
    )
