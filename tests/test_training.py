import numpy as np
import pytest

from risradar import RisConfig, steering
from risradar.synthesis import (
    PeakNetSpec,
    PeakNetwork,
    TrainingDivergedError,
    train_peak_network,
)

SMALL = PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=0)

# Loss history of train_peak_network(1.0, 16, PeakNetSpec(num_layers=3,
# hidden_width=8, num_iterations=30)), recorded before training moved onto
# arrays.steering; any change to the phase order or the Adam step shows here.
PINNED_LOSS_HISTORY = [
    "0x1.34ed9e510be61p-4", "0x1.6734870fa8072p-5", "0x1.ed837168610d3p-6", "0x1.703ec256074cap-6",
    "0x1.20ebfeae84f68p-6", "0x1.d59f71e201ed2p-7", "0x1.8854ea86a8111p-7", "0x1.4f744eec5b134p-7",
    "0x1.24bfc1295061cp-7", "0x1.0440848687fe2p-7", "0x1.d6a111b5e3f60p-8", "0x1.b02fbafd531ebp-8",
    "0x1.9285b5b024e96p-8", "0x1.7bac5fb4ef79bp-8", "0x1.6a27111701a33p-8", "0x1.5ccfb8bec3ce9p-8",
    "0x1.52bf3cb24ee48p-8", "0x1.4b3d56001aa4ap-8", "0x1.45b55c566ae9ep-8", "0x1.41ae69685709cp-8",
    "0x1.3ec5c85c0d2c4p-8", "0x1.3caaf9d19b948p-8", "0x1.3b1cca9b30e9ep-8", "0x1.39e71f894b20dp-8",
    "0x1.38e13346fc94dp-8", "0x1.37ec182d9007ap-8", "0x1.36f160e19bfa6p-8", "0x1.35e1dfd02ab00p-8",
    "0x1.34b47734c7082p-8", "0x1.3364f95efa20dp-8",
]
PINNED_GAIN_RATIO = "0x1.d45810b9f8338p-1"


def finite_difference_grads(net, theta, step=1e-5):
    """Central differences on every parameter of the loss."""
    grads_w, grads_b = [], []
    for k in range(len(net.weights)):
        g = np.empty_like(net.weights[k])
        for idx in np.ndindex(net.weights[k].shape):
            net.weights[k][idx] += step
            up = net.loss(theta)
            net.weights[k][idx] -= 2 * step
            down = net.loss(theta)
            net.weights[k][idx] += step
            g[idx] = (up - down) / (2 * step)
        grads_w.append(g)
        g = np.empty_like(net.biases[k])
        for i in range(net.biases[k].size):
            net.biases[k][i] += step
            up = net.loss(theta)
            net.biases[k][i] -= 2 * step
            down = net.loss(theta)
            net.biases[k][i] += step
            g[i] = (up - down) / (2 * step)
        grads_b.append(g)
    return grads_w, grads_b


class TestPeakNetwork:
    def test_output_is_unit_modulus(self):
        net = PeakNetwork(12, SMALL)
        coeffs = net.config_for(1.3)
        assert coeffs.shape == (12,)
        np.testing.assert_allclose(np.abs(coeffs), 1.0, atol=1e-15)

    def test_layer_shapes(self):
        net = PeakNetwork(5, PeakNetSpec(num_layers=4, hidden_width=6))
        assert [w.shape for w in net.weights] == [(6, 2), (6, 6), (6, 6), (5, 6)]

    def test_backprop_matches_central_differences(self):
        net = PeakNetwork(4, PeakNetSpec(num_layers=3, hidden_width=8, init_seed=3))
        theta = 1.1
        _, bp_w, bp_b = net.loss_and_gradients(theta)
        fd_w, fd_b = finite_difference_grads(net, theta)
        worst = 0.0
        for bp, fd in zip(bp_w + bp_b, fd_w + fd_b):
            denom = np.maximum(np.maximum(np.abs(bp), np.abs(fd)), 1e-10)
            worst = max(worst, float(np.max(np.abs(bp - fd) / denom)))
        assert worst < 1e-4


class TestPeakNetSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_layers=1),
            dict(hidden_width=0),
            dict(num_layers=0),
            dict(learning_rate=0.0),
            dict(num_iterations=-1),
            dict(init_seed=-1),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ValueError):
            PeakNetSpec(**kwargs)


class TestTraining:
    def test_single_element_gain_is_one(self):
        result = train_peak_network(0.7, 1, SMALL)
        assert result.gain_ratio == pytest.approx(1.0, abs=1e-15)

    def test_untrained_gain_is_incoherent(self):
        """Random init leaves the 200-element sum far from coherent:
        gain of order 1/sqrt(L), nowhere near the 0.9 target."""
        gains = []
        for seed in range(100):
            spec = PeakNetSpec(num_iterations=0, init_seed=seed)
            gains.append(train_peak_network(2 * np.pi / 5, 200, spec).gain_ratio)
        assert np.mean(gains) < 0.2
        assert max(gains) < 0.5

    def test_training_is_deterministic_per_seed(self):
        spec = PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=50, init_seed=5)
        a = train_peak_network(1.0, 16, spec)
        b = train_peak_network(1.0, 16, spec)
        np.testing.assert_array_equal(a.config.coefficients, b.config.coefficients)
        np.testing.assert_array_equal(a.loss_history, b.loss_history)
        c = train_peak_network(1.0, 16, PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=50, init_seed=6))
        assert not np.array_equal(a.config.coefficients, c.config.coefficients)

    def test_loss_history_finite_positive_and_envelope_monotone(self):
        spec = PeakNetSpec(num_layers=3, hidden_width=16, num_iterations=400, init_seed=1)
        result = train_peak_network(1.2, 32, spec)
        history = result.loss_history
        assert history.shape == (400,)
        assert np.all(np.isfinite(history))
        assert np.all(history > 0.0)
        envelope = np.minimum.accumulate(history)
        tail = envelope[-len(envelope) // 10 :]
        assert np.all(np.diff(tail) <= 0.0)

    def test_small_instance_converges(self):
        spec = PeakNetSpec(num_layers=3, hidden_width=16, num_iterations=500, init_seed=0)
        result = train_peak_network(1.2, 32, spec)
        assert result.gain_ratio > 0.9
        assert result.config.num_elements == 32
        assert isinstance(result.config, RisConfig)

    def test_reported_gain_matches_config(self):
        spec = PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=100, init_seed=2)
        result = train_peak_network(0.9, 16, spec)
        gain = np.abs(steering(16, 0.9) @ result.config.static_column()) / 16
        assert result.gain_ratio == pytest.approx(gain, rel=1e-12)

    def test_loss_history_is_pinned_bit_for_bit(self):
        result = train_peak_network(1.0, 16, PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=30))
        assert [float(v).hex() for v in result.loss_history] == PINNED_LOSS_HISTORY
        assert float(result.gain_ratio).hex() == PINNED_GAIN_RATIO

    def test_divergence_raises_with_iteration_index(self, monkeypatch):
        original = PeakNetwork.loss_and_gradients
        calls = {"count": 0}

        def poisoned(self, theta):
            loss, gw, gb = original(self, theta)
            calls["count"] += 1
            if calls["count"] >= 3:
                return float("nan"), gw, gb
            return loss, gw, gb

        monkeypatch.setattr(PeakNetwork, "loss_and_gradients", poisoned)
        with pytest.raises(TrainingDivergedError) as excinfo:
            train_peak_network(1.0, 4, PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=10))
        assert excinfo.value.iteration == 2


def test_default_training_reaches_oracle_gain(default_training):
    assert default_training.gain_ratio >= 0.9
    assert default_training.config.num_elements == 200
