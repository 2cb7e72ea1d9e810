import numpy as np
import pytest

from risradar.arrays import RisConfig, steering
from risradar.scenario import default_scenario
from risradar.synthesis import (
    PeakNetSpec,
    PeakNetwork,
    TrainingDivergedError,
    peak_gain_ratio,
    train_peak_network,
)

from oracles import network_loss

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

# The same at the benchmark's shape (6x128 network, L=200, the default
# target angle, 60 iterations), recorded while every weight, bias and Adam
# moment was still a separate array.
DEFAULT_SHAPE_LOSS_HISTORY = [
    "0x1.c6ea1739a2a60p-2", "0x1.f5f66ad91ba2cp-13", "0x1.55739fdeeb41ap-13", "0x1.11e8e2397be72p-13",
    "0x1.d57e300ba5a0cp-14", "0x1.a3ed0708dc39ep-14", "0x1.830f1794b5675p-14", "0x1.6ca60c935b309p-14",
    "0x1.5d2a2ce6bddacp-14", "0x1.52780fbeda773p-14", "0x1.4b2edfc335ccep-14", "0x1.465dbb15b6cf1p-14",
    "0x1.435744cd0a62bp-14", "0x1.4198c06943250p-14", "0x1.40bbb3e9167b4p-14", "0x1.406d7a024f9e2p-14",
    "0x1.406a4ef46ce27p-14", "0x1.407a7379fc2f9p-14", "0x1.40708f8a66a0fp-14", "0x1.4028cc0b21bc4p-14",
    "0x1.3f8847a29bf6cp-14", "0x1.3e7ca7ed7dd60p-14", "0x1.3cfb9d8d1aa32p-14", "0x1.3b0242acc2502p-14",
    "0x1.38944a0f58547p-14", "0x1.35bb0092a70dfp-14", "0x1.32842bf9c36adp-14", "0x1.2f00d7602303dp-14",
    "0x1.2b441fe70c840p-14", "0x1.27621358cec3fp-14", "0x1.236eaf530f9f8p-14", "0x1.1f7d0af06b79fp-14",
    "0x1.1b9eafcc295aep-14", "0x1.17e322635ef54p-14", "0x1.145795d8b3758p-14", "0x1.1106c4509e192p-14",
    "0x1.0df8e39a8039bp-14", "0x1.0b33ad9da7057p-14", "0x1.08ba74e44fa32p-14", "0x1.068e3f6e5ee54p-14",
    "0x1.04ade470e461dp-14", "0x1.03162c7e41da1p-14", "0x1.01c1f65f86550p-14", "0x1.00aa652e6f9a3p-14",
    "0x1.ff8e3aeed692cp-15", "0x1.fe1d2dab00fbbp-15", "0x1.fced0a94e12bcp-15", "0x1.fbe8b33962974p-15",
    "0x1.fafba5a61ffcep-15", "0x1.fa132b142c021p-15", "0x1.f91f73723ce9fp-15", "0x1.f8147bbe53926p-15",
    "0x1.f6eaa09c40d49p-15", "0x1.f59ec8c2eb0efp-15", "0x1.f43221c8f7631p-15", "0x1.f2a97a36b974bp-15",
    "0x1.f10c51d8727e9p-15", "0x1.ef63c224d29d0p-15", "0x1.edb962c7aee94p-15", "0x1.ec164a664ee39p-15",
]
DEFAULT_SHAPE_GAIN_RATIO = "0x1.4ec812afeb383p-1"


def finite_difference_grads(net, theta, step=1e-5):
    """Central differences on every parameter of the loss."""
    grads_w, grads_b = [], []
    for k in range(len(net.weights)):
        g = np.empty_like(net.weights[k])
        for idx in np.ndindex(net.weights[k].shape):
            net.weights[k][idx] += step
            up = network_loss(net, theta)
            net.weights[k][idx] -= 2 * step
            down = network_loss(net, theta)
            net.weights[k][idx] += step
            g[idx] = (up - down) / (2 * step)
        grads_w.append(g)
        g = np.empty_like(net.biases[k])
        for i in range(net.biases[k].size):
            net.biases[k][i] += step
            up = network_loss(net, theta)
            net.biases[k][i] -= 2 * step
            down = network_loss(net, theta)
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
        gain = np.abs(steering(16, 0.9) @ result.config.coefficients) / 16
        assert result.gain_ratio == pytest.approx(gain, rel=1e-12)

    def test_gain_ratio_is_the_configs_own(self):
        # a peak read back from its file states its gain through the same function, bit for bit
        spec = PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=100, init_seed=2)
        result = train_peak_network(0.9, 16, spec)
        copy = RisConfig(result.config.coefficients.tolist())
        assert float(peak_gain_ratio(copy, 0.9)).hex() == float(result.gain_ratio).hex()

    def test_loss_history_is_pinned_bit_for_bit(self):
        result = train_peak_network(1.0, 16, PeakNetSpec(num_layers=3, hidden_width=8, num_iterations=30))
        assert [float(v).hex() for v in result.loss_history] == PINNED_LOSS_HISTORY
        assert float(result.gain_ratio).hex() == PINNED_GAIN_RATIO

    def test_default_shape_loss_history_is_pinned_bit_for_bit(self):
        scenario = default_scenario()
        spec = PeakNetSpec(num_layers=6, hidden_width=128, num_iterations=60)
        result = train_peak_network(scenario.target_angle_rad, 200, spec)
        assert [float(v).hex() for v in result.loss_history] == DEFAULT_SHAPE_LOSS_HISTORY
        assert float(result.gain_ratio).hex() == DEFAULT_SHAPE_GAIN_RATIO

    def test_parameters_and_gradients_share_flat_vectors(self):
        spec = PeakNetSpec(num_layers=4, hidden_width=8, init_seed=4)
        net = PeakNetwork(16, spec)
        _, grads_w, grads_b = net.loss_and_gradients(0.8)
        assert all(np.shares_memory(p, net.params) for p in net.weights + net.biases)
        assert all(np.shares_memory(g, net.grads) for g in grads_w + grads_b)
        assert sum(p.size for p in net.weights + net.biases) == net.params.size == net.grads.size
        # a second angle must not reuse the first angle's steering vector
        loss, grads_w, grads_b = net.loss_and_gradients(2.1)
        fresh_loss, fresh_w, fresh_b = PeakNetwork(16, spec).loss_and_gradients(2.1)
        assert float(loss).hex() == float(fresh_loss).hex()
        for got, want in zip(grads_w + grads_b, fresh_w + fresh_b):
            assert got.tobytes() == want.tobytes()

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
