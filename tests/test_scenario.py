import numpy as np
import pytest

from risradar.scenario import Scenario, ScenarioError, default_scenario, load_scenario, parse_scenario


class TestDefaults:
    def test_radar_constants(self):
        sc = default_scenario()
        assert sc.carrier_freq_hz == 77e9
        assert sc.bandwidth_hz == 200e6
        assert sc.num_subcarriers == 100
        assert sc.num_symbols == 50
        assert sc.num_peak_elements == 200
        assert sc.target_angle_rad == pytest.approx(2 * np.pi / 5, rel=1e-15)
        assert sc.interferer_angle_rad == pytest.approx(np.pi / 4, rel=1e-15)

    def test_builders(self):
        sc = default_scenario()
        params = sc.ofdm_params()
        assert params.range_bin_size == 0.75
        spec = sc.network_spec()
        assert spec.num_layers == 6
        assert spec.hidden_width == 128
        notch = sc.notch_spec()
        assert notch.num_notches == 1
        assert notch.notch_angle_rad == sc.interferer_angle_rad
        wide = sc.notch_spec(num_notches=4, spacing_rad=1e-3)
        assert wide.num_notches == 4


class TestParsing:
    def test_round_trip_is_exact(self):
        sc = default_scenario().replace(master_seed=99, power_ratios_db=(0.0, 12.5))
        assert parse_scenario(sc.to_text()) == sc

    def test_comments_and_blank_lines(self):
        sc = parse_scenario("# a comment\n\nofdm.num_subcarriers = 64\n")
        assert sc.num_subcarriers == 64
        assert sc.num_symbols == 50  # default retained

    def test_scientific_notation_and_lists(self):
        text = "ofdm.carrier_freq_hz = 79e9\nsweep.power_ratios_db = 0, 10 ,20\n"
        sc = parse_scenario(text)
        assert sc.carrier_freq_hz == 79e9
        assert sc.power_ratios_db == (0.0, 10.0, 20.0)

    def test_unknown_key_is_named(self):
        with pytest.raises(ScenarioError, match="unknown scenario key 'ofdm.bogus'"):
            parse_scenario("ofdm.bogus = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("sweep.trials = 3\nsweep.trials = 4\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("# ok\nnot a pair\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ScenarioError, match="sweep.trials"):
            parse_scenario("sweep.trials = many\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("master_seed = 7\noutput_dir = results\n")
        sc = load_scenario(path)
        assert sc.master_seed == 7
        assert sc.output_dir == "results"


class TestValidation:
    """Each rejected field carries its own diagnostic."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(num_subcarriers=0), "num_subcarriers"),
            (dict(num_symbols=0), "num_symbols"),
            (dict(target_angle_rad=-0.1), "target_rad"),
            (dict(interferer_angle_rad=3.5), "interferer_rad"),
            (dict(notch_spacing_rad=-1e-3), "spacing_rad"),
            (dict(num_notches=0), "num_notches"),
            (dict(trials=0), "trials"),
            (dict(num_peak_elements=0), "num_peak_elements"),
            (dict(noise_variance=-1.0), "noise_variance"),
            (dict(pad_range=0), "padding"),
        ],
    )
    def test_distinct_diagnostics(self, kwargs, match):
        with pytest.raises(ScenarioError, match=match):
            Scenario(**kwargs)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "ofdm.carrier_freq_hz",
            "ofdm.bandwidth_hz",
            "ofdm.cp_ratio",
            "geometry.element_spacing_wavelengths",
            "angles.target_rad",
            "angles.interferer_rad",
            "network.learning_rate",
            "notch.spacing_rad",
            "sweep.power_ratios_db",
            "sweep.angle_offsets_rad",
            "sweep.target_range_m",
            "sweep.target_velocity_mps",
            "sweep.interferer_delay_s",
            "sweep.interferer_doppler_scale",
            "sweep.noise_variance",
        ],
    )
    def test_non_finite_values_rejected(self, key, value):
        rendered = f"0,{value},1" if key in ("sweep.power_ratios_db", "sweep.angle_offsets_rad") else value
        with pytest.raises(ScenarioError, match=f"^{key} must be finite$"):
            parse_scenario(f"{key} = {rendered}\n")

    def test_replace_revalidates(self):
        with pytest.raises(ScenarioError):
            default_scenario().replace(trials=0)
