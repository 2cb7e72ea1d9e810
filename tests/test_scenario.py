import hashlib
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risradar.scenario import _SCHEMA, Scenario, ScenarioError, default_scenario, load_scenario, parse_scenario
from risradar.synthesis import multi_notch


@st.composite
def valid_scenarios(draw):
    """Scenarios drawn from inside every domain check."""
    bandwidth_hz = draw(st.floats(1e6, 1e9))
    num_subcarriers = draw(st.integers(1, 256))
    probe = Scenario(bandwidth_hz=bandwidth_hz, num_subcarriers=num_subcarriers, target_range_m=0.0)
    max_range = probe.ofdm_params().unambiguous_range
    return Scenario(
        carrier_freq_hz=draw(st.floats(1e9, 1e12)),
        bandwidth_hz=bandwidth_hz,
        num_subcarriers=num_subcarriers,
        num_symbols=draw(st.integers(1, 128)),
        cp_ratio=draw(st.floats(0.0, 0.99)),
        num_peak_elements=draw(st.integers(1, 512)),
        target_angle_rad=draw(st.floats(0.0, np.pi)),
        interferer_angle_rad=draw(st.floats(0.5, np.pi - 0.5)),
        net_num_layers=draw(st.integers(2, 8)),
        net_hidden_width=draw(st.integers(1, 256)),
        net_learning_rate=draw(st.floats(1e-6, 1.0)),
        net_num_iterations=draw(st.integers(0, 10000)),
        net_init_seed=draw(st.integers(0, 2**32)),
        num_notches=draw(st.integers(1, 6)),
        notch_spacing_rad=draw(st.floats(0.0, 0.05)),
        power_ratios_db=tuple(draw(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=5, unique=True))),
        angle_offsets_rad=tuple(draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=5, unique=True))),
        trials=draw(st.integers(1, 100)),
        target_range_m=draw(st.floats(0.0, 0.999)) * max_range,
        target_velocity_mps=draw(st.floats(-100.0, 100.0)),
        interferer_delay_s=draw(st.floats(0.0, 1e-5)),
        interferer_doppler_scale=draw(st.floats(-1.0, 1.0)),
        noise_variance=draw(st.floats(0.0, 10.0)),
        pad_range=draw(st.integers(1, 8)),
        pad_velocity=draw(st.integers(1, 8)),
        master_seed=draw(st.integers(0, 2**32)),
        output_dir=draw(st.text(string.ascii_letters + string.digits + "_-./", min_size=1, max_size=20)),
    )


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
NEGATIVE = st.floats(max_value=-1e-300)


def _list_with(bad):
    """A list of in-domain values with one out-of-domain value appended."""
    return st.tuples(st.lists(st.floats(-0.5, 0.5), max_size=3), bad).map(lambda t: (*t[0], t[1]))


# Out-of-domain values for each checked key, every other key at its
# default (interferer at pi/4, one notch, 75 m unambiguous range).
# output_dir takes any string, so it has none.
OUT_OF_DOMAIN = {
    "ofdm.carrier_freq_hz": st.floats(max_value=0.0) | NON_FINITE,
    "ofdm.bandwidth_hz": st.floats(max_value=0.0) | NON_FINITE,
    "ofdm.num_subcarriers": st.integers(max_value=0),
    "ofdm.num_symbols": st.integers(max_value=0),
    "ofdm.cp_ratio": NEGATIVE | st.floats(min_value=1.0) | NON_FINITE,
    "geometry.num_peak_elements": st.integers(max_value=0),
    "angles.target_rad": NEGATIVE | st.floats(min_value=np.pi, exclude_min=True) | NON_FINITE,
    "angles.interferer_rad": NEGATIVE | st.floats(min_value=np.pi, exclude_min=True) | NON_FINITE,
    "network.num_layers": st.integers(max_value=1),
    "network.hidden_width": st.integers(max_value=0),
    "network.learning_rate": st.floats(max_value=0.0) | NON_FINITE,
    "network.num_iterations": st.integers(max_value=-1),
    "network.init_seed": st.integers(max_value=-1),
    "notch.num_notches": st.integers(max_value=0),
    "notch.spacing_rad": NEGATIVE | NON_FINITE,
    "sweep.power_ratios_db": _list_with(
        st.floats(min_value=300.0, exclude_min=True) | st.floats(max_value=-300.0, exclude_max=True) | NON_FINITE
    ),
    "sweep.angle_offsets_rad": _list_with(
        st.floats(max_value=-np.pi / 4 - 1e-6) | st.floats(min_value=3 * np.pi / 4 + 1e-6) | NON_FINITE
    ),
    "sweep.trials": st.integers(max_value=0),
    "sweep.target_range_m": NEGATIVE | st.floats(min_value=75.0) | NON_FINITE,
    "sweep.target_velocity_mps": NON_FINITE,
    "sweep.interferer_delay_s": NON_FINITE,
    "sweep.interferer_doppler_scale": NON_FINITE,
    "sweep.noise_variance": NEGATIVE | NON_FINITE,
    "sweep.pad_range": st.integers(max_value=0),
    "sweep.pad_velocity": st.integers(max_value=0),
    "master_seed": st.integers(max_value=-1),
}


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


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
    def test_default_echo_is_pinned(self):
        # every scenario_used.txt holds this echo: its key order and each value's rendering
        text = default_scenario().to_text()
        assert len(text.splitlines()) == 27
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "627bc4d1ddc9f513496e82e377f0d2c8e03a40d76c5b8a767bb2c47973f5bef9"
        )

    def test_round_trip_is_exact(self):
        sc = default_scenario().replace(master_seed=99, power_ratios_db=(0.0, 12.5))
        assert parse_scenario(sc.to_text()) == sc

    @settings(max_examples=100, deadline=None)
    @given(valid_scenarios())
    def test_round_trip_holds_for_any_valid_scenario(self, sc):
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

    @pytest.mark.parametrize("key", ["geometry.element_spacing_wavelengths", "network.optimizer"])
    def test_removed_keys_are_unknown(self, key):
        # the array is fixed at half-wavelength spacing and training uses Adam
        with pytest.raises(ScenarioError, match=f"^line 2: unknown scenario key '{key}'$"):
            parse_scenario(f"sweep.trials = 3\n{key} = 3.0\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("master_seed = 7\noutput_dir = results\n")
        sc = load_scenario(path)
        assert sc.master_seed == 7
        assert sc.output_dir == "results"

    def test_load_ignores_a_byte_order_mark(self, tmp_path):
        text = b"sweep.trials = 2\nmaster_seed = 7\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_scenario(marked) == load_scenario(plain)
        assert load_scenario(marked).trials == 2


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
            (dict(carrier_freq_hz=0.0), "^ofdm.carrier_freq_hz must be positive$"),
            (dict(bandwidth_hz=-1.0), "^ofdm.bandwidth_hz must be positive$"),
            (dict(cp_ratio=1.0), r"^ofdm.cp_ratio must lie in \[0, 1\)$"),
            (dict(cp_ratio=-0.1), r"^ofdm.cp_ratio must lie in \[0, 1\)$"),
            (dict(target_range_m=75.0), r"^sweep.target_range_m must lie in \[0, 75.0\) m"),
            (dict(target_range_m=-0.5), "^sweep.target_range_m must lie in"),
            (dict(net_num_layers=1), "^network.num_layers must be at least 2$"),
            (dict(net_hidden_width=0), "^network.hidden_width must be a positive integer$"),
            (dict(net_learning_rate=0.0), "^network.learning_rate must be positive$"),
            (dict(net_num_iterations=-1), "^network.num_iterations must be non-negative$"),
            (dict(net_init_seed=-1), "^network.init_seed must be non-negative$"),
            (dict(pad_velocity=0), "^sweep.pad_velocity must be a padding factor >= 1$"),
            (dict(master_seed=-1), "^master_seed must be non-negative$"),
            (dict(num_notches=4, notch_spacing_rad=1.0), r"^notch.spacing_rad pushes the shifted notches outside \[0, pi\]$"),
            (dict(power_ratios_db=(0.0, 300.5)), r"^sweep.power_ratios_db must lie in \[-300, 300\] dB$"),
            (dict(power_ratios_db=(-6160.0,)), r"^sweep.power_ratios_db must lie in \[-300, 300\] dB$"),
            (dict(angle_offsets_rad=(0.0, 3.0)), r"^sweep.angle_offsets_rad pushes the interferer outside \[0, pi\]$"),
            (dict(angle_offsets_rad=(-0.8,)), r"^sweep.angle_offsets_rad pushes the interferer outside \[0, pi\]$"),
            (dict(power_ratios_db=(0.0, 30.0, -0.0)), "^sweep.power_ratios_db must not repeat a value$"),
            (dict(angle_offsets_rad=(0.01, 0.0, 0.01)), "^sweep.angle_offsets_rad must not repeat a value$"),
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
        with pytest.raises(ScenarioError, match=f"^line 1: {key} must be finite$"):
            parse_scenario(f"{key} = {rendered}\n")

    def test_check_names_the_line_that_set_the_key(self):
        text = "# header\nofdm.num_subcarriers = 64\n\nofdm.cp_ratio = 1.5\n"
        with pytest.raises(ScenarioError, match=r"^line 4: ofdm.cp_ratio must lie in \[0, 1\)$") as excinfo:
            parse_scenario(text)
        assert excinfo.value.key == "ofdm.cp_ratio"

    def test_check_on_a_default_value_has_no_line(self):
        # 2 subcarriers at 200 MHz leave a 1.5 m unambiguous range, below the
        # default 30 m target the file does not set
        with pytest.raises(ScenarioError, match=r"^sweep.target_range_m must lie in \[0, 1.5\) m"):
            parse_scenario("ofdm.num_subcarriers = 2\n")

    def test_direct_construction_has_no_line(self):
        with pytest.raises(ScenarioError, match="^sweep.noise_variance must be finite$"):
            Scenario(noise_variance=np.inf)

    def test_power_ratio_bound_is_inclusive(self):
        assert Scenario(power_ratios_db=(-300.0, 300.0)).power_ratios_db == (-300.0, 300.0)

    def test_every_checked_key_has_out_of_domain_values(self):
        assert set(OUT_OF_DOMAIN) == set(_SCHEMA) - {"output_dir"}

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(OUT_OF_DOMAIN)).flatmap(lambda key: st.tuples(st.just(key), OUT_OF_DOMAIN[key])))
    def test_out_of_domain_value_names_its_key(self, case):
        key, value = case
        with pytest.raises(ScenarioError) as direct:
            Scenario(**{_SCHEMA[key][0]: value})
        assert direct.value.key == key
        with pytest.raises(ScenarioError, match=f"^line 1: {key} ") as parsed:
            parse_scenario(f"{key} = {_render(value)}\n")
        assert parsed.value.key == key

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_a_mixed_scenario_names_a_key_or_builds_every_domain_object(self, data):
        # a valid scenario with 2-4 of its keys set at once, each out of its domain or kept
        valid = data.draw(valid_scenarios())
        values = {
            _SCHEMA[key][0]: data.draw(OUT_OF_DOMAIN[key] | st.just(getattr(valid, _SCHEMA[key][0])))
            for key in data.draw(st.lists(st.sampled_from(sorted(OUT_OF_DOMAIN)), min_size=2, max_size=4, unique=True))
        }
        try:
            scenario = valid.replace(**values)
        except ScenarioError as exc:
            assert exc.key in _SCHEMA
            assert str(exc).startswith(f"{exc.key} ")
            return
        scenario.ofdm_params()
        scenario.network_spec()
        multi_notch(scenario.notch_spec())

    def test_replace_revalidates(self):
        with pytest.raises(ScenarioError):
            default_scenario().replace(trials=0)
        with pytest.raises(TypeError):
            default_scenario().replace(no_such_field=1)
