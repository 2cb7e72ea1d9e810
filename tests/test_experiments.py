import functools
import hashlib
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risradar import arrays, experiments, simulation
from risradar.arrays import RisConfig, steering
from risradar.experiments import (
    SUPPRESSION_THRESHOLD_DB,
    carrier_peak,
    min_inband_suppression_db,
    notch_specs,
    report,
    run_interference_sweep,
    run_multinotch_study,
    run_pattern_study,
    suppression_band,
    synthesize_configs,
    trial_seeds,
    write_sweep_files,
)
from risradar.fileio import read_keyvals, read_pattern_table, read_peak_records, read_sweep_file
from risradar.scenario import Scenario, ScenarioError, default_scenario
from risradar.simulation import InterferenceParams, TargetParams, draw_trial, frame_terms
from risradar.synthesis import (
    NotchSpec,
    TrainingDivergedError,
    TrainingResult,
    analytic_peak,
    combine_convolve,
    multi_notch,
    normalize_coefficients,
    notch_config,
)

from oracles import PairDraws, frame_difference, frame_pair

SMALL = Scenario(
    num_subcarriers=32,
    num_symbols=8,
    num_peak_elements=32,
    net_num_layers=3,
    net_hidden_width=16,
    net_num_iterations=300,
    power_ratios_db=(0.0, 30.0),
    angle_offsets_rad=(0.0, 0.01),
    trials=3,
    target_range_m=9.75,
    pad_range=2,
    pad_velocity=2,
)


# A sweep whose trials often miss the target: interferers up to 120 dB at
# offsets out to 0.2 rad, heavy noise, a moving target and a Doppler-shifted
# interferer, so its files see any change in the range-velocity maps' bits.
NONZERO = Scenario(
    num_subcarriers=32,
    num_symbols=8,
    num_peak_elements=4,
    power_ratios_db=(0.0, 30.0, 60.0, 90.0, 120.0),
    angle_offsets_rad=(-0.2, -0.1, 0.0, 0.1, 0.2),
    trials=3,
    target_range_m=9.75,
    target_velocity_mps=3.0,
    interferer_doppler_scale=2e-8,
    pad_range=2,
    pad_velocity=2,
    master_seed=3,
)


def small_combined(scenario=SMALL):
    peak = analytic_peak(scenario.target_angle_rad, scenario.num_peak_elements)
    return normalize_coefficients(combine_convolve(peak, notch_config(scenario.interferer_angle_rad)))


@functools.cache
def small_training():
    """SMALL's trained peak, trained once for every study on SMALL's network."""
    return experiments.train_peak(SMALL)


def file_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("pattern")
    return run_pattern_study(SMALL, out, small_training()), out


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    result = run_interference_sweep(SMALL, small_combined())
    write_sweep_files(result, out)
    return result, out


@pytest.fixture(scope="module")
def multi(tmp_path_factory):
    out = tmp_path_factory.mktemp("multinotch")
    result = run_multinotch_study(SMALL, out, notch_specs(SMALL, (0.0, 1e-3, 1e-2)), None)
    return result, out


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seeds(0, 1, 2, 3) == trial_seeds(0, 1, 2, 3)

    def test_distinct_across_grid(self):
        seen = set()
        for i in range(3):
            for j in range(3):
                for t in range(3):
                    seen.add(trial_seeds(7, i, j, t))
        assert len(seen) == 27

    def test_is_the_first_word_of_the_four_seed_rule(self):
        # the records' seed column kept its values when a trial went from four generators to one
        for key in ((0, 0, 0, 0), (3, 4, 2, 199), (2**40, 8, 8, 49)):
            first = int(np.random.SeedSequence(list(key)).generate_state(4)[0])
            assert trial_seeds(*key) == first
            assert isinstance(trial_seeds(*key), int)


class TestPatternStudy:
    def test_emits_three_parseable_patterns(self, study):
        result, _ = study
        for path in (result.peak_path, result.notch_path, result.combined_path):
            angles, power = read_pattern_table(path)
            assert angles.size == 721
            assert power.max() == 0.0  # normalized

    def test_metrics_file(self, study):
        result, _ = study
        metrics = read_keyvals(result.metrics_path)
        assert float(metrics["target_angle_deg"]) == pytest.approx(72.0, abs=1e-9)
        assert float(metrics["peak_gain_ratio"]) > 0.85
        assert abs(float(metrics["combined_argmax_deg"]) - 72.0) <= 1.5  # 32-element lobe

    def test_notch_has_exactly_one_null(self, study):
        result, _ = study
        _, power = read_pattern_table(result.notch_path)
        assert int(np.sum(power <= -100.0)) == 1

    def test_combined_null_at_interferer(self, study):
        result, _ = study
        assert result.combined_db_at_interferer <= -60.0

    def test_round_trips_bytes(self, study, tmp_path):
        result, _ = study
        again = run_pattern_study(SMALL, tmp_path, small_training())
        assert again.peak_path.read_bytes() == result.peak_path.read_bytes()
        assert again.combined_path.read_bytes() == result.combined_path.read_bytes()

    def test_all_subcarrier_study_builds_one_block_per_subcarrier(self, monkeypatch, tmp_path):
        sizes = []

        def counted(num_elements, thetas, ratios=None):
            sizes.append(num_elements)
            return steering(num_elements, thetas, ratios)

        monkeypatch.setattr(arrays, "steering", counted)
        run_pattern_study(SMALL, tmp_path, small_training(), subcarrier_mode="all")
        assert sizes == [33] * SMALL.num_subcarriers  # sized to the combined configuration


class TestPinnedBytes:
    """sha256 of the pattern and multi-notch files on SMALL, recorded before
    one steering block served every configuration on its angle grid; the
    multi-notch summary's digest was re-recorded when its threshold and depth
    reference came from the pattern polynomial's maximum, not a sampled one."""

    PATTERN = {
        "carrier": {
            "pattern_combined.csv": "43a083730d5552e839f2f9d05245632e477cbbc263a4b2d4ab83c61e99afaa37",
            "pattern_metrics.txt": "e2244b52c6ad470ff2448c71c54fd5f6290de93b26facc709fb7b6b865c19a87",
            "pattern_notch.csv": "2121f8f5f8ec5008c96a4705dc414cef5471dbb54e8f3945d5d0770abcfb27e8",
            "pattern_peak.csv": "a519627b21f41a7ce78e2589044f42bb7a54d27ee5306bd1a0cfcc24893a70a7",
        },
        "all": {
            "pattern_combined.csv": "97156436327cd04b3921bb933d915b23b3049132864ff88badbe28890897f1ea",
            "pattern_metrics.txt": "004b74e93d84c4aeac3249e8e448524b07f3de95078ca540218fc5c1658687c7",
            "pattern_notch.csv": "fa6f0b44701560b375b2383b57fdcc2936ee8cc563b4eac50d284c494b8509cd",
            "pattern_peak.csv": "6010300d8cedfb17c7faa97189d9394f972042187bd2e4700277d542bbce2e12",
        },
    }
    MULTINOTCH = {
        "multinotch_pattern_eps0.0.csv": "4463e798133e2be744ca5ea3ccacc2fef9be462dac2b26e882dcf8c92188c1cb",
        "multinotch_pattern_eps0.001.csv": "c9d0e69bd8b1bf8a58bdc0110c4d1948f91fee8c7d50b53f8156b7cf3bf2a52e",
        "multinotch_pattern_eps0.01.csv": "ec451a32269399c5a9a651b2a0fae46138d0d902ddff3a08bce7729b0bd2ba1c",
        "multinotch_summary.csv": "03d4f9419a5c461822c3d569291b3cf4a60ca313fd4817ba73243401886e943a",
    }

    @pytest.mark.parametrize("mode", sorted(PATTERN))
    def test_pattern_study(self, mode, tmp_path):
        run_pattern_study(SMALL, tmp_path, small_training(), subcarrier_mode=mode)
        assert file_digests(tmp_path) == self.PATTERN[mode]

    def test_multinotch_study(self, multi):
        _, out = multi
        assert file_digests(out) == self.MULTINOTCH


class TestInterferenceSweep:
    def test_point_grid_is_sorted_and_complete(self, sweep):
        result, _ = sweep
        keys = [(p.power_ratio_db, p.angle_offset_rad) for p in result.points]
        assert keys == sorted(keys)
        assert len(result.points) == 4
        assert all(p.trials == 3 for p in result.points)

    def test_zero_offset_is_error_free(self, sweep):
        result, _ = sweep
        for point in result.points:
            if point.angle_offset_rad == 0.0:
                assert point.mean_range_error_m == 0.0

    def test_files_round_trip(self, sweep):
        result, out = sweep
        rows = read_sweep_file(out / "sweep.csv")[0]
        assert [(r[0], r[1]) for r in rows] == [(p.power_ratio_db, p.angle_offset_rad) for p in result.points]
        records = read_peak_records(out / "sweep_records.csv")
        assert len(records) == 4 * 3

    def test_worker_count_does_not_change_bytes(self, sweep, tmp_path):
        _, out = sweep
        parallel = tmp_path / "parallel"
        write_sweep_files(run_interference_sweep(SMALL, small_combined(), workers=2), parallel)
        assert (parallel / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()
        assert (parallel / "sweep_records.csv").read_bytes() == (out / "sweep_records.csv").read_bytes()

    def test_single_point_under_two_workers_matches_one(self, tmp_path):
        # one point gets no pool at all, so two workers must give the one-worker bytes
        scenario = SMALL.replace(power_ratios_db=(30.0,), angle_offsets_rad=(0.01,))
        serial = run_interference_sweep(scenario, small_combined())
        write_sweep_files(serial, tmp_path / "serial")
        pooled = run_interference_sweep(scenario, small_combined(), workers=2)
        write_sweep_files(pooled, tmp_path / "pooled")
        assert len(pooled.points) == 1 and pooled.records == serial.records
        assert file_digests(tmp_path / "pooled") == file_digests(tmp_path / "serial")

    def test_pool_gets_no_more_workers_than_points(self, monkeypatch, tmp_path):
        # a stand-in pool records its size and maps in this process: nothing is forked
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        serial = run_interference_sweep(SMALL, config=small_combined())
        pooled = run_interference_sweep(SMALL, config=small_combined(), workers=5000)
        assert sizes == [4]
        assert pooled.records == serial.records
        single = SMALL.replace(power_ratios_db=(30.0,), angle_offsets_rad=(0.01,))
        run_interference_sweep(single, config=small_combined(), workers=8)
        assert sizes == [4]  # one point runs serially
        run_multinotch_study(SMALL, tmp_path, notch_specs(SMALL, (0.0, 1e-2)), small_training(), workers=5000)
        assert sizes == [4, 4]  # one task per point carries both spacings

    @pytest.mark.parametrize(
        "error, attributes",
        [
            (arrays.FieldError("num_symbols", "must be a positive integer"), ("field", "requirement")),
            (ScenarioError("sweep.trials must be a positive integer", "sweep.trials"), ("key",)),
            (experiments.ReportError("out/sweep.csv: missing key 'x'"), ()),
            (TrainingDivergedError(12), ("iteration",)),
        ],
        ids=["FieldError", "ScenarioError", "ReportError", "TrainingDivergedError"],
    )
    def test_an_error_from_a_pool_worker_keeps_its_type_text_and_attributes(self, error, attributes):
        # a worker's exception reaches the parent by pickle
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert [getattr(copy, name) for name in attributes] == [getattr(error, name) for name in attributes]

    # sha256 of sweep.csv and sweep_records.csv, recorded when a trial went
    # from two frames' draws to the one draw its frame difference reads
    @pytest.mark.parametrize(
        "mode, noise_variance, nonzero, table_sha, records_sha",
        [
            (
                "carrier",
                5.0,
                36,
                "660357b39dab8037b6b8ad173c7e1db0876442573e0edf94bda623fec8233854",
                "911d23ad5966c5926d535544b3877bab41539bfe62d49e675549f600b1432bf8",
            ),
            (
                "all",
                30.0,
                42,
                "87833a3c1ca499cfa4aed2f02a8ca646a3c5a758b431dbf5608bc191777dded4",
                "a2ca0e3ac7c23045558aaa69fd1eb528b28497f3dc091dba3eeb32202e76d994",
            ),
        ],
        ids=["carrier", "all"],
    )
    def test_sweep_with_range_errors_is_pinned(self, tmp_path, mode, noise_variance, nonzero, table_sha, records_sha):
        scenario = NONZERO.replace(noise_variance=noise_variance)
        result = run_interference_sweep(scenario, small_combined(NONZERO), subcarrier_mode=mode)
        write_sweep_files(result, tmp_path)
        assert sum(record[3] != 0.0 for record in result.records) == nonzero
        digests = file_digests(tmp_path)
        assert (digests["sweep.csv"], digests["sweep_records.csv"]) == (table_sha, records_sha)

    @pytest.mark.parametrize("noise_variance", [4.0, 0.0])
    @pytest.mark.parametrize("velocity_mps, doppler_scale", [(0.0, 0.0), (3.0, 2e-8)])
    @pytest.mark.parametrize("mode", ["carrier", "all"])
    def test_trial_grid_equals_the_scenario_frame_pair(self, monkeypatch, mode, velocity_mps, doppler_scale, noise_variance):
        """The grid each sweep trial hands to the peak search is the frame
        difference of a frame pair built here from the trial's seed, bit for
        bit: the pair of the trial's ratio with noise grids n and -n."""
        scenario = NONZERO.replace(
            power_ratios_db=(0.0, 120.0),
            angle_offsets_rad=(-0.2, 0.1),
            target_velocity_mps=velocity_mps,
            interferer_doppler_scale=doppler_scale,
            noise_variance=noise_variance,
        )
        config = small_combined(NONZERO)
        grids = []

        def capture(y, *args):
            grids.append(y.tobytes())
            return real_estimate_target(y, *args)

        real_estimate_target = experiments.estimate_target
        monkeypatch.setattr(experiments, "estimate_target", capture)
        run_interference_sweep(scenario, config=config, subcarrier_mode=mode)

        params = scenario.ofdm_params()
        target = TargetParams(scenario.target_range_m, scenario.target_angle_rad, velocity_mps)
        expected = []
        for i, ratio in enumerate(scenario.power_ratios_db):
            for j, offset in enumerate(scenario.angle_offsets_rad):
                for trial in range(scenario.trials):
                    seed = trial_seeds(scenario.master_seed, i, j, trial)
                    interference = InterferenceParams(
                        scenario.interferer_delay_s,
                        scenario.interferer_angle_rad + offset,
                        doppler_scale,
                        10.0 ** (ratio / 20.0),
                    )
                    terms = frame_terms(params, config, target, interference, noise_variance, mode)
                    draws = draw_trial(terms, seed)
                    noise = (None, None) if draws.noise is None else (draws.noise, -draws.noise)
                    pair = frame_pair(terms, PairDraws(draws.ratio, noise))
                    expected.append(frame_difference(*pair).tobytes())
        assert len(grids) == 12
        assert grids == expected

    def test_sweep_never_builds_the_full_map(self, monkeypatch):
        """A trial's search transforms only the range rows that can hold the
        peak (`simulation._peak_rows`), each at most once; a sweep that fell
        back to the full map would now fail instead of only running slower."""
        searches = []
        real_estimate_target, real_peak_rows = experiments.estimate_target, simulation._peak_rows

        def estimate_target(*args):
            searches.append([])
            return real_estimate_target(*args)

        def peak_rows(rows, chosen, *args):
            searches[-1].extend(chosen.tolist())
            return real_peak_rows(rows, chosen, *args)

        monkeypatch.setattr(experiments, "estimate_target", estimate_target)
        monkeypatch.setattr(simulation, "_peak_rows", peak_rows)
        result = run_interference_sweep(NONZERO, small_combined(NONZERO))
        trials = NONZERO.trials * len(NONZERO.power_ratios_db) * len(NONZERO.angle_offsets_rad)
        n_range = NONZERO.pad_range * NONZERO.num_subcarriers
        assert len(result.records) == len(searches) == trials
        assert all(0 < len(rows) == len(set(rows)) <= n_range for rows in searches)
        assert sum(len(rows) for rows in searches) < trials * n_range

    @pytest.mark.parametrize("mode", ["carrier", "all"])
    def test_trial_from_seeds_alone_returns_the_recorded_error(self, mode):
        """run_trial handed only a record's seed builds its own terms and
        draws; it returns the error the sweep records for that trial, bit for bit."""
        scenario = NONZERO.replace(power_ratios_db=(0.0, 120.0), angle_offsets_rad=(-0.2, 0.1))
        config = small_combined(NONZERO)
        records = run_interference_sweep(scenario, config, subcarrier_mode=mode).records
        points = [
            (ratio, offset)
            for ratio in scenario.power_ratios_db
            for offset in scenario.angle_offsets_rad
            for _ in range(scenario.trials)
        ]
        errors = [
            experiments.run_trial(scenario, config, ratio, offset, seed, mode)
            for (ratio, offset), (seed, *_) in zip(points, records, strict=True)
        ]
        assert any(error != 0.0 for error in errors)
        assert np.array(errors).tobytes() == np.array([record[3] for record in records]).tobytes()

    def test_rejects_offsets_leaving_domain(self):
        # the scenario itself refuses offsets the sweep could not run
        with pytest.raises(ScenarioError, match="outside"):
            SMALL.replace(angle_offsets_rad=(3.0,))


class TestMultinotchStudy:
    def test_defaults_to_four_notches(self, multi):
        result, _ = multi
        assert all(e.notch.num_elements == 5 for e in result.entries)

    def test_bandwidth_grows_with_spacing(self, multi):
        result, _ = multi
        widths = [e.bandwidth_rad for e in result.entries]
        assert widths[0] < widths[1] < widths[2]

    def test_suppression_shrinks_with_spacing(self, multi):
        result, _ = multi
        depths = [e.min_inband_suppression_db for e in result.entries]
        assert depths[0] > depths[1] > depths[2]
        assert depths[2] > 30.0  # still well below the -30 dB threshold in-band

    def test_summary_and_patterns_on_disk(self, multi):
        result, out = multi
        assert result.summary_path.exists()
        text = result.summary_path.read_text()
        assert "suppression_threshold_db=-30.0" in text
        for entry in result.entries:
            angles, power = read_pattern_table(entry.pattern_path)
            assert angles.size == 721

    def test_builds_no_steering_block_beyond_the_grid_or_the_depth_span(self, monkeypatch, tmp_path):
        sizes = []

        def counted(num_elements, thetas, ratios=None):
            sizes.append(np.size(thetas))
            return steering(num_elements, thetas, ratios)

        monkeypatch.setattr(arrays, "steering", counted)
        monkeypatch.setattr(experiments, "steering", counted)
        run_multinotch_study(SMALL, tmp_path, notch_specs(SMALL, (0.0, 1e-3, 1e-2)), None)
        assert sizes and max(sizes) <= max(arrays.GRID_POINTS, 4001)

    def test_sweeps_attached_when_requested(self, tmp_path):
        scenario = SMALL.replace(trials=1, power_ratios_db=(30.0,), angle_offsets_rad=(0.0,))
        result = run_multinotch_study(
            scenario, tmp_path, notch_specs(scenario, (0.0, 1e-2)), small_training()
        )
        for entry in result.entries:
            assert entry.sweep is not None
            assert entry.sweep.points[0].mean_range_error_m == 0.0
        assert (tmp_path / "multinotch_sweep_eps0.0.csv").exists()

    def test_no_spacings_writes_an_empty_summary(self, tmp_path):
        result = run_multinotch_study(SMALL, tmp_path, notch_specs(SMALL, ()), None)
        assert result.entries == []
        assert result.summary_path.read_text().splitlines()[-1].startswith("epsilon_rad,")

    def test_shared_pool_writes_the_one_worker_bytes(self, tmp_path):
        scenario = SMALL.replace(angle_offsets_rad=(-0.01, 0.0, 0.01))
        for workers in (1, 2):
            run_multinotch_study(
                scenario, tmp_path / f"w{workers}", notch_specs(scenario, (0.0, 1e-2)), small_training(), workers=workers
            )
        assert len(file_digests(tmp_path / "w1")) == 7  # summary, 2 patterns, 2 sweep tables, 2 record files
        assert file_digests(tmp_path / "w2") == file_digests(tmp_path / "w1")


def analytic_training(scenario):
    """A TrainingResult holding the analytic peak, so a study runs without training."""
    peak = analytic_peak(scenario.target_angle_rad, scenario.num_peak_elements)
    return TrainingResult(peak, np.zeros(0), 1.0)


class TestSharedSweepPoint:
    """Every configuration swept at a grid point shares each trial's draws."""

    # sha256 of the multi-notch sweep files on NONZERO (noise 5.0), recorded
    # when a trial went to one draw; at spacing 0.1 no trial's error depends
    # on the mode, so both modes pin the same two files there
    SPACINGS = (0.0, 0.05, 0.1)
    SWEEPS = {
        "carrier": {
            "multinotch_sweep_eps0.0.csv": "395f1b4ed47a59a1eada2b077f945cb753efe4959dd4348085cd1eb725f9f366",
            "multinotch_sweep_eps0.0_records.csv": "a8a1278763edb3cb81bd125a789ef3e95a2a2e5cc0b067b7dfc6fa2e36ac5516",
            "multinotch_sweep_eps0.05.csv": "bda742caed309c025aae7e94e7f9c0aa7ca720504b5a77394164002369cb9d05",
            "multinotch_sweep_eps0.05_records.csv": "50a0389ecabec71e90f7ca54db4328cfecf7c4f7e1e6027a9917ff0bd354c059",
            "multinotch_sweep_eps0.1.csv": "ea8e1db99cb0e1ecb249aab2874680b8a008aebb330df256565e9c2e459a8ea3",
            "multinotch_sweep_eps0.1_records.csv": "84cd1c00ab4312f25136dccb5178392279be50aae9d88b9c3a431b1edeb6b312",
        },
        "all": {
            "multinotch_sweep_eps0.0.csv": "70af01b7cc74df22ae42b7853f34b1ac641d6a424cf921659aca6717fb0736ba",
            "multinotch_sweep_eps0.0_records.csv": "7ac5d0194489af976173bf209956a0fb4bda12d513af3de1f5a26ffffae8cbb9",
            "multinotch_sweep_eps0.05.csv": "c6ffa4639e35d4f34e313e9e7ac05edb2c1fb13bb8df63893ecac977f5f8d70c",
            "multinotch_sweep_eps0.05_records.csv": "8cbef48c72fb87770bc5146c4b1bfdec1a5500ff0fbfde4f48ca66aed82b8ea9",
            "multinotch_sweep_eps0.1.csv": "ea8e1db99cb0e1ecb249aab2874680b8a008aebb330df256565e9c2e459a8ea3",
            "multinotch_sweep_eps0.1_records.csv": "84cd1c00ab4312f25136dccb5178392279be50aae9d88b9c3a431b1edeb6b312",
        },
    }

    @pytest.mark.parametrize("mode", sorted(SWEEPS))
    def test_multinotch_sweeps_with_range_errors_are_pinned(self, mode, tmp_path):
        scenario = NONZERO.replace(noise_variance=5.0)
        result = run_multinotch_study(
            scenario, tmp_path, notch_specs(scenario, self.SPACINGS), analytic_training(scenario), subcarrier_mode=mode
        )
        assert sum(record[3] != 0.0 for e in result.entries for record in e.sweep.records) == 75
        tables = [(tmp_path / f"multinotch_sweep_eps{eps!r}.csv").read_bytes() for eps in self.SPACINGS]
        assert len(set(tables)) == len(self.SPACINGS)
        digests = file_digests(tmp_path)
        assert {name: digests[name] for name in self.SWEEPS[mode]} == self.SWEEPS[mode]

    @settings(max_examples=30, deadline=None)
    @given(
        configs=st.lists(
            st.lists(
                st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=6
            ).filter(lambda c: max(abs(v) for v in c) > 1e-3),
            min_size=1,
            max_size=3,
        ),
        mode=st.sampled_from(["carrier", "all"]),
        noise_variance=st.sampled_from([0.0, 0.5, 5.0]),
        doppler=st.booleans(),
    )
    def test_shared_point_equals_separate_sweeps(self, configs, mode, noise_variance, doppler):
        scenario = NONZERO.replace(
            power_ratios_db=(0.0, 20.0),
            angle_offsets_rad=(-0.2, 0.1),
            trials=2,
            noise_variance=noise_variance,
            target_velocity_mps=3.0 if doppler else 0.0,
            interferer_doppler_scale=2e-8 if doppler else 0.0,
        )
        configs = [RisConfig(np.array(c)) for c in configs]
        shared = experiments._sweep_results(scenario, configs, mode, workers=1)
        for config, result in zip(configs, shared, strict=True):
            alone = run_interference_sweep(scenario, config, subcarrier_mode=mode)
            assert result.records == alone.records
            assert result.points == alone.points

    def test_each_trial_draws_once_for_every_spacing(self, monkeypatch, tmp_path):
        generators = []

        def counting(seed):
            generators.append(seed)
            return real_default_rng(seed)

        real_default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", counting)
        spacings, points, trials = (0.0, 1e-3, 1e-2), 4, SMALL.trials
        result = run_multinotch_study(SMALL, tmp_path, notch_specs(SMALL, spacings), analytic_training(SMALL))
        assert [len(e.sweep.records) for e in result.entries] == [points * trials] * len(spacings)
        assert len(generators) == points * trials  # one generator a trial, not one a spacing or a draw
        assert generators == [record[0] for record in result.entries[0].sweep.records]


def notch_band(num_notches, spacing_rad, center_rad=np.pi / 4):
    column = multi_notch(NotchSpec(center_rad, num_notches, spacing_rad)).coefficients
    peak = carrier_peak(column)
    return column, peak, suppression_band(column, center_rad, peak)


def reference_scan(column):
    """Carrier power of one column at all 200001 scan angles of [0, pi],
    each block of 16384 angles through its own `steering` call."""
    angles = np.linspace(0.0, np.pi, 200001)
    blocks = [angles[i : i + 16384] for i in range(0, angles.size, 16384)]
    return np.concatenate([np.abs(steering(column.size, block) @ column) ** 2 for block in blocks])


def reference_threshold(reference):
    return reference.max() * 10.0 ** (SUPPRESSION_THRESHOLD_DB / 10.0)


class TestSuppressionBand:
    # (low edge, high edge, minimum in-band suppression) of the default
    # scenario's four-notch study, recorded when the -30 dB threshold and the
    # depth reference came from the pattern polynomial's maximum, with the
    # edges bracketed by its roots; the edges agree to float resolution, the
    # depths exactly
    PINNED = {
        0.0: (0.17778833553778034, 1.126329775287858, 300.0),
        1e-3: (0.1777848663023041, 1.1263314338617567, 236.33180463939183),
        1e-2: (0.1774411808461281, 1.1264956585665225, 156.15884827573623),
    }

    @pytest.mark.parametrize("epsilon", sorted(PINNED))
    def test_matches_pinned_edges_and_depths(self, epsilon):
        center = default_scenario().interferer_angle_rad
        column, peak, (low, high) = notch_band(4, epsilon, center)
        low_ref, high_ref, depth_ref = self.PINNED[epsilon]
        assert abs(low - low_ref) <= 1e-13
        assert abs(high - high_ref) <= 1e-13
        assert min_inband_suppression_db(column, center, peak, epsilon, 4) == depth_ref

    @settings(max_examples=25, deadline=None)
    @given(
        num_notches=st.integers(1, 4),
        spacing=st.floats(0.0, 0.05),
        center=st.floats(0.1, np.pi - 0.1),
    )
    def test_edges_separate_suppressed_from_unsuppressed(self, num_notches, spacing, center):
        column, _, (low, high) = notch_band(num_notches, spacing, center)
        reference = reference_scan(column)
        threshold = reference_threshold(reference)

        def power(theta):
            return experiments._carrier_power(column, theta)[0]

        assert 0.0 <= low < center < high <= np.pi
        assert power(low + 1e-9) < threshold
        assert power(high - 1e-9) < threshold
        if low > 0.0:
            assert power(low - 1e-9) >= threshold
        if high < np.pi:
            assert power(high + 1e-9) >= threshold
        angles = np.linspace(0.0, np.pi, reference.size)
        assert np.all(reference[(angles > low) & (angles < high)] < threshold)

    @settings(max_examples=10, deadline=None)
    @given(
        num_notches=st.integers(1, 4),
        spacing=st.floats(0.0, 0.05),
        center=st.floats(0.1, np.pi - 0.1),
    )
    def test_peak_is_the_pattern_maximum(self, num_notches, spacing, center):
        column = multi_notch(NotchSpec(center, num_notches, spacing)).coefficients
        sampled = reference_scan(column).max()
        assert sampled <= carrier_peak(column) <= sampled * (1.0 + 1e-8)

    def test_bisects_with_few_kernel_calls(self, monkeypatch):
        column = multi_notch(NotchSpec(np.pi / 4, 4, 1e-3)).coefficients
        peak = carrier_peak(column)
        calls = []

        def counted(column, thetas):
            calls.append(thetas)
            return carrier_power(column, thetas)

        carrier_power = experiments._carrier_power
        monkeypatch.setattr(experiments, "_carrier_power", counted)
        suppression_band(column, np.pi / 4, peak)
        assert len(calls) <= 200


class TestSynthesizeConfigs:
    def test_combined_has_convolved_length(self):
        bundle = synthesize_configs(SMALL, small_training())
        assert small_training().config.num_elements == 32
        assert bundle.notch.num_elements == 2
        assert bundle.combined.num_elements == 33
        assert np.abs(bundle.combined.coefficients).max() == pytest.approx(1.0, rel=1e-15)


class TestHandedInputs:
    def test_a_study_handed_its_inputs_never_trains(self, monkeypatch, tmp_path):
        training = experiments.train_peak(SMALL)

        def refuse(*args):
            raise AssertionError("trained")

        monkeypatch.setattr(experiments, "train_peak_network", refuse)
        scenario = SMALL.replace(trials=1, power_ratios_db=(30.0,), angle_offsets_rad=(0.0,))
        run_pattern_study(scenario, tmp_path / "pattern", training)
        run_interference_sweep(scenario, synthesize_configs(scenario, training).combined)
        result = run_multinotch_study(scenario, tmp_path / "multinotch", notch_specs(scenario, (0.0, 1e-2)), training)
        assert all(entry.sweep is not None for entry in result.entries)


class TestReport:
    def test_empty_directory_reports_nothing_run(self, tmp_path):
        result = report(tmp_path)
        assert result.num_studies == 0
        assert result.path.exists()
        assert "studies: 0" in result.path.read_text()
        assert "nothing-run" in result.path.read_text()

    def test_pattern_only_summary_lists_files_and_metrics(self, tmp_path):
        run_pattern_study(SMALL, tmp_path, small_training())
        result = report(tmp_path)
        assert result.num_studies == 1
        text = result.path.read_text()
        for name in ("pattern_peak.csv", "pattern_notch.csv", "pattern_combined.csv"):
            assert name in text
        assert any("argmax" in name for name, _ok, _d in result.checks)

    def test_each_study_file_is_read_once(self, tmp_path, monkeypatch):
        result = run_interference_sweep(SMALL, small_combined())
        write_sweep_files(result, tmp_path)
        write_sweep_files(result, tmp_path, stem="multinotch_sweep_eps0.0")
        reads = []
        real_read_text = Path.read_text

        def record(path, *args, **kwargs):
            reads.append(path.name)
            return real_read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", record)
        assert report(tmp_path).passed
        assert sorted(reads) == ["multinotch_sweep_eps0.0.csv", "sweep.csv"]

    def test_full_small_run_passes(self, tmp_path):
        run_pattern_study(SMALL, tmp_path, small_training())
        write_sweep_files(run_interference_sweep(SMALL, small_combined()), tmp_path)
        run_multinotch_study(SMALL, tmp_path, notch_specs(SMALL, (0.0, 1e-3, 1e-2)), None)
        result = report(tmp_path)
        assert result.num_studies == 3
        assert result.passed, result.checks
        assert "result: pass" in result.path.read_text()
