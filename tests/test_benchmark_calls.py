"""The calls the benchmark harness (`bench/workloads.py`) makes into the
program, each in the harness's own argument form, on a small scenario. A
change of signature or return shape that would break the harness fails
here first; the harness itself is not imported."""

import numpy as np

from risradar import experiments, fileio, synthesis
from risradar.scenario import default_scenario

SMALL = default_scenario().replace(
    num_subcarriers=32,
    num_symbols=8,
    num_peak_elements=16,
    net_num_layers=2,
    net_hidden_width=8,
    net_num_iterations=20,
    power_ratios_db=(0.0, 30.0),
    angle_offsets_rad=(0.0, 0.01),
    trials=2,
    target_range_m=9.75,
    pad_range=2,
    pad_velocity=2,
    noise_variance=5.0,
)


def test_sweep_workload_calls(tmp_path):
    seed = 0
    scenario = SMALL.replace(master_seed=seed)
    training = synthesis.train_peak_network(
        scenario.target_angle_rad, scenario.num_peak_elements, scenario.network_spec()
    )
    config = experiments.synthesize_configs(scenario, training=training).combined
    error = experiments.run_trial(scenario, config, 0.0, 0.0, experiments.trial_seeds(seed, 0, 0, 0))

    result = experiments.run_interference_sweep(scenario, config=config, workers=1)
    experiments.write_sweep_files(result, tmp_path)
    rows = fileio.read_sweep_table(tmp_path / "sweep.csv")
    records = fileio.read_peak_records(tmp_path / "sweep_records.csv")
    assert len(rows) == 4 and len(records) == 4 * scenario.trials == len(result.records)
    assert records[0] == (experiments.trial_seeds(seed, 0, 0, 0), 0.0, scenario.interferer_angle_rad, error)
    report = experiments.report(tmp_path)
    assert report.num_studies == 1 and all(isinstance(ok, bool) for _, ok, _ in report.checks)


def test_train_workload_calls(tmp_path):
    spec = SMALL.replace(net_num_iterations=5).network_spec()
    result = synthesis.train_peak_network(SMALL.target_angle_rad, SMALL.num_peak_elements, spec)
    fileio.write_config_file(
        tmp_path / "peak_config.txt", result.config, theta_t=SMALL.target_angle_rad, seed=SMALL.net_init_seed
    )
    fileio.write_loss_history(tmp_path / "training_loss.csv", result.loss_history)

    config, _ = fileio.read_config_file(tmp_path / "peak_config.txt")
    column = config.static_column()
    assert column.tobytes() == result.config.coefficients.tobytes()
    rows = np.loadtxt(tmp_path / "training_loss.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (5, 2)
    notch = synthesis.multi_notch(SMALL.notch_spec(4, 1e-3))
    assert notch.static_column().size == 5
