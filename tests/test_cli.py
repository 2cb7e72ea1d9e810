import numpy as np
import pytest

from risradar.cli import main
from risradar.fileio import read_config_file, read_pattern_table, read_sweep_table

SMALL_SCENARIO = """
ofdm.num_subcarriers = 32
ofdm.num_symbols = 8
geometry.num_peak_elements = 32
network.num_layers = 3
network.hidden_width = 16
network.num_iterations = 300
sweep.power_ratios_db = 0,30
sweep.angle_offsets_rad = 0,0.01
sweep.trials = 2
sweep.target_range_m = 9.75
sweep.pad_range = 2
sweep.pad_velocity = 2
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SMALL_SCENARIO)
    return path


def test_pattern_command(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pattern", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "combined argmax" in printed
    for name in ("pattern_peak.csv", "pattern_notch.csv", "pattern_combined.csv", "pattern_metrics.txt"):
        assert (out / name).exists()
    assert (out / "scenario_used.txt").exists()


def test_pattern_grid_flag(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["pattern", "--scenario", str(scenario_file), "--out", str(out), "--grid", "361"]) == 0
    angles, _ = read_pattern_table(out / "pattern_peak.csv")
    assert angles.size == 361
    assert angles[1] - angles[0] == 0.5


def test_train_peak_command(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["train-peak", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    config, meta = read_config_file(out / "peak_config.txt")
    assert config.num_elements == 32
    assert meta["theta_t"] == pytest.approx(2 * np.pi / 5, rel=1e-15)
    losses = (out / "training_loss.csv").read_text().splitlines()
    assert losses[0] == "iteration,loss"
    assert len(losses) == 1 + 300


def test_sweep_then_report(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    rows = read_sweep_table(out / "sweep.csv")
    assert len(rows) == 4
    assert main(["report", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "studies: 1" in summary
    assert (out / "summary.txt").exists()


def test_report_on_empty_directory_signals_nothing_run(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["report", "--out", str(out)]) == 1
    assert "studies: 0" in (out / "summary.txt").read_text()


def test_multinotch_command(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "multinotch",
            "--scenario",
            str(scenario_file),
            "--out",
            str(out),
            "--epsilon",
            "0,1e-2",
            "--no-sweeps",
        ]
    )
    assert code == 0
    assert (out / "multinotch_summary.csv").exists()
    assert (out / "multinotch_pattern_eps0.0.csv").exists()
    assert (out / "multinotch_pattern_eps0.01.csv").exists()


def test_seed_override_lands_in_echo(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["train-peak", "--scenario", str(scenario_file), "--out", str(out), "--seed", "123"]) == 0
    assert "master_seed = 123" in (out / "scenario_used.txt").read_text()


def test_invalid_scenario_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("sweep.trials = 0\n")
    assert main(["pattern", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_non_finite_scenario_value_writes_no_sweep(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(SMALL_SCENARIO + "sweep.noise_variance = inf\n")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "scenario error: sweep.noise_variance must be finite\n"
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("grid", ["1", "0", "-5", "many"])
def test_grid_below_two_rejected_at_parsing(grid, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["pattern", "--out", str(out), "--grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "argument --grid" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_training_divergence_exits_three(tmp_path, capsys):
    diverging = tmp_path / "diverging.txt"
    diverging.write_text(SMALL_SCENARIO + "network.learning_rate = 1e308\n")
    out = tmp_path / "o"
    assert main(["train-peak", "--scenario", str(diverging), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("training error: training loss became non-finite at iteration ")
    assert err.count("\n") == 1
    assert not (out / "peak_config.txt").exists()


def test_repeat_runs_are_byte_identical(scenario_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    for name in ("sweep.csv", "sweep_records.csv", "scenario_used.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
