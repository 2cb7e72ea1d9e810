import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risradar import cli
from risradar.cli import main
from risradar.fileio import (
    SweepPoint,
    read_config_file,
    read_keyvals,
    read_pattern_table,
    read_sweep_file,
    write_rows,
)
from risradar.scenario import default_scenario, load_scenario

SWEEP_HEADER = "power_ratio_db,angle_offset_rad,mean_range_error_m,std_range_error_m,trials"

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
    # it prints what the study wrote: three metrics, then the tables and the metrics file
    out = tmp_path / "out"
    assert main(["pattern", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = read_keyvals(out / "pattern_metrics.txt")
    printed = dict(line.split(": ") for line in lines[:3])
    assert list(printed) == ["combined argmax", "combined level at interferer", "peak gain ratio"]
    keys = ("combined_argmax_deg", "combined_db_at_interferer", "peak_gain_ratio")
    assert [float(text.split()[0]) for text in printed.values()] == [float(metrics[key]) for key in keys]
    names = ("pattern_peak.csv", "pattern_notch.csv", "pattern_combined.csv", "pattern_metrics.txt")
    assert lines[3:] == [f"wrote {out / name}" for name in names]
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


@pytest.fixture()
def trainings(monkeypatch):
    """The (target angle, element count, network spec) of each peak the CLI trains, in order."""
    calls = []
    train = cli.train_peak_network

    def counted(theta_t, num_elements, spec):
        calls.append((theta_t, num_elements, spec))
        return train(theta_t, num_elements, spec)

    monkeypatch.setattr(cli, "train_peak_network", counted)
    return calls


def _training_inputs(scenario):
    return scenario.target_angle_rad, scenario.num_peak_elements, scenario.network_spec()


def _files(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_commands_sharing_a_directory_train_once(workers, scenario_file, tmp_path, trainings):
    # pattern runs last, so its metrics carry the gain ratio of the peak read back from the directory
    commands = {"sweep": ["--workers", workers], "multinotch": ["--workers", workers], "pattern": []}
    for command, flags in commands.items():
        assert main([command, "--scenario", str(scenario_file), "--out", str(tmp_path / command), *flags]) == 0
    fresh = [_files(tmp_path / command) for command in commands]
    trainings.clear()
    shared = tmp_path / "shared"
    for command, flags in commands.items():
        assert main([command, "--scenario", str(scenario_file), "--out", str(shared), *flags]) == 0
    assert len(trainings) == 1
    written = _files(shared)
    assert all(files.items() <= written.items() for files in fresh)
    assert set(written) == {name for files in fresh for name in files}


@pytest.mark.parametrize(
    "field, value",
    [
        ("target_angle_rad", 1.2),
        ("num_peak_elements", 31),
        ("net_num_layers", 4),
        ("net_hidden_width", 17),
        ("net_learning_rate", 0.02),
        ("net_num_iterations", 301),
        ("net_init_seed", 1),
    ],
)
def test_a_changed_training_input_retrains(field, value, scenario_file, tmp_path, trainings):
    changed = tmp_path / "changed.txt"
    changed.write_text(load_scenario(scenario_file).replace(**{field: value}).to_text())
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["train-peak", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    assert main(["pattern", "--scenario", str(changed), "--out", str(out)]) == 0
    assert trainings == [_training_inputs(load_scenario(path)) for path in (scenario_file, changed)]
    assert main(["pattern", "--scenario", str(changed), "--out", str(fresh)]) == 0
    assert _files(out) == _files(fresh)


def test_a_change_outside_the_training_inputs_reuses_the_peak(scenario_file, tmp_path, trainings):
    other = tmp_path / "other.txt"
    other.write_text(load_scenario(scenario_file).replace(trials=3, power_ratios_db=(0.0,)).to_text())
    out = tmp_path / "out"
    assert main(["train-peak", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    assert main(["sweep", "--scenario", str(other), "--out", str(out), "--seed", "7", "--all-subcarriers"]) == 0
    assert len(trainings) == 1


def _cut(path, size):
    data = path.read_bytes()
    path.write_bytes(data[: size(data)])


def _last_line_dropped(data):
    return data[:-1].rfind(b"\n") + 1


DAMAGE = {
    "config-unparsable": lambda out: (out / "peak_config.txt").write_text("not a configuration\n"),
    "config-cut-in-half": lambda out: _cut(out / "peak_config.txt", lambda data: len(data) // 2),
    "config-cut-in-the-last-value": lambda out: _cut(out / "peak_config.txt", lambda data: len(data) - 3),
    "config-last-row-dropped": lambda out: _cut(out / "peak_config.txt", _last_line_dropped),
    "loss-missing": lambda out: (out / "training_loss.csv").unlink(),
    "loss-cut-in-the-last-value": lambda out: _cut(out / "training_loss.csv", lambda data: len(data) - 3),
    "loss-last-row-dropped": lambda out: _cut(out / "training_loss.csv", _last_line_dropped),
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_peak_file_retrains(damage, scenario_file, tmp_path, trainings):
    out = tmp_path / "out"
    argv = ["pattern", "--scenario", str(scenario_file), "--out", str(out)]
    assert main(argv) == 0
    written = _files(out)
    DAMAGE[damage](out)
    assert _files(out) != written
    assert main(argv) == 0
    assert len(trainings) == 2
    assert _files(out) == written


def test_sweep_then_report(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    rows = read_sweep_file(out / "sweep.csv")[0]
    assert len(rows) == 4
    assert main(["report", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "studies: 1" in summary
    assert (out / "summary.txt").exists()


def test_report_with_a_failed_check_exits_one(tmp_path, capsys):
    # zero-offset mean error of 5 m at 0 dB, above the 0.75 m bin
    points = [SweepPoint(0.0, 0.0, 5.0, 1.0, 2), SweepPoint(0.0, 0.01, 0.0, 0.0, 2)]
    write_rows(tmp_path / "sweep.csv", SweepPoint, points, ("range_bin_m=0.75",))
    assert main(["report", "--out", str(tmp_path)]) == 1
    summary = capsys.readouterr().out
    assert "[FAIL] sweep: mean error at zero offset <= one range bin" in summary
    assert summary.splitlines()[-1] == "result: fail"


def test_report_skips_the_zero_offset_check_without_a_point_at_or_below_30_db(tmp_path, capsys):
    # zero offset is swept only at 50 and 60 dB: the check has no data, so it is not made;
    # nor is the |offset| trend, since one offset gives it no pair to compare
    (tmp_path / "sweep.csv").write_text(f"# range_bin_m=0.75\n{SWEEP_HEADER}\n50.0,0.0,12.0,1.0,5\n60.0,0.0,20.0,1.0,5\n")
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(
        "checks:\n"
        "  [PASS] sweep: mean error non-decreasing in power ratio (one-bin tolerance) (offsets=1)\n"
        "\nresult: pass\n"
    )


def test_report_on_empty_directory_signals_nothing_run(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["report", "--out", str(out)]) == 1
    assert "studies: 0" in (out / "summary.txt").read_text()


def test_report_counts_no_study_from_multinotch_sweeps_alone(tmp_path, capsys):
    # a multi-notch sweep is checked but is not a study: its checks pass, yet nothing was run
    points = [SweepPoint(0.0, 0.0, 0.0, 0.0, 2), SweepPoint(0.0, 0.01, 0.0, 0.0, 2)]
    write_rows(tmp_path / "multinotch_sweep_eps0.0.csv", SweepPoint, points, ("range_bin_m=0.75",))
    assert main(["report", "--out", str(tmp_path)]) == 1
    summary = capsys.readouterr().out
    assert summary.startswith("studies: 0\n")
    assert "[PASS]" in summary and "[FAIL]" not in summary
    assert summary.splitlines()[-1] == "result: nothing-run"


def test_report_on_a_study_with_no_check_signals_nothing_checked(scenario_file, tmp_path, capsys):
    # one spacing and no sweeps: the multi-notch summary gives neither trend a pair to compare
    out = tmp_path / "out"
    argv = ["--scenario", str(scenario_file), "--out", str(out), "--epsilon", "0.01", "--no-sweeps"]
    assert main(["multinotch", *argv]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    summary = capsys.readouterr().out
    assert summary.startswith("studies: 1\n")
    assert "checks:" not in summary
    assert summary.splitlines()[-1] == "result: nothing-checked"


PASSING_METRICS = "combined_argmax_deg = 72.0\ntarget_angle_deg = 72.0\ncombined_db_at_interferer = -80.0\n"
SUMMARY_HEADER = "epsilon_rad,suppression_bandwidth_rad,band_low_rad,band_high_rad,min_inband_suppression_db"


@pytest.mark.parametrize(
    "name, text, reason",
    [
        ("sweep.csv", SWEEP_HEADER + "\n", "no data rows"),
        ("sweep.csv", f"# interferer_angle_rad=0.8\n{SWEEP_HEADER}\n0.0,0.0,0.0,0.0,2\n", "missing key 'range_bin_m'"),
        ("multinotch_summary.csv", f"{SUMMARY_HEADER}\n0.0,wide,0.1,1.1,300.0\n", "could not convert string to float"),
        ("multinotch_summary.csv", f"{SUMMARY_HEADER}\n0.0,0.1,0.7,0.8,300.0\n0.01,0.2,0.6,0.8,156.0", "the last line is cut short"),
        ("pattern_metrics.txt", "target_angle_deg=72.0\ncombined_db_at_interferer=-80.0\n", "missing key 'combined_argmax_deg'"),
        ("pattern_metrics.txt", f"{PASSING_METRICS}result: pass\n", "line 4: expected key = value"),
        ("pattern_metrics.txt", f"combined_argmax_deg = 10.0\n{PASSING_METRICS}", "line 2: repeated key combined_argmax_deg"),
        (
            "sweep.csv",
            f"# free text\n# range_bin_m=0.75\n# range_bin_m=100.0\n{SWEEP_HEADER}\n0.0,0.0,0.0,0.0,2\n",
            "line 3: repeated key range_bin_m",
        ),
        (
            "sweep.csv",
            f"# range_bin_m=inf\n{SWEEP_HEADER}\n0.0,0.0,0.0,0.0,2\n",
            "range_bin_m must be finite and positive, got inf",
        ),
        (
            "sweep.csv",
            f"# range_bin_m=0.75\n{SWEEP_HEADER}\n0.0,0.0,0.0,0.0,2\n30.0,0.0,nan,0.0,2\n",
            "row 2 has a non-finite value",
        ),
        (
            "pattern_metrics.txt",
            "combined_argmax_deg = 72.0\ntarget_angle_deg = 72.0\ncombined_db_at_interferer = -inf\n",
            "combined_db_at_interferer must be finite, got -inf",
        ),
        (
            "sweep.csv",
            f"# range_bin_m=0.75\n{SWEEP_HEADER}\n0.0,0.0,0.0,0.0,0\n",
            "row 1 has 0 trials, expected at least 1",
        ),
    ],
    ids=[
        "sweep-without-rows",
        "sweep-without-range-bin",
        "summary-non-numeric",
        "summary-cut-short",
        "metrics-missing-key",
        "metrics-line-without-equals",
        "metrics-repeated-key",
        "sweep-repeated-comment-key",
        "sweep-infinite-range-bin",
        "sweep-nan-mean",
        "metrics-infinite-level",
        "sweep-zero-trials",
    ],
)
def test_report_on_unparsable_study_file_exits_two(name, text, reason, tmp_path, capsys):
    (tmp_path / name).write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"report error: {tmp_path / name}: {reason}")
    assert err.count("\n") == 1
    assert out == ""


def test_report_on_missing_directory_exits_two_and_creates_nothing(tmp_path, capsys):
    out = tmp_path / "does" / "not" / "exist"
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"report error: {out}: not a directory\n"
    assert not (tmp_path / "does").exists()


@pytest.mark.parametrize("command, blocked", [("sweep", "sweep.csv"), ("report", "summary.txt")])
def test_unwritable_output_file_exits_two(command, blocked, scenario_file, tmp_path, capsys):
    # the name of a file is known only when it is written, so the error comes after the work
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    scenario = ["--scenario", str(scenario_file)] if command == "sweep" else []
    assert main([command, *scenario, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"file error: {out / blocked}: Is a directory\n"
    assert "Traceback" not in err


def test_full_study_script_unwritable_output_file_exits_two(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    out = tmp_path / "o"
    (out / "pattern_peak.csv").mkdir(parents=True)
    run = subprocess.run(
        [sys.executable, str(script), "--quick", "--out", str(out)], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr == f"file error: {out / 'pattern_peak.csv'}: Is a directory\n"
    assert "Traceback" not in run.stderr
    assert not (out / "summary.txt").exists()


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
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out), "--seed", "123"]) == 0
    assert "master_seed = 123" in (out / "scenario_used.txt").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["train-peak", "--seed", "7"],
        ["train-peak", "--grid", "3"],
        ["train-peak", "--carrier-only"],
        ["train-peak", "--all-subcarriers"],
        ["sweep", "--grid", "3"],
        ["pattern", "--seed", "7"],
    ],
)
def test_flag_the_command_never_reads_is_rejected(argv, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert not out.exists()


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
    assert capsys.readouterr().err == "scenario error: line 14: sweep.noise_variance must be finite\n"
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "line",
    [
        "ofdm.carrier_freq_hz = 0",
        "ofdm.bandwidth_hz = -1",
        "ofdm.cp_ratio = 1.5",
        "ofdm.cp_ratio = -0.1",
        "sweep.target_range_m = 1000",
        "sweep.target_range_m = -1",
        "network.num_layers = 1",
        "network.hidden_width = 0",
        "network.learning_rate = 0",
        "network.num_iterations = -1",
        "network.init_seed = -1",
        "master_seed = -1",
        "notch.num_notches = 4\nnotch.spacing_rad = 5",
        "geometry.element_spacing_wavelengths = 3.0",
        "network.optimizer = sgd",
    ],
)
def test_out_of_domain_scenario_exits_two_before_any_work(line, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(SMALL_SCENARIO + line + "\n")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    last_line = (SMALL_SCENARIO + line).count("\n") + 1  # the line that set the offending key
    assert err.startswith(f"scenario error: line {last_line}: ")
    assert err.count("\n") == 1
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("sweep", "sweep.interferer_delay_s", "1e308"),
        ("sweep", "sweep.interferer_delay_s", "-1e308"),
        ("sweep", "sweep.interferer_delay_s", "1e305"),
        ("multinotch --all-subcarriers", "sweep.interferer_doppler_scale", "1e308"),
        ("sweep", "sweep.interferer_doppler_scale", "1e305"),
        ("sweep", "sweep.target_velocity_mps", "1e308"),
        ("sweep", "sweep.target_velocity_mps", "-1e308"),
        ("sweep", "ofdm.bandwidth_hz", "1e-300"),
        ("multinotch --all-subcarriers", "ofdm.carrier_freq_hz", "1e-300"),
        ("pattern --all-subcarriers", "ofdm.carrier_freq_hz", "1e-300"),
    ],
)
def test_finite_value_whose_phases_overflow_exits_two_before_any_work(command, key, value, tmp_path, capsys):
    # each value is finite, but a delay, Doppler or steering phase built from it is not
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{SMALL_SCENARIO}{key} = {value}\n")
    out = tmp_path / "o"
    assert main([*command.split(), "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    lineno = SMALL_SCENARIO.count("\n") + 1  # the line that set the key
    assert err.startswith(f"scenario error: line {lineno}: {key} ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_sub_hertz_band_whose_unambiguous_range_overflows_exits_two(tmp_path, capsys):
    # every phase stays finite, but c * N / (2 * B) does not, so no target range could be checked against it
    bad = tmp_path / "bad.txt"
    keys = ("ofdm.carrier_freq_hz = 1e-300", "ofdm.bandwidth_hz = 1e-300", "ofdm.num_subcarriers = 16")
    bad.write_text("\n".join([*keys, "ofdm.num_symbols = 8", "geometry.num_peak_elements = 16"]) + "\n")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: line 2: ofdm.bandwidth_hz ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["pattern", "train-peak", "sweep", "multinotch"])
@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("sweep.angle_offsets_rad", "0,3.0", "pushes the interferer outside [0, pi]"),
        ("sweep.power_ratios_db", "0,6160", "must lie in [-300, 300] dB"),
        ("sweep.power_ratios_db", "-400", "must lie in [-300, 300] dB"),
    ],
)
def test_sweep_grid_out_of_domain_exits_two_for_every_command(command, key, value, problem, tmp_path, capsys):
    lines = [f"{key} = {value}" if line.startswith(key) else line for line in SMALL_SCENARIO.splitlines()]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key))
    assert capsys.readouterr().err == f"scenario error: line {lineno}: {key} {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pattern", "train-peak", "sweep", "multinotch"])
@pytest.mark.parametrize(
    "key, value", [("sweep.power_ratios_db", "0,,5"), ("sweep.angle_offsets_rad", ",0.01"), ("sweep.power_ratios_db", "0,30,")]
)
def test_empty_sweep_axis_item_exits_two_for_every_command(command, key, value, tmp_path, capsys):
    # a dropped item would shrink the grid without a word
    lines = [f"{key} = {value}" if line.startswith(key) else line for line in SMALL_SCENARIO.splitlines()]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key))
    assert capsys.readouterr().err == f"scenario error: line {lineno}: bad value for {key!r}: empty item in {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("sweep.power_ratios_db", "0,30,-0.0"), ("sweep.angle_offsets_rad", "0,0.01,0.0")])
def test_repeated_sweep_axis_value_exits_two(key, value, tmp_path, capsys):
    lines = [f"{key} = {value}" if line.startswith(key) else line for line in SMALL_SCENARIO.splitlines()]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(bad), "--out", str(out)]) == 2
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key))
    assert capsys.readouterr().err == f"scenario error: line {lineno}: {key} must not repeat a value\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario_name, out_name, problem",
    [
        ("missing.txt", "o", "{scenario}: No such file or directory"),
        ("folder", "o", "{scenario}: Is a directory"),
        ("latin1.txt", "o", "{scenario}: 'utf-8' codec can't decode byte 0xe9"),
        (None, "plain", "output directory {out}: File exists"),
        (None, "plain/o", "output directory {out}: Not a directory"),
    ],
    ids=["missing-scenario", "directory-scenario", "non-utf8-scenario", "out-is-a-file", "out-under-a-file"],
)
def test_unreadable_scenario_or_uncreatable_out_exits_two(scenario_name, out_name, problem, scenario_file, tmp_path):
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1.txt").write_bytes((SMALL_SCENARIO + "# café\n").encode("latin-1"))
    (tmp_path / "plain").write_text("")
    scenario = scenario_file if scenario_name is None else tmp_path / scenario_name
    out = tmp_path / out_name
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "risradar", "train-peak", "--scenario", str(scenario), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("scenario error: " + problem.format(scenario=scenario, out=out))
    assert run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
    if scenario_name is not None:
        assert not out.exists()


@pytest.mark.parametrize("workers", ["-3", "0", "two"])
def test_full_study_script_rejects_bad_workers(workers, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, str(script), "--quick", "--workers", workers, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.count("\n") == 1
    assert "argument --workers" in run.stderr
    assert not out.exists()


def test_full_study_script_scenario_error_exits_two(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    bad = tmp_path / "bad.txt"
    bad.write_text("sweep.trials = 0\n")
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, str(script), "--scenario", str(bad), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "scenario error: line 1: sweep.trials must be a positive integer\n"
    assert not out.exists()


def test_full_study_script_spacing_error_exits_two_before_training(tmp_path):
    # an interferer at 0 rad leaves no room for the default spacings' shifted notches
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    edge = tmp_path / "edge.txt"
    edge.write_text("angles.interferer_rad = 0.0\nsweep.angle_offsets_rad = 0.0,0.01\n")
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, str(script), "--quick", "--scenario", str(edge), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "scenario error: notch spacing 0.001 pushes the shifted notches outside [0, pi]\n"
    assert not out.exists()


def test_full_study_script_unreadable_scenario_exits_two(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    missing = tmp_path / "missing.txt"
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, str(script), "--quick", "--scenario", str(missing), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == f"scenario error: {missing}: No such file or directory\n"
    assert not out.exists()


def test_full_study_script_training_divergence_exits_three(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    diverging = tmp_path / "diverging.txt"
    diverging.write_text(SMALL_SCENARIO + "network.learning_rate = 1e308\n")
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, "-W", "error", str(script), "--quick", "--scenario", str(diverging), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 3
    assert run.stderr.startswith("training error: training loss became non-finite at iteration ")
    assert run.stderr.count("\n") == 1
    assert [path.name for path in out.iterdir()] == ["scenario_used.txt"]


def test_full_study_script_writes_to_the_scenario_output_dir(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    (tmp_path / "s.txt").write_text("output_dir = results\n")
    run = subprocess.run(
        [sys.executable, str(script), "--quick", "--scenario", "s.txt"], cwd=tmp_path, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert not (tmp_path / "out").exists()
    assert "output_dir = results" in (tmp_path / "results" / "scenario_used.txt").read_text().splitlines()
    assert (tmp_path / "results" / "summary.txt").read_text().splitlines()[-1] == "result: pass"


def test_full_study_script_writes_what_the_cli_writes(monkeypatch, tmp_path, capsys):
    """The script runs the CLI's command bodies on one training: the same files, byte for byte,
    and the same lines on stdout. Both runs write to the relative path `out`, so even
    summary.txt, which names each file by its path, must match."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    overrides = runpy.run_path(str(script))["QUICK_OVERRIDES"]
    quick = tmp_path / "quick.txt"
    quick.write_text(default_scenario().replace(**overrides).to_text())
    written, printed = {}, {}
    for front_end in ("script", "cli"):
        (tmp_path / front_end).mkdir()
        monkeypatch.chdir(tmp_path / front_end)
        if front_end == "script":
            monkeypatch.setattr(sys, "argv", ["run_full_study.py", "--quick", "--out", "out"])
            assert cli.study_script(overrides) == 0
        else:
            for command in ("pattern", "sweep", "multinotch"):
                assert main([command, "--scenario", str(quick), "--out", "out"]) == 0
            assert main(["report", "--out", "out"]) == 0
        printed[front_end] = capsys.readouterr().out
        written[front_end] = {path.name: path.read_bytes() for path in Path("out").iterdir()}
    assert {
        "scenario_used.txt",
        "pattern_peak.csv",
        "pattern_metrics.txt",
        "sweep.csv",
        "sweep_records.csv",
        "multinotch_summary.csv",
        "multinotch_sweep_eps0.0.csv",
        "multinotch_sweep_eps0.0_records.csv",
        "summary.txt",
    } <= set(written["script"])
    assert written["script"] == written["cli"]
    assert printed["script"] == printed["cli"]


def test_full_study_script_report_error_exits_two(tmp_path):
    # a stale study file the run does not overwrite makes the report fail
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
    out = tmp_path / "o"
    out.mkdir()
    stale = out / "multinotch_sweep_eps0.5.csv"
    stale.write_text(SWEEP_HEADER + "\n")
    run = subprocess.run(
        [sys.executable, str(script), "--quick", "--out", str(out)], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr == f"report error: {stale}: no data rows\n"
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["multinotch", "--epsilon", "abc"],
        ["multinotch", "--epsilon", "-1"],
        ["multinotch", "--epsilon", "0,nan"],
        ["multinotch", "--epsilon", "inf"],
        ["multinotch", "--epsilon", ","],
        ["multinotch", "--epsilon", "0,,1e-2"],
        ["multinotch", "--epsilon", ",0.01"],
        ["multinotch", "--epsilon", "0.01,"],
        ["multinotch", "--workers", "0"],
        ["sweep", "--workers", "0"],
        ["sweep", "--workers", "-3"],
        ["sweep", "--workers", "two"],
        ["multinotch", "--epsilon", "0,1e-3,0.001"],
        ["multinotch", "--epsilon", "0,-0"],
    ],
)
def test_bad_flag_rejected_at_parsing(argv, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"argument {argv[1]}" in err
    assert not out.exists()


def test_notch_spacing_leaving_domain_exits_two(scenario_file, tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["multinotch", "--scenario", str(scenario_file), "--out", str(out), "--epsilon", "0,5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "scenario error: notch spacing 5.0 pushes the shifted notches outside [0, pi]\n"
    assert not (out / "multinotch_summary.csv").exists()


@pytest.mark.parametrize(
    "argv, extra, problem",
    [
        (["multinotch", "--epsilon", "0,5"], "", "notch spacing 5.0 pushes the shifted notches outside [0, pi]"),
        (["sweep"], "sweep.target_range_m = 1000\n", "line 14: "),
        (["pattern"], "sweep.target_range_m = 1000\n", "line 14: "),
    ],
    ids=["multinotch-epsilon", "sweep-scenario", "pattern-scenario"],
)
def test_input_error_exits_two_before_any_training(argv, extra, problem, monkeypatch, tmp_path, capsys):
    def training(*args, **kwargs):
        raise AssertionError("training ran before the input was checked")

    monkeypatch.setattr(cli, "train_peak_network", training)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SMALL_SCENARIO + extra)
    out = tmp_path / "o"
    assert main([argv[0], "--scenario", str(scenario), "--out", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {problem}")
    assert err.count("\n") == 1
    assert not out.exists()


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


def test_exhausted_memory_exits_two(monkeypatch, tmp_path, capsys):
    # numpy's failed allocation raises a MemoryError subclass; the stand-in allocates nothing
    message = "Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_peak", lambda scenario, out_dir: None)
    monkeypatch.setattr(cli, "run_pattern_study", exhausted)
    assert main(["pattern", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"memory error: {message}\n"
    assert "Traceback" not in err


def test_full_study_script_exhausted_memory_exits_two(monkeypatch, tmp_path, capsys):
    # the script's front end shares the CLI's exit statuses; the stand-in allocates nothing
    message = "Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_peak", lambda scenario, out_dir: None)
    monkeypatch.setattr(cli, "run_pattern_study", exhausted)
    monkeypatch.setattr(sys, "argv", ["run_full_study.py", "--out", str(tmp_path / "o")])
    assert cli.study_script({}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"memory error: {message}\n"


def test_outputs_do_not_depend_on_blas_thread_count(scenario_file, tmp_path):
    """Training's matrix-vector products run through BLAS; one and two
    BLAS threads must write the same bytes."""
    src = Path(__file__).resolve().parents[1] / "src"
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.update({name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        common = ["--scenario", str(scenario_file), "--out", str(out)]
        for argv in (["train-peak"], ["pattern", "--all-subcarriers"]):
            run = subprocess.run([sys.executable, "-m", "risradar", *argv, *common], env=env, capture_output=True)
            assert run.returncode == 0, run.stderr
        written[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(written["1"]) == {
        "scenario_used.txt",
        "peak_config.txt",
        "training_loss.csv",
        "pattern_peak.csv",
        "pattern_notch.csv",
        "pattern_combined.csv",
        "pattern_metrics.txt",
    }
    assert written["1"] == written["2"]


def test_repeat_runs_are_byte_identical(scenario_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    for name in ("sweep.csv", "sweep_records.csv", "scenario_used.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_compare_sweeps_script_prints_z_and_the_count_within_three(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_sweeps.py"
    comments = ("range_bin_m=0.75",)
    old = [SweepPoint(0.0, 0.0, 0.0, 0.0, 4), SweepPoint(30.0, 0.0, 2.0, 2.0, 4)]
    new = [SweepPoint(0.0, 0.0, 0.0, 0.0, 4), SweepPoint(30.0, 0.0, 8.0, 2.0, 4)]
    write_rows(tmp_path / "old.csv", SweepPoint, old, comments)
    write_rows(tmp_path / "new.csv", SweepPoint, new, comments)
    run = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "old.csv"), str(tmp_path / "new.csv")], capture_output=True, text=True
    )
    assert run.returncode == 0
    # se = 2 / sqrt(4) = 1 for both, so z = 6 / sqrt(2)
    assert run.stdout.splitlines() == [
        "power_ratio_db,angle_offset_rad,old_mean_m,new_mean_m,z",
        "0.0,0.0,0.0,0.0,0.000",
        f"30.0,0.0,2.0,8.0,{6 / np.sqrt(2):.3f}",
        "within 3 standard errors: 1 of 2",
    ]
    write_rows(tmp_path / "other.csv", SweepPoint, old[:1], comments)
    run = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "old.csv"), str(tmp_path / "other.csv")], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr == "error: the tables do not cover the same (ratio, offset) grid\n"


@pytest.mark.parametrize(
    "trials, cut, reason",
    [(0, 0, "row 1 has 0 trials, expected at least 1"), (40, 2, "the last line is cut short")],
    ids=["row-without-trials", "cut-short"],  # the cut reads 40 trials as 4
)
def test_compare_sweeps_script_rejects_an_unreadable_table(trials, cut, reason, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_sweeps.py"
    write_rows(tmp_path / "old.csv", SweepPoint, [SweepPoint(0.0, 0.0, 0.0, 0.0, 4)], ("range_bin_m=0.75",))
    new = write_rows(tmp_path / "new.csv", SweepPoint, [SweepPoint(0.0, 0.0, 0.0, 0.0, trials)], ("range_bin_m=0.75",))
    new.write_bytes(new.read_bytes()[: len(new.read_bytes()) - cut])
    run = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "old.csv"), str(new)], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr == f"error: {new}: {reason}\n"
    assert run.stdout == ""
