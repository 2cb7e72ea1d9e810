"""Self-tests for the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from risradar import experiments, simulation, synthesis  # noqa: E402
from risradar.scenario import default_scenario  # noqa: E402
from spans import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def synthetic_tree():
    return [
        Span("experiments.run_interference_sweep", 0.0, 10.0, -1, 1),
        Span("experiments.run_trial", 1.0, 5.0, 0, 1),
        Span("simulation.simulate_frame_pair", 2.0, 4.0, 1, 1),
        Span("simulation.simulate_received", 2.5, 3.5, 2, 1),
        Span("experiments.run_trial", 6.0, 9.0, 0, 1),
        Span("fileio.write_sweep_table", 9.5, 10.0, 0, 1),
    ]


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = synthetic_tree()
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 1.0, 3.0, 0.5])
    m = {k: v for k, (v, _) in spans.per_layer_metrics(tree, num_passes=1).items()}
    # nested spans of one layer are counted once in busy time
    assert m["experiments.busy_s"] == pytest.approx(10.0)
    assert m["experiments.self_s"] == pytest.approx(7.5)
    assert m["simulation.busy_s"] == pytest.approx(2.0)
    assert m["simulation.self_s"] == pytest.approx(2.0)
    assert m["fileio.self_s"] == pytest.approx(0.5)
    assert (m["experiments.calls"], m["simulation.calls"], m["cli.calls"]) == (3, 2, 0)
    assert m["experiments.trials"] == 2
    assert m["simulation.simulate_received.per_trial"] == 0.5
    assert m["experiments.run_trial.self_ms"] == pytest.approx(2500.0)
    # per-pass figures divide by the number of traced passes
    halved = spans.per_layer_metrics(tree, num_passes=2)
    assert halved["experiments.busy_s"][0] == pytest.approx(5.0)


def test_power_pattern_median_skips_short_arrays_and_carrier_calls():
    calls = [("all/48", 0.030), ("all/2", 0.001), ("all/49", 0.032), ("carrier/48", 0.5), ("all/49", 0.034)]
    tree = [Span("arrays.power_pattern", 0.0, d, -1, 1, label) for label, d in calls]
    m = spans.per_layer_metrics(tree, num_passes=1)
    assert m["arrays.power_pattern.all_ms"][0] == pytest.approx(32.0)


class _Traced:
    iters_to_099 = 0
    gain_ratio = 0.5


def test_metric_names_follow_the_pattern_and_the_spec():
    passes = [dict(wall_s=1.0, units=3, bytes=10, traced=t, error=None) for t in (False, True)]
    layer = run.per_layer(_Traced(), passes, spans.Tracer())
    e2e = run.end_to_end(passes, [0.5, 0.4, 0.6], 80.0)
    assert sorted(layer) == sorted(m["name"] for m in SPEC["per_layer"])
    assert sorted(e2e) == sorted(m["name"] for m in SPEC["end_to_end"])
    for name, (value, unit) in {**layer, **e2e}.items():
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert e2e["setup_s"][0] == 0.5
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_are_deterministic_per_seed(tmp_path):
    texts = [workloads.QuickStudy(seed, tmp_path).scenario_path.read_text() for seed in (3, 3, 4)]
    assert texts[0] == texts[1] != texts[2]
    a, b, c = (workloads.Sweep(seed, tmp_path) for seed in (3, 3, 4))
    assert a.scenario == b.scenario and a.scenario.master_seed == 3 and c.scenario.master_seed == 4
    np.testing.assert_array_equal(a.config.coefficients, b.config.coefficients)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    workload = workloads.QuickStudy(0, tmp_path_factory.mktemp("quick_study"))
    return workload, run.run_passes(workload, 0.0, None)


def fresh(passes):
    return [dict(p, error=None) for p in passes]


def test_clean_passes_pass_their_checks(quick_run):
    workload, passes = quick_run
    passes = fresh(passes)
    assert len(passes) == run.MIN_PASSES
    assert run.judge(workload, passes) == []
    assert all(p["error"] is None for p in passes)


def test_a_pass_whose_files_differ_fails(quick_run):
    workload, passes = quick_run
    passes = fresh(passes)
    passes[1]["digests"] = dict(passes[1]["digests"], **{"pattern_peak.csv": "0" * 64})
    run.judge(workload, passes)
    assert [p["error"] is not None for p in passes] == [False, True]


@pytest.mark.parametrize("damage", ["value", "truncate"])
def test_a_corrupted_output_file_fails_every_pass(quick_run, damage):
    workload, passes = quick_run
    path = workload.work / "first" / "multinotch_pattern_eps0.01.csv"
    original = path.read_text()
    lines = original.splitlines()
    try:
        if damage == "value":
            angle, power = lines[300].split(",")
            lines[300] = f"{angle},{float(power) + 1e-3!r}"
            path.write_text("\n".join(lines) + "\n")
        else:
            path.write_text("\n".join(lines[:200]) + "\n1.0,")
        passes = fresh(passes)
        problems = run.judge(workload, passes)
        assert problems and all(p["error"] is not None for p in passes)
    finally:
        path.write_text(original)


def tiny_sweep_counts():
    scenario = default_scenario().replace(
        num_subcarriers=16,
        num_symbols=8,
        num_peak_elements=16,
        power_ratios_db=(0.0, 10.0),
        angle_offsets_rad=(0.0, 0.01),
        trials=2,
        target_range_m=6.0,
        pad_range=2,
        pad_velocity=2,
    )
    peak = synthesis.analytic_peak(scenario.target_angle_rad, scenario.num_peak_elements)
    config = synthesis.normalize_coefficients(
        synthesis.combine_convolve(peak, synthesis.multi_notch(scenario.notch_spec()))
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert experiments.rv_map is simulation.rv_map
        assert experiments.rv_map.__wrapped__ is not None
        experiments.run_interference_sweep(scenario, config=config)
    finally:
        tracer.remove()
    assert not hasattr(experiments.rv_map, "__wrapped__")
    metrics = spans.per_layer_metrics(tracer.finished(), num_passes=1)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_exact_counts_repeat():
    first, second = tiny_sweep_counts(), tiny_sweep_counts()
    assert first == second
    assert first["simulation.generate_symbols.per_trial"] == 3
    assert first["simulation.simulate_received.per_trial"] == 2
    assert first["scenario.ofdm_params.per_trial"] == 1
    assert first["experiments.trials"] == 8

    s = default_scenario().replace(**workloads.QUICK_OVERRIDES)
    histories = [
        synthesis.train_peak_network(s.target_angle_rad, s.num_peak_elements, s.network_spec()).loss_history
        for _ in range(2)
    ]
    counts = [workloads.iterations_to_gain(h, s.num_peak_elements) for h in histories]
    assert counts[0] == counts[1] < s.net_num_iterations
