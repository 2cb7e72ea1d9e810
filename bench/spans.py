"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of each risradar layer
from outside the program: every name is replaced where its callers look
it up (for example `risradar.experiments.rv_map` as well as
`risradar.simulation.rv_map`), and class methods are replaced on the
class. Spans stay in memory; `write` dumps them when the run ends.

A span is (name, start, end, parent, pass_id, label). `parent` is the
index of the enclosing span or -1, and `label` holds the subcarrier mode
and element count of `power_pattern` calls, as "all/200" (empty for every
other span).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

LAYERS = ("arrays", "synthesis", "simulation", "scenario", "experiments", "fileio", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _pattern_label(args, kwargs) -> str:
    # power_pattern(config, params, angles, subcarrier_mode="carrier", ...)
    mode = kwargs.get("subcarrier_mode", args[3] if len(args) > 3 else "carrier")
    config = kwargs.get("config", args[0] if args else None)
    elements = getattr(config, "num_elements", None) or len(config)
    return f"{mode}/{elements}"


# calls made inside run_trial, per trial
PER_TRIAL = {
    "simulation.generate_symbols.per_trial": "simulation.generate_symbols",
    "simulation.simulate_received.per_trial": "simulation.simulate_received",
    "scenario.ofdm_params.per_trial": "scenario.Scenario.ofdm_params",
}


class Tracer:
    """Records nested spans; `install` patches the layers, `remove` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pass_id = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        label_of = _pattern_label if name == "arrays.power_pattern" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else ""
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, label]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "risradar" or n.startswith("risradar.")]
        for layer in LAYERS:
            module = sys.modules[f"risradar.{layer}"]
            for attr, obj in public_members(module):
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for site in modules:
                        if getattr(site, attr, None) is obj:
                            self._patch(site, attr, wrapped)
                else:
                    for method, fn in public_methods(obj):
                        self._patch(obj, method, self.wrap(f"{layer}.{attr}.{method}", fn))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def finished(self) -> list[Span]:
        return [Span(*record) for record in self.spans]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def public_members(module):
    """Functions and classes defined in `module` whose names are public."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield attr, obj


def public_methods(cls):
    """Plain public methods defined on the class itself (no properties)."""
    for attr, obj in vars(cls).items():
        if not attr.startswith("_") and inspect.isfunction(obj):
            yield attr, obj


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap
    and their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _p99_ms(values) -> float:
    return 1e3 * statistics.quantiles(values, n=100)[98] if len(values) >= 2 else _median_ms(values)


def per_layer_metrics(spans: list[Span], num_passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `num_passes` traced passes.

    Counts and busy times are per pass; `_ms` figures are medians over
    every matching call. A figure for a call the workload never makes
    is 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        outermost = [i for i in mine if all(spans[a].layer != layer for a in _ancestors(spans, i))]
        metrics[f"{layer}.calls"] = (len(mine) / num_passes, "count")
        metrics[f"{layer}.busy_s"] = (sum(spans[i].duration for i in outermost) / num_passes, "s")
        metrics[f"{layer}.self_s"] = (sum(selfs[i] for i in mine) / num_passes, "s")

    def durations(name):
        return [spans[i].duration for i in by_name.get(name, [])]

    # all-subcarrier calls on the full-size arrays (the peak and combined
    # configurations, at least half the largest), not the short notch
    all_calls = [
        (int(spans[i].label[4:]), spans[i].duration)
        for i in by_name.get("arrays.power_pattern", [])
        if spans[i].label.startswith("all/")
    ]
    largest = max((elements for elements, _ in all_calls), default=0)
    full_size_all = [duration for elements, duration in all_calls if 2 * elements >= largest]
    metrics["arrays.power_pattern.all_ms"] = (_median_ms(full_size_all), "ms")
    metrics["synthesis.forward_backprop_ms"] = (
        _median_ms(durations("synthesis.PeakNetwork.loss_and_gradients")),
        "ms",
    )
    training = set(by_name.get("synthesis.train_peak_network", []))
    iterations = sum(
        1 for i in by_name.get("synthesis.PeakNetwork.loss_and_gradients", []) if spans[i].parent in training
    )
    optimizer_s = sum(selfs[i] for i in training)
    metrics["synthesis.optimizer_step_ms"] = (1e3 * optimizer_s / iterations if iterations else 0.0, "ms")
    for name in ("simulate_frame_pair", "rv_map", "estimate_target"):
        metrics[f"simulation.{name}_ms"] = (_median_ms(durations(f"simulation.{name}")), "ms")

    trials = by_name.get("experiments.run_trial", [])
    trial_set = set(trials)
    in_trial = Counter(
        spans[i].name for i in range(len(spans)) if any(a in trial_set for a in _ancestors(spans, i))
    )
    for metric, name in PER_TRIAL.items():
        metrics[metric] = (in_trial[name] / len(trials) if trials else 0.0, "count")

    trial_times = [spans[i].duration for i in trials]
    metrics["experiments.run_trial.ms_p50"] = (_median_ms(trial_times), "ms")
    metrics["experiments.run_trial.ms_p99"] = (_p99_ms(trial_times), "ms")
    metrics["experiments.run_trial.samples"] = (float(len(trial_times)), "count")
    metrics["experiments.run_trial.self_ms"] = (_median_ms([selfs[i] for i in trials]), "ms")
    metrics["experiments.suppression_band_ms"] = (_median_ms(durations("experiments.suppression_band")), "ms")
    metrics["experiments.min_inband_suppression_db_ms"] = (
        _median_ms(durations("experiments.min_inband_suppression_db")),
        "ms",
    )
    metrics["experiments.trials"] = (len(trials) / num_passes, "count")
    return metrics
