#!/usr/bin/env python3
"""risradar benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

With --trace 0 the run times passes until --seconds have elapsed (at
least two) and reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
from the spans of the traced ones. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads and metrics.
"""

import os
import sys
import time

START = time.perf_counter()

# One BLAS thread, fixed before numpy loads: the quick_study pool then
# keeps total threads within the two cores, and carrier-mode pattern
# bytes depend on the thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "sweep", "quick_study"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one fresh set-up and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = sorted(caches.glob("index*")) if caches.is_dir() else []
    llc = (levels[-1] / "size").read_text().strip() if levels else "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (the
    quick_study pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fresh_setup_seconds(args) -> float:
    """Set-up time of a new process: imports, inputs, set-up training, warm-up."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_passes(workload, seconds: float, tracer) -> list[dict]:
    """Closed loop: passes back to back until `seconds` have elapsed and at
    least MIN_PASSES have run. With a tracer, odd passes are traced."""
    from workloads import digest_dir

    passes = []
    deadline = time.perf_counter() + seconds
    out, first = workload.work / "out", workload.work / "first"
    shutil.rmtree(first, ignore_errors=True)
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if traced:
            tracer.pass_id = index
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            units = workload.run_pass(out)
        except Exception:
            traceback.print_exc()
            units, error = 0, "raised"
        wall = time.perf_counter() - start
        if traced:
            tracer.remove()
        digests = digest_dir(out)
        written = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
        passes.append(dict(wall_s=wall, units=units, traced=traced, error=error, digests=digests, bytes=written))
        if index == 0:
            out.rename(first)
    return passes


def judge(workload, passes: list[dict]) -> list[str]:
    """Mark failed passes; return the problems found in the outputs.

    A pass fails if it raised, if its files differ from the first pass's,
    or if the first pass's outputs fail a check (then every pass matching
    them fails too).
    """
    base = passes[0]["digests"]
    problems = []
    if passes[0]["error"] is None:
        try:
            problems += workload.check(workload.work / "first")
        except Exception as exc:  # a malformed output file fails the check
            problems.append(f"check raised {exc!r}")
        problems += workload.reference_problems(base)
    for p in passes:
        if p["digests"] != base:
            p["error"] = p["error"] or "outputs differ from the first pass"
        elif problems:
            p["error"] = p["error"] or "output check failed"
    return problems


def end_to_end(passes, setups: list[float], rss_mb: float) -> dict:
    good = [p for p in passes if p["error"] is None] or passes
    walls = [p["wall_s"] for p in good]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "units_per_s": (statistics.median(p["units"] / p["wall_s"] for p in good), "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def per_layer(workload, passes, tracer) -> dict:
    from spans import per_layer_metrics

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = per_layer_metrics(tracer.finished(), len(traced))
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain) - 1.0
    metrics["synthesis.iters_to_0.99"] = (float(workload.iters_to_099), "count")
    metrics["synthesis.gain_ratio"] = (workload.gain_ratio, "ratio")
    metrics["fileio.bytes_written"] = (float(statistics.median(p["bytes"] for p in passes)), "bytes")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "risradar").is_dir():
        print(f"error: risradar sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = HERE / ".work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    setup_first = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    passes = run_passes(workload, args.seconds, tracer)
    rss = peak_rss_mb()
    problems = judge(workload, passes)
    failed = sum(1 for p in passes if p["error"] is not None)
    if args.trace:
        metrics = per_layer(workload, passes, tracer)
        tracer.write(work / f"spans-seed{args.seed}.jsonl")
    else:
        setups = [setup_first] + [fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(passes, setups, rss)

    facts = machine_facts()
    walls = [p["wall_s"] for p in passes]
    q1, q2, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    record = dict(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        machine=facts,
        passes=passes,
        problems=problems,
        gain_ratio=workload.gain_ratio,
        metrics={k: v[0] for k, v in metrics.items()},
    )
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes of {workload.unit}, "
        f"pass wall q1={q1:.4f} median={q2:.4f} q3={q3:.4f} s"
    )
    print(f"  fail_ratio {failed / len(passes):.6g} ratio ({failed} of {len(passes)} passes failed)")
    if not args.trace:
        print(f"  gain_ratio {workload.gain_ratio:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for problem in problems:
        print(f"  problem: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
