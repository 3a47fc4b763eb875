"""Benchmark of the oldroyd2d solver: one workload per process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload rk2-128-diag --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics from a separate traced phase (README.md).  Each run checks
its workload's correctness gates, writes a result file under
``perfbench/out/`` and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 0 only
when every operation passed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TIER1_RECORD = BENCH_DIR / "baseline" / "tier1.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("step_ms_p50", "ms"),
              ("step_ms_p90", "ms"), ("peak_rss_mb", "MB"))


def single_thread_env() -> None:
    """One thread everywhere: the sweep pool off, native pools pinned to 1."""
    os.environ.pop("OLDROYD2D_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_solver():
    """Import oldroyd2d from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import oldroyd2d
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import oldroyd2d from {SRC}: {err}")
    where = Path(oldroyd2d.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: oldroyd2d imported from {where}, not {SRC}")
    return oldroyd2d


def _cache_size(level: int) -> str:
    try:
        size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return f"{size // 1024}K"
    try:
        return Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size").read_text().strip()
    except OSError:
        return "unknown"


def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    tier1 = None
    if TIER1_RECORD.exists():
        tier1 = json.loads(TIER1_RECORD.read_text())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in ("OLDROYD2D_THREADS",) + THREAD_VARS},
        "seed": seed,
        "tier1": tier1,
    }


def measure(wl, budget_s: float, min_steps: int):
    """Repeat the workload's operation while the next one should fit the budget.

    At least one operation runs, and operations continue until ``min_steps``
    step samples exist, so the 90th percentile has ten samples beyond it;
    a failed operation ends that extension, since it may take no steps.
    """
    samples, walls, outcomes = [], [], []
    with wl.step_clock(samples):
        start = time.perf_counter()
        while (not walls or (len(samples) < min_steps and not outcomes[-1].failed)
               or time.perf_counter() - start + statistics.mean(walls) <= budget_s):
            t0 = time.perf_counter()
            outcomes.append(wl.op())
            walls.append(time.perf_counter() - t0)
    return samples, walls, outcomes


def percentile(values, q: float) -> float:
    """The q-th percentile; 0 when operations failed before any step ran."""
    import numpy  # imported late: single_thread_env() must run first
    return float(numpy.percentile(values, q)) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; return the full result record."""
    import tracing
    import workloads

    wl = workloads.make(workload, seed, SRC, smoke=smoke)
    setups = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    budget = seconds / 2.0 if trace else seconds
    samples, walls, outcomes = measure(wl, budget, wl.min_steps)
    notes = {}
    if trace:
        with tracing.Tracer() as tracer:
            wl.setup()
            t_samples, t_walls, t_outcomes = measure(wl, budget, 0)
        overhead = percentile(t_samples, 50) - percentile(samples, 50)
        floor_hits = sum(o.floor_hits for o in t_outcomes)
        metrics, notes = tracing.layer_metrics(tracer.spans, len(t_walls), floor_hits,
                                               overhead)
        notes["absent"] = tracer.absent
        outcomes += t_outcomes
        counts = {name: notes["steps_traced"] if "per_step" in name else len(t_walls)
                  for name in metrics}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "step_ms_p50": percentile(samples, 50),
            "step_ms_p90": percentile(samples, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        counts = {"setup_s": len(setups), "wall_s": len(walls), "step_ms_p50": len(samples),
                  "step_ms_p90": len(samples), "peak_rss_mb": 1}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digests = sorted({o.digest for o in outcomes if o.digest})
    bench_file = ROOT / "BENCHMARK.json"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": wl.inputs,
        "machine": machine_block(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "gates": outcomes[-1].checks,
        "failures": [{"checks": o.checks, "failed": o.failed, "detail": o.detail}
                     for o in outcomes if o.failed],
        "metrics": metrics,
        "samples": counts,
        "trace_info": notes,
        "benchmark": json.loads(bench_file.read_text()) if bench_file.exists() else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    single_thread_env()
    import_solver()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.NAMES)}")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"digest {result['output_digest']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={result['samples'][name]})")
    print(f"  result written to {out}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
