"""Record a baseline: two sets of every workload on seeds 1-10, plus one traced run each.

Run from the repository root:

    python3 perfbench/baseline.py --tier1

Each run is a separate ``perfbench/run.py`` process, one after another.
The first set runs every workload on seeds 1-10, then the second set
repeats it.  For every end-to-end metric the file records, per set, all
values, the median, the quartiles and the spread (interquartile distance
over the median, from ``statistics.quantiles(values, n=4)``), and how far
the second set's median lies from the first's, as a share of the first.
The traced run of each workload gives its per-layer metrics and self-time
shares.  ``--tier1`` also times the repository's Tier-1 test command once
and stores it in ``perfbench/baseline/tier1.json``, which every later
result quotes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE_DIR = BENCH_DIR / "baseline"
TIER1_COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SEEDS = list(range(1, 11))
SETS = 2

# Self-time shares at 128^2 with diagnostics every step, measured with
# cProfile when the ROADMAP was last re-anchored.
ROADMAP_SHARES = {"grid.pad": 0.40, "symcalc.eig_fields": 0.17, "grid.upwind_div": 0.13}


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = BENCH_DIR / "out" / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    print(proc.stdout.strip().splitlines()[0], flush=True)
    return json.loads(out.read_text())


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def time_tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1_COMMAND, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": proc.stdout.strip().splitlines()[-1],
            "command": "PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors",
            "measured": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier1", action="store_true", help="also time Tier-1 once")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    BASELINE_DIR.mkdir(exist_ok=True)
    if args.tier1:
        record = time_tier1()
        (BASELINE_DIR / "tier1.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"tier-1: {record['summary']} in {record['wall_s']:.1f} s", flush=True)

    names = [w["name"] for w in spec["workloads"]]
    sets = [{name: [bench_run(name, seed, seconds, 0) for seed in SEEDS] for name in names}
            for _ in range(SETS)]
    report = {"seconds": seconds, "seeds": SEEDS, "sets": SETS, "benchmark": spec,
              "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [r for one_set in sets for r in one_set[name]]
        traced = bench_run(name, SEEDS[0], seconds, 1)
        report["machine"] = traced["machine"]
        end_to_end = {}
        for m in spec["end_to_end"]:
            per_set = [summary([r["metrics"][m["name"]]["value"] for r in one_set[name]])
                       for one_set in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            end_to_end[m["name"]] = {"unit": m["unit"], "bound": m["bound"],
                                     "sets": per_set,
                                     "median_change": (last - first) / first}
        report["workloads"][name] = {
            "why": w["why"],
            "inputs": traced["inputs"],
            "attempted": sum(r["attempted"] for r in runs),
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "output_digests": {r["seed"]: r["output_digest"] for r in sets[0][name]},
            "end_to_end": end_to_end,
            "samples": runs[0]["samples"],
            "per_layer": traced["metrics"],
            "self_time_shares": traced["trace_info"]["self_time_shares"],
            "absent": traced["trace_info"]["absent"],
        }
    shares = report["workloads"]["rk2-128-diag"]["self_time_shares"]
    report["roadmap_profile_check"] = {
        name: {"roadmap": ref, "measured": shares.get(name, 0.0)}
        for name, ref in ROADMAP_SHARES.items()}

    out = BASELINE_DIR / "BENCH_baseline.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"baseline written to {out}")
    for name, wl in report["workloads"].items():
        for metric, m in wl["end_to_end"].items():
            print(f"{name:16s} {metric:12s} " + " ".join(
                f"median {s['median']:10.5g} spread {s['spread']:.3f} |" for s in m["sets"])
                + f" change {m['median_change']:+.3f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
