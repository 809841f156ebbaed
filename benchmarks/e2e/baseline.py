"""Measure the benchmark's run-to-run spread and record the baseline.

    python3 benchmarks/e2e/baseline.py [--workload NAME ...] [--out PATH]

For each workload it makes two sets of ``RUNS`` untraced runs at seed 0
(alternating between the sets, so slow drift of the machine hits both),
``SEED_RUNS`` untraced runs with seeds 1, 2, ..., and one traced run at
seed 0, all of ``run.SECONDS``.  It writes every value, and per metric the
two seed-0 medians and quartile spreads, the spread across seeds (IQR /
median, the quantity each metric's bound in BENCHMARK.json must exceed),
the tracing overhead (the traced p50 over the seed runs' median p50), and
the wall time of each run, to ``--out`` (default: results/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from run import SECONDS, WORKLOADS  # noqa: E402

#: Untraced seed-0 runs in each of the two sets, and runs over other seeds.
RUNS = 5
SEED_RUNS = 10


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = statistics.median(values)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def one_run(workload: str, seed: int, trace: int, out: Path) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS),
               "--trace", str(trace), "--out", str(out)]
    process = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, check=True)
    line = json.loads(process.stdout.strip().splitlines()[-1])
    result = json.loads((out / f"{workload}.result.json").read_text())
    if not line["correct"] or line["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n"
                         f"{process.stdout}")
    return {"metrics": {name: metric["value"]
                        for name, metric in line["metrics"].items()},
            "end_to_end": {name: metric["value"] for name, metric
                           in result["end_to_end"].items()},
            "info": result["info"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path,
                        default=HERE / "results" / "baseline.json")
    args = parser.parse_args(argv)
    scratch = ROOT / ".bench_build" / "e2e" / "baseline"
    scratch.mkdir(parents=True, exist_ok=True)
    report = {"workloads": {}}
    if args.out.exists():
        report = json.loads(args.out.read_text())
    report["machine"] = {"cpus": os.cpu_count(), "arch": platform.machine(),
                         "python": platform.python_version()}
    report["seconds"] = SECONDS
    for workload in args.workload or WORKLOADS:
        sets: dict[str, list[dict]] = {"seed0_a": [], "seed0_b": []}
        for _ in range(RUNS):
            for name in sets:
                sets[name].append(one_run(workload, 0, 0, scratch))
                print(workload, name, sets[name][-1]["metrics"], flush=True)
        seeds = list(range(1, SEED_RUNS + 1))
        sets["seeds"] = []
        for seed in seeds:
            sets["seeds"].append(one_run(workload, seed, 0, scratch))
            print(workload, "seed", seed, sets["seeds"][-1]["metrics"],
                  flush=True)
        traced = one_run(workload, 0, 1, scratch)

        values = {name: {metric: [run["metrics"][metric] for run in runs]
                         for metric in runs[0]["metrics"]}
                  for name, runs in sets.items()}
        summary = {}
        for metric, first in values["seed0_a"].items():
            second = values["seed0_b"][metric]
            summary[metric] = {
                "median_a": statistics.median(first),
                "median_b": statistics.median(second),
                "spread_a": spread(first),
                "spread_b": spread(second),
                "medians_gap": (statistics.median(second)
                                / statistics.median(first) - 1.0),
                "seed_median": statistics.median(values["seeds"][metric]),
                "seed_spread": spread(values["seeds"][metric]),
            }
        # The seed runs ran just before the traced one, so they saw the
        # machine in the nearest state to it.
        untraced_p50 = statistics.median(values["seeds"]["latency_p50_ms"])
        report["workloads"][workload] = {
            "summary": summary,
            "values": values,
            "seed_list": seeds,
            "wall_s": [run["info"]["wall_s"] for runs in sets.values()
                       for run in runs],
            "traced": {"end_to_end": traced["end_to_end"],
                       "per_layer": traced["metrics"],
                       "info": traced["info"]},
            "tracing_overhead_p50": (traced["end_to_end"]["latency_p50_ms"]
                                     / untraced_p50 - 1.0),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
