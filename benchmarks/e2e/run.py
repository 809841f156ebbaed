"""End-to-end benchmark of the AutoCE reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --regen-labels

Runs each workload (default: all four) in a fresh process
(``workloads.py``), one after the other, and prints every metric by name
with its unit, the outcome of every correctness check, and — with
``--trace 1`` — the per-layer span table.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer ones when traced;
prefixed ``<workload>.`` when several workloads run).  Exits non-zero,
printing no result, if a workload process fails.  Workload rationale and
the metric-to-layer map are in README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("offline", "serve-cold", "serve-hot", "optimizer-loop")
#: Default seconds each workload measures for.
SECONDS = 10
#: A workload process that runs longer than this is killed.
TIMEOUT_S = 170


def run_workload(name: str, args: argparse.Namespace) -> dict | None:
    result_path = args.out / f"{name}.result.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result_path),
               "--trace-out", str(args.out / f"{name}.trace.json")]
    if args.smoke:
        command.append("--smoke")
    try:
        # The workload's own prints go to stderr: stdout carries the
        # report and ends with the JSON line.
        process = subprocess.run(command, stdout=sys.stderr, cwd=ROOT,
                                 timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} ran past {TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if process.returncode != 0 or not result_path.exists():
        print(f"error: workload {name} exited {process.returncode}",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def report(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']}  (seed {result['seed']}, {mode})")
    for description, passed in result["checks"]:
        print(f"  check {'ok  ' if passed else 'FAIL'}  {description}")
    print(f"  operations attempted {result['attempted']}, "
          f"failed {result['failed']}")
    label = "end-to-end" + (" (under tracing)" if result["trace"] else "")
    print(f"  {label}:")
    for name, metric in result["end_to_end"].items():
        print(f"    {name:<22} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["info"].items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        elif isinstance(value, list):
            value = " ".join(f"{v:.4g}" for v in value)
        print(f"    {name:<22} {value}")
    if not result["trace"]:
        return
    print("  spans: name, calls, inclusive s, self s, share of wall time")
    for name, calls, busy, self_s, share in result["span_summary"]:
        print(f"    {name:<34} {calls:>8} {busy:>10.4f} {self_s:>10.4f} "
              f"{share:>7.1%}")
    print("  per-layer:")
    for name, metric in result["per_layer"].items():
        print(f"    {name:<42} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the AutoCE reproduction.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = record spans and report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench_build" / "e2e" / "out",
                        help="directory for result and trace.json files")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale sizes (the self-test's)")
    parser.add_argument("--regen-labels", action="store_true",
                        help="re-label the frozen corpora under data/")
    args = parser.parse_args(argv)
    if args.regen_labels:
        return subprocess.run([sys.executable, str(HERE / "workloads.py"),
                               "--regen-labels"], cwd=ROOT).returncode
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    results = []
    for name in args.workload or WORKLOADS:
        result = run_workload(name, args)
        if result is None:
            return 1
        report(result)
        results.append(result)

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, metric in result[key].items():
            metrics[prefix + name] = metric
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
