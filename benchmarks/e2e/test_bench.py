"""Self-test of the end-to-end benchmark, at the smoke sizes of workloads.py.

Runs ``run.py --smoke`` once untraced and once traced (every workload in
both) and checks the benchmark's own contract: every declared metric is
printed with its unit, every correctness check passes, deterministic
metrics repeat across the two runs, every declared span fires, and the
recorded spans form a well-nested tree whose self times add up.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _load(name: str):
    # Loaded by path: a plain ``import trace`` could resolve to the
    # standard-library module of the same name.
    spec = importlib.util.spec_from_file_location(f"e2e_bench_{name}",
                                                  HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("trace")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{trace: (stdout, final JSON line, results by workload, traces)}."""
    out = {}
    for trace in (0, 1):
        directory = tmp_path_factory.mktemp(f"trace{trace}")
        process = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds",
             "0.1", "--trace", str(trace), "--out", str(directory)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert process.returncode == 0, process.stderr[-4000:]
        final = json.loads(process.stdout.strip().splitlines()[-1])
        results = {w: json.loads((directory / f"{w}.result.json").read_text())
                   for w in WORKLOADS}
        traces = ({w: json.loads((directory / f"{w}.trace.json").read_text())
                   for w in WORKLOADS} if trace else None)
        out[trace] = (process.stdout, final, results, traces)
    return out


def test_every_declared_metric_is_printed_with_its_unit(runs):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        stdout, final, _, _ = runs[trace]
        for metric in DECLARED[group]:
            for workload in WORKLOADS:
                reported = final["metrics"][f"{workload}.{metric['name']}"]
                assert reported["unit"] == metric["unit"], metric
                assert isinstance(reported["value"], float)
            assert any(line.split()[:1] == [metric["name"]]
                       and line.split()[-1] == metric["unit"]
                       for line in stdout.splitlines()), metric["name"]
    per_layer = {metric["name"] for metric in DECLARED["per_layer"]}
    assert per_layer == {name for name, _, _ in tracing.PER_LAYER}


def test_every_correctness_check_passes(runs):
    for trace in (0, 1):
        _, final, results, _ = runs[trace]
        assert final["correct"] and final["failed"] == 0
        assert final["attempted"] >= len(WORKLOADS)
        checks = [description for result in results.values()
                  for description, passed in result["checks"] if passed]
        assert len(checks) == sum(len(r["checks"]) for r in results.values())
        for expected in ("live Q-error means equal the frozen labels",
                         "Q=1 picks equal recommend_batch picks",
                         "save_advisor -> load_advisor picks equal",
                         "every executed plan returns the true cardinality",
                         "every timed call succeeded"):
            assert any(expected in c for c in checks), expected


#: Runs workloads.py (its directory is argv[1]) with serve_cold_request
#: raising for the request files named in argv[2] ("*": every timed file).
FAILING_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import workloads
failing, serve = sys.argv[2], workloads.serve_cold_request
warmup = {path.name for path in workloads.request_library(
    workloads.SMOKE.warmup_requests + workloads.SMOKE.cold_requests)[
        :workloads.SMOKE.warmup_requests]}

def serve_cold_request(advisor, path):
    if path.name not in warmup and (failing == "*"
                                    or path.name in failing.split(",")):
        raise RuntimeError("injected failure")
    return serve(advisor, path)

workloads.serve_cold_request = serve_cold_request
sys.exit(workloads.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("failing", ["00003.npz,00006.npz", "*"])
def test_failed_requests_are_counted_not_raised(failing, tmp_path):
    result_path = tmp_path / "serve-cold.result.json"
    process = subprocess.run(
        [sys.executable, "-c", FAILING_RUN, str(HERE), failing,
         "--workload", "serve-cold", "--smoke", "--seconds", "0.1",
         "--result", str(result_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert process.returncode == 0, process.stderr[-4000:]
    result = json.loads(result_path.read_text())
    assert result["failed"] > 0 and not result["correct"]
    checks = dict(result["checks"])
    assert not checks["every timed call succeeded"]
    if failing == "*":
        assert result["failed"] == result["attempted"]
    else:
        assert result["failed"] < result["attempted"]
        assert all(passed for description, passed in checks.items()
                   if description != "every timed call succeeded")
    for metric in DECLARED["end_to_end"]:
        assert isinstance(result["end_to_end"][metric["name"]]["value"],
                          float)


def test_deterministic_metrics_repeat_across_runs(runs):
    untraced, traced = runs[0][2], runs[1][2]
    for workload in WORKLOADS:
        assert (untraced[workload]["end_to_end"]["answer_quality"]
                == traced[workload]["end_to_end"]["answer_quality"])
    for workload, key in (("offline", "heldout_derror"),
                          ("optimizer-loop", "plan_cost_ratio"),
                          ("optimizer-loop", "picks")):
        assert untraced[workload]["info"][key] == traced[workload]["info"][key]


def test_every_declared_span_fires(runs):
    fired = {span[0] for trace in runs[1][3].values()
             for span in trace["spans"]}
    assert set(tracing.DECLARED_SPANS) <= fired, (
        sorted(set(tracing.DECLARED_SPANS) - fired))


def test_spans_nest_and_self_times_add_up(runs):
    for trace in runs[1][3].values():
        spans = trace["spans"]
        table = tracing.SpanTable(spans)
        for index, (_, start, end, parent, _) in enumerate(spans):
            assert start <= end
            if parent >= 0:
                assert parent < index
                assert spans[parent][1] <= start and end <= spans[parent][2]
        for kids in table.children:
            for left, right in zip(kids, kids[1:]):
                assert spans[left][2] <= spans[right][1]
        # Self time of a subtree's spans sums to the root's duration.
        subtree_self = list(table.self_time)
        for index in range(len(spans) - 1, -1, -1):
            parent = spans[index][3]
            if parent >= 0:
                subtree_self[parent] += subtree_self[index]
        for index, (_, _, _, parent, _) in enumerate(spans):
            if parent < 0:
                assert subtree_self[index] == pytest.approx(
                    table.duration[index], abs=1e-9)
        assert 0.5 < table.request_coverage() <= 1.0
