"""``benchmarks/run_benchmarks.py --only``: the rows it prints and merges."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "run_benchmarks.py"


@pytest.fixture
def runner(monkeypatch):
    # The script puts its own directory and tests/ first on sys.path to
    # import its sibling synthetic-corpus module and the oracles;
    # monkeypatch restores sys.path afterwards.
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("run_benchmarks_script",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_results_hold_exactly_the_benches_in_order(runner):
    # A deleted bench must not leave its row behind in the JSON, and a new
    # one must be committed with its row.
    committed = json.loads((SCRIPT.parents[1] / "results"
                            / "BENCH_micro.json").read_text())
    assert list(committed) == list(runner.BENCHES)


def row(after_ms: float) -> dict:
    return {"before_s": 2 * after_ms / 1e3, "after_s": after_ms / 1e3,
            "speedup": 2.0}


def test_only_prints_the_rows_it_ran_and_merges_the_rest(
        runner, monkeypatch, tmp_path, capsys):
    output = tmp_path / "BENCH_micro.json"
    output.write_text(json.dumps({"earlier": row(7.0)}))
    monkeypatch.setattr(runner, "BENCHES", {
        "earlier": lambda repeats: pytest.fail("not selected"),
        "fresh": lambda repeats: row(3.0)})
    assert runner.main(["--only", "fresh", "--output", str(output)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in table[1:-1]] == ["fresh"]
    assert json.loads(output.read_text()) == {"earlier": row(7.0),
                                              "fresh": row(3.0)}
