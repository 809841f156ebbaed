"""Engine-level contracts: pragmas, the baseline ratchet, and the
analyzer's own determinism (two runs must emit byte-identical reports)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, ModuleSource, run_check
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import all_rules
from repro.analysis.rules.rep001_rng import UnseededRngRule

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src" / "repro"


def finding(rule="REP001", path="a.py", line=3, message="msg"):
    return Finding(rule=rule, path=path, line=line, col=0,
                   severity="error", message=message)


class TestPragmas:
    def test_pragma_lines_suppress_and_count(self):
        report = run_check([FIXTURES / "pragma_suppressed.py"],
                           [UnseededRngRule()])
        # Three suppressed (one by allow[REP001], one by a comma list, one
        # by allow[*]); the pragma-free line 8 still fires.
        assert report.suppressed == 3
        assert [f.line for f in report.findings] == [8]

    def test_pragma_only_covers_its_own_line(self):
        module = ModuleSource.from_text(
            "import numpy as np\n"
            "a = np.random.default_rng()  # repro: allow[REP001]\n"
            "b = np.random.default_rng()\n")
        assert module.allows("REP001", 2)
        assert not module.allows("REP001", 3)
        assert not module.allows("REP002", 2)

    def test_star_pragma_covers_every_rule(self):
        module = ModuleSource.from_text(
            "x = 1  # repro: allow[*]\n")
        assert module.allows("REP001", 1) and module.allows("REP003", 1)


class TestParseErrors:
    def test_syntax_error_becomes_a_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        good = tmp_path / "fine.py"
        good.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        report = run_check([tmp_path], [UnseededRngRule()], root=tmp_path)
        rules = [f.rule for f in report.findings]
        # The broken file reports PARSE; the parseable one is still checked.
        assert rules == ["PARSE", "REP001"]


class TestBaseline:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        original = Baseline.from_findings(
            [finding(), finding(), finding(message="other")])
        original.save(path)
        assert Baseline.load(path).entries == original.entries
        assert original.entries["REP001::a.py::msg"] == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == {}

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["not", "a", "baseline"]')
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_diff_splits_new_baselined_stale(self):
        baseline = Baseline(entries={"REP001::a.py::msg": 1,
                                     "REP001::gone.py::old": 2})
        diff = baseline.diff([finding(line=3), finding(line=9),
                              finding(path="b.py")])
        # One of the two a.py findings is covered, the surplus one and the
        # b.py finding are new, and the gone.py entry is stale.
        assert [f.sort_key for f in diff.baselined] == [
            finding(line=3).sort_key]
        assert sorted(f.path for f in diff.new) == ["a.py", "b.py"]
        assert diff.stale == {"REP001::gone.py::old": 2}

    def test_baseline_key_ignores_line_numbers(self):
        assert (finding(line=3).baseline_key
                == finding(line=300).baseline_key)

    def test_saved_file_is_sorted_and_versioned(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline(entries={"b::x::m": 1, "a::y::m": 2}).save(path)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert list(data["entries"]) == ["a::y::m", "b::x::m"]


class TestDeterminism:
    def test_two_runs_over_src_repro_are_identical(self):
        first = run_check([SRC], all_rules())
        second = run_check([SRC], all_rules())
        assert first.to_dict() == second.to_dict()
        baseline = Baseline()
        assert (render_text(first, baseline.diff(first.findings), "b.json")
                == render_text(second, baseline.diff(second.findings),
                               "b.json"))
        assert (render_json(first, baseline.diff(first.findings), "b.json")
                == render_json(second, baseline.diff(second.findings),
                               "b.json"))

    def test_findings_come_out_sorted(self):
        report = run_check([FIXTURES], all_rules())
        keys = [f.sort_key for f in report.findings]
        assert keys == sorted(keys)

    def test_file_walk_is_sorted_and_deduplicated(self):
        from repro.analysis.engine import iter_python_files
        twice = iter_python_files([FIXTURES, FIXTURES / "bad_rng.py"])
        assert len(twice) == len(set(twice))
        assert twice == iter_python_files([FIXTURES])
