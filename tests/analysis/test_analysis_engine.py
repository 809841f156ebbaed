"""Engine-level contracts: parse errors and the analyzer's own
determinism (two runs must emit byte-identical reports)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_check
from repro.analysis.report import render_text
from repro.analysis.rules import all_rules
from repro.analysis.rules.rep001_rng import UnseededRngRule

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src" / "repro"


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


class TestDeterminism:
    def test_two_runs_over_src_repro_are_identical(self):
        # The fixtures ride along so the runs have findings to order.
        first = run_check([SRC, FIXTURES], all_rules())
        second = run_check([SRC, FIXTURES], all_rules())
        assert first.findings
        assert first == second
        assert render_text(first) == render_text(second)

    def test_findings_come_out_sorted(self):
        report = run_check([FIXTURES], all_rules())
        keys = [f.sort_key for f in report.findings]
        assert keys == sorted(keys)

    def test_file_walk_is_sorted_and_deduplicated(self):
        from repro.analysis.engine import iter_python_files
        twice = iter_python_files([FIXTURES, FIXTURES / "bad_rng.py"])
        assert len(twice) == len(set(twice))
        assert twice == iter_python_files([FIXTURES])
