"""Engine-level contracts: pragmas, parse errors, and the analyzer's own
determinism (two runs must emit byte-identical reports)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import ModuleSource, run_check
from repro.analysis.report import render_text
from repro.analysis.rules import all_rules
from repro.analysis.rules.rep001_rng import UnseededRngRule

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src" / "repro"


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
