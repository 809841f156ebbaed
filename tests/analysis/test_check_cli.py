"""The ``repro check`` command: exit codes, reports, the baseline ratchet,
and the CI acceptance drill (a seeded-bad file must fail the gate)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]

BAD_SOURCE = ("import numpy as np\n"
              "rng = np.random.default_rng()\n")


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import numpy as np\nrng = np.random.default_rng(3)\n")
        assert main(["check", str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE)
        assert main(["check", str(bad),
                     "--baseline", str(tmp_path / "none.json")]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "1 new" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_explain_rule_exits_two(self, capsys):
        assert main(["check", "--explain", "REP404"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("[]")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["check", str(clean), "--baseline", str(bad)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestExplainAndList:
    def test_explain_prints_the_contract(self, capsys):
        assert main(["check", "--explain", "rep001"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "Contract" in out and "allow[REP001]" in out

    def test_list_rules_names_all_five(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005"):
            assert rule_id in out
        assert "REP006" not in out


class TestJsonReport:
    def test_json_report_is_written_and_stable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE)
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        baseline = str(tmp_path / "none.json")
        main(["check", str(bad), "--baseline", baseline,
              "--json", str(report_a)])
        main(["check", str(bad), "--baseline", baseline,
              "--json", str(report_b)])
        assert report_a.read_text() == report_b.read_text()
        payload = json.loads(report_a.read_text())
        assert payload["counts"]["new"] == 1
        [entry] = payload["findings"]
        assert entry["rule"] == "REP001" and entry["new"] is True

    def test_json_dash_writes_stdout(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["check", str(clean), "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert '"findings": []' in out


class TestBaselineRatchet:
    def test_update_baseline_then_clean_then_ratchet(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE)
        baseline = tmp_path / "baseline.json"

        # Grandfather the finding, then the same tree is clean.
        assert main(["check", str(bad), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main(["check", str(bad), "--baseline", str(baseline),
                     "--fail-on-new"]) == 0

        # Fixing the file strands the entry: plain check still passes but
        # reports it stale; --fail-on-new enforces the ratchet.
        bad.write_text("import numpy as np\nrng = np.random.default_rng(3)\n")
        assert main(["check", str(bad), "--baseline", str(baseline)]) == 0
        assert "stale" in capsys.readouterr().out
        assert main(["check", str(bad), "--baseline", str(baseline),
                     "--fail-on-new"]) == 1

    def test_new_finding_fails_even_with_baseline(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE)
        baseline = tmp_path / "baseline.json"
        main(["check", str(bad), "--baseline", str(baseline),
              "--update-baseline"])
        bad.write_text(BAD_SOURCE + "more = np.random.standard_normal(4)\n")
        assert main(["check", str(bad), "--baseline", str(baseline)]) == 1


class TestAcceptance:
    """The merged-tree gate exactly as CI runs it."""

    def test_src_repro_is_clean_under_fail_on_new(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check", "src/repro", "--fail-on-new"]) == 0

    def test_committed_baseline_has_no_error_tier_entries(self):
        data = json.loads(
            (REPO_ROOT / "analysis" / "baseline.json").read_text())
        for key in data["entries"]:
            assert not key.startswith(("REP001::", "REP004::")), (
                "determinism/fork-safety errors must be fixed, "
                f"never baselined: {key}")

    def test_seeded_bad_fixture_fails_the_gate(self, tmp_path, monkeypatch):
        # Drop an unseeded-RNG file into a copy of the scanned tree and
        # run the exact CI command against the committed baseline.
        monkeypatch.chdir(REPO_ROOT)
        seeded = tmp_path / "seeded_bad.py"
        seeded.write_text(BAD_SOURCE)
        assert main(["check", "src/repro", str(seeded),
                     "--fail-on-new"]) == 1
