"""The ``repro check`` command: exit codes, reports, and the CI
acceptance drill (a seeded-bad file must fail the gate)."""

from __future__ import annotations

from pathlib import Path

import pytest

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
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2:" in out and "REP001" in out
        assert "1 finding(s) across 1 file(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_explain_rule_exits_two(self, capsys):
        assert main(["check", "--explain", "REP404"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_each_rule_fails_the_gate(self, tmp_path, capsys):
        # One file per rule, REP003's inside its serving scope.
        serving = tmp_path / "src" / "repro" / "core" / "serving"
        serving.mkdir(parents=True)
        (serving / "pool.py").write_text(
            "import numpy as np\npool = np.zeros(16)\n")
        for target, rule in [(FIXTURES / "bad_rng.py", "REP001"),
                             (FIXTURES / "bad_wallclock.py", "REP002"),
                             (serving / "pool.py", "REP003")]:
            assert main(["check", str(target)]) == 1
            assert rule in capsys.readouterr().out

    def test_a_file_that_does_not_parse_exits_one(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main(["check", str(broken)]) == 1
        assert "PARSE" in capsys.readouterr().out

    def test_an_allow_comment_does_not_silence_a_finding(self, tmp_path,
                                                         capsys):
        # A rule's exceptions live in its allowlist or scope; a comment on
        # the offending line is just a comment.
        commented = tmp_path / "commented.py"
        commented.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: allow[REP001]\n")
        assert main(["check", str(commented)]) == 1
        out = capsys.readouterr().out
        assert "commented.py:2:" in out and "REP001" in out
        assert out.rstrip().endswith("1 finding(s) across 1 file(s)")

    @pytest.mark.parametrize("flag", ["--fail-on-new", "--update-baseline",
                                      "--baseline=b.json", "--json"])
    def test_removed_flags_exit_two(self, flag, tmp_path, capsys):
        # A finding can only be fixed: there is no baseline to grandfather
        # it into and no second report format.
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["check", str(clean), flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExplainAndList:
    @pytest.mark.parametrize("rule", ["rep001", "REP002", "rep003"])
    def test_explain_prints_the_contract(self, rule, capsys):
        assert main(["check", "--explain", rule]) == 0
        out = capsys.readouterr().out
        rule = rule.upper()
        assert rule in out and "Contract" in out

    def test_list_rules_names_exactly_three(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "REP001", "REP002", "REP003"]


class TestAcceptance:
    """The merged-tree gate exactly as CI runs it."""

    def test_src_repro_is_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check", "src/repro"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_bad_fixture_fails_the_gate(self, tmp_path, monkeypatch):
        # Add an unseeded-RNG file to the scanned tree and run the exact
        # CI command: any finding fails it.
        monkeypatch.chdir(REPO_ROOT)
        seeded = tmp_path / "seeded_bad.py"
        seeded.write_text(BAD_SOURCE)
        assert main(["check", "src/repro", str(seeded)]) == 1
        assert main(["check", "src/repro",
                     str(FIXTURES / "bad_rng.py")]) == 1
