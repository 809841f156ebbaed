"""Per-rule coverage: known-bad snippets flag (with the right anchors),
known-good snippets pass, and the scoping/allowlist escape hatches hold."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import ModuleSource, run_check
from repro.analysis.rules import all_rules, rule_by_id
from repro.analysis.rules.rep001_rng import UnseededRngRule
from repro.analysis.rules.rep002_wallclock import (DEFAULT_ALLOWLIST,
                                                   WallclockRule)
from repro.analysis.rules.rep003_dtype import DtypePromotionRule

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src" / "repro"


def check_source(rule, source: str, module_rel: str | None = None):
    module = ModuleSource.from_text(textwrap.dedent(source),
                                    module_rel=module_rel)
    return list(rule.check_module(module))


class TestRegistry:
    def test_three_rules_in_id_order(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == ["REP001", "REP002", "REP003"]

    def test_rule_by_id_is_case_insensitive(self):
        assert rule_by_id("rep003").id == "REP003"
        assert rule_by_id("REP404") is None

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            text = rule.explain()
            assert rule.id in text
            assert "Contract" in text and "Suppression" in text


class TestRep001:
    def test_bad_fixture_flags_each_call_on_its_line(self):
        report = run_check([FIXTURES / "bad_rng.py"], [UnseededRngRule()])
        assert [f.line for f in report.findings] == [8, 9, 10, 11]
        assert {f.rule for f in report.findings} == {"REP001"}
        assert {f.severity for f in report.findings} == {"error"}

    def test_good_fixture_is_clean(self):
        report = run_check([FIXTURES / "good_rng.py"], [UnseededRngRule()])
        assert report.findings == []

    def test_seeded_calls_pass(self):
        assert check_source(UnseededRngRule(), """\
            import numpy as np
            rng = np.random.default_rng(3)
            seq = np.random.SeedSequence(99)
            gen = np.random.Generator(np.random.PCG64(5))
            """) == []

    def test_import_alias_is_resolved(self):
        findings = check_source(UnseededRngRule(), """\
            import numpy.random as nprand
            rng = nprand.default_rng()
            """)
        assert len(findings) == 1 and findings[0].line == 2

    def test_local_name_shadowing_random_is_ignored(self):
        # `random` here is a local callable, not the stdlib module.
        assert check_source(UnseededRngRule(), """\
            def random():
                return 4
            value = random()
            """) == []


class TestRep002:
    def test_bad_fixture_flags_both_reads(self):
        report = run_check([FIXTURES / "bad_wallclock.py"],
                           [WallclockRule()])
        assert [f.line for f in report.findings] == [8, 12]
        assert {f.rule for f in report.findings} == {"REP002"}

    def test_allowlisted_module_is_exempt(self):
        source = """\
            import time
            start = time.perf_counter()
            """
        assert check_source(WallclockRule(), source,
                            module_rel="testbed/runner.py") == []
        assert len(check_source(WallclockRule(), source,
                                module_rel="core/serving/store.py")) == 1

    def test_from_import_alias_is_resolved(self):
        findings = check_source(WallclockRule(), """\
            from time import perf_counter as tick
            start = tick()
            """)
        assert len(findings) == 1 and "time.perf_counter" in findings[0].message

    @pytest.mark.parametrize("rel", sorted(DEFAULT_ALLOWLIST))
    def test_every_allowlisted_module_exists_and_reads_the_clock(self, rel):
        # An entry for a deleted module, or for one that reads no clock,
        # silently widens the rule: each must name a live clock reader.
        path = SRC / rel
        assert path.is_file(), rel
        module = ModuleSource.from_text(path.read_text(encoding="utf-8"),
                                        module_rel=rel)
        assert list(WallclockRule().check_module(module)) == []
        unlisted = WallclockRule(allowlist=frozenset())
        assert list(unlisted.check_module(module)), rel

    def test_allowlist_is_exactly_the_clock_readers_of_src_repro(self):
        """The converse: every module of the package that reads the
        clock is allowlisted, none by a pragma, so the list is complete."""
        report = run_check([SRC], [WallclockRule(allowlist=frozenset())],
                           root=SRC)
        assert report.suppressed == 0
        assert {f.path for f in report.findings} == DEFAULT_ALLOWLIST

class TestRep003:
    REL = "serving/batching.py"

    def test_ctor_without_dtype_flags(self):
        findings = check_source(DtypePromotionRule(), """\
            import numpy as np
            pool = np.zeros(16)
            """, module_rel=self.REL)
        assert len(findings) == 1
        assert "np.zeros" in findings[0].message

    def test_explicit_dtype_passes(self):
        assert check_source(DtypePromotionRule(), """\
            import numpy as np
            a = np.zeros(16, dtype=np.float64)
            b = np.empty((2, 0), dtype=queries.dtype)
            c = np.full(4, 0.5, dtype=np.float32)
            d = np.asarray(rows)          # tier-preserving: exempt
            e = np.zeros_like(rows)       # not a defaulting constructor
            """, module_rel=self.REL) == []

    def test_bare_float_spellings_flag(self):
        findings = check_source(DtypePromotionRule(), """\
            import numpy as np
            a = np.array(rows, dtype=float)
            b = rows.astype(float)
            c = np.float64(radius)
            """, module_rel=self.REL)
        assert [f.line for f in findings] == [2, 3, 4]

    def test_out_of_scope_modules_are_exempt(self):
        source = """\
            import numpy as np
            pool = np.zeros(16)
            """
        assert check_source(DtypePromotionRule(), source,
                            module_rel="core/graph.py") == []
        assert check_source(DtypePromotionRule(), source,
                            module_rel=None) == []
        assert len(check_source(DtypePromotionRule(), source,
                                module_rel="core/serving/store.py")) == 1
