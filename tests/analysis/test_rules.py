"""Per-rule coverage: known-bad snippets flag (with the right anchors),
known-good snippets pass, and the scoping/allowlist escape hatches hold."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import ModuleSource, run_check
from repro.analysis.rules import all_rules, rule_by_id
from repro.analysis.rules.rep001_rng import UnseededRngRule
from repro.analysis.rules.rep002_wallclock import WallclockRule
from repro.analysis.rules.rep003_dtype import DtypePromotionRule
from repro.analysis.rules.rep004_fork import ForkSafetyRule
from repro.analysis.rules.rep005_protocol import (ProtocolDriftRule,
                                                  ProtocolSpec)
from repro.analysis.engine import Project

FIXTURES = Path(__file__).parent / "fixtures"


def check_source(rule, source: str, module_rel: str | None = None):
    module = ModuleSource.from_text(textwrap.dedent(source),
                                    module_rel=module_rel)
    return list(rule.check_module(module))


class TestRegistry:
    def test_five_rules_in_id_order(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == ["REP001", "REP002", "REP003", "REP004", "REP005"]

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
                            module_rel="utils/timing.py") == []
        assert len(check_source(WallclockRule(), source,
                                module_rel="core/serving/store.py")) == 1

    def test_from_import_alias_is_resolved(self):
        findings = check_source(WallclockRule(), """\
            from time import perf_counter as tick
            start = tick()
            """)
        assert len(findings) == 1 and "time.perf_counter" in findings[0].message


class TestRep003:
    REL = "serving/sharding.py"

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


class TestRep004:
    def test_bad_fixture_flags_targets_and_payload(self):
        report = run_check([FIXTURES / "bad_fork.py"], [ForkSafetyRule()])
        assert [f.line for f in report.findings] == [14, 15, 16]
        messages = " ".join(f.message for f in report.findings)
        assert "lambda as a Process target" in messages
        assert "nested function" in messages
        assert "lambda placed on a queue" in messages

    def test_good_fixture_is_clean(self):
        report = run_check([FIXTURES / "good_fork.py"], [ForkSafetyRule()])
        assert report.findings == []

    def test_bound_method_target_flags(self):
        findings = check_source(ForkSafetyRule(), """\
            import multiprocessing as mp
            class Server:
                def start(self):
                    mp.Process(target=self.loop).start()
            """)
        assert len(findings) == 1
        assert "bound method" in findings[0].message

    def test_worker_module_global_state_flags(self):
        source = """\
            def handle(msg):
                global served
                served += 1
            """
        findings = check_source(ForkSafetyRule(), source,
                                module_rel="serving/worker.py")
        assert len(findings) == 1 and "global served" in findings[0].message
        assert check_source(ForkSafetyRule(), source,
                            module_rel="serving/other.py") == []


class TestRep005:
    DECL = """\
        from dataclasses import dataclass, field
        @dataclass
        class ShardRequest:
            req_id: int
            queries: object
            k: int = 5
        """

    def run_protocol(self, producer: str, consumer: str | None = None):
        worker_source = (textwrap.dedent(self.DECL)
                         + textwrap.dedent(consumer or ""))
        modules = [
            ModuleSource.from_text(worker_source,
                                   path="worker.py",
                                   module_rel="serving/worker.py"),
            ModuleSource.from_text(textwrap.dedent(producer),
                                   path="supervisor.py",
                                   module_rel="serving/supervisor.py"),
        ]
        rule = ProtocolDriftRule(protocols=(
            ProtocolSpec(message="ShardRequest",
                         declared_in="serving/worker.py",
                         producers=("serving/supervisor.py",),
                         consumers=("serving/worker.py",)),))
        return list(rule.finalize(Project(modules)))

    def test_consistent_sides_pass(self):
        assert self.run_protocol("""\
            from .worker import ShardRequest
            req = ShardRequest(req_id=1, queries=q, k=3)
            """) == []

    def test_unknown_field_flags(self):
        findings = self.run_protocol("""\
            from .worker import ShardRequest
            req = ShardRequest(req_id=1, queries=q, deadline=2.0)
            """)
        assert len(findings) == 1 and "deadline" in findings[0].message

    def test_missing_required_field_flags(self):
        findings = self.run_protocol("""\
            from .worker import ShardRequest
            req = ShardRequest(req_id=1)
            """)
        assert len(findings) == 1 and "queries" in findings[0].message

    def test_consumer_reading_undeclared_field_flags(self):
        findings = self.run_protocol(
            "x = 1\n",
            consumer="""\
            def serve(request_queue):
                msg = request_queue.get()
                return msg.queries, msg.deadline
            """)
        assert len(findings) == 1
        assert "msg.deadline" in findings[0].message

    def test_current_tree_protocol_is_consistent(self):
        report = run_check([Path("src/repro/serving")],
                           [ProtocolDriftRule()])
        assert report.findings == []
