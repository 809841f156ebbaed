"""REP002: wall-clock reads stay out of deterministic paths."""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, Rule, resolve_call_name

#: Clock reads that make a code path depend on when (or how fast) it ran.
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Modules (paths inside src/repro) whose *contract* is to measure time,
#: each of which reads the clock: the latency labeling harness and the
#: latency measurements of the engine and of Fig. 12.  Everything else
#: needs a per-line pragma.
DEFAULT_ALLOWLIST = frozenset({
    "testbed/runner.py",
    "engine/execution.py",
    "engine/providers.py",
    "experiments/fig12_online_learning.py",
})


class WallclockRule(Rule):
    id = "REP002"
    title = "wall-clock read in a deterministic path"
    severity = "warning"
    contract = """\
time.time / time.perf_counter / time.monotonic (and _ns variants,
process_time, datetime.now/utcnow/today) are confined to the modules
whose job is timing: testbed/runner.py (latency labeling) and the
latency measurements (engine/execution.py, engine/providers.py —
the provider layer times every estimator source call —
experiments/fig12_online_learning.py).  Anywhere else a clock read is
either dead weight or — worse — feeding a value that varies run to run
into a path the determinism matrix believes is pure."""
    rationale = """\
Latency labels and execution timings are legitimately wall-clock
driven.  Keeping the clock reads inside the
declared timing modules makes "does anything nondeterministic feed this
kernel?" a grep instead of an audit."""
    example_bad = """\
# inside core/serving/store.py
cache_stamp = time.time()          # run-dependent value in a kernel path"""
    example_good = """\
start = time.perf_counter()        # inside testbed/runner.py (allowlisted)
latency = time.perf_counter() - start"""

    def __init__(self, allowlist: frozenset[str] = DEFAULT_ALLOWLIST) -> None:
        self.allowlist = allowlist

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        if module.module_rel in self.allowlist:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, module.aliases)
            if name in _WALLCLOCK:
                yield self.finding(
                    module.path, node,
                    f"{name}() read outside the timing-module allowlist; "
                    "move the measurement into a timing module or mark "
                    "the deliberate exception with a pragma")
