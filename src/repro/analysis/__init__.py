"""``repro.analysis``: the AST invariant checker behind ``repro check``.

Six PRs of growth rested three correctness contracts on reviewer
eyeballs: bit-for-bit determinism (seeded RNG everywhere), strict
dtype-tier discipline on the serving path (no silent float64
promotion), and fork/pickle safety across the supervisor↔worker queue
boundary.  This package machine-checks them:

========  ==========================================================
REP001    unseeded RNG (``np.random.default_rng()`` with no seed,
          module-level ``np.random.*`` calls, stdlib ``random``)
REP002    wall-clock reads outside the declared timing modules
REP003    implicit float64 promotion in the serving-tier modules
REP004    fork/pickle-unsafe process targets, queue payloads and
          worker module state
REP005    supervisor↔worker message-protocol drift (cross-file)
========  ==========================================================

See ``docs/static_analysis.md`` for the rule catalog and
``repro check --explain REPxxx`` for any single rule's contract.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineDiff
from .engine import (CheckReport, Finding, ModuleSource, Project, Rule,
                     run_check)
from .rules import all_rules, rule_by_id

__all__ = [
    "Baseline", "BaselineDiff", "CheckReport", "Finding", "ModuleSource",
    "Project", "Rule", "run_check", "all_rules", "rule_by_id",
]
