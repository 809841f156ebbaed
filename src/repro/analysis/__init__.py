"""``repro.analysis``: the AST invariant checker behind ``repro check``.

Two correctness contracts used to rest on reviewer eyeballs:
bit-for-bit determinism (seeded RNG everywhere, no clock values in
pure paths) and strict dtype-tier discipline on the serving path (no
silent float64 promotion).  This package machine-checks them:

========  ==========================================================
REP001    unseeded RNG (``np.random.default_rng()`` with no seed,
          module-level ``np.random.*`` calls, stdlib ``random``)
REP002    wall-clock reads outside the declared timing modules
REP003    implicit float64 promotion in the serving-tier modules
========  ==========================================================

See ``docs/static_analysis.md`` for the rule catalog and
``repro check --explain REPxxx`` for any single rule's contract.
"""

from __future__ import annotations

from .engine import CheckReport, Finding, ModuleSource, Rule, run_check
from .rules import all_rules, rule_by_id

__all__ = [
    "CheckReport", "Finding", "ModuleSource", "Rule", "run_check",
    "all_rules", "rule_by_id",
]
