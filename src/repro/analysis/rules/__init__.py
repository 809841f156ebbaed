"""The rule registry of ``repro check``.

Rules are instantiated once, in id order; ``repro check --explain REPxxx``
and the docs catalog both read the class attributes, so a rule's whole
story (contract, rationale, examples, suppression policy) lives next to
its implementation.
"""

from __future__ import annotations

from ..engine import Rule
from .rep001_rng import UnseededRngRule
from .rep002_wallclock import WallclockRule
from .rep003_dtype import DtypePromotionRule

__all__ = [
    "UnseededRngRule", "WallclockRule", "DtypePromotionRule",
    "all_rules", "rule_by_id",
]


def all_rules() -> list[Rule]:
    """A fresh instance of every registered rule, in id order."""
    return [UnseededRngRule(), WallclockRule(), DtypePromotionRule()]


def rule_by_id(rule_id: str) -> Rule | None:
    for rule in all_rules():
        if rule.id == rule_id.upper():
            return rule
    return None
