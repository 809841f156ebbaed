"""Physical query plans for the PostgreSQL-substitute engine.

Plans are left-deep trees of scans and joins over a PK–FK schema.  The
optimizer annotates every node with the *estimated* cardinality it was
costed with, so misestimates are visible in plan dumps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.schema import ForeignKey


@dataclass
class ScanNode:
    """Base-table access: sequential scan or (sorted) index scan."""

    table: str
    predicates: tuple  # tuple[Predicate, ...]
    method: str = "seq"  # "seq" | "index"
    estimated_rows: float = 0.0

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.table,)

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        preds = ", ".join(f"{p.column}∈[{p.lo},{p.hi}]" for p in self.predicates)
        return (f"{pad}{self.method.title()}Scan({self.table}"
                f"{' | ' + preds if preds else ''}) ≈{self.estimated_rows:.0f}")


@dataclass
class JoinNode:
    """Join of a left sub-plan with a base table (left-deep plans)."""

    left: "PlanNode"
    right: ScanNode
    fk: ForeignKey
    method: str = "hash"  # "hash" | "indexnl"
    estimated_rows: float = 0.0

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(sorted(self.left.tables + self.right.tables))

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        kind = "HashJoin" if self.method == "hash" else "IndexNLJoin"
        lines = [f"{pad}{kind}({self.fk.child}.{self.fk.fk_column} = "
                 f"{self.fk.parent}.pk) ≈{self.estimated_rows:.0f}"]
        lines.append(self.left.describe(indent + 1))
        lines.append(self.right.describe(indent + 1))
        return "\n".join(lines)


PlanNode = ScanNode | JoinNode


def plan_signature(plan: PlanNode) -> str:
    """Canonical structural key of a plan: join order, join methods and
    scan methods — *without* the estimated cardinalities.

    Two optimizers that chose the same physical plan from different
    estimates produce the same signature, which is exactly the equality
    "plan-choice agreement" metrics need (the annotated estimates are a
    debugging aid, not part of the plan's identity).
    """
    if isinstance(plan, ScanNode):
        return f"{plan.method}({plan.table})"
    return (f"{plan.method}[{plan.fk.child}.{plan.fk.fk_column}]"
            f"({plan_signature(plan.left)},{plan_signature(plan.right)})")
