"""The PostgreSQL substitute: cost-based optimizer + columnar executor."""

from .plans import ScanNode, JoinNode, PlanNode, plan_signature
from .cost import CostModel
from .providers import (AdvisorProvider, CallableProvider,
                        CardinalityProvider, ModelProvider, ProviderStats,
                        TrueCardProvider)
from .optimizer import Optimizer, PlannedQuery
from .execution import Executor, ExecutionResult
from .e2e import E2EResult, recost_plan, run_e2e

__all__ = [
    "ScanNode", "JoinNode", "PlanNode", "plan_signature",
    "CostModel", "Optimizer", "PlannedQuery",
    "CardinalityProvider", "ProviderStats", "TrueCardProvider",
    "ModelProvider", "AdvisorProvider", "CallableProvider",
    "Executor", "ExecutionResult",
    "E2EResult", "recost_plan", "run_e2e",
]
