"""REP003: no silent float64 promotion in the serving-tier modules."""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleSource, Rule, resolve_call_name

#: numpy constructors that *materialize* a new array and default to
#: float64 when no dtype is given, mapped to the positional index their
#: dtype argument occupies.  np.asarray / np.atleast_2d / the *_like
#: family are deliberately absent: they preserve the input's tier, which
#: is exactly the behavior the contract wants.
_CTOR_DTYPE_POS = {
    "array": 1, "zeros": 1, "ones": 1, "empty": 1,
    "full": 2, "identity": 1, "eye": 3,
}

#: Modules the rule scopes itself to (paths inside src/repro).
DEFAULT_SCOPE_FILES = frozenset({"engine/providers.py"})
DEFAULT_SCOPE_PREFIXES = ("core/serving/",)


def _is_bare_float(node: ast.expr) -> bool:
    """``float`` / ``"float"`` — the implicit-float64 spellings."""
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    return isinstance(node, ast.Constant) and node.value == "float"


class DtypePromotionRule(Rule):
    id = "REP003"
    title = "implicit float64 promotion in a serving-tier module"
    severity = "warning"
    contract = """\
In the serving-tier modules (core/serving/* and
engine/providers.py — the estimator-provider layer sits on the serving
path of the optimizer loop) every
array *constructor* that defaults to float64 — np.array, np.zeros,
np.ones, np.empty, np.full, np.eye, np.identity — must name its dtype
explicitly (dtype=np.float64 when full precision is the point,
dtype=x.dtype when the tier must follow an input).  `.astype(float)`,
dtype=float and bare np.float64(...) conversions are flagged outright:
`float` is float64 spelled so quietly that the dtype-tier audit cannot
see it.  Tier-preserving constructors (np.asarray, np.atleast_2d,
np.zeros_like, ...) are exempt, and an explicit dtype=np.float64 is
always legal — the contract is about *stated* intent, not about banning
the reference tier."""
    rationale = """\
PRs 3-5 built the precision ladder: float32 end-to-end, float32 serving
over float64 weights, int8/PQ candidate tiers with float re-rank.  The
agreement and golden matrices pin those paths bit-for-bit, and the bug
class they kept catching by hand was a kernel quietly materializing a
float64 intermediate inside a float32 path.  An array constructor with
no dtype is exactly that bug waiting to happen; one with an explicit
dtype is a reviewed decision."""
    example_bad = """\
pool = np.zeros(dim)               # silently float64 in a float32 path
dists = member.astype(float)       # implicit promotion
scale = np.float64(cfg.radius)     # float64 scalar contaminates the GEMM"""
    example_good = """\
pool = np.zeros(dim, dtype=queries.dtype)     # follows the serving tier
acc = np.zeros(dim, dtype=np.float64)         # full precision on purpose
row = np.asarray(embedding)                   # tier-preserving: exempt"""

    def __init__(self, scope_files: frozenset[str] = DEFAULT_SCOPE_FILES,
                 scope_prefixes: tuple[str, ...] = DEFAULT_SCOPE_PREFIXES) -> None:
        self.scope_files = scope_files
        self.scope_prefixes = scope_prefixes

    def applies(self, module: ModuleSource) -> bool:
        rel = module.module_rel
        if rel is None:
            return False
        return (rel in self.scope_files
                or any(rel.startswith(p) for p in self.scope_prefixes))

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        if not self.applies(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, module.aliases)
            if name is not None and name.startswith("numpy."):
                attr = name.split(".", 1)[1]
                if attr in _CTOR_DTYPE_POS:
                    yield from self._check_ctor(module, node, attr)
                    continue
                if attr == "float64":
                    yield self.finding(
                        module.path, node,
                        "bare np.float64(...) conversion materializes a "
                        "float64 scalar/array in a serving-tier module; "
                        "use the serving tier's dtype, or an explicit "
                        "dtype=np.float64 constructor argument if full "
                        "precision is the point")
                    continue
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype" and node.args
                    and _is_bare_float(node.args[0])):
                yield self.finding(
                    module.path, node,
                    ".astype(float) promotes to float64 implicitly; name "
                    "the target tier (.astype(np.float64) if full "
                    "precision is intended, .astype(x.dtype) to follow "
                    "an input)")

    def _check_ctor(self, module: ModuleSource, node: ast.Call,
                    attr: str) -> Iterator[Finding]:
        pos = _CTOR_DTYPE_POS[attr]
        dtype_value: ast.expr | None = None
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                dtype_value = keyword.value
        if dtype_value is None and len(node.args) > pos:
            dtype_value = node.args[pos]
        if dtype_value is None:
            yield self.finding(
                module.path, node,
                f"np.{attr}(...) without an explicit dtype= defaults to "
                "float64; state the tier (dtype=x.dtype to follow an "
                "input, dtype=np.float64 when full precision is the "
                "point)")
        elif _is_bare_float(dtype_value):
            yield self.finding(
                module.path, node,
                f"np.{attr}(..., dtype=float) is float64 spelled "
                "implicitly; write dtype=np.float64 (or the serving "
                "tier's dtype) so the promotion is visible")
