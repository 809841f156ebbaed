"""No module of the package, its benchmarks, examples or tests imports a
name it never uses.

The scan is an AST pass: a module-level import (``if``/``try`` blocks at
module level included) is unused when its bound name is never read and
never quoted in an annotation (``"AutoCE"`` under ``TYPE_CHECKING``).
``__init__.py`` files are skipped — their imports are re-exports — and so
is any name a module lists in ``__all__``.  The end-to-end benchmark
(``benchmarks/e2e/``) and the analyzer's fixtures
(``tests/analysis/fixtures/``, deliberately bad code) are not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
FIXTURES = ROOT / "tests" / "analysis" / "fixtures"


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Bound name → line of every module-level import."""
    imported: dict[str, int] = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom, ast.If, ast.Try)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
    return imported


def _quoted_names(annotation: ast.expr) -> set[str]:
    """Names inside the string parts of an annotation."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _quoted_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _quoted_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _quoted_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every module-level import ``path`` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return sorted((line, name) for name, line in _module_imports(tree).items()
                  if name not in used)


def test_scan_flags_unused_and_spares_used(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import TYPE_CHECKING\n"
        "from dataclasses import dataclass, field\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "    from decimal import Decimal\n"
        "__all__ = ['json']\n"
        "@dataclass\n"
        "class A:\n"
        "    p: 'Path | None' = None\n")
    assert unused_imports(module) == [(2, "os"), (5, "field"),
                                      (8, "Decimal")]


def assert_no_unused_imports(paths) -> None:
    hits = [f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
            for path in sorted(paths) if path.name != "__init__.py"
            for line, name in unused_imports(path)]
    assert not hits, "unused imports:\n" + "\n".join(hits)


def test_src_has_no_unused_imports():
    assert_no_unused_imports(SRC.rglob("*.py"))


def test_benchmarks_examples_and_tests_have_no_unused_imports():
    assert_no_unused_imports([
        *(ROOT / "benchmarks").glob("*.py"),
        *(ROOT / "examples").rglob("*.py"),
        *(path for path in (ROOT / "tests").rglob("*.py")
          if FIXTURES not in path.parents)])
