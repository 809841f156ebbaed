"""No function of the package, its benchmarks, examples or tests is written
twice.

The scan is an AST pass over every ``.py`` file under ``src/``,
``tests/``, ``benchmarks/`` and ``examples/``: two functions (methods and
nested functions included) are copies when their bodies, docstring left
out, have the same ``ast.dump``.  Names, arguments and line numbers are
not part of a body's dump, so a renamed copy counts.  Bodies of fewer
than ``MIN_STATEMENTS`` statements (nested statements count) are too
short to call a copy.  A reference kept for a pin lives once, in
``tests/oracles.py``, and a helper two test files need lives in one of
them, which the other imports.

``benchmarks/e2e/`` is not scanned: it is edited only when the end-to-end
benchmark itself changes, so a copy there (its ``sub_templates`` repeats
``repro.ce.template_base.sub_templates``) waits for such a change.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
EXCLUDED = ROOT / "benchmarks" / "e2e"
MIN_STATEMENTS = 4


def _body(function: ast.FunctionDef | ast.AsyncFunctionDef
          ) -> list[ast.stmt]:
    """The body without its docstring."""
    if ast.get_docstring(function, clean=False) is None:
        return function.body
    return function.body[1:]


def _statements(body: list[ast.stmt]) -> int:
    return sum(isinstance(node, ast.stmt)
               for stmt in body for node in ast.walk(stmt))


def duplicate_functions(paths, root: Path = ROOT) -> list[list[str]]:
    """Groups of two or more ``path:line: name`` entries (paths relative
    to ``root``) whose function bodies are the same, each group sorted,
    the groups by first entry."""
    groups: dict[str, list[str]] = defaultdict(list)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = _body(node)
            if _statements(body) < MIN_STATEMENTS:
                continue
            groups["\n".join(ast.dump(stmt) for stmt in body)].append(
                f"{path.relative_to(root).as_posix()}:{node.lineno}: "
                f"{node.name}")
    return sorted(sorted(group) for group in groups.values()
                  if len(group) > 1)


def scanned_files() -> list[Path]:
    return sorted(path for folder in SCANNED
                  for path in (ROOT / folder).rglob("*.py")
                  if EXCLUDED not in path.parents)


def test_scan_flags_copies_and_spares_the_rest(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(
        "def total(xs):\n"
        "    '''Sum of xs.'''\n"
        "    out = 0\n"
        "    for x in xs:\n"
        "        out += x\n"
        "    return out\n"
        "def short(x):\n"
        "    y = x + 1\n"
        "    return y\n")
    second.write_text(
        "class C:\n"
        "    def added(self, values):\n"
        "        out = 0\n"
        "        for x in values:\n"
        "            out += x\n"
        "        return out\n"
        "    def renamed(self, xs):\n"
        "        '''Another docstring.'''\n"
        "        out = 0\n"
        "        for x in xs:\n"
        "            out += x\n"
        "        return out\n"
        "def short_copy(x):\n"
        "    y = x + 1\n"
        "    return y\n")
    assert duplicate_functions([first, second], root=tmp_path) == [
        ["a.py:1: total", "b.py:7: renamed"]]


def test_no_function_is_written_twice():
    copies = duplicate_functions(scanned_files())
    assert not copies, "functions written twice:\n" + "\n\n".join(
        "\n".join(group) for group in copies)
