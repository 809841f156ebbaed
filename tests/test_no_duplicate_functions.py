"""No function or large dict literal of the package, its benchmarks,
examples or tests is written twice.

The scan is an AST pass over every ``.py`` file under ``src/``,
``tests/``, ``benchmarks/`` and ``examples/``: two functions (methods and
nested functions included) are copies when their bodies, docstring left
out, have the same ``ast.dump``.  Names, arguments and line numbers are
not part of a body's dump, so a renamed copy counts.  Bodies of fewer
than ``MIN_STATEMENTS`` statements (nested statements count) are too
short to call a copy.  Two dict literals of ``MIN_KEYS`` or more entries
are copies when their ``ast.dump`` is the same: a table of constants
written out twice drifts apart as surely as a function does.  A reference
kept for a pin lives once, in ``tests/oracles.py``, and a helper or
constant two test files need lives in one of them, or in a test-support
module such as ``tests/loop_regime.py``, which the others import.

``benchmarks/e2e/`` is not scanned: it is edited only when the end-to-end
benchmark itself changes, so a copy there (its ``sub_templates`` repeats
``repro.ce.template_base.sub_templates``, and its ``LOOP_RANGES``
``tests/loop_regime.py``'s) waits for such a change.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
EXCLUDED = ROOT / "benchmarks" / "e2e"
MIN_STATEMENTS = 4
MIN_KEYS = 4


def _body(function: ast.FunctionDef | ast.AsyncFunctionDef
          ) -> list[ast.stmt]:
    """The body without its docstring."""
    if ast.get_docstring(function, clean=False) is None:
        return function.body
    return function.body[1:]


def _statements(body: list[ast.stmt]) -> int:
    return sum(isinstance(node, ast.stmt)
               for stmt in body for node in ast.walk(stmt))


def _function_copy_key(node: ast.AST) -> tuple[str, str] | None:
    """(body dump, name) of a function of ``MIN_STATEMENTS`` or more."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    body = _body(node)
    if _statements(body) < MIN_STATEMENTS:
        return None
    return "\n".join(ast.dump(stmt) for stmt in body), node.name


def _dict_copy_key(node: ast.AST) -> tuple[str, str] | None:
    """(dump, "dict") of a dict literal of ``MIN_KEYS`` or more entries."""
    if not isinstance(node, ast.Dict) or len(node.keys) < MIN_KEYS:
        return None
    return ast.dump(node), "dict"


def _copies(paths, root: Path, copy_key) -> list[list[str]]:
    """Groups of two or more ``path:line: name`` entries (paths relative
    to ``root``) of the nodes ``copy_key`` gives the same key, each group
    sorted, the groups by first entry."""
    groups: dict[str, list[str]] = defaultdict(list)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            found = copy_key(node)
            if found is not None:
                key, name = found
                groups[key].append(
                    f"{path.relative_to(root).as_posix()}:{node.lineno}: "
                    f"{name}")
    return sorted(sorted(group) for group in groups.values()
                  if len(group) > 1)


def duplicate_functions(paths, root: Path = ROOT) -> list[list[str]]:
    """Groups of functions whose bodies are the same (see :func:`_copies`)."""
    return _copies(paths, root, _function_copy_key)


def duplicate_dicts(paths, root: Path = ROOT) -> list[list[str]]:
    """Groups of dict literals of ``MIN_KEYS`` or more entries that are the
    same (see :func:`_copies`)."""
    return _copies(paths, root, _dict_copy_key)


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


def test_scan_flags_copied_dicts_and_spares_the_rest(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(
        "RANGES = {'a': (1, 2), 'b': 3, 'c': [4], 'd': 5}\n"
        "SMALL = {'a': 1, 'b': 2, 'c': 3}\n"
        "OTHER = {'a': (1, 2), 'b': 3, 'c': [4], 'd': 6}\n")
    second.write_text(
        "def f():\n"
        "    ranges = {'a': (1, 2), 'b': 3,\n"
        "              'c': [4], 'd': 5}\n"
        "    small = {'a': 1, 'b': 2, 'c': 3}\n"
        "    return ranges, small\n")
    assert duplicate_dicts([first, second], root=tmp_path) == [
        ["a.py:1: dict", "b.py:2: dict"]]


def test_no_dict_literal_is_written_twice():
    copies = duplicate_dicts(scanned_files())
    assert not copies, "dict literals written twice:\n" + "\n\n".join(
        "\n".join(group) for group in copies)
