"""The rule engine of ``repro check``: sources, pragmas, findings, runner.

The analyzer is deliberately a *static* pass — it never imports the code
it checks.  Every module is parsed once into a :class:`ModuleSource`
(AST + import-alias map + the inline ``# repro: allow[RULE]`` pragma
table), each rule's :meth:`Rule.check_module` walks one tree at a time
and yields :class:`Finding` values, and the engine applies pragma
suppression and a deterministic sort.

Determinism is a contract of the analyzer itself: the file walk is
sorted, findings are sorted, and no report field depends on wall-clock
time or iteration order — two runs over the same tree must emit
byte-identical reports (there is a regression test for exactly that).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Inline suppression: ``# repro: allow[<RULE>]`` (comma-separate several
#: rule ids; ``allow[*]`` silences every rule on the line).  The pragma
#: applies to findings anchored on its own physical line, so for a
#: wrapped call it belongs on the line the call starts.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s]+)\]")

#: Directory names never descended into during the file walk.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file position."""

    rule: str
    path: str                 # posix path, relative to the scan root
    line: int
    col: int
    severity: str             # "error" | "warning"
    message: str

    @property
    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module paths they import.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from numpy import
    random`` → ``{"random": "numpy.random"}``; ``from time import
    perf_counter`` → ``{"perf_counter": "time.perf_counter"}``.  Relative
    imports keep their leading dots (``from .kernels import f`` →
    ``{"f": ".kernels.f"}``) so rules can still tell "an imported name"
    from a local one.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    head = name.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{base}.{name.name}"
    return aliases


def resolve_call_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The fully-qualified dotted name of a Name/Attribute chain.

    Returns ``None`` when the chain is not rooted in an imported name
    (e.g. ``self.rng.integers`` — the head is a local object, so no module
    identity can be claimed statically).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    parts.append(aliases[node.id])
    return ".".join(reversed(parts))


def _parse_pragmas(text: str) -> dict[int, set[str]]:
    """Line → set of rule ids allowed there (``*`` = every rule)."""
    allowed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = PRAGMA_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",")
                     if part.strip()}
            allowed.setdefault(token.start[0], set()).update(rules)
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass                    # the parse error is reported separately
    return allowed


@dataclass
class ModuleSource:
    """One parsed file plus everything rules repeatedly need from it."""

    path: str                       # display path (posix, relative to root)
    module_rel: str | None          # path inside src/repro, e.g. "cli.py"
    text: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)
    pragmas: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str, path: str = "<memory>",
                  module_rel: str | None = None) -> "ModuleSource":
        tree = ast.parse(text, filename=path)
        return cls(path=path, module_rel=module_rel, text=text, tree=tree,
                   aliases=_collect_aliases(tree),
                   pragmas=_parse_pragmas(text))

    def allows(self, rule_id: str, line: int) -> bool:
        rules = self.pragmas.get(line)
        return rules is not None and (rule_id in rules or "*" in rules)


def _package_relative(path: Path) -> str | None:
    """The path inside the ``src/repro`` package, if the file lives there.

    Rules scope themselves by this (e.g. REP003 applies to
    ``core/serving/*`` and ``serving/*``); files outside the package —
    test fixtures, scripts — get ``None`` and only the unscoped rules.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 2):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return "/".join(parts[i + 2:])
    return None


class Rule:
    """Base class: one invariant, one id, one severity.

    Subclasses fill the class attributes (they feed ``--explain`` and the
    rule catalog in ``docs/static_analysis.md``) and override
    :meth:`check_module`.
    """

    id: str = "REP000"
    title: str = ""
    severity: str = "error"
    contract: str = ""
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        return iter(())

    def finding(self, module_path: str, node: ast.AST,
                message: str) -> Finding:
        return Finding(rule=self.id, path=module_path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0),
                       severity=self.severity, message=message)

    def explain(self) -> str:
        lines = [f"{self.id}: {self.title}", "=" * (len(self.id) + 2 + len(self.title)),
                 "", f"severity: {self.severity}", "",
                 "Contract", "--------", self.contract.strip(), "",
                 "Rationale", "---------", self.rationale.strip()]
        if self.example_bad:
            lines += ["", "Flagged", "-------", self.example_bad.strip()]
        if self.example_good:
            lines += ["", "Clean", "-----", self.example_good.strip()]
        lines += ["", "Suppression", "-----------",
                  f"Append `# repro: allow[{self.id}]` to the offending "
                  "line (comma-separate several ids). Pragmas are for "
                  "deliberate, commented exceptions; recurring suppressions "
                  "belong in the rule's allowlist or a code fix."]
        return "\n".join(lines)


@dataclass
class CheckReport:
    """The post-suppression result of one analyzer run."""

    findings: list[Finding]
    files: int
    suppressed: int


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Deterministic (sorted, deduplicated) .py file list for the inputs."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_file():
            candidates = [path]
        else:
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts)))
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_check(paths: Iterable[Path | str], rules: Iterable[Rule],
              root: Path | None = None) -> CheckReport:
    """Parse every file under ``paths`` and run ``rules`` over each one.

    Unparseable files surface as ``PARSE`` findings instead of crashing
    the run — a syntax error in one module must not hide the findings of
    the other two hundred.
    """
    root = root or Path.cwd()
    rules = list(rules)
    files = iter_python_files(Path(p) for p in paths)
    modules: list[ModuleSource] = []
    findings: list[Finding] = []
    for file_path in files:
        display = _display_path(file_path, root)
        text = file_path.read_text(encoding="utf-8")
        try:
            module = ModuleSource.from_text(
                text, path=display, module_rel=_package_relative(file_path))
        except SyntaxError as error:
            findings.append(Finding(
                rule="PARSE", path=display, line=error.lineno or 0,
                col=error.offset or 0, severity="error",
                message=f"file does not parse: {error.msg}"))
            continue
        modules.append(module)
    for module in modules:
        for rule in rules:
            findings.extend(rule.check_module(module))

    kept: list[Finding] = []
    suppressed = 0
    by_path = {module.path: module for module in modules}
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and module.allows(finding.rule, finding.line):
            suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=lambda f: f.sort_key)
    return CheckReport(findings=kept, files=len(files),
                       suppressed=suppressed)
