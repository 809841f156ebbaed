"""The ``repro check`` command: the analyzer behind an operator-grade CLI.

Exit codes are part of the contract (CI scripts branch on them):

* ``0`` — clean: no finding (lines silenced by a pragma do not count);
* ``1`` — findings: at least one rule fired, or a file does not parse;
* ``2`` — usage: a path that does not exist, an unknown rule id, an
  unknown flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import run_check
from .report import render_text
from .rules import all_rules, rule_by_id

#: Default scan target, relative to the repo root the command is run from.
DEFAULT_PATHS = ("src/repro",)


def add_check_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "check",
        help="run the determinism and dtype-tier static-analysis rules")
    p.add_argument("paths", nargs="*", default=None,
                   help=f"files or directories to scan (default: "
                        f"{' '.join(DEFAULT_PATHS)})")
    p.add_argument("--explain", metavar="RULE", default=None,
                   help="print one rule's contract/rationale/examples and "
                        "exit")
    p.add_argument("--list-rules", action="store_true",
                   help="list the registered rules and exit")
    p.set_defaults(func=cmd_check)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_check(args: argparse.Namespace) -> int:
    rules = all_rules()
    if args.explain:
        rule = rule_by_id(args.explain)
        if rule is None:
            known = ", ".join(r.id for r in rules)
            return _usage_error(
                f"unknown rule {args.explain!r} (known rules: {known})")
        print(rule.explain())
        return 0
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.severity:<7}  {rule.title}")
        return 0

    paths = [Path(p) for p in (args.paths or DEFAULT_PATHS)]
    for path in paths:
        if not path.exists():
            return _usage_error(f"path {str(path)!r} does not exist")

    report = run_check(paths, rules)
    print(render_text(report))
    return 1 if report.findings else 0
