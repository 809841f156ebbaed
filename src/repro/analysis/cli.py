"""The ``repro check`` command: the analyzer behind an operator-grade CLI.

Exit codes are part of the contract (CI scripts branch on them):

* ``0`` — clean: no findings beyond the committed baseline (and, under
  ``--fail-on-new``, no stale baseline entries either);
* ``1`` — findings: something new fired (or the baseline is stale under
  ``--fail-on-new``);
* ``2`` — usage: a path that does not exist, an unknown rule id, an
  unreadable baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import Baseline
from .engine import run_check
from .report import render_json, render_text
from .rules import all_rules, rule_by_id

#: Default scan target, baseline location and JSON report destination —
#: all relative to the repo root the command is run from.
DEFAULT_PATHS = ("src/repro",)
DEFAULT_BASELINE = "analysis/baseline.json"
DEFAULT_JSON = "results/repro_check.json"


def add_check_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "check",
        help="run the determinism and dtype-tier static-analysis rules")
    p.add_argument("paths", nargs="*", default=None,
                   help=f"files or directories to scan (default: "
                        f"{' '.join(DEFAULT_PATHS)})")
    p.add_argument("--baseline", default=DEFAULT_BASELINE,
                   help="grandfathered-findings file (missing = empty)")
    p.add_argument("--fail-on-new", action="store_true",
                   help="CI mode: also fail on stale baseline entries, so "
                        "the baseline can only shrink")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline to the current findings and "
                        "exit 0")
    p.add_argument("--json", nargs="?", const=DEFAULT_JSON, default=None,
                   metavar="PATH",
                   help=f"write the machine-readable report (default "
                        f"path: {DEFAULT_JSON}; '-' for stdout)")
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
    try:
        baseline = Baseline.load(args.baseline)
    except (ValueError, OSError) as error:
        return _usage_error(f"cannot read baseline {args.baseline!r}: "
                            f"{error}")

    report = run_check(paths, rules)
    if args.update_baseline:
        Baseline.from_findings(report.findings).save(args.baseline)
        print(f"wrote {args.baseline}: {len(report.findings)} "
              "grandfathered finding(s)")
        return 0

    diff = baseline.diff(report.findings)
    print(render_text(report, diff, args.baseline))
    if args.json:
        payload = render_json(report, diff, args.baseline)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            json_path = Path(args.json)
            json_path.parent.mkdir(parents=True, exist_ok=True)
            json_path.write_text(payload, encoding="utf-8")
            print(f"wrote {args.json}")

    if diff.new:
        return 1
    if args.fail_on_new and diff.stale:
        return 1
    return 0
