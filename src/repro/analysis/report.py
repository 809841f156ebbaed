"""Rendering for ``repro check``: the operator text report.

The rendering is a deterministic function of the findings — no
timestamps, no absolute paths, no environment — so the double-run
determinism test can diff it byte-for-byte.
"""

from __future__ import annotations

from .engine import CheckReport


def render_text(report: CheckReport) -> str:
    """The human report: every finding in full, then one summary line."""
    lines = [finding.render() for finding in report.findings]
    if lines:
        lines.append("")
    lines.append(f"{len(report.findings)} finding(s) across {report.files} "
                 f"file(s), {report.suppressed} suppressed by pragma")
    return "\n".join(lines)
