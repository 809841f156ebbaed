"""Shared benchmark fixtures.

The experiment suite (labeled corpora, trained advisor, baselines) is built
once per session and cached on disk, so re-running the benchmarks is cheap.
Every bench writes its paper-style table to ``results/<name>.txt`` and
echoes it to the terminal.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import ExperimentSuite

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    return ExperimentSuite()


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
