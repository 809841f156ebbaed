"""Figure 1: the motivating experiment.

Q-error of DeepDB / NeuroCard / MSCN on an IMDB-like multi-table dataset
vs a Power-like single-table dataset, plus inference latency on Power.
Expected shape: the accuracy ranking flips between the two datasets and
MSCN answers faster than NeuroCard on Power.  NeuroCard is not always the
slowest of the three there: DeepDB's per-query cost can exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datagen.presets import imdb_light_like, power_like
from ..testbed.runner import TestbedConfig, run_testbed
from .common import ExperimentSuite, format_table, get_suite

MODELS = ["DeepDB", "NeuroCard", "MSCN"]


@dataclass
class Fig1Result:
    imdb_qerrors: dict[str, float]
    power_qerrors: dict[str, float]
    power_latency_ms: dict[str, float]
    text: str


def run(suite: ExperimentSuite | None = None) -> Fig1Result:
    suite = suite or get_suite()
    testbed = TestbedConfig(seed=suite.seed)
    imdb = run_testbed(imdb_light_like(), config=testbed, model_names=MODELS)
    power = run_testbed(power_like(), config=testbed, model_names=MODELS)

    imdb_q = dict(zip(imdb.model_names, imdb.qerror_means))
    power_q = dict(zip(power.model_names, power.qerror_means))
    power_l = {n: v * 1000.0 for n, v in
               zip(power.model_names, power.latency_means)}

    rows = [[m, imdb_q[m], power_q[m], power_l[m]] for m in MODELS]
    text = format_table(
        ["model", "Q-error (IMDB-like)", "Q-error (Power-like)",
         "latency on Power (ms)"],
        rows, title="Figure 1: CE models across datasets (motivation)")
    return Fig1Result(imdb_q, power_q, power_l, text)
