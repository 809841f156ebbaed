"""Figure 13: ablation of online adapting (Sec. V-E).

Datasets are generated from distribution ranges *outside* the training
corpus (bigger domains, wider tables); those flagged as drifted by the
advisor's 90th-percentile distance test are split into an adaptation set
(labeled online, encoder updated) and an evaluation set.  Expected shape:
online adapting cuts the D-error on drifted datasets substantially at every
weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.advisor import AutoCE, AutoCEConfig
from .common import ExperimentSuite, format_table, get_suite
from .corpus import label_one
from ..datagen.spec import random_spec

WEIGHTS = (0.9, 0.7, 0.5)

#: Generation ranges deliberately outside the training corpus defaults.
DRIFT_RANGES = {
    "num_tables": (5, 6),
    "columns_per_table": (6, 9),
    "rows": (2600, 4000),
    "domain": (150, 400),
    "skew": (0.6, 1.0),
    "max_correlation": (0.5, 1.0),
    "interaction": (0.5, 1.0),
    "fanout_skew": (0.7, 1.0),
}


@dataclass
class Fig13Result:
    without: dict[float, float]
    with_adapting: dict[float, float]
    drift_detection_rate: float
    text: str


def run(suite: ExperimentSuite | None = None, num_drifted: int = 10,
        num_adapt: int = 5) -> Fig13Result:
    suite = suite or get_suite()
    base = suite.autoce()

    drifted = [label_one(random_spec(5_000_000 + i, ranges=DRIFT_RANGES),
                         suite.testbed)
               for i in range(num_drifted)]
    detected = [base.is_drifted(e.graph) for e in drifted]
    rate = float(np.mean(detected))

    adapt_set = drifted[:num_adapt]
    eval_set = drifted[num_adapt:]

    without = {
        w: float(np.mean([e.label.d_error(base.recommend(e.graph, w).model, w)
                          for e in eval_set]))
        for w in WEIGHTS
    }

    # A fresh advisor trained identically, then adapted online.
    entries = suite.train_corpus()
    adapted = AutoCE(AutoCEConfig(seed=suite.seed))
    adapted.fit([e.graph for e in entries], [e.label for e in entries])
    for entry in adapt_set:
        adapted.adapt_online(entry.graph, entry.label)
    with_adapting = {
        w: float(np.mean([e.label.d_error(adapted.recommend(e.graph, w).model, w)
                          for e in eval_set]))
        for w in WEIGHTS
    }

    rows = [[f"w_a = {w}", without[w], with_adapting[w]] for w in WEIGHTS]
    text = format_table(
        ["setting", "Without Online Adapting", "With Online Adapting"],
        rows,
        title=(f"Figure 13: online adapting on drifted datasets "
               f"(drift detection rate {rate:.0%})"))
    return Fig13Result(without, with_adapting, rate, text)
