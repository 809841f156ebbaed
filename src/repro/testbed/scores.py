"""Score normalization, score vectors and D-error (Sec. IV-B2, Def. 1).

A dataset's *label* is the per-model performance measured by the testbed:
mean Q-error and mean inference latency for every candidate model.  Under a
user weighting ``w = (w_a, w_e)`` these are min–max normalized per dataset
(Eqs. 3–4) and combined into a score vector (Eq. 2); the model with the
highest score is optimal, and D-error (Def. 1) measures how far a selected
model's score falls short of the optimum.

Two label classes share one interface:

* :class:`DatasetLabel` — computed from raw testbed measurements.
* :class:`ScoreLabel` — holds normalized scores directly; produced by the
  Mixup augmentation of the incremental-learning phase (Eq. 14), where
  labels are interpolated in normalized-score space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Floor applied to normalized scores so that D-error (which divides by the
#: selected model's score) stays finite when the worst model is selected.
SCORE_FLOOR = 1e-3

#: The paper varies the accuracy weight from 0 to 1 with a step of 0.1.
WEIGHT_GRID: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(11))


def minmax_scores(values: np.ndarray) -> np.ndarray:
    """Eq. 3 / Eq. 4: (max - v) / (max - min); best (smallest) value → 1."""
    values = np.asarray(values, dtype=np.float64)
    v_max = values.max()
    v_min = values.min()
    if v_max <= v_min:
        return np.ones_like(values)
    return (v_max - values) / (v_max - v_min)


@dataclass
class ScoreLabel:
    """Normalized per-model scores (S_a, S_e) for one (possibly synthetic) dataset."""

    model_names: tuple[str, ...]
    sa: np.ndarray
    se: np.ndarray

    def __post_init__(self):
        self.sa = np.asarray(self.sa, dtype=np.float64)
        self.se = np.asarray(self.se, dtype=np.float64)
        if len(self.model_names) != len(self.sa) or len(self.model_names) != len(self.se):
            raise ValueError("model_names and score arrays must have equal length")

    # ------------------------------------------------------------------
    @property
    def num_models(self) -> int:
        return len(self.model_names)

    def index_of(self, model: str) -> int:
        return self.model_names.index(model)

    def score_vector(self, accuracy_weight: float) -> np.ndarray:
        """Eq. 2: S = w_a · S_a + w_e · S_e with w_e = 1 − w_a."""
        if not 0.0 <= accuracy_weight <= 1.0:
            raise ValueError(f"accuracy weight must be in [0, 1], got {accuracy_weight}")
        w_e = 1.0 - accuracy_weight
        scores = accuracy_weight * self.sa + w_e * self.se
        return np.maximum(scores, SCORE_FLOOR)

    def best_model(self, accuracy_weight: float) -> str:
        return self.model_names[int(np.argmax(self.score_vector(accuracy_weight)))]

    def d_error(self, model: str, accuracy_weight: float,
                clip: float | None = 1.0) -> float:
        """Def. 1: (S_opt − S_M) / S_M for the selected model ``M``.

        ``clip`` bounds the error at 1 (100 %) as in the paper's reporting;
        pass ``clip=None`` for the raw value.
        """
        scores = self.score_vector(accuracy_weight)
        s_opt = float(scores.max())
        s_model = float(scores[self.index_of(model)])
        error = (s_opt - s_model) / s_model
        if clip is not None:
            error = min(error, clip)
        return error

    def mix_with(self, other: "ScoreLabel", lam: float) -> "ScoreLabel":
        """Eq. 14 (label half): ⃗y' = λ·⃗y_i + (1−λ)·⃗y_j in normalized space."""
        if self.model_names != other.model_names:
            raise ValueError("cannot mix labels over different model sets")
        return ScoreLabel(
            model_names=self.model_names,
            sa=lam * self.sa + (1.0 - lam) * other.sa,
            se=lam * self.se + (1.0 - lam) * other.se,
        )


#: Accuracy statistics a label may be re-normalized on (Sec. IV-B2 note:
#: "it is possible to use other percentiles of the metrics, such as 50-th,
#: 95-th, and 99-th of Q-error").
ACCURACY_METRICS: tuple[str, ...] = ("mean", "median", "p95", "p99")


class DatasetLabel(ScoreLabel):
    """Raw per-model testbed measurements, normalized on construction."""

    def subset(self, names: list[str] | tuple[str, ...]) -> "DatasetLabel":
        """Re-normalized label over a subset of models.

        Eq. 3/4 normalize over the candidate set M, so restricting M (e.g.
        to query-driven models for the CEB experiment, Table III) requires
        renormalizing from the raw metrics.
        """
        def cut(array):
            return None if array is None else array[indices]

        indices = [self.index_of(n) for n in names]
        return DatasetLabel(
            model_names=tuple(names),
            qerror_means=self.qerror_means[indices],
            latency_means=self.latency_means[indices],
            qerror_medians=cut(self.qerror_medians),
            fit_times=cut(self.fit_times),
            qerror_p95=cut(self.qerror_p95),
            qerror_p99=cut(self.qerror_p99),
        )

    def __init__(self, model_names: tuple[str, ...], qerror_means,
                 latency_means, qerror_medians=None, fit_times=None,
                 qerror_p95=None, qerror_p99=None):
        def as_array(values):
            return (None if values is None
                    else np.asarray(values, dtype=np.float64))

        self.qerror_means = np.asarray(qerror_means, dtype=np.float64)
        self.latency_means = np.asarray(latency_means, dtype=np.float64)
        self.qerror_medians = as_array(qerror_medians)
        self.fit_times = as_array(fit_times)
        self.qerror_p95 = as_array(qerror_p95)
        self.qerror_p99 = as_array(qerror_p99)
        super().__init__(
            model_names=tuple(model_names),
            sa=minmax_scores(self.qerror_means),
            se=minmax_scores(self.latency_means),
        )

    # ------------------------------------------------------------------
    # Alternative accuracy statistics (Sec. IV-B2 note)
    # ------------------------------------------------------------------
    def accuracy_stat(self, metric: str = "mean") -> np.ndarray:
        """Raw per-model Q-error statistic: mean, median, p95 or p99."""
        arrays = {
            "mean": self.qerror_means,
            "median": self.qerror_medians,
            "p95": self.qerror_p95,
            "p99": self.qerror_p99,
        }
        if metric not in arrays:
            raise ValueError(
                f"unknown accuracy metric {metric!r}; choose from {ACCURACY_METRICS}")
        values = arrays[metric]
        if values is None:
            raise ValueError(
                f"label was measured without the {metric!r} statistic; "
                "re-run the testbed to record Q-error percentiles")
        return values

    def with_accuracy_metric(self, metric: str) -> "ScoreLabel":
        """Label re-normalized on a different Q-error statistic (Eq. 3).

        The efficiency half (Eq. 4) is unchanged; only the accuracy scores
        are recomputed from the chosen percentile.
        """
        return ScoreLabel(
            model_names=self.model_names,
            sa=minmax_scores(self.accuracy_stat(metric)),
            se=self.se,
        )
