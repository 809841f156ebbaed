"""Per-shard tier degradation: a circuit breaker over the serving tiers.

Every shard serves its slice of the RCS at the best tier its size
supports — flat int8 codes from the size threshold up, the plain float
scan as the floor.  A tier is an *optimization*, never a correctness
contract, so a misbehaving tier (a quantizer whose codes have drifted off
the corpus geometry) must not take the shard down: it is demoted one rung
down the ladder and the shard keeps serving.

:class:`TierBreaker` is the deterministic state machine that drives the
demotions.  It watches the health observables the serving path already
exposes — the recall self-probe the shard runtime replays against the
exact scan, the quantizer drift-recalibration counter, and serving
errors — and walks a fixed ladder (e.g. ``("int8", "exact")``).  Classic
circuit-breaker states:

* **closed** — the current tier is healthy; consecutive unhealthy
  observations are counted and ``failure_threshold`` of them trip the
  breaker one rung down.
* **open** — serving at the demoted tier; after ``cooldown`` consecutive
  healthy requests the breaker half-opens.
* **half-open** — the next requests are served at the *promoted* tier as
  probes; ``promote_threshold`` consecutive healthy probes re-promote,
  one unhealthy probe re-opens (and the cooldown restarts).

Everything is request-counted, not wall-clock-timed, so the fault drills
replay bit-identically in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ShardHealth:
    """One observation of a shard's serving health after a request.

    ``recall_probe`` is the recall@k of the shard's current tier against
    the exact scan on a replayed member sample (None = no probe this
    request); ``drift_events`` counts quantizer drift recalibrations since
    the previous observation; ``errors`` counts serving exceptions.
    """

    recall_probe: float | None = None
    drift_events: int = 0
    errors: int = 0


@dataclass
class BreakerConfig:
    """Thresholds of the tier breaker (all request-counted)."""

    #: Consecutive unhealthy observations that trip a demotion.
    failure_threshold: int = 3
    #: Healthy requests at the demoted tier before a half-open probe.
    cooldown: int = 16
    #: Consecutive healthy half-open probes that earn re-promotion.
    promote_threshold: int = 2
    #: An observation is unhealthy when a recall probe lands below this
    #: (the tier's candidate codes no longer rank true neighbors into the
    #: re-rank pool) ...
    min_recall: float = 0.8
    #: ... or more than this many drift recalibrations hit one request
    #: window (the corpus has outrun the frozen calibration repeatedly).
    max_drift_events: int = 2

    def is_healthy(self, health: ShardHealth) -> bool:
        if health.errors > 0:
            return False
        if (health.recall_probe is not None
                and health.recall_probe < self.min_recall):
            return False
        return health.drift_events <= self.max_drift_events


@dataclass
class TierBreaker:
    """Walks ``ladder`` down on failure, back up via half-open probes.

    ``tier`` is the tier the *next* request must be served at; call
    :meth:`observe` with the health observation of each served request.
    The last ladder rung (by convention the exact float scan) cannot be
    demoted past — it is the correctness floor, not an optimization.
    """

    ladder: tuple[str, ...]
    config: BreakerConfig = field(default_factory=BreakerConfig)
    position: int = 0
    state: str = "closed"                   # closed | open | half_open
    consecutive_failures: int = 0
    healthy_streak: int = 0
    probe_successes: int = 0
    demotions: int = 0
    promotions: int = 0

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ValueError("tier ladder must name at least one tier")

    @property
    def tier(self) -> str:
        """The tier to serve the next request at (the probe tier while
        half-open)."""
        if self.state == "half_open" and self.position > 0:
            return self.ladder[self.position - 1]
        return self.ladder[self.position]

    @property
    def degraded(self) -> bool:
        """True while serving below the top ladder rung."""
        return self.position > 0

    def observe(self, health: ShardHealth) -> str:
        """Record one served request's health; returns the next tier."""
        healthy = self.config.is_healthy(health)
        if self.state == "half_open":
            self._observe_probe(healthy)
        elif self.state == "open":
            self._observe_open(healthy)
        else:
            self._observe_closed(healthy)
        return self.tier

    # -- state transitions ------------------------------------------------
    def _observe_closed(self, healthy: bool) -> None:
        if healthy:
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if (self.consecutive_failures >= self.config.failure_threshold
                and self.position + 1 < len(self.ladder)):
            self.position += 1
            self.demotions += 1
            self.consecutive_failures = 0
            self.healthy_streak = 0
            self.state = "open"

    def _observe_open(self, healthy: bool) -> None:
        if not healthy:
            # The demoted tier is unhealthy too: keep demoting while there
            # is ladder left (the floor rung absorbs everything).
            self.healthy_streak = 0
            self._observe_closed(healthy)
            if self.state == "closed":
                self.state = "open"
            return
        self.healthy_streak += 1
        if self.healthy_streak >= self.config.cooldown and self.position > 0:
            self.state = "half_open"
            self.probe_successes = 0

    def _observe_probe(self, healthy: bool) -> None:
        if not healthy:
            # Failed probe: stay demoted, restart the cooldown.
            self.state = "open"
            self.healthy_streak = 0
            self.probe_successes = 0
            return
        self.probe_successes += 1
        if self.probe_successes >= self.config.promote_threshold:
            self.position -= 1
            self.promotions += 1
            self.state = "closed" if self.position == 0 else "open"
            self.healthy_streak = 0
            self.consecutive_failures = 0
