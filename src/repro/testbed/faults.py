"""Deterministic fault injection for the serving runtime and its storage.

Every failure mode the fault-tolerant serving runtime claims to survive —
a SIGKILLed shard worker, a shard stalled past its deadline, a torn or
corrupted cache entry, a NaN-poisoned embedding — is reproducible from
one seeded :class:`FaultPlan`.  The plan is a plain
picklable dataclass: the supervisor ships it to every worker process, the
workers consult it at fixed hook points (keyed by their request ordinal),
and the storage helpers derive all randomness from the plan seed, so a CI
fault drill replays bit-identically on every run.

Hook points:

* **worker loop** — :meth:`FaultPlan.should_kill` /
  :meth:`FaultPlan.sleep_seconds` / :meth:`FaultPlan.scramble_tier` fire
  on the worker's (shard, ordinal, incarnation) coordinates.  Kill and
  slow faults target a worker's *first* incarnation only, so a restarted
  shard serves cleanly — unless the shard is listed in ``kill_always``,
  which models a permanently poisoned shard for restart-exhaustion tests.
* **embedding path** — :meth:`FaultPlan.poison_embeddings` overwrites a
  query batch's rows with NaN at the configured batch ordinals, modeling
  a poisoned cache row or an encoder NaN blow-up.
* **storage** — :meth:`FaultPlan.tear_file` truncates a file mid-payload
  (a torn write surviving a crash) and :meth:`FaultPlan.corrupt_file`
  flips seeded bytes in place (bit rot, bad sector).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class FaultPlan:
    """A seeded, picklable schedule of injected faults.

    Ordinals are 1-based request counters, worker-local (each worker
    counts its own requests).  An empty plan injects nothing, so the
    production path can thread a plan unconditionally.
    """

    seed: int = 0
    #: shard id -> request ordinal: SIGKILL the worker as it picks up that
    #: request (first incarnation only — restarts serve cleanly).
    kill_at: dict[int, int] = field(default_factory=dict)
    #: shard ids whose workers die on *every* request, every incarnation
    #: (restart-exhaustion drills).
    kill_always: frozenset = frozenset()
    #: shard id -> (ordinal, seconds): stall before serving that request
    #: (first incarnation only).
    slow_at: dict[int, tuple[int, float]] = field(default_factory=dict)
    #: shard id -> ordinal: deterministically scramble the shard's current
    #: quantized tier's codes before serving (recall degradation drills).
    scramble_at: dict[int, int] = field(default_factory=dict)
    #: supervisor-side embed-batch ordinals whose embeddings are poisoned
    #: with NaN rows.
    poison_embedding_at: frozenset = frozenset()
    #: Fraction of a file kept by :meth:`tear_file`.
    tear_fraction: float = 0.5
    #: Bytes flipped by :meth:`corrupt_file`.
    corrupt_bytes: int = 8

    # -- worker-loop hooks ------------------------------------------------
    def should_kill(self, shard_id: int, ordinal: int,
                    incarnation: int) -> bool:
        if shard_id in self.kill_always:
            return True
        return incarnation == 0 and self.kill_at.get(shard_id) == ordinal

    def kill_now(self) -> None:  # pragma: no cover - the process dies
        """SIGKILL the calling process — no cleanup, no goodbye message,
        exactly the crash the supervisor must detect from outside."""
        os.kill(os.getpid(), signal.SIGKILL)

    def sleep_seconds(self, shard_id: int, ordinal: int,
                      incarnation: int) -> float:
        if incarnation != 0:
            return 0.0
        at, seconds = self.slow_at.get(shard_id, (0, 0.0))
        return float(seconds) if at == ordinal else 0.0

    def maybe_stall(self, shard_id: int, ordinal: int,
                    incarnation: int) -> None:
        seconds = self.sleep_seconds(shard_id, ordinal, incarnation)
        if seconds > 0:
            time.sleep(seconds)

    def scramble_tier(self, shard_id: int, ordinal: int,
                      incarnation: int) -> bool:
        return (incarnation == 0
                and self.scramble_at.get(shard_id) == ordinal)

    # -- embedding-path hook ----------------------------------------------
    def poison_embeddings(self, embeddings: np.ndarray,
                          batch_ordinal: int) -> np.ndarray:
        """NaN-poison a batch's rows when its ordinal is scheduled.

        Returns a poisoned copy (the cache's pristine rows are never
        mutated); unscheduled batches pass through untouched.
        """
        if batch_ordinal not in self.poison_embedding_at:
            return embeddings
        poisoned = np.array(embeddings, copy=True)
        rng = np.random.default_rng(self.seed + batch_ordinal)
        rows = max(1, len(poisoned))
        row = int(rng.integers(rows)) if len(poisoned) else 0
        if len(poisoned):
            poisoned[row, :: 2] = np.nan
            poisoned[row, 1:: 2] = np.inf
        return poisoned

    # -- storage hooks ----------------------------------------------------
    def tear_file(self, path: str | Path) -> None:
        """Truncate ``path`` to ``tear_fraction`` of its bytes: the torn
        write a crashed process leaves behind when its writes were not
        routed through an atomic temp-file replace."""
        path = Path(path)
        size = path.stat().st_size
        keep = int(size * self.tear_fraction)
        with open(path, "rb+") as handle:
            handle.truncate(keep)

    def corrupt_file(self, path: str | Path) -> None:
        """Flip ``corrupt_bytes`` seeded byte positions of ``path`` in
        place (bit rot: size unchanged, payload silently wrong)."""
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            return
        rng = np.random.default_rng(self.seed)
        for pos in rng.integers(0, len(data), size=self.corrupt_bytes):
            data[int(pos)] ^= 0xFF
        path.write_bytes(bytes(data))
