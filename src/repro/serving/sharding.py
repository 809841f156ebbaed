"""RCS sharding: partitioning, the per-shard runtime, and the top-k merge.

A sharded serving node splits the RCS into ``num_shards`` independent
slices.  Each slice is owned by one worker process holding its own
:class:`ShardRuntime` — embeddings, the int8 candidate store when *that
slice's* size calls for it (the RCS rule,
:func:`~repro.core.serving.serves_int8`), and a
:class:`~repro.serving.breaker.TierBreaker` walking the slice's tier
ladder.  The supervisor scatters query embeddings to every shard and
merges the per-shard top-k with the same lowest-index tie-breaking as the
single-process path, so a fully-covered merge is bit-for-bit the answer
the unsharded advisor would have produced.

Partitioning is round-robin on the member index: shard ``s`` owns members
``s, s + S, s + 2S, ...``.  Round-robin keeps shard sizes balanced within
one member and — unlike contiguous ranges — spreads any temporal structure
in the corpus (members are appended in labeling order) evenly, so no
shard degenerates into "all the datasets from one generation".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.serving import (ANNConfig, QuantizationConfig, QuantizedStore,
                            exact_search, serves_int8)
from .breaker import BreakerConfig, ShardHealth, TierBreaker

#: The full tier-degradation ladder, best tier first.  Each shard serves
#: the longest suffix its slice supports (see :func:`tier_ladder`).
FULL_LADDER = ("int8", "exact")


def partition_members(num_members: int, num_shards: int) -> list[np.ndarray]:
    """Round-robin member partition: shard ``s`` owns ``s, s+S, s+2S, ...``.

    Shards beyond the member count come back empty (the supervisor clamps
    the shard count, but the function stays total).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    members = np.arange(num_members, dtype=np.int64)
    return [members[s::num_shards] for s in range(num_shards)]


def merge_top_k(indices_parts: list[np.ndarray],
                distances_parts: list[np.ndarray],
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ([Q, k_s] global ids, [Q, k_s] distances) to top-k.

    Ties break by lowest global member index — the same rule as
    :func:`~repro.core.serving.top_k_neighbors` — so a merge over shards
    that each searched exactly reproduces the single-process result
    bit-for-bit.  Shards may contribute fewer than ``k`` columns (slices
    smaller than k, or shards cut from a degraded response); the merge
    returns ``min(k, total available)`` columns.
    """
    parts_i = [np.atleast_2d(p) for p in indices_parts if p is not None]
    parts_d = [np.atleast_2d(p) for p in distances_parts if p is not None]
    if not parts_i or sum(p.shape[1] for p in parts_i) == 0:
        q = parts_i[0].shape[0] if parts_i else 0
        return (np.empty((q, 0), dtype=np.int64),
                np.empty((q, 0), dtype=np.float64))
    idx = np.concatenate(parts_i, axis=1)
    dist = np.concatenate(parts_d, axis=1)
    k = min(k, idx.shape[1])
    order = np.lexsort((idx, dist), axis=1)[:, :k]
    return (np.take_along_axis(idx, order, axis=1),
            np.take_along_axis(dist, order, axis=1))


def tier_ladder(size: int, ann: ANNConfig | None) -> tuple[str, ...]:
    """The ladder a shard slice of ``size`` members serves under.

    A slice the RCS rule keeps on the exact scan has nothing to demote;
    one it sends to the int8 tier can fall back to the exact scan.
    """
    return FULL_LADDER if serves_int8(size, ann) else FULL_LADDER[-1:]


@dataclass
class ShardSpec:
    """Everything a worker needs to build its :class:`ShardRuntime`.

    Plain arrays and config dataclasses only, so the spec pickles cleanly
    through a spawn-context process boundary.
    """

    shard_id: int
    global_ids: np.ndarray                 # [n_s] member ids in the full RCS
    embeddings: np.ndarray                 # [n_s, d] the shard's slice
    ann: ANNConfig | None = None
    quantization: QuantizationConfig | None = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Replay a recall self-probe every this many requests (0 disables).
    probe_every: int = 16
    #: Members sampled (and k used) by the recall self-probe.
    probe_sample: int = 8
    probe_k: int = 5
    seed: int = 0


class ShardRuntime:
    """One shard's serving state: embeddings, int8 store, breaker.

    The runtime serves global member ids (mapped through the shard's
    ``global_ids``) so the supervisor's merge never sees shard-local
    indices.  The int8 store is built on first use and kept across
    demotions, so a re-promotion does not requantize the slice.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.shard_id = spec.shard_id
        self.global_ids = np.asarray(spec.global_ids, dtype=np.int64)
        self.embeddings = np.atleast_2d(np.asarray(spec.embeddings))
        if len(self.global_ids) != len(self.embeddings):
            raise ValueError("global_ids and embeddings must align")
        self.ladder = tier_ladder(len(self.embeddings), spec.ann)
        self.breaker = TierBreaker(self.ladder, spec.breaker)
        self._store: QuantizedStore | None = None
        self.requests_served = 0
        self.last_health = ShardHealth()
        self._rng = np.random.default_rng(spec.seed + 7919 * spec.shard_id)

    def __len__(self) -> int:
        return len(self.global_ids)

    # -- tiers ------------------------------------------------------------
    def _store_for(self, tier: str) -> QuantizedStore | None:
        """The int8 store when ``tier`` is "int8" (None = exact)."""
        if tier == "exact" or len(self) == 0:
            return None
        if self._store is None:
            self._store = QuantizedStore(self.embeddings,
                                         self.spec.quantization)
        return self._store

    def scramble_store(self, tier: str | None = None) -> None:
        """Deterministically corrupt a tier's codes (fault-injection hook).

        Overwrites the live code matrix with seeded noise while leaving the
        calibration in place, modeling a quantizer whose codes have rotted
        (bad restore, bit flips, stale snapshot).  Candidate selection at
        that tier degrades; the float re-rank keeps returned distances
        exact, so the damage is visible only through recall — exactly the
        failure the breaker's recall probe exists to catch.
        """
        store = self._store_for(tier or self.breaker.tier)
        if store is None:
            return
        codes = store.codes
        noise = self._rng.integers(0, 127, size=codes.shape)
        codes[...] = noise.astype(codes.dtype)
        # Drop the store's GEMM memo so the scrambled codes are what the
        # next search actually reads.
        store._codes_float = None

    # -- serving ----------------------------------------------------------
    def search(self, queries: np.ndarray, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """([Q, k'] global member ids, [Q, k'] distances), k' = min(k, n).

        Serves at the breaker's current tier, replays the recall self-probe
        on schedule, and feeds the observation back into the breaker.
        """
        queries = np.atleast_2d(np.asarray(queries))
        n = len(self)
        if n == 0 or k <= 0:
            empty = np.empty((len(queries), 0), dtype=np.float64)
            return empty.astype(np.int64), empty
        self.requests_served += 1
        tier = self.breaker.tier
        store = self._store_for(tier)
        if store is None:
            local, dist = exact_search(queries, self.embeddings, min(k, n))
        else:
            local, dist = store.search(queries, self.embeddings, min(k, n))
        # Shard slices are frozen after the scatter partition, so the
        # quantizer drift counter (an online-add observable) stays zero
        # here; the breaker still honors it for runtimes that grow.
        health = ShardHealth(recall_probe=self._maybe_probe(tier, store))
        self.last_health = health
        self.breaker.observe(health)
        return self.global_ids[local], dist

    def _maybe_probe(self, tier: str,
                     store: QuantizedStore | None) -> float | None:
        """Recall@k of the current tier vs the exact scan, on schedule.

        Replays a seeded sample of the shard's own members.  Scan-shaped
        exact serving needs no probe — it *is* the ground truth.
        """
        spec = self.spec
        if (tier == "exact" or store is None or spec.probe_every <= 0
                or self.requests_served % spec.probe_every != 0):
            return None
        n = len(self)
        sample = min(spec.probe_sample, n)
        if sample == 0:
            return None
        rows = self._rng.choice(n, size=sample, replace=False)
        k = min(spec.probe_k, n)
        approx, _ = store.search(self.embeddings[rows], self.embeddings, k)
        exact, _ = exact_search(self.embeddings[rows], self.embeddings, k)
        return float(np.mean([len(set(a) & set(e)) / k
                              for a, e in zip(approx, exact)]))
