"""The shard supervisor: scatter-gather serving with restarts and deadlines.

:class:`ShardedServer` owns one worker process per RCS shard and is the
only component with a failure policy:

* **Scatter-gather.**  Each search fans the query batch out to every
  healthy shard and merges the per-shard top-k with
  :func:`~repro.serving.sharding.merge_top_k`.  A fully-covered merge is
  bit-for-bit the single-process answer.
* **Crash supervision.**  Worker death is detected from the outside — the
  process sentinel plus a per-shard heartbeat stamp — and the shard is
  restarted under a bounded-exponential :class:`RetryPolicy`.  The
  request the dead worker was holding is *resent* to the new incarnation,
  so a crash delays an answer but never drops one.  A shard that keeps
  dying past ``max_restarts`` is marked failed and permanently cut; the
  rest of the node keeps serving.
* **Deadlines + partial results.**  A request may carry a latency budget
  (seconds).  Shards that have not answered when it expires are cut from
  the merge and the response comes back from the healthy shards with
  ``degraded=True`` and per-shard coverage fractions.  Late responses
  from cut shards are discarded by request id, never merged into a later
  answer.

The gather is **multi-outstanding**: :meth:`ShardedServer.submit` scatters
a request and returns its id immediately, :meth:`ShardedServer.collect`
blocks until that request completes (or its deadline cuts it), and a
``req_id -> pending`` map routes every response — including ones arriving
for a *different* outstanding request — to the request that owns it.
Late answers whose request was already collected or cut resolve to no
map entry and are discarded; a dead shard owes every outstanding request
that still lists it pending, and a revive resends them all in submission
order.  :meth:`ShardedServer.search` is submit + collect, so single-shot
callers keep the synchronous behavior.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass, field

import multiprocessing as mp

import numpy as np

from typing import TYPE_CHECKING, Any

from ..core.serving import ANNConfig, QuantizationConfig, Recommendation
from ..testbed.faults import FaultPlan
from .breaker import BreakerConfig
from .sharding import ShardSpec, merge_top_k, partition_members, tier_ladder
from .worker import ShardRequest, ShardResponse, shard_worker_main

if TYPE_CHECKING:
    from ..core.advisor import AutoCE
    from ..core.graph import FeatureGraph
    from ..db.schema import Dataset

#: Response-queue poll granularity while gathering (seconds).
_POLL = 0.01


class DegradedServiceError(RuntimeError):
    """No healthy shard produced an answer for a request."""


@dataclass
class RetryPolicy:
    """Bounded exponential backoff for shard restarts.

    Restart ``attempt`` (1-based) sleeps ``min(cap, base * 2**(attempt-1))``
    seconds; a shard is abandoned after ``max_restarts`` restarts.
    """

    base: float = 0.05
    cap: float = 1.0
    max_restarts: int = 3

    def delay(self, attempt: int) -> float:
        return min(self.cap, self.base * (2.0 ** (attempt - 1)))


@dataclass
class ShardedSearchResult:
    """One merged answer, annotated with its coverage story.

    ``coverage`` is the fraction of RCS members whose shard contributed to
    the merge (1.0 = the answer equals the single-process result);
    ``shard_coverage`` maps every shard to the fraction of *its* members
    represented (1.0 or 0.0 under whole-shard cuts); ``missing`` lists the
    shards cut by the deadline or permanently failed; ``tiers`` the tier
    each responding shard served at.
    """

    indices: np.ndarray                      # [Q, k'] global member ids
    distances: np.ndarray                    # [Q, k'] distances
    degraded: bool
    coverage: float
    shard_coverage: dict[int, float]
    missing: tuple[int, ...]
    tiers: dict[int, str]
    latency: float = 0.0                     # seconds, supervisor-side


@dataclass
class _PendingRequest:
    """Gather-side state of one outstanding (submitted, uncollected)
    request: the entry behind the ``req_id -> pending`` map."""

    request: ShardRequest
    pending: set[int]                        # shards still owing an answer
    responses: dict[int, ShardResponse] = field(default_factory=dict)
    start: float = 0.0                       # monotonic submission stamp
    deadline: float | None = None


@dataclass
class ShardedRecommendation(Recommendation):
    """A :class:`Recommendation` that admits it may be partial."""

    degraded: bool = False
    coverage: float = 1.0


class ShardedServer:
    """Fault-tolerant sharded serving over an RCS embedding matrix.

    Construct directly from an embedding matrix, or via
    :meth:`from_advisor` to serve a fitted :class:`~repro.core.advisor.
    AutoCE` (which also enables :meth:`recommend_batch`).  The server is a
    context manager; :meth:`stop` tears the workers down.
    """

    def __init__(self, embeddings: np.ndarray, *, num_shards: int = 2,
                 deadline: float | None = None,
                 ann: ANNConfig | None = None,
                 quantization: QuantizationConfig | None = None,
                 breaker: BreakerConfig | None = None,
                 retry: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 probe_every: int = 16,
                 heartbeat_timeout: float = 30.0,
                 seed: int = 0,
                 start_method: str = "fork") -> None:
        embeddings = np.atleast_2d(np.asarray(embeddings))
        if len(embeddings) == 0:
            raise ValueError("cannot shard an empty RCS")
        self.num_members = len(embeddings)
        self.num_shards = max(1, min(num_shards, self.num_members))
        self.deadline = deadline
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan or FaultPlan()
        self.heartbeat_timeout = heartbeat_timeout
        self._advisor = None
        self._ctx = mp.get_context(start_method)
        breaker = breaker or BreakerConfig()
        self.specs = [
            ShardSpec(shard_id=s, global_ids=ids, embeddings=embeddings[ids],
                      ann=ann, quantization=quantization, breaker=breaker,
                      probe_every=probe_every, seed=seed)
            for s, ids in enumerate(
                partition_members(self.num_members, self.num_shards))
        ]
        self._req_queues = [self._ctx.Queue() for _ in self.specs]
        self._resp_queue = self._ctx.Queue()
        self._heartbeats = [self._ctx.Value("d", 0.0) for _ in self.specs]
        self._procs: list = [None] * self.num_shards
        self._incarnations = [0] * self.num_shards
        self.restarts: dict[int, int] = {}
        self.failed: set[int] = set()
        self.last_errors: dict[int, str] = {}
        self._tiers: dict[int, str] = {
            spec.shard_id: tier_ladder(len(spec.global_ids), ann)[0]
            for spec in self.specs}
        self._req_id = 0
        self._outstanding: dict[int, _PendingRequest] = {}
        self._embed_batches = 0
        self._stopped = False
        for s in range(self.num_shards):
            self._spawn(s)

    @classmethod
    def from_advisor(cls, advisor: AutoCE,
                     **kwargs: Any) -> "ShardedServer":
        """Shard a fitted advisor's RCS, inheriting its tier configs
        unless overridden."""
        rcs = advisor.rcs
        if rcs is None or len(rcs) == 0:
            raise ValueError("advisor has no fitted RCS to shard")
        kwargs.setdefault("ann", rcs.ann_config)
        kwargs.setdefault("quantization", rcs.quantization)
        rcs_embeddings = rcs.embeddings
        # Tier-preserving copy: the shards serve at the RCS serving dtype.
        server = cls(np.array(rcs_embeddings, dtype=rcs_embeddings.dtype),
                     **kwargs)
        server._advisor = advisor
        return server

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self, shard_id: int) -> None:
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(self.specs[shard_id], self.fault_plan,
                  self._incarnations[shard_id],
                  self._req_queues[shard_id], self._resp_queue,
                  self._heartbeats[shard_id]),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        self._procs[shard_id] = proc

    def _revive(self, shard_id: int) -> bool:
        """Restart a dead shard under the retry policy.

        Returns False once the shard has exhausted ``max_restarts`` — it
        joins the permanently-failed set and is cut from every future
        scatter.
        """
        attempt = self.restarts.get(shard_id, 0) + 1
        if attempt > self.retry.max_restarts:
            self.failed.add(shard_id)
            return False
        old = self._procs[shard_id]
        if old is not None:
            old.join(timeout=1.0)
        time.sleep(self.retry.delay(attempt))
        # Drop any request the dead worker left unconsumed so the resend
        # below cannot double-serve it on the new incarnation.
        try:
            while True:
                self._req_queues[shard_id].get_nowait()
        except queue_module.Empty:
            pass
        self.restarts[shard_id] = attempt
        self._incarnations[shard_id] += 1
        self._spawn(shard_id)
        return True

    def stop(self) -> None:
        """Orderly shutdown: stop sentinel per worker, then terminate
        stragglers."""
        if self._stopped:
            return
        self._stopped = True
        for shard_id, proc in enumerate(self._procs):
            if proc is None:
                continue
            if proc.is_alive():
                try:
                    self._req_queues[shard_id].put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
        for q in (*self._req_queues, self._resp_queue):
            q.close()

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- serving -----------------------------------------------------------
    def search(self, queries: np.ndarray, k: int,
               deadline: float | None = None) -> ShardedSearchResult:
        """Scatter-gather top-k over the healthy shards (submit + collect).

        ``deadline`` (seconds, overrides the server default) bounds the
        gather: shards still pending at expiry are cut and the merge is
        returned degraded.  With every shard cut or failed the request is
        unanswerable and :class:`DegradedServiceError` is raised.
        """
        return self.collect(self.submit(queries, k, deadline=deadline))

    def submit(self, queries: np.ndarray, k: int,
               deadline: float | None = None) -> int:
        """Scatter a request to the healthy shards and return its id.

        The request joins the outstanding map immediately; any number may
        be in flight at once (the daemon's micro-batch pipeline submits
        the next batch while the previous one gathers).  Collect each id
        exactly once with :meth:`collect`.
        """
        if self._stopped:
            raise RuntimeError("server is stopped")
        queries = np.atleast_2d(np.asarray(queries))
        if not np.all(np.isfinite(queries)):
            raise ValueError(
                "query embeddings contain non-finite values; refusing to "
                "serve NaN/inf queries (their distances are meaningless)")
        deadline = self.deadline if deadline is None else deadline
        start = time.monotonic()
        self._req_id += 1
        request = ShardRequest(req_id=self._req_id, queries=queries, k=k)
        pending: set[int] = set()
        for shard_id in range(self.num_shards):
            if shard_id in self.failed:
                continue
            # Lazily revive shards found dead between requests (e.g. cut
            # by a previous deadline and crashed while we were not
            # looking).  The revive resends every older outstanding
            # request the shard still owes before this one is queued.
            if not self._procs[shard_id].is_alive():
                if not self._revive_and_resend(shard_id):
                    continue
            self._req_queues[shard_id].put(request)
            pending.add(shard_id)
        self._outstanding[request.req_id] = _PendingRequest(
            request=request, pending=pending, start=start,
            deadline=deadline)
        return request.req_id

    def collect(self, req_id: int) -> ShardedSearchResult:
        """Gather the merged answer for one submitted request.

        Responses for *other* outstanding requests that arrive while this
        one waits are routed to their own map entries, never dropped;
        responses whose request was already collected (or cut by its
        deadline) resolve to no entry and are discarded.
        """
        state = self._outstanding.get(req_id)
        if state is None:
            raise KeyError(
                f"request {req_id} is unknown or already collected")
        while state.pending:
            if state.deadline is not None:
                remaining = state.deadline - (time.monotonic() - state.start)
                if remaining <= 0:
                    break                     # cut whatever is still pending
            else:
                remaining = None
            self._rescue_dead(remaining)
            timeout = _POLL if remaining is None else min(_POLL, remaining)
            try:
                resp: ShardResponse = self._resp_queue.get(
                    timeout=max(timeout, 1e-4))
            except queue_module.Empty:
                continue
            self._route(resp)
        # Dropping the entry before merging makes any answer that arrives
        # past this point (a deadline-cut straggler) unroutable by
        # construction — it can never be mis-attributed to a later request.
        del self._outstanding[req_id]
        return self._merge(state)

    def _route(self, resp: ShardResponse) -> None:
        """File one response under the outstanding request that owns it."""
        state = self._outstanding.get(resp.req_id)
        if state is None:
            return                            # late answer from a cut request
        if resp.shard_id not in state.pending:
            return                            # duplicate after a resend race
        state.pending.discard(resp.shard_id)
        self._tiers[resp.shard_id] = resp.tier
        if resp.ok:
            state.responses[resp.shard_id] = resp
        else:
            self.last_errors[resp.shard_id] = resp.error or "unknown"

    def _owed(self, shard_id: int) -> list[_PendingRequest]:
        """Outstanding requests still waiting on a shard, oldest first
        (dict order is submission order: req_ids ascend)."""
        return [state for state in self._outstanding.values()
                if shard_id in state.pending]

    def _revive_and_resend(self, shard_id: int) -> bool:
        """Revive a dead shard and resend everything it still owes."""
        if not self._revive(shard_id):
            for state in self._owed(shard_id):
                state.pending.discard(shard_id)     # failed for good
            return False
        for state in self._owed(shard_id):
            self._req_queues[shard_id].put(state.request)
        return True

    def _rescue_dead(self, remaining: float | None) -> None:
        """Restart-and-resend for owed shards whose worker died or hung.

        A dead worker is revived only while the collecting request's
        remaining budget can absorb the backoff sleep; otherwise the shard
        stays pending and the deadline cuts it (a later submit or collect
        revives it).
        """
        owed: set[int] = set()
        for state in self._outstanding.values():
            owed |= state.pending
        for shard_id in sorted(owed):
            proc = self._procs[shard_id]
            dead = not proc.is_alive()
            if not dead and self.heartbeat_timeout > 0:
                now = time.monotonic()
                # Hung = the oldest request owing this shard has waited at
                # least a full timeout since its scatter AND the worker's
                # heartbeat is that stale too (an idle worker's old stamp
                # alone is not a hang).
                oldest = min(state.start
                             for state in self._owed(shard_id))
                stale = (now - self._heartbeats[shard_id].value
                         > self.heartbeat_timeout
                         and now - oldest > self.heartbeat_timeout)
                if stale:                     # hung mid-request: crash it
                    proc.kill()
                    proc.join(timeout=1.0)
                    dead = True
            if not dead:
                continue
            attempt = self.restarts.get(shard_id, 0) + 1
            if (remaining is not None
                    and self.retry.delay(attempt) >= remaining):
                continue                      # let the deadline cut it
            self._revive_and_resend(shard_id)

    def _merge(self, state: _PendingRequest) -> ShardedSearchResult:
        request, responses, start = (state.request, state.responses,
                                     state.start)
        if not responses:
            raise DegradedServiceError(
                "no healthy shard answered the request "
                f"(failed shards: {sorted(self.failed)})")
        covered = sum(len(self.specs[s].global_ids) for s in responses)
        shard_coverage = {
            s: (1.0 if s in responses else 0.0)
            for s in range(self.num_shards)
        }
        missing = tuple(s for s in range(self.num_shards)
                        if s not in responses)
        indices, distances = merge_top_k(
            [responses[s].indices for s in sorted(responses)],
            [responses[s].distances for s in sorted(responses)],
            request.k)
        return ShardedSearchResult(
            indices=indices, distances=distances,
            degraded=bool(missing),
            coverage=covered / self.num_members,
            shard_coverage=shard_coverage,
            missing=missing,
            tiers={s: responses[s].tier for s in responses},
            latency=time.monotonic() - start,
        )

    def recommend_batch(self, datasets: list[Dataset] | list[FeatureGraph],
                        accuracy_weight: float = 1.0,
                        k: int | None = None,
                        deadline: float | None = None
                        ) -> list[ShardedRecommendation]:
        """Batched Eq. 13 over the sharded search path.

        Requires construction via :meth:`from_advisor` (the advisor embeds
        the queries and owns the score labels).  Non-degraded results are
        identical to ``advisor.recommend_batch``.
        """
        if self._advisor is None:
            raise ValueError(
                "recommend_batch requires a server built with from_advisor")
        if not datasets:
            return []
        k = self._advisor.predictor.resolve_k(k)
        self._embed_batches += 1
        embeddings = self._advisor.embed_many(datasets)
        embeddings = self.fault_plan.poison_embeddings(
            embeddings, self._embed_batches)
        result = self.search(embeddings, k, deadline=deadline)
        rcs = self._advisor.rcs
        scores = rcs.score_matrix(accuracy_weight)[result.indices].mean(axis=1)
        best = np.argmax(scores, axis=1)
        names = rcs.model_names
        return [
            ShardedRecommendation(
                model=names[int(best[i])],
                score_vector=scores[i],
                model_names=names,
                neighbor_indices=result.indices[i],
                neighbor_distances=result.distances[i],
                degraded=result.degraded,
                coverage=result.coverage,
            )
            for i in range(len(embeddings))
        ]

    # -- introspection -----------------------------------------------------
    def tier_report(self) -> list[str]:
        """Human-readable per-shard serving state for ``repro serve``."""
        lines = []
        for spec in self.specs:
            shard_id = spec.shard_id
            if shard_id in self.failed:
                status = "FAILED"
            elif self._procs[shard_id].is_alive():
                status = "up"
            else:
                status = "down"
            lines.append(
                f"shard {shard_id}: {len(spec.global_ids)} members, "
                f"tier={self._tiers[shard_id]}, "
                f"status={status}, "
                f"restarts={self.restarts.get(shard_id, 0)}")
        return lines
