"""The shard supervisor: scatter-gather, crash restarts, deadlines, and
the seeded CI fault drill from the issue's acceptance criteria."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.serving import exact_search
from repro.serving import (DegradedServiceError, RetryPolicy, ShardedServer)
from repro.testbed.faults import FaultPlan
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")

#: Fast restarts so the crash drills do not sleep through real backoff.
FAST_RETRY = RetryPolicy(base=0.01, cap=0.05, max_restarts=3)


def make_corpus(n=40, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


def make_queries(q=6, dim=12, seed=1):
    return make_corpus(n=q, dim=dim, seed=seed)


class TestRetryPolicy:
    def test_backoff_doubles_up_to_the_cap(self):
        policy = RetryPolicy(base=0.1, cap=0.5, max_restarts=5)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)   # capped
        assert policy.delay(10) == pytest.approx(0.5)


class TestScatterGather:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_merged_answer_is_bit_for_bit_single_process(self, num_shards):
        embeddings = make_corpus()
        queries = make_queries()
        want_i, want_d = exact_search(queries, embeddings, 5)
        with ShardedServer(embeddings, num_shards=num_shards) as server:
            result = server.search(queries, 5)
        assert not result.degraded
        assert result.coverage == 1.0
        assert result.missing == ()
        assert np.array_equal(result.indices, want_i)
        assert np.array_equal(result.distances, want_d)

    def test_shard_count_is_clamped_to_the_corpus(self):
        with ShardedServer(make_corpus(n=3), num_shards=16) as server:
            assert server.num_shards == 3
            result = server.search(make_queries(q=2), 2)
        assert not result.degraded

    def test_empty_corpus_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ShardedServer(np.zeros((0, 8)))

    def test_non_finite_queries_are_refused(self):
        with ShardedServer(make_corpus(), num_shards=2) as server:
            bad = make_queries()
            bad[0, 0] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                server.search(bad, 3)

    def test_stopped_server_refuses_requests(self):
        server = ShardedServer(make_corpus(), num_shards=2)
        server.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            server.search(make_queries(), 3)


class TestCrashRecovery:
    def test_killed_shard_is_restarted_and_the_request_resent(self):
        embeddings = make_corpus()
        queries = make_queries()
        want_i, _ = exact_search(queries, embeddings, 5)
        plan = FaultPlan(kill_at={1: 2})     # dies picking up request 2
        with ShardedServer(embeddings, num_shards=3, fault_plan=plan,
                           retry=FAST_RETRY) as server:
            for _ in range(4):               # the kill lands mid-stream
                result = server.search(queries, 5)
                assert not result.degraded   # revived + resent, not dropped
                assert np.array_equal(result.indices, want_i)
            assert server.restarts == {1: 1}
            assert server.failed == set()

    def test_restart_exhaustion_fails_the_shard_but_not_the_node(self):
        embeddings = make_corpus()
        queries = make_queries()
        plan = FaultPlan(kill_always=frozenset({0}))
        retry = RetryPolicy(base=0.01, cap=0.02, max_restarts=2)
        with ShardedServer(embeddings, num_shards=2, fault_plan=plan,
                           retry=retry) as server:
            result = server.search(queries, 5)
            assert result.degraded
            assert result.missing == (0,)
            assert server.failed == {0}
            assert server.restarts[0] == 2   # the full backoff budget
            # The healthy shard answers alone, exactly.
            survivors = server.specs[1].global_ids
            want_i, _ = exact_search(queries, embeddings[survivors], 5)
            assert np.array_equal(result.indices, survivors[want_i])
            # Later requests skip the failed shard without re-dialing it.
            again = server.search(queries, 5)
            assert again.degraded and again.missing == (0,)
            assert server.restarts[0] == 2

    def test_every_shard_failed_raises_degraded_service(self):
        plan = FaultPlan(kill_always=frozenset({0}))
        retry = RetryPolicy(base=0.01, cap=0.02, max_restarts=1)
        with ShardedServer(make_corpus(), num_shards=1, fault_plan=plan,
                           retry=retry) as server:
            with pytest.raises(DegradedServiceError):
                server.search(make_queries(), 5)

    def test_hung_worker_is_crashed_via_heartbeat_and_revived(self):
        embeddings = make_corpus()
        queries = make_queries()
        want_i, _ = exact_search(queries, embeddings, 5)
        plan = FaultPlan(slow_at={1: (1, 30.0)})   # far past the heartbeat
        with ShardedServer(embeddings, num_shards=2, fault_plan=plan,
                           retry=FAST_RETRY,
                           heartbeat_timeout=0.3) as server:
            result = server.search(queries, 5)     # no deadline: must heal
            assert not result.degraded
            assert np.array_equal(result.indices, want_i)
            assert server.restarts == {1: 1}


class TestMultiOutstanding:
    """The submit/collect gather: several requests in flight at once,
    responses routed home by request id."""

    def test_out_of_order_collect_merges_each_requests_own_answer(self):
        embeddings = make_corpus()
        q1, q2 = make_queries(seed=1), make_queries(seed=2)
        want1_i, want1_d = exact_search(q1, embeddings, 5)
        want2_i, want2_d = exact_search(q2, embeddings, 5)
        with ShardedServer(embeddings, num_shards=3) as server:
            r1 = server.submit(q1, 5)
            r2 = server.submit(q2, 5)
            # Collecting the *second* request first forces the gather to
            # route request 1's responses to its own map entry meanwhile.
            res2 = server.collect(r2)
            res1 = server.collect(r1)
        for result, (want_i, want_d) in ((res1, (want1_i, want1_d)),
                                         (res2, (want2_i, want2_d))):
            assert not result.degraded
            assert np.array_equal(result.indices, want_i)
            assert np.array_equal(result.distances, want_d)

    def test_collecting_a_request_twice_raises(self):
        with ShardedServer(make_corpus(), num_shards=2) as server:
            req = server.submit(make_queries(), 3)
            server.collect(req)
            with pytest.raises(KeyError, match="already collected"):
                server.collect(req)

    def test_straddling_slow_shard_never_misattributes(self):
        """Regression (multi-outstanding gather): a late answer from a
        deadline-cut request must not be merged into — or satisfy the
        pending set of — a *different* request submitted before the
        straggler woke up."""
        embeddings = make_corpus()
        q1, q2 = make_queries(seed=1), make_queries(seed=2)
        want2_i, want2_d = exact_search(q2, embeddings, 5)
        plan = FaultPlan(slow_at={1: (1, 0.6)})   # stall shard 1 on req 1
        with ShardedServer(embeddings, num_shards=2,
                           fault_plan=plan) as server:
            r1 = server.submit(q1, 5, deadline=0.15)
            r2 = server.submit(q2, 5)             # straddles the stall
            cut = server.collect(r1)
            assert cut.degraded and cut.missing == (1,)
            # Shard 1 wakes up, answers request 1 (now unroutable — it was
            # collected), then serves request 2 for real.  Request 2 must
            # get shard 1's answer to *its own* queries, bit-for-bit.
            fresh = server.collect(r2)
            assert not fresh.degraded
            assert np.array_equal(fresh.indices, want2_i)
            assert np.array_equal(fresh.distances, want2_d)


class TestDeadline:
    def test_slow_shard_is_cut_and_the_response_flagged(self):
        embeddings = make_corpus()
        queries = make_queries()
        plan = FaultPlan(slow_at={1: (1, 1.0)})
        with ShardedServer(embeddings, num_shards=2, fault_plan=plan) as server:
            result = server.search(queries, 5, deadline=0.25)
            assert result.degraded
            assert result.missing == (1,)
            assert result.shard_coverage == {0: 1.0, 1: 0.0}
            expected = len(server.specs[0].global_ids) / len(embeddings)
            assert result.coverage == pytest.approx(expected)
            survivors = server.specs[0].global_ids
            want_i, _ = exact_search(queries, embeddings[survivors], 5)
            assert np.array_equal(result.indices, survivors[want_i])

    def test_late_answer_from_a_cut_shard_is_never_merged_later(self):
        embeddings = make_corpus()
        queries = make_queries()
        want_i, want_d = exact_search(queries, embeddings, 5)
        plan = FaultPlan(slow_at={1: (1, 0.6)})
        with ShardedServer(embeddings, num_shards=2, fault_plan=plan) as server:
            cut = server.search(queries, 5, deadline=0.15)
            assert cut.degraded
            # The next (undeadlined) request must discard the stale answer
            # to request 1 and merge only fresh per-shard results.
            fresh = server.search(queries, 5)
            assert not fresh.degraded
            assert np.array_equal(fresh.indices, want_i)
            assert np.array_equal(fresh.distances, want_d)


class TestAcceptanceFaultDrill:
    """The issue's CI drill: one shard SIGKILLed mid-stream, another slowed
    past its deadline, five queries, nothing dropped, bit-for-bit
    non-degraded answers — twice over, deterministically."""

    N, DIM, K, QUERIES = 60, 12, 5, 5

    def run_drill(self):
        embeddings = make_corpus(n=self.N, dim=self.DIM, seed=7)
        queries = make_queries(q=3, dim=self.DIM, seed=8)
        plan = FaultPlan(
            seed=11,
            kill_at={1: 2},                 # SIGKILL shard 1 at request 2
            slow_at={2: (5, 1.2)},          # stall shard 2 at request 5
        )
        outcomes = []
        with ShardedServer(embeddings, num_shards=3, fault_plan=plan,
                           retry=FAST_RETRY) as server:
            for request in range(1, self.QUERIES + 1):
                # Only the final request carries a tight budget; the kill
                # recovery happens under a generous one.
                deadline = 0.3 if request == self.QUERIES else 30.0
                result = server.search(queries, self.K, deadline=deadline)
                outcomes.append(result)
            restarts = dict(server.restarts)
            shard_members = [spec.global_ids for spec in server.specs]
        return embeddings, queries, outcomes, restarts, shard_members

    def test_drill(self):
        embeddings, queries, outcomes, restarts, members = self.run_drill()
        want_i, want_d = exact_search(queries, embeddings, self.K)

        # No query dropped: every request produced a merged answer.
        assert len(outcomes) == self.QUERIES

        # The killed shard was restarted within the backoff budget.
        assert restarts == {1: 1}

        # Requests 1-4 (including the one that rode through the crash) are
        # complete and bit-for-bit the single-process answer.
        for result in outcomes[:-1]:
            assert not result.degraded
            assert result.coverage == 1.0
            assert np.array_equal(result.indices, want_i)
            assert np.array_equal(result.distances, want_d)

        # Request 5 lost the slowed shard: flagged, with per-shard coverage.
        last = outcomes[-1]
        assert last.degraded
        assert last.missing == (2,)
        assert last.shard_coverage == {0: 1.0, 1: 1.0, 2: 0.0}
        expected = 1.0 - len(members[2]) / self.N
        assert last.coverage == pytest.approx(expected)
        survivors = np.sort(np.concatenate(members[:2]))
        sub_i, _ = exact_search(queries, embeddings[survivors], self.K)
        assert np.array_equal(last.indices, survivors[sub_i])

    def test_drill_is_deterministic(self):
        _, _, first, restarts_a, _ = self.run_drill()
        _, _, second, restarts_b, _ = self.run_drill()
        assert restarts_a == restarts_b
        for a, b in zip(first, second):
            assert a.degraded == b.degraded
            assert a.missing == b.missing
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.distances, b.distances)


@pytest.fixture(scope="module")
def fitted_advisor():
    rng = np.random.default_rng(3)
    graphs, labels = [], []
    for i in range(16):
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, 10)) * 0.3
        vertices[:, 0] += float(i % 3)
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.4
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        labels.append(DatasetLabel(MODELS, rng.uniform(1, 9, 3),
                                   rng.uniform(0.001, 0.01, 3)))
    advisor = AutoCE(AutoCEConfig(
        hidden_dim=16, embedding_dim=8, use_incremental=False,
        dml=DMLConfig(epochs=4, batch_size=8, seed=0), seed=0))
    advisor.fit_graphs(graphs, labels)
    return advisor, graphs


class TestShardedRecommendations:
    def test_matches_the_single_process_advisor(self, fitted_advisor):
        advisor, graphs = fitted_advisor
        want = advisor.recommend_batch(graphs[:5], accuracy_weight=0.8)
        with ShardedServer.from_advisor(advisor, num_shards=3) as server:
            got = server.recommend_batch(graphs[:5], accuracy_weight=0.8)
        assert [rec.model for rec in got] == [rec.model for rec in want]
        for mine, theirs in zip(got, want):
            assert np.array_equal(mine.neighbor_indices,
                                  theirs.neighbor_indices)
            assert np.array_equal(mine.score_vector, theirs.score_vector)
            assert not mine.degraded
            assert mine.coverage == 1.0

    def test_poisoned_embedding_batch_is_refused(self, fitted_advisor):
        advisor, graphs = fitted_advisor
        plan = FaultPlan(seed=5, poison_embedding_at=frozenset({2}))
        with ShardedServer.from_advisor(advisor, num_shards=2,
                                        fault_plan=plan) as server:
            first = server.recommend_batch(graphs[:4])
            assert len(first) == 4           # batch 1 is clean
            with pytest.raises(ValueError, match="non-finite"):
                server.recommend_batch(graphs[4:8])

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_is_rejected(self, fitted_advisor, k):
        advisor, graphs = fitted_advisor
        with ShardedServer.from_advisor(advisor, num_shards=2) as server:
            with pytest.raises(ValueError, match="k must be positive"):
                server.recommend_batch(graphs[:2], k=k)

    def test_from_advisor_requires_a_fitted_rcs(self):
        with pytest.raises(ValueError, match="RCS"):
            ShardedServer.from_advisor(AutoCE(AutoCEConfig()))
