"""The executor's join kernels against the binary-search kernels they
replaced.

:class:`Executor` joins a parent (PK side) with a bitmap probe over the
parent's scanned rows, left unsorted by an index scan, and a child (FK
side) with counting bounds.  :class:`ReferenceExecutor` keeps the previous
scan, which sorts every index scan's rows, and the previous kernels: a
``searchsorted`` membership probe over the sorted parent rows, and two
``searchsorted`` bounds over the stably sorted child FK values.  Both must
return the same row indexes for every table, in the same order and dtype.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from oracles import ones_mask_select
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.counting import count_join
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import PK_COLUMN, Table
from repro.engine.execution import Executor
from repro.engine.optimizer import Optimizer
from repro.engine.plans import JoinNode, PlanNode, ScanNode
from repro.engine.providers import CallableProvider, TrueCardProvider
from repro.workload.generator import generate_query
from repro.workload.query import Predicate, Query


class ReferenceExecutor(Executor):
    """The executor with the sorting scan over an all-ones selection mask,
    and the binary-search join kernels."""

    def _scan(self, node: ScanNode) -> np.ndarray:
        table = self.dataset[node.table]
        if not node.predicates:
            return np.arange(table.num_rows, dtype=np.int64)
        if node.method == "index":
            # Use the sorted index for the first predicate, refine the rest.
            first, *rest = node.predicates
            values, order = self._sorted_index(node.table, first.column)
            lo = np.searchsorted(values, first.lo, side="left")
            hi = np.searchsorted(values, first.hi, side="right")
            rows = order[lo:hi]
            for pred in rest:
                column = table[pred.column][rows]
                rows = rows[(column >= pred.lo) & (column <= pred.hi)]
            return np.sort(rows)
        mask = ones_mask_select(
            table, [(p.column, p.lo, p.hi) for p in node.predicates])
        return np.nonzero(mask)[0].astype(np.int64)

    def _execute_node(self, node: PlanNode) -> dict[str, np.ndarray]:
        if isinstance(node, ScanNode):
            return {node.table: self._scan(node)}

        left = self._execute_node(node.left)
        right_rows = self._scan(node.right)
        fk = node.fk

        if fk.child in left:
            fk_values = self.dataset[fk.child][fk.fk_column][left[fk.child]]
            if node.method == "indexnl" and len(node.right.predicates) == 0:
                result = {name: rows for name, rows in left.items()}
                result[fk.parent] = fk_values
                return result
            if len(right_rows) == 0:
                keep = np.zeros(len(fk_values), dtype=bool)
            else:
                positions = np.searchsorted(right_rows, fk_values)
                positions = np.minimum(positions, len(right_rows) - 1)
                keep = right_rows[positions] == fk_values
            result = {name: rows[keep] for name, rows in left.items()}
            result[fk.parent] = fk_values[keep]
            return result

        child = self.dataset[fk.child]
        fk_values = child[fk.fk_column][right_rows]
        order = np.argsort(fk_values, kind="stable")
        sorted_fk = fk_values[order]
        parent_keys = self.dataset[fk.parent][PK_COLUMN][left[fk.parent]]
        starts = np.searchsorted(sorted_fk, parent_keys, side="left")
        stops = np.searchsorted(sorted_fk, parent_keys, side="right")
        fanouts = stops - starts
        total = int(fanouts.sum())
        keep = np.repeat(np.arange(len(parent_keys)), fanouts)
        offsets = np.concatenate(([0], np.cumsum(fanouts)))[:-1]
        within = np.arange(total) - np.repeat(offsets, fanouts)
        child_positions = order[np.repeat(starts, fanouts) + within]
        result = {name: rows[keep] for name, rows in left.items()}
        result[fk.child] = right_rows[child_positions]
        return result


def assert_same_rows(dataset: Dataset, plan: PlanNode) -> dict:
    """Both executors' per-table row arrays: equal values, order, dtype."""
    actual = Executor(dataset)._execute_node(plan)
    expected = ReferenceExecutor(dataset)._execute_node(plan)
    assert list(actual) == list(expected)
    for table, rows in expected.items():
        np.testing.assert_array_equal(actual[table], rows, strict=True)
    return actual


def skewed_estimate(dataset: Dataset):
    """True counts scaled by 10^-3 .. 10^3, fixed per table set, so the
    optimizer picks join orders and methods TrueCard would not."""
    def estimate(query: Query) -> float:
        key = ",".join(sorted(query.tables)).encode()
        scale = 10.0 ** (zlib.crc32(key) % 7 - 3)
        return scale * count_join(dataset, query.tables,
                                  query.predicate_tuples())
    return estimate


def random_left_deep_plan(dataset: Dataset, query: Query,
                          rng: np.random.Generator) -> PlanNode:
    """A random connected join order with random scan and join methods."""
    def scan(table: str) -> ScanNode:
        preds = tuple(p for p in query.predicates if p.table == table)
        return ScanNode(table, preds, str(rng.choice(["seq", "index"])))

    remaining = list(query.tables)
    first = remaining.pop(int(rng.integers(len(remaining))))
    plan: PlanNode = scan(first)
    joined = {first}
    while remaining:
        options = [t for t in remaining
                   if any(dataset.fk_between(t, j) for j in joined)]
        table = options[int(rng.integers(len(options)))]
        remaining.remove(table)
        fk = next(dataset.fk_between(table, j) for j in joined
                  if dataset.fk_between(table, j))
        methods = ["hash", "indexnl"] if fk.parent == table else ["hash"]
        plan = JoinNode(plan, scan(table), fk, str(rng.choice(methods)))
        joined.add(table)
    return plan


# ----------------------------------------------------------------------
# Random plans on generated datasets
# ----------------------------------------------------------------------
#: Spec seeds whose datasets have 3-5 tables, so plans join on both sides.
SPEC_SEEDS = [s for s in range(40) if random_spec(s).num_tables >= 3][:4]


@pytest.fixture(scope="module", params=SPEC_SEEDS)
def generated(request):
    dataset = generate_dataset(random_spec(request.param))
    rng = np.random.default_rng(request.param)
    templates = [t for t in dataset.connected_subsets() if len(t) > 1]
    queries = [generate_query(dataset, rng, templates) for _ in range(12)]
    return dataset, queries


class TestGeneratedDatasets:
    def test_spec_seeds_have_joins(self):
        assert len(SPEC_SEEDS) == 4

    @pytest.mark.parametrize("provider", ["truecard", "skewed"])
    def test_optimizer_plans(self, generated, provider):
        dataset, queries = generated
        source = (TrueCardProvider(dataset) if provider == "truecard"
                  else CallableProvider(skewed_estimate(dataset)))
        optimizer = Optimizer(dataset)
        for query in queries:
            plan = optimizer.plan(query, source).plan
            rows = assert_same_rows(dataset, plan)
            assert len(next(iter(rows.values()))) == count_join(
                dataset, query.tables, query.predicate_tuples())

    def test_random_left_deep_plans(self, generated):
        dataset, queries = generated
        rng = np.random.default_rng(7)
        for query in queries:
            for _ in range(3):
                rows = assert_same_rows(
                    dataset, random_left_deep_plan(dataset, query, rng))
                assert len(next(iter(rows.values()))) == count_join(
                    dataset, query.tables, query.predicate_tuples())


# ----------------------------------------------------------------------
# Hand-built edge cases
# ----------------------------------------------------------------------
def star_dataset() -> Dataset:
    """``p`` (30 rows) has two children: ``c1`` references p 0..19 only,
    so p 20..29 have zero fanout through it, and ``c2`` references p
    0..29 with repeats; ``g`` references ``c1``."""
    rng = np.random.default_rng(3)
    p = Table("p", {PK_COLUMN: np.arange(30), "a": rng.integers(0, 6, 30)})
    c1 = Table("c1", {PK_COLUMN: np.arange(60),
                      "fk_p": rng.integers(0, 20, 60),
                      "b": rng.integers(0, 5, 60)})
    c2 = Table("c2", {"fk_p": rng.integers(0, 30, 45),
                      "c": rng.integers(0, 4, 45)})
    g = Table("g", {"fk_c1": rng.integers(0, 60, 80),
                    "d": rng.integers(0, 3, 80)})
    return Dataset("star", [p, c1, c2, g], [
        ForeignKey("c1", "fk_p", "p"), ForeignKey("c2", "fk_p", "p"),
        ForeignKey("g", "fk_c1", "c1")])


STAR = star_dataset()
P_C1 = ForeignKey("c1", "fk_p", "p")
P_C2 = ForeignKey("c2", "fk_p", "p")
C1_G = ForeignKey("g", "fk_c1", "c1")
NOTHING = 1_000  # above every data column's domain


def scan(table: str, *ranges, method: str = "seq") -> ScanNode:
    preds = tuple(Predicate(table, column, lo, hi)
                  for column, lo, hi in ranges)
    return ScanNode(table, preds, method)


class TestEdgeCases:
    @pytest.mark.parametrize("method", ["hash", "indexnl"])
    def test_empty_right_scan_on_the_pk_side(self, method):
        plan = JoinNode(scan("c1"), scan("p", ("a", NOTHING, NOTHING)),
                        P_C1, method)
        rows = assert_same_rows(STAR, plan)
        assert len(rows["p"]) == 0 and rows["c1"].dtype == np.int64

    def test_empty_right_scan_on_the_fk_side(self):
        plan = JoinNode(scan("p"), scan("c1", ("b", NOTHING, NOTHING)),
                        P_C1)
        rows = assert_same_rows(STAR, plan)
        assert len(rows["c1"]) == 0

    @pytest.mark.parametrize("left, right, fk", [
        ("c1", "p", P_C1),   # empty left, parent added
        ("p", "c1", P_C1),   # empty left, child added
    ])
    def test_empty_left_side(self, left, right, fk):
        empty = scan(left, ("a" if left == "p" else "b", NOTHING, NOTHING))
        rows = assert_same_rows(STAR, JoinNode(empty, scan(right), fk))
        assert all(len(r) == 0 for r in rows.values())

    @pytest.mark.parametrize("child_ranges", [(), (("b", 1, 3),)])
    @pytest.mark.parametrize("parent_ranges", [(), (("a", 0, 2),)])
    def test_fk_side_with_and_without_child_predicates(self, child_ranges,
                                                       parent_ranges):
        plan = JoinNode(scan("p", *parent_ranges), scan("c1", *child_ranges),
                        P_C1)
        rows = assert_same_rows(STAR, plan)
        assert len(rows["c1"]) > 0

    def test_parents_with_zero_fanout(self):
        # p 20..29 match no c1 row; only p 0..19 may survive.
        rows = assert_same_rows(STAR, JoinNode(scan("p"), scan("c1"), P_C1))
        assert len(rows["c1"]) == 60
        assert rows["p"].max() < 20

    @pytest.mark.parametrize("method", ["hash", "indexnl"])
    def test_repeated_parent_keys_then_a_second_child(self, method):
        # c2 -> p repeats p's keys in the left input; c1 then joins on them.
        reach = JoinNode(scan("c2", ("c", 0, 2)), scan("p", ("a", 0, 4)),
                         P_C2, method)
        for child_ranges in [(), (("b", 0, 2),)]:
            plan = JoinNode(reach, scan("c1", *child_ranges), P_C1)
            rows = assert_same_rows(STAR, plan)
            assert len(np.unique(rows["p"])) < len(rows["p"])
            assert len(rows["c1"]) == count_join(
                STAR, ("c1", "c2", "p"),
                [("c2", "c", 0, 2), ("p", "a", 0, 4)]
                + [("c1", *r) for r in child_ranges])

    @pytest.mark.parametrize("parents", [200, 40_000, 70_000])
    def test_fk_side_sort_keys_of_every_width(self, parents):
        """The FK side sorts its FK values as uint8, uint16 or uint32,
        whichever holds a parent row; the order is the int64 one."""
        rng = np.random.default_rng(parents)
        dataset = Dataset("wide", [
            Table("p", {PK_COLUMN: np.arange(parents),
                        "a": rng.integers(0, 4, parents)}),
            Table("c", {"fk_p": rng.integers(0, parents, 6_000),
                        "b": rng.integers(0, 5, 6_000)})],
            [ForeignKey("c", "fk_p", "p")])
        for child_ranges in [(), (("b", 1, 3),)]:
            plan = JoinNode(scan("p", ("a", 0, 2)), scan("c", *child_ranges),
                            ForeignKey("c", "fk_p", "p"))
            rows = assert_same_rows(dataset, plan)
            assert len(rows["c"]) == count_join(
                dataset, ("c", "p"), [("p", "a", 0, 2)]
                + [("c", *r) for r in child_ranges])

    @pytest.mark.parametrize("scan_method", ["seq", "index"])
    def test_index_nl_with_parent_predicates(self, scan_method):
        plan = JoinNode(scan("g", ("d", 0, 1)),
                        scan("c1", ("b", 1, 3), method=scan_method),
                        C1_G, "indexnl")
        plan = JoinNode(plan, scan("p", ("a", 2, 5), method=scan_method),
                        P_C1, "indexnl")
        rows = assert_same_rows(STAR, plan)
        assert 0 < len(rows["g"]) < 80

    @pytest.mark.parametrize("method", ["hash", "indexnl"])
    def test_pk_side_index_scan_with_two_predicates(self, method):
        # c1's rows by b are not in row order, and fk_p refines them.
        parent = scan("c1", ("b", 1, 3), ("fk_p", 4, 15), method="index")
        rows = Executor(STAR)._scan(parent, ordered=False)
        assert not np.all(np.diff(rows) > 0)
        plan = JoinNode(scan("g", ("d", 0, 1)), parent, C1_G, method)
        plan = JoinNode(plan, scan("p", ("a", 1, 5), ("a", 0, 4),
                                   method="index"), P_C1, method)
        rows = assert_same_rows(STAR, plan)
        assert 0 < len(rows["g"]) == count_join(
            STAR, ("c1", "g", "p"), [("g", "d", 0, 1), ("c1", "b", 1, 3),
                                     ("c1", "fk_p", 4, 15), ("p", "a", 1, 4)])

    @pytest.mark.parametrize("method", ["seq", "index"])
    def test_an_unordered_scan_holds_the_ordered_rows(self, method):
        executor = Executor(STAR)
        node = scan("c1", ("b", 0, 2), ("fk_p", 3, 12), method=method)
        ordered = executor._scan(node)
        assert np.all(np.diff(ordered) > 0)
        np.testing.assert_array_equal(
            np.sort(executor._scan(node, ordered=False)), ordered,
            strict=True)
        # An unordered scan may be a view of the index, which stays intact.
        assert executor._scan(node).tobytes() == ordered.tobytes()

    @pytest.mark.parametrize("method", ["seq", "index"])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_scans_match_the_reference(self, method, count):
        """Rows, order and int64 dtype of 1-3 predicate scans, empty and
        full results included, ordered and (for the PK side) not."""
        rng = np.random.default_rng(count)
        columns = [("b", 5), ("fk_p", 20), ("pk", 60)]
        cases = [[(c, 0, NOTHING) for c, _ in columns[:count]],
                 [(c, NOTHING, NOTHING) for c, _ in columns[:count]],
                 [(c, -5, -1) for c, _ in columns[:count]][::-1]]
        for _ in range(30):
            picked = rng.choice(3, size=count, replace=count > 3)
            cases.append([(columns[i][0], *sorted(rng.integers(
                -1, columns[i][1] + 2, 2).tolist())) for i in picked])
        executor, reference = Executor(STAR), ReferenceExecutor(STAR)
        sizes = set()
        for ranges in cases:
            node = scan("c1", *ranges, method=method)
            expected = reference._scan(node)
            actual = executor._scan(node)
            np.testing.assert_array_equal(actual, expected, strict=True)
            np.testing.assert_array_equal(
                np.sort(executor._scan(node, ordered=False)), expected,
                strict=True)
            sizes.add(len(expected))
        assert {0, 60} <= sizes and len(sizes) > 5

    def test_index_nl_without_parent_predicates_scans_no_parent(self):
        scanned = []

        class Recording(Executor):
            def _scan(self, node, ordered=True):
                scanned.append(node.table)
                return super()._scan(node, ordered)

        plan = JoinNode(scan("g", ("d", 0, 1)), scan("c1"), C1_G, "indexnl")
        Recording(STAR)._execute_node(plan)
        assert scanned == ["g"]
        assert_same_rows(STAR, plan)

    def test_every_connected_order_of_the_star(self):
        rng = np.random.default_rng(11)
        query = Query(("c1", "c2", "g", "p"), (
            Predicate("p", "a", 1, 4), Predicate("c1", "b", 0, 3),
            Predicate("g", "d", 0, 1)))
        expected = count_join(STAR, query.tables, query.predicate_tuples())
        for _ in range(40):
            rows = assert_same_rows(
                STAR, random_left_deep_plan(STAR, query, rng))
            assert len(rows["g"]) == expected
