"""Dataset schemas: FK validation, join-graph utilities."""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.graph import build_feature_graph
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.io import load_dataset, save_dataset
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import PK_COLUMN, Table


def chain_dataset():
    """a <- b <- c (b references a, c references b)."""
    a = Table("a", {PK_COLUMN: np.arange(4), "col0": np.arange(4)})
    b = Table("b", {PK_COLUMN: np.arange(6), "fk_a": np.array([0, 1, 1, 2, 3, 0]),
                    "col0": np.arange(6)})
    c = Table("c", {"fk_b": np.array([0, 2, 5, 5]), "col0": np.arange(4)})
    return Dataset("chain", [a, b, c],
                   [ForeignKey("b", "fk_a", "a"), ForeignKey("c", "fk_b", "b")])


class TestValidation:
    def test_fk_column_prefix_enforced(self):
        with pytest.raises(ValueError):
            ForeignKey("b", "a_ref", "a")

    def test_unknown_table_rejected(self):
        a = Table("a", {PK_COLUMN: np.arange(3), "col0": np.arange(3)})
        with pytest.raises(ValueError, match="unknown table"):
            Dataset("d", [a], [ForeignKey("b", "fk_a", "a")])

    def test_fk_out_of_range_rejected(self):
        a = Table("a", {PK_COLUMN: np.arange(2), "col0": np.arange(2)})
        b = Table("b", {"fk_a": np.array([0, 5]), "col0": np.arange(2)})
        with pytest.raises(ValueError, match="outside"):
            Dataset("d", [a, b], [ForeignKey("b", "fk_a", "a")])

    def test_missing_pk_rejected(self):
        a = Table("a", {"col0": np.arange(2)})
        b = Table("b", {"fk_a": np.array([0, 1]), "col0": np.arange(2)})
        with pytest.raises(ValueError, match="primary key"):
            Dataset("d", [a, b], [ForeignKey("b", "fk_a", "a")])

    def test_duplicate_table_names_rejected(self):
        a = Table("a", {"col0": np.arange(2)})
        with pytest.raises(ValueError, match="duplicate"):
            Dataset("d", [a, a], [])

    def test_zero_tables_rejected(self):
        with pytest.raises(ValueError, match="at least one table"):
            Dataset("empty", [], [])

    def test_cycle_rejected(self):
        a = Table("a", {PK_COLUMN: np.arange(2), "fk_b": np.array([0, 1]),
                        "col0": np.arange(2)})
        b = Table("b", {PK_COLUMN: np.arange(2), "fk_a": np.array([0, 1]),
                        "col0": np.arange(2)})
        with pytest.raises(ValueError, match="acyclic"):
            Dataset("d", [a, b],
                    [ForeignKey("b", "fk_a", "a"), ForeignKey("a", "fk_b", "b")])


class TestGraphUtilities:
    def test_connected_subsets_chain(self):
        ds = chain_dataset()
        subsets = ds.connected_subsets()
        assert ("a",) in subsets
        assert ("a", "b") in subsets
        assert ("b", "c") in subsets
        assert ("a", "b", "c") in subsets
        assert ("a", "c") not in subsets  # not adjacent

    def test_connected_subsets_max_size(self):
        ds = chain_dataset()
        subsets = ds.connected_subsets(max_size=2)
        assert all(len(s) <= 2 for s in subsets)

    def test_is_connected_subset(self):
        ds = chain_dataset()
        assert ds.is_connected_subset(("a", "b"))
        assert not ds.is_connected_subset(("a", "c"))
        assert ds.is_connected_subset(("b",))

    def test_fk_between(self):
        ds = chain_dataset()
        fk = ds.fk_between("a", "b")
        assert fk.child == "b" and fk.parent == "a"
        assert ds.fk_between("a", "c") is None

    def test_subset_edges(self):
        ds = chain_dataset()
        edges = ds.subset_edges(("a", "b", "c"))
        assert len(edges) == 2
        assert len(ds.subset_edges(("a", "c"))) == 0

    def test_join_correlation(self):
        ds = chain_dataset()
        fk = ds.fk_between("a", "b")
        # b.fk_a has distinct values {0,1,2,3} over a's 4 keys.
        assert ds.join_correlation(fk) == pytest.approx(1.0)

    def test_total_rows(self):
        assert chain_dataset().total_rows == 14

    def test_getitem(self):
        assert chain_dataset()["a"].name == "a"


def reference_join_correlation(dataset: Dataset, fk: ForeignKey) -> float:
    """The definition (Sec. V-A): distinct FK values over parent keys."""
    parent = dataset[fk.parent]
    return len(np.unique(dataset[fk.child][fk.fk_column])) / parent.num_rows


def parent_child(parent_rows: int, fk_values) -> tuple[Dataset, ForeignKey]:
    fk_values = np.asarray(fk_values, dtype=np.int64)
    parent = Table("p", {PK_COLUMN: np.arange(parent_rows),
                         "col0": np.arange(parent_rows) % 7})
    child = Table("c", {"fk_p": fk_values, "col0": np.zeros(len(fk_values))})
    fk = ForeignKey("c", "fk_p", "p")
    return Dataset("pc", [parent, child], [fk]), fk


class TestJoinCorrelationDefinition:
    """``join_correlation`` is bitwise its definition.  The fast and the
    reference featurizer both call it, so only this pins it."""

    @staticmethod
    def assert_bitwise(dataset: Dataset, fk: ForeignKey) -> None:
        actual = dataset.join_correlation(fk)
        assert type(actual) is float
        assert actual.hex() == reference_join_correlation(dataset, fk).hex()

    @pytest.mark.parametrize("parent_rows, fk_values", [
        pytest.param(9, [], id="empty-child"),
        pytest.param(9, [4] * 25, id="one-repeated-key"),
        pytest.param(6, [5, 0, 3, 1, 4, 2, 2, 0], id="every-key-referenced"),
        pytest.param(11, [10, 0, 10, 3], id="largest-key"),
        pytest.param(1, [0, 0, 0], id="one-parent-row"),
    ])
    def test_edge_cases(self, parent_rows, fk_values):
        self.assert_bitwise(*parent_child(parent_rows, fk_values))

    def test_generated_datasets(self):
        checked = 0
        for spec_seed in range(50):
            dataset = generate_dataset(random_spec(spec_seed))
            for fk in dataset.foreign_keys:
                self.assert_bitwise(dataset, fk)
                checked += 1
        assert checked > 50

    @seed(16)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda rows: st.tuples(
        st.just(rows), st.lists(st.integers(0, rows - 1), max_size=400))))
    def test_random_fk_columns(self, case):
        self.assert_bitwise(*parent_child(*case))


# ----------------------------------------------------------------------
# The forest rule (union-find) and the join graph built on first use
# ----------------------------------------------------------------------
FOREST_ERROR = "join graph must be acyclic (a forest)"


def reference_graph(tables, foreign_keys) -> nx.Graph:
    """The eager join graph and forest check ``Dataset`` ran before: a
    duplicate table pair (either direction) or ``nx.is_forest`` failing
    raises ``FOREST_ERROR``."""
    graph = nx.Graph()
    graph.add_nodes_from(tables)
    for fk in foreign_keys:
        if graph.has_edge(fk.child, fk.parent):
            raise ValueError(FOREST_ERROR)
        graph.add_edge(fk.child, fk.parent, fk=fk)
    if not nx.is_forest(graph):
        raise ValueError(FOREST_ERROR)
    return graph


def fk_dataset(num_tables: int, pairs) -> tuple[list[Table], list[ForeignKey]]:
    """Tables t0..t{n-1} with one FK column per (child, parent) pair."""
    columns = {i: {PK_COLUMN: np.arange(3), "col0": np.arange(3)}
               for i in range(num_tables)}
    foreign_keys = []
    for k, (child, parent) in enumerate(pairs):
        columns[child][f"fk_{k}"] = np.array([0, 2, 1])
        foreign_keys.append(ForeignKey(f"t{child}", f"fk_{k}", f"t{parent}"))
    tables = [Table(f"t{i}", columns[i]) for i in range(num_tables)]
    return tables, foreign_keys


def verdict(build) -> str:
    try:
        build()
    except ValueError as error:
        return str(error)
    return "ok"


def assert_same_verdict(num_tables: int, pairs) -> str:
    tables, foreign_keys = fk_dataset(num_tables, pairs)
    expected = verdict(lambda: reference_graph(
        [t.name for t in tables], foreign_keys))
    assert verdict(lambda: Dataset("d", tables, foreign_keys)) == expected
    return expected


class TestForestRule:
    @pytest.mark.parametrize("num_tables, pairs, expected", [
        pytest.param(1, [], "ok", id="one-table"),
        pytest.param(3, [(1, 0), (2, 1)], "ok", id="chain"),
        pytest.param(4, [(1, 0), (2, 0), (3, 0)], "ok", id="star"),
        pytest.param(5, [(1, 0), (3, 2)], "ok", id="two-components"),
        pytest.param(6, [(1, 0), (2, 0), (4, 3)], "ok",
                     id="multi-component-with-isolated-table"),
        pytest.param(3, [(1, 0), (2, 1), (0, 2)], FOREST_ERROR,
                     id="three-cycle"),
        pytest.param(4, [(1, 0), (2, 1), (3, 2), (3, 0)], FOREST_ERROR,
                     id="four-cycle"),
        pytest.param(2, [(0, 0)], FOREST_ERROR, id="self-reference"),
        pytest.param(3, [(1, 0), (2, 2)], FOREST_ERROR,
                     id="self-reference-beside-a-tree"),
        pytest.param(2, [(1, 0), (1, 0)], FOREST_ERROR, id="duplicate-pair"),
        pytest.param(2, [(1, 0), (0, 1)], FOREST_ERROR,
                     id="reversed-duplicate-pair"),
        pytest.param(5, [(1, 0), (3, 2), (4, 3), (2, 4)], FOREST_ERROR,
                     id="cycle-in-second-component"),
    ])
    def test_cases(self, num_tables, pairs, expected):
        assert assert_same_verdict(num_tables, pairs) == expected

    @seed(18)
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=7))))
    def test_union_find_equals_networkx(self, case):
        """Random FK sets, self-references and duplicates in either
        direction included: same verdict, same message."""
        assert_same_verdict(*case)

    def test_other_errors_still_come_first(self):
        tables, foreign_keys = fk_dataset(2, [(1, 0), (0, 1)])
        foreign_keys.append(ForeignKey("t9", "fk_x", "t0"))
        with pytest.raises(ValueError, match="unknown table"):
            Dataset("d", tables, foreign_keys)


#: The cached properties behind the graph methods.
GRAPH_MEMOS = ("_neighbours", "_connected")


def built_memos(dataset: Dataset) -> list[str]:
    return [name for name in GRAPH_MEMOS if name in vars(dataset)]


class TestJoinGraphOnFirstUse:
    def test_construct_and_load_build_no_graph(self, tmp_path):
        for spec_seed in range(6):
            dataset = generate_dataset(random_spec(spec_seed))
            rebuilt = Dataset(dataset.name, list(dataset.tables.values()),
                              dataset.foreign_keys)
            path = str(tmp_path / f"{spec_seed}.npz")
            save_dataset(rebuilt, path)
            loaded = load_dataset(path)
            assert loaded.num_tables == dataset.num_tables
            # Featurizing, as serving does next, needs no graph either.
            graph = build_feature_graph(loaded)
            assert graph.edges.tobytes() == \
                build_feature_graph(dataset).edges.tobytes()
            assert built_memos(rebuilt) == built_memos(loaded) == []

    def test_graph_methods_build_it(self):
        dataset = chain_dataset()
        dataset.fk_between("a", "b")
        assert built_memos(dataset) == ["_neighbours"]
        dataset.is_connected_subset(("a", "b"))
        assert built_memos(dataset) == list(GRAPH_MEMOS)
        other = chain_dataset()
        other.connected_subsets()
        assert built_memos(other) == list(GRAPH_MEMOS)

    def test_answers_are_copies_of_the_memo(self):
        dataset = chain_dataset()
        dataset.connected_subsets().append(("x",))
        assert ("x",) not in dataset.connected_subsets()
        assert not dataset.is_connected_subset(("x",))

    @pytest.mark.parametrize("tables", [
        (), ("a", "a"), ("b", "b", "a"), ("a", "missing"), ("missing",)])
    def test_empty_repeated_and_unknown_names_are_not_templates(self, tables):
        assert not chain_dataset().is_connected_subset(tables)

    @pytest.mark.parametrize("spec_seed", range(50))
    def test_graph_methods_match_the_eager_graph(self, spec_seed):
        dataset = generate_dataset(random_spec(spec_seed))
        names = dataset.table_names
        graph = reference_graph(names, dataset.foreign_keys)
        for a, b in itertools.product(names + ["missing"], repeat=2):
            expected = (graph.edges[a, b]["fk"] if graph.has_edge(a, b)
                        else None)
            assert dataset.fk_between(a, b) == expected
        for size in range(1, len(names) + 1):
            for tables in itertools.permutations(names, size):
                sub = graph.subgraph(tables)
                expected = (tables[0] in names if size == 1 else
                            sub.number_of_nodes() == size
                            and nx.is_connected(sub))
                assert dataset.is_connected_subset(tables) == expected
        for max_size in (None, 1, 2, 3):
            limit = max_size or len(names)
            expected = sorted(
                tuple(sorted(tables)) for size in range(1, limit + 1)
                for tables in itertools.combinations(names, size)
                if nx.is_connected(graph.subgraph(tables)))
            assert dataset.connected_subsets(max_size) == expected

    @seed(24)
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=6))))
    def test_random_forests_match_networkx(self, case):
        """Random FK forests (isolated tables and several components
        included): every table subset's verdict and every FK lookup equal
        the networkx reference's."""
        num_tables, pairs = case
        tables, foreign_keys = fk_dataset(num_tables, pairs)
        names = [t.name for t in tables]
        try:
            graph = reference_graph(names, foreign_keys)
        except ValueError:
            return  # not a forest; TestForestRule covers the refusal
        dataset = Dataset("d", tables, foreign_keys)
        for a, b in itertools.product(names, repeat=2):
            expected = (graph.edges[a, b]["fk"] if graph.has_edge(a, b)
                        else None)
            assert dataset.fk_between(a, b) == expected
        expected = [tuple(sorted(subset)) for size in range(1, num_tables + 1)
                    for subset in itertools.combinations(names, size)
                    if nx.is_connected(graph.subgraph(subset))]
        assert dataset.connected_subsets() == sorted(expected)
        for size in range(1, num_tables + 1):
            for subset in itertools.combinations(names, size):
                assert dataset.is_connected_subset(subset) == (
                    tuple(sorted(subset)) in expected)
