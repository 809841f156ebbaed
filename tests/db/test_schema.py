"""Dataset schemas: FK validation, join-graph utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
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
