"""Table storage: validation, selection, column classification."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ones_mask_select
from repro.db.table import PK_COLUMN, Table


def make_table():
    return Table("t", {
        PK_COLUMN: np.arange(5),
        "fk_parent": np.array([0, 1, 1, 2, 0]),
        "col0": np.array([3, 1, 4, 1, 5]),
        "col1": np.array([9, 2, 6, 5, 3]),
    })


class TestConstruction:
    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            Table("t", {"a": np.arange(3), "b": np.arange(4)})

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {})

    def test_values_cast_to_int64(self):
        t = Table("t", {"a": np.array([1.0, 2.0])})
        assert t["a"].dtype == np.int64

    def test_num_rows(self):
        assert make_table().num_rows == 5


class TestColumnClassification:
    def test_data_columns(self):
        assert make_table().data_columns() == ["col0", "col1"]

    def test_fk_columns(self):
        assert make_table().fk_columns() == ["fk_parent"]

    def test_has_pk(self):
        assert make_table().has_pk
        assert not Table("x", {"col0": np.arange(3)}).has_pk

    def test_contains(self):
        t = make_table()
        assert "col0" in t and "nope" not in t


class TestSelect:
    def test_single_predicate(self):
        t = make_table()
        mask = t.select([("col0", 1, 3)])
        np.testing.assert_array_equal(mask, [True, True, False, True, False])

    def test_conjunction(self):
        t = make_table()
        mask = t.select([("col0", 1, 4), ("col1", 5, 9)])
        np.testing.assert_array_equal(mask, [True, False, True, True, False])

    def test_empty_predicates_all_true(self):
        assert make_table().select([]).all()

    def test_empty_range(self):
        mask = make_table().select([("col0", 100, 200)])
        assert not mask.any()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_masks_match_the_all_ones_start(self, count):
        """The mask an all-ones start gives, for 1-3 predicates, empty and
        full results included."""
        rng = np.random.default_rng(count)
        table = Table("t", {f"c{i}": rng.integers(0, 10, 200)
                            for i in range(3)})
        cases = [[(f"c{i}", 0, 9) for i in range(count)],
                 [(f"c{i}", 10, 20) for i in range(count)]]
        for _ in range(40):
            cases.append([(f"c{i}", *sorted(rng.integers(-1, 11, 2).tolist()))
                          for i in rng.choice(3, size=count)])
        counts = set()
        for predicates in cases:
            mask = table.select(predicates)
            np.testing.assert_array_equal(
                mask, ones_mask_select(table, predicates), strict=True)
            counts.add(int(mask.sum()))
        assert {0, 200} <= counts and len(counts) > 5


class TestMisc:
    def test_domain_size(self):
        assert make_table().domain_size("col0") == 4

    def test_take(self):
        t = make_table().take(np.array([0, 2]))
        assert t.num_rows == 2
        np.testing.assert_array_equal(t["col0"], [3, 4])

    def test_repr(self):
        assert "t" in repr(make_table())
