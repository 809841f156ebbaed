"""Queries, workload generation and featurization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.counting import count_join
from repro.workload.encoding import QueryEncoder
from repro.workload.generator import generate_workload
from repro.workload.query import Predicate, Query


class TestQuery:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Predicate("t", "col0", 5, 4)

    def test_duplicate_tables_rejected(self):
        with pytest.raises(ValueError):
            Query(("a", "a"))

    def test_predicate_outside_from_rejected(self):
        with pytest.raises(ValueError):
            Query(("a",), (Predicate("b", "col0", 0, 1),))

    def test_template_sorted(self):
        q = Query(("b", "a"))
        assert q.template == ("a", "b")

    def test_num_joins(self):
        assert Query(("a",)).num_joins == 0
        assert Query(("a", "b", "c")).num_joins == 2

    def test_restrict(self):
        q = Query(("a", "b"), (Predicate("a", "col0", 0, 1),
                               Predicate("b", "col0", 2, 3)))
        sub = q.restrict(("a",))
        assert sub.tables == ("a",)
        assert len(sub.predicates) == 1

    def test_restrict_equals_the_constructed_sub_query(self):
        """``restrict`` skips ``__post_init__``; what it builds is still
        the ``Query`` the constructor builds."""
        preds = (Predicate("c", "col1", 0, 4), Predicate("a", "col0", 0, 1),
                 Predicate("b", "col0", 2, 3), Predicate("a", "col1", 5, 9))
        q = Query(("c", "a", "b"), preds, true_cardinality=7)
        for tables in [("a",), ("b",), ("a", "c"), ("c", "a"),
                       ("a", "b", "c"), ["b", "c"]]:
            sub = q.restrict(tables)
            built = Query(tuple(tables), tuple(
                p for p in preds if p.table in tables))
            assert sub == built and type(sub) is Query
            assert hash(sub) == hash(built)
            assert repr(sub) == repr(built)
            assert {built: 1}[sub] == 1

    def test_restrict_refuses_duplicate_tables(self):
        q = Query(("a", "b"), (Predicate("a", "col0", 0, 1),))
        with pytest.raises(ValueError, match="duplicate"):
            q.restrict(("a", "a"))

    def test_an_invalid_outside_query_still_raises(self):
        sub = Query(("a", "b"), (Predicate("a", "col0", 0, 1),)).restrict(
            ("a",))
        with pytest.raises(ValueError, match="not in FROM"):
            Query(sub.tables, sub.predicates + (Predicate("b", "col0", 0, 1),))
        with pytest.raises(ValueError, match="duplicate"):
            Query(("a", "a"), sub.predicates)

    def test_with_cardinality(self):
        q = Query(("a",)).with_cardinality(42)
        assert q.true_cardinality == 42

    def test_sql_rendering(self):
        q = Query(("a",), (Predicate("a", "col0", 1, 5),))
        sql = q.sql()
        assert "SELECT COUNT(*)" in sql
        assert "a.col0 BETWEEN 1 AND 5" in sql


class TestGenerator:
    def test_counts(self, small_workload):
        assert len(small_workload.train) == 40
        assert len(small_workload.test) == 15

    def test_true_cards_are_exact(self, small_dataset, small_workload):
        for q in small_workload.test[:8]:
            assert q.true_cardinality == count_join(
                small_dataset, q.tables, q.predicate_tuples())

    def test_templates_connected(self, small_dataset, small_workload):
        for template in small_workload.templates:
            assert small_dataset.is_connected_subset(template)

    def test_deterministic(self, small_dataset):
        a = generate_workload(small_dataset, 10, 5, seed=9)
        b = generate_workload(small_dataset, 10, 5, seed=9)
        assert [q.sql() for q in a.train] == [q.sql() for q in b.train]

    def test_predicates_on_data_columns_only(self, small_workload):
        for q in small_workload.train:
            for p in q.predicates:
                assert p.column.startswith("col")


class TestEncoding:
    def test_flat_dim_consistency(self, small_dataset, small_workload):
        enc = QueryEncoder(small_dataset)
        vec = enc.encode_flat(small_workload.train[0])
        assert vec.shape == (enc.flat_dim,)

    def test_flat_defaults_full_ranges(self, small_dataset):
        enc = QueryEncoder(small_dataset)
        q = Query((small_dataset.table_names[0],))
        vec = enc.encode_flat(q)
        # lo defaults to 0, hi to 1 for every column slot.
        np.testing.assert_allclose(vec[0:2 * len(enc.columns):2], 0.0)
        np.testing.assert_allclose(vec[1:2 * len(enc.columns):2], 1.0)

    def test_flat_encodes_predicate(self, small_dataset, small_workload):
        enc = QueryEncoder(small_dataset)
        q = small_workload.train[0]
        vec = enc.encode_flat(q)
        p = q.predicates[0]
        idx = enc.column_index[(p.table, p.column)]
        assert 0.0 <= vec[2 * idx] <= 1.0
        assert vec[2 * idx] <= vec[2 * idx + 1]

    def test_flat_batch_shape(self, small_dataset, small_workload):
        enc = QueryEncoder(small_dataset)
        batch = enc.encode_flat_batch(small_workload.train)
        assert batch.shape == (len(small_workload.train), enc.flat_dim)

    def test_set_masks(self, small_dataset, small_workload):
        enc = QueryEncoder(small_dataset)
        (t, tm), (j, jm), (p, pm) = enc.encode_sets_batch(small_workload.train)
        assert t.shape[0] == len(small_workload.train)
        # Mask counts match query structure.
        for i, q in enumerate(small_workload.train):
            assert tm[i].sum() == len(q.tables)
            assert pm[i].sum() == len(q.predicates)

    def test_table_onehot(self, small_dataset):
        enc = QueryEncoder(small_dataset)
        name = small_dataset.table_names[0]
        (t, tm), _, _ = enc.encode_sets_batch([Query((name,))])
        assert t[0, 0, enc.table_index[name]] == 1.0
