"""Single/multi-table generation, specs and presets."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.datagen.multi_table import generate_dataset
from repro.datagen.presets import (ceb_like, derive_subschemas, imdb_light_like,
                                   power_like, stats_light_like)
from repro.datagen.single_table import generate_table
from repro.datagen.spec import DatasetSpec, TableSpec, random_spec


class TestTableSpecValidation:
    def test_rejects_zero_columns(self):
        with pytest.raises(ValueError):
            TableSpec(0, 10, 5, 0.5, 0.5)

    def test_rejects_bad_skew(self):
        with pytest.raises(ValueError):
            TableSpec(2, 10, 5, 1.5, 0.5)

    def test_rejects_bad_interaction(self):
        with pytest.raises(ValueError):
            TableSpec(2, 10, 5, 0.5, 0.5, interaction=2.0)


class TestDatasetSpecValidation:
    def test_rejects_empty_tables(self):
        with pytest.raises(ValueError):
            DatasetSpec("x", ())

    def test_rejects_bad_join_bounds(self):
        t = TableSpec(2, 10, 5, 0.5, 0.5)
        with pytest.raises(ValueError):
            DatasetSpec("x", (t,), join_correlation_min=0.9,
                        join_correlation_max=0.5)

    def test_to_dict_roundtrippable(self):
        spec = random_spec(3)
        d = asdict(spec)
        assert d["name"] == spec.name
        assert len(d["tables"]) == spec.num_tables


class TestRandomSpec:
    def test_deterministic(self):
        assert random_spec(5) == random_spec(5)

    def test_distinct_seeds_differ(self):
        assert random_spec(5) != random_spec(6)

    def test_respects_ranges(self):
        spec = random_spec(1, ranges={"num_tables": (2, 2), "rows": (50, 60)})
        assert spec.num_tables == 2
        assert all(50 <= t.num_rows <= 60 for t in spec.tables)


class TestSingleTable:
    def test_shape(self):
        spec = TableSpec(4, 200, 10, 0.3, 0.5)
        table = generate_table("t", spec, seed=1)
        assert table.num_rows == 200
        assert len(table.data_columns()) == 4

    def test_domain_bounds(self):
        spec = TableSpec(3, 500, 8, 0.6, 0.2)
        table = generate_table("t", spec, seed=2)
        for col in table.data_columns():
            assert table[col].min() >= 0
            assert table[col].max() <= 7

    def test_deterministic(self):
        spec = TableSpec(3, 100, 10, 0.4, 0.5)
        a = generate_table("t", spec, seed=3)
        b = generate_table("t", spec, seed=3)
        for col in a.data_columns():
            np.testing.assert_array_equal(a[col], b[col])

    def test_interaction_creates_3way_structure(self):
        base = TableSpec(4, 4000, 12, 0.0, 0.0, interaction=0.0)
        strong = TableSpec(4, 4000, 12, 0.0, 0.0, interaction=0.95)
        t0 = generate_table("t", base, seed=5)
        t1 = generate_table("t", strong, seed=5)
        # With interactions, some column equals (a+b) mod d often.
        def max_triple_hit(table):
            cols = [table[c] for c in table.data_columns()]
            best = 0.0
            for i in range(len(cols)):
                for j in range(len(cols)):
                    for k in range(len(cols)):
                        if len({i, j, k}) < 3:
                            continue
                        hit = np.mean((cols[i] + cols[j]) % 12 == cols[k])
                        best = max(best, hit)
            return best
        assert max_triple_hit(t1) > max_triple_hit(t0) + 0.3


class TestMultiTable:
    def test_single_table_dataset_has_no_fks(self):
        spec = DatasetSpec("s", (TableSpec(2, 50, 5, 0.1, 0.1),), seed=1)
        ds = generate_dataset(spec)
        assert ds.num_tables == 1
        assert not ds.foreign_keys

    def test_tree_structure(self):
        spec = random_spec(11, ranges={"num_tables": (4, 4)})
        ds = generate_dataset(spec)
        assert len(ds.foreign_keys) == 3  # n-1 edges: a tree
        assert ds.is_connected_subset(tuple(sorted(ds.table_names)))

    def test_join_correlation_within_spec_bounds(self):
        spec = DatasetSpec(
            "jc", (TableSpec(2, 1000, 10, 0.2, 0.1),
                   TableSpec(2, 1000, 10, 0.2, 0.1)),
            join_correlation_min=0.5, join_correlation_max=0.6, seed=13)
        ds = generate_dataset(spec)
        corr = ds.join_correlation(ds.foreign_keys[0])
        # Sampling with replacement can only lose distinct values.
        assert 0.3 <= corr <= 0.62

    def test_fanout_skew_tilts_fanouts(self):
        def fanout_spread(fanout_skew, seed=17):
            spec = DatasetSpec(
                "fs", (TableSpec(2, 2000, 30, 0.0, 0.0),
                       TableSpec(2, 2000, 30, 0.0, 0.0)),
                join_correlation_min=0.95, join_correlation_max=1.0,
                fanout_skew=fanout_skew, seed=seed)
            ds = generate_dataset(spec)
            fk = ds.foreign_keys[0]
            counts = np.bincount(ds[fk.child][fk.fk_column],
                                 minlength=ds[fk.parent].num_rows)
            return counts.std()
        assert fanout_spread(1.0) > fanout_spread(0.0)

    def test_generated_dataset_validates(self):
        for seed in range(5):
            generate_dataset(random_spec(seed))  # Dataset() validates FKs


class TestPresets:
    def test_imdb_shape(self):
        ds = imdb_light_like()
        assert ds.num_tables == 6
        assert sum(len(t.data_columns()) for t in ds.tables.values()) == 12

    def test_stats_shape(self):
        ds = stats_light_like()
        assert ds.num_tables == 8

    def test_power_shape(self):
        ds = power_like()
        assert ds.num_tables == 1
        assert len(ds[ds.table_names[0]].data_columns()) == 7

    def test_ceb_shape(self):
        assert ceb_like().num_tables == 7

    def test_derive_subschemas_protocol(self):
        ds = imdb_light_like()
        subs = derive_subschemas(ds, count=10, seed=3)
        assert len(subs) == 10
        for sub in subs:
            assert 1 <= sub.num_tables <= 5
            assert sub.is_connected_subset(tuple(sorted(sub.table_names)))
            for table in sub.tables.values():
                assert 1 <= len(table.data_columns()) <= 2

    def test_derive_subschemas_deterministic(self):
        ds = power_like()
        a = derive_subschemas(ds, count=3, seed=5)
        b = derive_subschemas(ds, count=3, seed=5)
        assert [d.name for d in a] == [d.name for d in b]
