"""Join materialization, sample cache and integrity-preserving subsampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.counting import join_size
from repro.db.sampling import JoinSampleCache, materialize_join, subsample_dataset
from repro.db.table import PK_COLUMN


class TestMaterializeJoin:
    def test_sizes_match_exact_count(self, small_dataset):
        for template in small_dataset.connected_subsets():
            rows = materialize_join(small_dataset, template)
            size = len(next(iter(rows.values())))
            assert size == join_size(small_dataset, template)

    def test_join_rows_satisfy_fk_equalities(self, small_dataset):
        template = max(small_dataset.connected_subsets(), key=len)
        rows = materialize_join(small_dataset, template)
        for fk in small_dataset.subset_edges(template):
            fk_vals = small_dataset[fk.child][fk.fk_column][rows[fk.child]]
            pk_vals = small_dataset[fk.parent][PK_COLUMN][rows[fk.parent]]
            np.testing.assert_array_equal(fk_vals, pk_vals)

    def test_max_rows_cap(self, small_dataset):
        template = max(small_dataset.connected_subsets(), key=len)
        rows = materialize_join(small_dataset, template, max_rows=50)
        assert len(next(iter(rows.values()))) <= 50

    def test_disconnected_rejected(self, small_dataset):
        names = sorted(small_dataset.table_names)
        # Find a genuinely disconnected pair if one exists; otherwise skip.
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                pair = (names[i], names[j])
                if not small_dataset.is_connected_subset(pair):
                    with pytest.raises(ValueError):
                        materialize_join(small_dataset, pair)
                    return
        pytest.skip("all pairs connected in this schema")


    @pytest.mark.parametrize("tables", [(), ("missing",)],
                             ids=["empty", "unknown"])
    def test_non_template_rejected(self, small_dataset, tables):
        """The empty tuple used to escape as networkx's
        ``NetworkXPointlessConcept``."""
        with pytest.raises(ValueError, match="not a connected join template"):
            materialize_join(small_dataset, tables)


class TestJoinSampleCache:
    def test_sample_column_names_qualified(self, small_dataset):
        cache = JoinSampleCache(small_dataset)
        template = small_dataset.connected_subsets()[0]
        columns, size = cache.sample(template, 100)
        for name in columns:
            table, column = name.split(".")
            assert table in template
            assert column.startswith("col")

    def test_sample_size_bounded(self, small_dataset):
        cache = JoinSampleCache(small_dataset)
        template = max(small_dataset.connected_subsets(), key=len)
        columns, size = cache.sample(template, 64)
        lengths = {len(v) for v in columns.values()}
        assert lengths == {min(64, size)}

    def test_template_size_cached_and_exact(self, small_dataset):
        cache = JoinSampleCache(small_dataset)
        template = small_dataset.connected_subsets()[0]
        assert cache.template_size(template) == join_size(small_dataset, template)

    def test_clear(self, small_dataset):
        cache = JoinSampleCache(small_dataset)
        cache.sample(small_dataset.connected_subsets()[0], 10)
        cache.clear()
        assert not cache._joins


class TestSubsampleDataset:
    def test_fraction_bounds(self, small_dataset):
        with pytest.raises(ValueError):
            subsample_dataset(small_dataset, 0.0)
        with pytest.raises(ValueError):
            subsample_dataset(small_dataset, 1.5)

    def test_integrity_preserved(self, small_dataset):
        sample = subsample_dataset(small_dataset, 0.4, seed=1)
        # Constructing the Dataset revalidates FKs; also check PKs renumbered.
        for table in sample.tables.values():
            if table.has_pk:
                np.testing.assert_array_equal(
                    table[PK_COLUMN], np.arange(table.num_rows))

    def test_rows_reduced(self, small_dataset):
        sample = subsample_dataset(small_dataset, 0.4, seed=1)
        assert sample.total_rows < small_dataset.total_rows

    def test_full_fraction_keeps_all_parents(self, small_dataset):
        sample = subsample_dataset(small_dataset, 1.0, seed=1)
        parents = {fk.parent for fk in small_dataset.foreign_keys}
        for parent in parents:
            assert sample[parent].num_rows == small_dataset[parent].num_rows

    def test_same_schema(self, small_dataset):
        sample = subsample_dataset(small_dataset, 0.5)
        assert set(sample.table_names) == set(small_dataset.table_names)
        assert len(sample.foreign_keys) == len(small_dataset.foreign_keys)
