"""Exact join counting, verified against brute-force enumeration."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.counting import count_join, join_size, selectivity
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import PK_COLUMN, Table


def brute_force_count(dataset, tables, predicates):
    """Enumerate the cross product and filter (tiny inputs only)."""
    table_rows = {t: range(dataset[t].num_rows) for t in tables}
    by_table = {}
    for table, column, lo, hi in predicates:
        by_table.setdefault(table, []).append((column, lo, hi))
    count = 0
    for combo in itertools.product(*[table_rows[t] for t in tables]):
        assignment = dict(zip(tables, combo))
        ok = True
        for fk in dataset.foreign_keys:
            if fk.child in assignment and fk.parent in assignment:
                fk_value = dataset[fk.child][fk.fk_column][assignment[fk.child]]
                pk_value = dataset[fk.parent][PK_COLUMN][assignment[fk.parent]]
                if fk_value != pk_value:
                    ok = False
                    break
        if not ok:
            continue
        for table, preds in by_table.items():
            row = assignment[table]
            for column, lo, hi in preds:
                v = dataset[table][column][row]
                if not (lo <= v <= hi):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def tiny_dataset(seed=0):
    rng = np.random.default_rng(seed)
    a = Table("a", {PK_COLUMN: np.arange(5),
                    "col0": rng.integers(0, 4, 5)})
    b = Table("b", {PK_COLUMN: np.arange(6),
                    "fk_a": rng.integers(0, 5, 6),
                    "col0": rng.integers(0, 4, 6)})
    c = Table("c", {"fk_a": rng.integers(0, 5, 7),
                    "col0": rng.integers(0, 4, 7)})
    d = Table("d", {"fk_b": rng.integers(0, 6, 8),
                    "col0": rng.integers(0, 4, 8)})
    return Dataset("tiny", [a, b, c, d], [
        ForeignKey("b", "fk_a", "a"),
        ForeignKey("c", "fk_a", "a"),
        ForeignKey("d", "fk_b", "b"),
    ])


ALL_TEMPLATES = [("a",), ("a", "b"), ("a", "c"), ("a", "b", "c"),
                 ("a", "b", "d"), ("a", "b", "c", "d"), ("b", "d")]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("template", ALL_TEMPLATES)
    def test_unfiltered(self, template):
        ds = tiny_dataset()
        assert count_join(ds, template, []) == brute_force_count(ds, template, [])

    @pytest.mark.parametrize("template", ALL_TEMPLATES)
    def test_filtered(self, template):
        ds = tiny_dataset(3)
        preds = [(template[0], "col0", 1, 2)]
        if len(template) > 1:
            preds.append((template[-1], "col0", 0, 2))
        assert count_join(ds, template, preds) == \
            brute_force_count(ds, template, preds)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), lo=st.integers(0, 3), width=st.integers(0, 3))
    def test_star_join_random_predicates(self, seed, lo, width):
        ds = tiny_dataset(seed % 7)
        preds = [("b", "col0", lo, lo + width), ("c", "col0", 0, 2)]
        template = ("a", "b", "c")
        assert count_join(ds, template, preds) == \
            brute_force_count(ds, template, preds)


class TestAPI:
    def test_single_table(self):
        ds = tiny_dataset()
        expected = int(np.sum((ds["a"]["col0"] >= 1) & (ds["a"]["col0"] <= 2)))
        assert count_join(ds, ("a",), [("a", "col0", 1, 2)]) == expected

    def test_disconnected_template_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError, match="connected"):
            count_join(ds, ("c", "d"), [])

    @pytest.mark.parametrize("tables", [(), ("a", "a"), ("missing",)],
                             ids=["empty", "repeated", "unknown"])
    def test_no_table_set_but_a_template_counts(self, tables):
        """An empty, repeated or unknown table tuple is refused like any
        other non-template (the empty one used to escape as networkx's
        ``NetworkXPointlessConcept``)."""
        with pytest.raises(ValueError, match="not a connected join template"):
            count_join(tiny_dataset(), tables, [])

    def test_predicate_outside_template_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError, match="outside"):
            count_join(ds, ("a",), [("b", "col0", 0, 1)])

    def test_join_size_matches_unfiltered(self):
        ds = tiny_dataset()
        assert join_size(ds, ("a", "b")) == count_join(ds, ("a", "b"), [])

    def test_selectivity_bounds(self):
        ds = tiny_dataset()
        sel = selectivity(ds, ("a", "b"), [("a", "col0", 0, 1)])
        assert 0.0 <= sel <= 1.0

    def test_selectivity_full_range_is_one(self):
        ds = tiny_dataset()
        assert selectivity(ds, ("a",), [("a", "col0", 0, 100)]) == 1.0

    def test_pk_fk_join_size_equals_child_rows(self):
        # Every FK value resolves, so |a ⋈ b| == |b|.
        ds = tiny_dataset()
        assert join_size(ds, ("a", "b")) == ds["b"].num_rows
