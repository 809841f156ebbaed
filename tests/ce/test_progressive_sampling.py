"""Progressive sampling and the fitted-MADE memo of NeuroCard and UAE.

The shipped sampler skips work the full column walk did: column 0's
conditional is memoized per MADE, and the walk stops after the last
constrained column or once every sample path is dead.  These tests pin it
bit-for-bit to that full walk (``full_walk_sample`` in ``oracles.py``),
including the random stream it leaves behind, and pin the memo that lets
UAE reuse NeuroCard's fitted MADEs on one training context.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from oracles import full_walk_sample
from repro.ce import NeuroCard, UAE
from repro.ce.base import TrainingContext
from repro.cli import fast_testbed_config
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import DatasetSpec, TableSpec, random_spec
from repro.workload.generator import generate_workload
from repro.workload.query import Predicate, Query

TESTBED = fast_testbed_config(0)
SPEC_SEEDS = (0, 1, 2, 3, 1_000_003)


class ReferenceNeuroCard(NeuroCard):
    _progressive_sample = full_walk_sample


class ReferenceUAE(UAE):
    _progressive_sample = full_walk_sample


def neuro_config(**overrides):
    """The testbed's NeuroCard config (UAE gets the same MADE settings)."""
    return replace(TESTBED.build_candidates()["NeuroCard"].config, **overrides)


def uae_config():
    return TESTBED.build_candidates()["UAE"].config


def build_ctx(dataset, workload=None):
    workload = workload or generate_workload(
        dataset, num_train=TESTBED.num_train_queries,
        num_test=TESTBED.num_test_queries, seed=TESTBED.seed)
    return TrainingContext.build(dataset, workload, seed=TESTBED.seed,
                                 sample_size=TESTBED.sample_size)


def same_state(a, b) -> bool:
    return a._rng.bit_generator.state == b._rng.bit_generator.state


def reseed(*models, seed=11):
    for model in models:
        model._rng = np.random.default_rng(seed)


@pytest.fixture(scope="module")
def fitted_pairs():
    """(shipped, reference) NeuroCard and UAE pairs per generated dataset,
    each pair fitted on one context so the two share their MADEs."""
    pairs = []
    for seed in SPEC_SEEDS:
        ctx = build_ctx(generate_dataset(random_spec(seed)))
        models = {}
        for name, shipped, reference, config in (
                ("NeuroCard", NeuroCard, ReferenceNeuroCard, neuro_config()),
                ("UAE", UAE, ReferenceUAE, uae_config())):
            a, b = shipped(config), reference(config)
            a.fit(ctx)
            b.fit(ctx)
            models[name] = (a, b)
        pairs.append((ctx, models))
    return pairs


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("name", ["NeuroCard", "UAE"])
    def test_every_query_bitwise(self, fitted_pairs, name):
        checked = 0
        for ctx, models in fitted_pairs:
            shipped, reference = models[name]
            assert same_state(shipped, reference)
            for query in ctx.workload.train + ctx.workload.test:
                a, b = shipped.estimate(query), reference.estimate(query)
                assert a.hex() == b.hex(), (query, a, b)
                checked += 1
            assert same_state(shipped, reference)
        assert checked >= 4 * (TESTBED.num_train_queries
                               + TESTBED.num_test_queries)

    def test_uae_calibration_bitwise(self, fitted_pairs):
        for _, models in fitted_pairs:
            shipped, reference = models["UAE"]
            assert shipped._calibration.keys() == reference._calibration.keys()
            for key, value in shipped._calibration.items():
                assert [v.hex() for v in value] == \
                    [v.hex() for v in reference._calibration[key]]


def widest_template(models):
    """The shipped NeuroCard's fitted template with the most columns."""
    neuro = models["NeuroCard"][0]
    template, fitted = max(
        ((t, f) for t, f in neuro._models.items() if f is not None),
        key=lambda item: len(item[1].column_names))
    return template, fitted


def in_range(ctx, name):
    table, column = name.split(".")
    values = ctx.dataset[table][column]
    lo, hi = int(values.min()), int(values.max())
    return lo, lo + (hi - lo) // 2


def query_on(template, columns: dict[str, tuple[int, int]]) -> Query:
    predicates = tuple(Predicate(*name.split("."), lo, hi)
                       for name, (lo, hi) in columns.items())
    return Query(tuple(template), predicates)


def outside(ctx, name):
    table, column = name.split(".")
    top = int(ctx.dataset[table][column].max())
    return top + 1_000, top + 2_000


class TestSamplerCases:
    """Query shapes that exercise each way the walk can end early."""

    def check(self, models, query, forwards=None, monkeypatch=None):
        for name in ("NeuroCard", "UAE"):
            shipped, reference = models[name]
            reseed(shipped, reference)
            b = reference.estimate(query)
            calls = []
            if monkeypatch is not None:
                made = shipped._models[query.template].made
                original = made.conditional_probs
                monkeypatch.setattr(
                    made, "conditional_probs",
                    lambda x, col: calls.append(col) or original(x, col))
            a = shipped.estimate(query)
            if monkeypatch is not None:
                monkeypatch.undo()
            assert a.hex() == b.hex(), (name, query, a, b)
            assert same_state(shipped, reference)
            if forwards is not None:
                assert calls == forwards

    def case(self, fitted_pairs):
        """The first dataset whose widest template has 3+ columns."""
        for ctx, models in fitted_pairs:
            template, fitted = widest_template(models)
            names = fitted.column_names
            if len(names) >= 3:
                # Warm the column-0 memo so forward counts are per query.
                fitted.first_conditional(uae_config().num_samples)
                return ctx, models, template, names
        pytest.fail("no fitted template with three or more columns")

    def test_only_first_column(self, fitted_pairs, monkeypatch):
        ctx, models, template, names = self.case(fitted_pairs)
        query = query_on(template, {names[0]: in_range(ctx, names[0])})
        self.check(models, query, forwards=[], monkeypatch=monkeypatch)

    def test_only_last_column(self, fitted_pairs, monkeypatch):
        ctx, models, template, names = self.case(fitted_pairs)
        query = query_on(template,
                         {names[-1]: in_range(ctx, names[-1])})
        self.check(models, query, forwards=list(range(1, len(names))),
                   monkeypatch=monkeypatch)

    def test_every_column(self, fitted_pairs):
        ctx, models, template, names = self.case(fitted_pairs)
        query = query_on(template,
                         {n: in_range(ctx, n) for n in names})
        self.check(models, query)

    def test_empty_intersection_on_one_column(self, fitted_pairs, monkeypatch):
        ctx, models, template, names = self.case(fitted_pairs)
        lo, hi = in_range(ctx, names[1])
        table, column = names[1].split(".")
        query = Query(tuple(template), (
            Predicate(table, column, lo, lo),
            Predicate(table, column, lo + 1, max(hi, lo + 1)),
            *query_on(template,
                      {names[-1]: in_range(ctx, names[-1])}).predicates))
        # Column 1's mass is all zero, so the walk ends there.
        self.check(models, query, forwards=[1], monkeypatch=monkeypatch)
        assert models["NeuroCard"][0].estimate(query) == 1.0

    def test_dead_paths_before_last_constrained(self, fitted_pairs,
                                                monkeypatch):
        ctx, models, template, names = self.case(fitted_pairs)
        query = query_on(template, {
            names[0]: outside(ctx, names[0]),
            names[-1]: in_range(ctx, names[-1])})
        self.check(models, query, forwards=[], monkeypatch=monkeypatch)

    def test_no_constrained_column_draws_nothing(self, fitted_pairs):
        ctx, models, template, names = self.case(fitted_pairs)
        query = Query(tuple(template))
        for name in ("NeuroCard", "UAE"):
            shipped = models[name][0]
            reseed(shipped)
            before = shipped._rng.bit_generator.state
            fitted = shipped._models[query.template]
            assert shipped._template_selectivity(
                fitted, query.template, query) == 1.0
            shipped.estimate(query)
            assert shipped._rng.bit_generator.state == before

    def test_direct_call_without_constraints_matches_reference(
            self, fitted_pairs):
        """Called directly, the sampler still walks every column's draws."""
        ctx, models, template, names = self.case(fitted_pairs)
        shipped, reference = models["NeuroCard"]
        fitted = shipped._models[template]
        reseed(shipped, reference)
        allowed = [None] * len(names)
        assert shipped._progressive_sample(fitted, allowed) == \
            reference._progressive_sample(fitted, allowed) == 1.0
        assert same_state(shipped, reference)

    def test_one_column_template(self):
        dataset = generate_dataset(DatasetSpec(name="one_column", tables=(
            TableSpec(num_columns=1, num_rows=300, domain_size=30, skew=0.5,
                      max_correlation=0.0),), seed=3))
        ctx = build_ctx(dataset)
        shipped, reference = NeuroCard(neuro_config()), \
            ReferenceNeuroCard(neuro_config())
        shipped.fit(ctx)
        reference.fit(ctx)
        for query in ctx.workload.train + ctx.workload.test:
            a, b = shipped.estimate(query), reference.estimate(query)
            assert a.hex() == b.hex()
        assert same_state(shipped, reference)

    def test_column0_memo_is_exact_and_read_only(self, fitted_pairs):
        for _, models in fitted_pairs:
            for fitted in models["NeuroCard"][0]._models.values():
                if fitted is None:
                    continue
                samples = uae_config().num_samples
                memo = fitted.first_conditional(samples)
                fresh = fitted.made.conditional_probs(
                    np.zeros((samples, fitted.made.input_dim)), 0)
                assert memo.tobytes() == fresh.tobytes()
                assert memo.shape == fresh.shape
                assert not memo.flags.writeable
                with pytest.raises(ValueError):
                    memo[0, 0] = 0.5
                assert fitted.first_conditional(samples) is memo


def unseen_template(ctx):
    seen = set(ctx.workload.templates)
    for template in ctx.dataset.connected_subsets():
        if tuple(sorted(template)) not in seen:
            return tuple(sorted(template))
    return None


@pytest.fixture(scope="module")
def sharing_dataset():
    return generate_dataset(random_spec(4, ranges={"num_tables": (3, 3)}))


def sharing_ctx(dataset):
    # Two templates, so the dataset has some left to fit lazily.
    workload = generate_workload(
        dataset, num_train=TESTBED.num_train_queries,
        num_test=TESTBED.num_test_queries, seed=TESTBED.seed, max_templates=2)
    return build_ctx(dataset, workload)


def made_weights(fitted):
    made = fitted.made
    return [made._w1, made._b1, made._w2, made._b2, made._w3, made._b3]


class TestMadeSharing:
    def test_uae_takes_neurocards_mades(self, sharing_dataset):
        ctx = sharing_ctx(sharing_dataset)
        neuro, uae = NeuroCard(neuro_config()), UAE(uae_config())
        neuro.fit(ctx)
        uae.fit(ctx)
        assert neuro._models.keys() == uae._models.keys()
        for template, fitted in neuro._models.items():
            assert uae._models[template] is fitted
        lazy = unseen_template(ctx)
        assert lazy is not None
        neuro.estimate(Query(lazy))
        uae.estimate(Query(lazy))
        assert neuro._models[lazy] is not None
        assert uae._models[lazy] is neuro._models[lazy]

    def test_neurocard_takes_uaes_mades(self, sharing_dataset):
        ctx = sharing_ctx(sharing_dataset)
        uae, neuro = UAE(uae_config()), NeuroCard(neuro_config())
        uae.fit(ctx)
        neuro.fit(ctx)
        for template, fitted in uae._models.items():
            assert neuro._models[template] is fitted

    def test_other_hidden_trains_its_own(self, sharing_dataset):
        ctx = sharing_ctx(sharing_dataset)
        neuro = NeuroCard(neuro_config())
        other = NeuroCard(neuro_config(hidden=neuro.config.hidden + 8))
        neuro.fit(ctx)
        other.fit(ctx)
        for template, fitted in neuro._models.items():
            assert other._models[template] is not fitted
            assert other._models[template].made._w1.shape != \
                fitted.made._w1.shape

    def test_fresh_context_trains_bitwise_equal_mades(self, sharing_dataset):
        shared = sharing_ctx(sharing_dataset)
        neuro, uae = NeuroCard(neuro_config()), UAE(uae_config())
        neuro.fit(shared)
        uae.fit(shared)
        alone = UAE(uae_config())
        alone.fit(sharing_ctx(sharing_dataset))
        for template, fitted in uae._models.items():
            own = alone._models[template]
            assert own is not fitted
            for a, b in zip(made_weights(own), made_weights(fitted)):
                assert a.tobytes() == b.tobytes()
        assert alone._calibration == uae._calibration
