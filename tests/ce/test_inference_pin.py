"""DeepDB, BayesCard and FLAT inference pinned bit for bit to the recursion.

An SPN answers through its :class:`~repro.ce.spn.FlatSPN` program and a
Chow–Liu tree computes messages only on the paths from its constrained
columns to the root.  The recursive evaluation they replaced, and the
discretizer mass it read, are the reference in ``oracles.py``;
:func:`~oracles.recursive_inference` swaps them in for the shipped
methods, so one fitted model answers both ways and every estimate must
match to the byte.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from loop_regime import LOOP_RANGES
from oracles import RECURSION, recursive_inference
from repro.ce.base import TrainingContext
from repro.ce.chow_liu import ChowLiuTree
from repro.ce.fspn import FLAT, FactorizeNode, FLATConfig
from repro.ce.spn import (FlatSPN, LeafNode, ProductNode, SumNode, _fma,
                          build_spn)
from repro.cli import fast_testbed_config
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.workload.generator import generate_workload
from repro.workload.query import Predicate, Query

TESTBED = fast_testbed_config(0)
#: 16 default-range datasets and 8 of the loop's datasets.
SPECS = [(seed_, None) for seed_ in range(16)] + \
    [(40_000_000 + j, "loop") for j in range(8)]


def assert_pinned(target, method: str, inputs) -> None:
    """``target.<method>(x)`` for every input has the same float bytes
    shipped and through the recursion.  The method is looked up on each
    call: a bound method taken outside the swap would keep the shipped
    one."""
    def answers() -> bytes:
        return np.array([getattr(target, method)(x) for x in inputs],
                        dtype=np.float64).tobytes()

    shipped = answers()
    with recursive_inference():
        assert answers() == shipped


# ----------------------------------------------------------------------
# Every estimate on 24 generated datasets
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def pinned(spec_seed: int, regime: str | None):
    """DeepDB, BayesCard and FLAT fitted as the fast testbed fits them;
    the queries to pin (train, test and every connected sub-plan); the
    templates fitted by ``fit``; and the shipped estimates, model by model,
    which fit the sub-plans' templates on first use."""
    dataset = generate_dataset(random_spec(
        spec_seed, ranges=LOOP_RANGES if regime else None))
    workload = generate_workload(
        dataset, num_train=TESTBED.num_train_queries,
        num_test=TESTBED.num_test_queries, seed=TESTBED.seed)
    ctx = TrainingContext.build(dataset, workload, seed=TESTBED.seed,
                                sample_size=TESTBED.sample_size)
    candidates = TESTBED.build_candidates()
    models = [candidates["DeepDB"], candidates["BayesCard"],
              FLAT(FLATConfig(seed=TESTBED.seed))]
    for model in models:
        model.fit(ctx)
    fit_templates = set(models[0]._models)
    subsets = dataset.connected_subsets()
    queries = list(workload.train) + list(workload.test)
    for query in workload.train + workload.test:
        tables = set(query.tables)
        queries += [query.restrict(subset) for subset in subsets
                    if set(subset) <= tables]
    queries = list(dict.fromkeys(queries))
    return models, queries, fit_templates, estimate_all(models, queries)


def estimate_all(models, queries) -> np.ndarray:
    return np.array([model.estimate(q) for model in models for q in queries],
                    dtype=np.float64)


@pytest.mark.parametrize("spec_seed, regime", SPECS,
                         ids=[f"{r or 'default'}-{s}" for s, r in SPECS])
def test_every_estimate_equals_the_recursion(spec_seed, regime):
    models, queries, _, shipped = pinned(spec_seed, regime)
    with recursive_inference():
        reference = estimate_all(models, queries)
    assert shipped.tobytes() == reference.tobytes()


def spn_leaves(node):
    if isinstance(node, LeafNode):
        yield node
    for child in getattr(node, "children", ()):
        yield from spn_leaves(child)
    if isinstance(node, FactorizeNode) and node.rest is not None:
        yield from spn_leaves(node.rest)


def test_pinned_datasets_cover_lazy_templates_width_leaves_and_factorize():
    lazy = width = factorize = 0
    for spec_seed, regime in SPECS:
        (deepdb, _, flat), _, fit_templates, _ = pinned(spec_seed, regime)
        lazy += len(set(deepdb._models) - fit_templates)
        for model in (deepdb, flat):
            for root in model._models.values():
                factorize += isinstance(root, FactorizeNode)
                width += sum(leaf.histogram.discretizer.kind == "width"
                             for leaf in spn_leaves(root))
    assert lazy > 0 and width > 0 and factorize > 0


# ----------------------------------------------------------------------
# The cases the flat evaluation treats specially
# ----------------------------------------------------------------------
def spn_columns(node) -> list[str]:
    return sorted({leaf.column for leaf in spn_leaves(node)})


def test_no_predicate_and_every_column_constrained():
    (deepdb, bayescard, flat), queries, _, _ = pinned(*SPECS[-1])
    templates = sorted({q.template for q in queries})
    for model in (deepdb, bayescard, flat):
        assert_pinned(model, "estimate", [Query(t) for t in templates])
    for root in deepdb._models.values():
        columns = spn_columns(root)
        assert_pinned(root, "probability",
                      [{}, {c: (2, 9) for c in columns},
                       {c: (i, i + 20) for i, c in enumerate(columns)}])
    for fitted_tree in bayescard._models.values():
        tree = fitted_tree.tree
        rng = np.random.default_rng(len(tree.columns))
        assert_pinned(tree, "query_probability",
                      [{}, {c: rng.random(tree.n_bins[c])
                            for c in tree.columns}])


def test_predicate_on_a_column_outside_the_template():
    (deepdb, bayescard, _), _, _, _ = pinned(*SPECS[-1])
    for root in deepdb._models.values():
        first = spn_columns(root)[0]
        assert_pinned(root, "probability",
                      [{"elsewhere.c0": (0, 5)},
                       {"elsewhere.c0": (0, 5), first: (3, 12)}])
    for fitted_tree in bayescard._models.values():
        tree = fitted_tree.tree
        first = tree.columns[0]
        assert_pinned(tree, "query_probability",
                      [{"elsewhere.c0": np.ones(3)},
                       {"elsewhere.c0": np.ones(3),
                        first: np.linspace(0, 1, tree.n_bins[first])}])


def test_intersected_predicates_with_lo_above_hi():
    models, queries, _, _ = pinned(*SPECS[-1])
    empty = []
    for query in queries:
        for pred in query.predicates:
            clash = Predicate(pred.table, pred.column, pred.hi + 1, pred.hi + 5)
            empty.append(Query(query.tables, query.predicates + (clash,)))
    assert empty
    for model in models:
        assert_pinned(model, "estimate", empty)


def test_one_leaf_spn():
    rng = np.random.default_rng(0)
    for values in (rng.integers(0, 9, 300), rng.integers(-50, 400, 300)):
        leaf = build_spn({"t.a": values})
        assert isinstance(leaf, LeafNode)
        assert_pinned(leaf, "probability",
                      [{}, {"t.a": (3, 5)}, {"t.a": (5, 3)}, {"t.a": (-99, 999)},
                       {"t.a": (500, 600)}, {"t.b": (0, 1)}])


def test_zero_probability_product_child():
    rng = np.random.default_rng(1)
    a = LeafNode("t.a", rng.integers(0, 10, 200))
    b = LeafNode("t.b", rng.integers(0, 500, 200))
    c = LeafNode("t.c", rng.integers(0, 10, 200))
    for node in (ProductNode([a, b, c]), ProductNode([b, c, a])):
        assert node.probability({"t.a": (20, 30), "t.b": (0, 250)}) == 0.0
        assert_pinned(node, "probability",
                      [{"t.a": (20, 30), "t.b": (0, 250)},
                       {"t.a": (20, 30), "t.b": (0, 250), "t.c": (1, 4)},
                       {"t.c": (11, 12)}])


def test_sum_of_unconstrained_children_keeps_its_own_constant():
    rng = np.random.default_rng(2)
    leaves = [LeafNode("t.b", rng.integers(0, 10, 50)) for _ in range(10)]
    mixture = SumNode([1] * 10, leaves)
    # Ten weights of 0.1 do not sum to 1.0 in floating point.
    assert mixture.probability({}) != 1.0
    node = ProductNode([mixture, LeafNode("t.a", rng.integers(0, 10, 50))])
    assert_pinned(node, "probability", [{}, {"t.a": (2, 6)}, {"t.b": (2, 6)}])


def test_sum_adds_in_child_order():
    rng = np.random.default_rng(6)
    leaves = [LeafNode("t.a", rng.integers(0, 12, 40)) for _ in range(7)]
    mixture = SumNode([1, 2, 3, 5, 7, 11, 13], leaves)
    ranges = [{"t.a": (lo, lo + width)} for lo in range(12)
              for width in range(4)]
    # The inputs are ones where adding in another order rounds differently.
    with recursive_inference():
        reordered = [float(sum(w * leaf.probability(r) for w, leaf
                               in reversed(list(zip(mixture.weights, leaves)))))
                     != mixture.probability(r) for r in ranges]
    assert any(reordered)
    assert_pinned(mixture, "probability", ranges)


def test_width_kind_leaves():
    rng = np.random.default_rng(3)
    columns = {"t.a": rng.integers(0, 1000, 400),
               "t.b": rng.integers(-300, 300, 400),
               "t.c": rng.integers(0, 6, 400)}
    spn = build_spn(columns)
    kinds = {leaf.histogram.discretizer.kind for leaf in spn_leaves(spn)}
    assert kinds == {"value", "width"}
    assert_pinned(spn, "probability",
                  [{"t.a": (100, 640)}, {"t.a": (999, 0)},
                   {"t.a": (5, 5), "t.b": (-20, 290), "t.c": (1, 3)},
                   {"t.b": (-1000, 1000)}])


# ----------------------------------------------------------------------
# A value-kind leaf's sum against the dot product it replaced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_bins", range(1, 15))
def test_leaf_sum_equals_the_dot_on_every_bin_range(n_bins):
    """``sum(probs[left:right], 0.0)`` is the float ``np.dot`` gives on the
    0/1 mass with ones in bins ``[left, right)`` (all zeros when ``right
    <= left``), for every pair, on random and count-based probabilities
    of every bin count a shipped leaf can have."""
    indicator = np.zeros((n_bins + 1, n_bins + 1, n_bins))
    for left in range(n_bins):
        for right in range(left + 1, n_bins + 1):
            indicator[left, right, left:right] = 1.0
    rng = np.random.default_rng(n_bins)
    for draw in range(100):
        weights = (rng.random(n_bins) if draw % 2
                   else rng.integers(1, 1_000, n_bins).astype(np.float64))
        probs = weights / weights.sum()
        listed = tuple(probs.tolist())
        for left in range(n_bins + 1):
            for right in range(n_bins + 1):
                dot = float(np.dot(probs, indicator[left, right]))
                assert sum(listed[left:right], 0.0).hex() == dot.hex()


@pytest.mark.parametrize("n_bins", range(1, 15))
def test_value_leaf_answers_every_range_as_the_recursion(n_bins):
    rng = np.random.default_rng(100 + n_bins)
    domain = np.sort(rng.choice(60, size=n_bins, replace=False)) * 3
    leaf = LeafNode("t.a", rng.choice(domain, size=300))
    assert leaf.histogram.discretizer.n_bins == n_bins
    bounds = range(int(domain[0]) - 2, int(domain[-1]) + 3)
    assert_pinned(leaf, "probability",
                  [{"t.a": (lo, hi)} for lo in bounds for hi in bounds])


# ----------------------------------------------------------------------
# A width-kind leaf's scalar sum against the dot product it replaced
# ----------------------------------------------------------------------
def test_fma_rounds_once():
    """``_fma(a, b, c)`` is ``a * b + c`` computed exactly and rounded
    once, where ``a * b + c`` in floats rounds twice and may differ."""
    rng = np.random.default_rng(8)
    twice = 0
    for a, b, c in rng.random((2_000, 3)).tolist():
        exact = float(Fraction(a) * Fraction(b) + Fraction(c))
        assert _fma(a, b, c).hex() == exact.hex()
        twice += a * b + c != exact
    assert twice > 0


def width_leaf(rng: np.random.Generator, n_bins: int, random_probs: bool):
    """A width-kind leaf of ``n_bins`` bins over ``[low, high]``, a domain
    of more values than bins, and the domain; its probabilities are its
    counts' or random."""
    low = int(rng.integers(-40, 40))
    high = low + n_bins + int(rng.integers(0, n_bins + 12))
    values = np.concatenate([np.arange(low, high + 1),
                             rng.integers(low, high + 1, 300)])
    leaf = LeafNode("t.a", values, max_bins=n_bins)
    assert leaf.histogram.discretizer.kind == "width"
    if random_probs:    # before the first query compiles the leaf
        weights = rng.random(n_bins)
        leaf.histogram.probs = weights / weights.sum()
    return leaf, low, high


@pytest.mark.parametrize("n_bins", range(1, 15))
def test_width_leaf_answers_every_range_as_the_dot(n_bins):
    """A width-kind leaf's probability has the bytes of
    ``float(np.dot(probs, range_mass(lo, hi)))`` for every ``(lo, hi)``
    over its domain ±2, on random and count-based probabilities of every
    bin count a shipped leaf can have."""
    rng = np.random.default_rng(200 + n_bins)
    for draw in range(4):
        leaf, low, high = width_leaf(rng, n_bins, random_probs=draw % 2 == 1)
        bounds = range(low - 2, high + 3)
        assert_pinned(leaf, "probability",
                      [{"t.a": (lo, hi)} for lo in bounds for hi in bounds])


@pytest.mark.slow
def test_every_width_leaf_of_the_loop_models_over_its_domain():
    """Every width-kind leaf of DeepDB fitted to the optimizer loop's 16
    datasets (every join template) answers every range over its domain
    ±2 as the dot."""
    leaves = []
    for j in range(16):
        dataset = generate_dataset(random_spec(40_000_000 + j,
                                               ranges=LOOP_RANGES))
        workload = generate_workload(
            dataset, num_train=TESTBED.num_train_queries,
            num_test=TESTBED.num_test_queries, seed=TESTBED.seed,
            max_templates=len(dataset.connected_subsets()))
        deepdb = TESTBED.build_candidates()["DeepDB"]
        deepdb.fit(TrainingContext.build(dataset, workload,
                                         seed=TESTBED.seed,
                                         sample_size=TESTBED.sample_size))
        deepdb.prepare_templates(dataset.connected_subsets())
        leaves += [leaf for root in deepdb._models.values() if root
                   for leaf in spn_leaves(root)
                   if leaf.histogram.discretizer.kind == "width"]
    assert len(leaves) > 400
    for leaf in leaves:
        edges = leaf.histogram.discretizer.edges     # [low, high + 1]
        bounds = range(int(edges[0]) - 2, int(edges[-1]) + 2)
        assert_pinned(leaf, "probability", [{leaf.column: (lo, hi)}
                                            for lo in bounds for hi in bounds])


# ----------------------------------------------------------------------
# One schedule per set of constrained columns
# ----------------------------------------------------------------------
def test_an_answer_does_not_depend_on_order():
    """A flat SPN keeps one schedule per set of constrained columns, so
    an answer has the same bytes whatever the order of the ranges dict
    and whichever column sets were asked about first."""
    (deepdb, _, flat), _, _, _ = pinned(*SPECS[-1])
    rng = np.random.default_rng(9)
    roots = list(deepdb._models.values()) + [
        root.rest for root in flat._models.values()
        if isinstance(root, FactorizeNode) and root.rest is not None]
    for root in roots:
        columns = spn_columns(root)
        queries = []
        for _ in range(30):
            chosen = rng.choice(columns, replace=False, size=int(
                rng.integers(1, min(4, len(columns)) + 1)))
            queries.append({str(column): tuple(sorted(
                rng.integers(-2, 45, 2).tolist())) for column in chosen})
        forward, backward = FlatSPN(root), FlatSPN(root)
        answers = [forward.probability(q) for q in queries]
        reordered = [backward.probability(dict(reversed(q.items())))
                     for q in reversed(queries)][::-1]
        assert (np.array(answers).tobytes()
                == np.array(reordered).tobytes())
        assert len(forward._schedules) == len(
            {frozenset(q) for q in queries})
        assert_pinned(root, "probability", queries)


def test_one_column_chow_liu_tree():
    rng = np.random.default_rng(4)
    tree = ChowLiuTree().fit({"a": rng.integers(0, 5, 300)}, {"a": 5})
    assert_pinned(tree, "query_probability",
                  [{}, {"a": rng.random(5)}, {"a": np.zeros(5)},
                   {"b": rng.random(3)}])


def test_refit_tree_answers_from_its_new_fit():
    rng = np.random.default_rng(5)
    tree = ChowLiuTree()
    for names, n_bins in ((["a", "b", "c", "d"], 4), (["x", "y", "z"], 3)):
        base = rng.integers(0, n_bins, 500)
        ids = {c: (base + rng.integers(0, 2, 500) * i) % n_bins
               for i, c in enumerate(names)}
        tree.fit(ids, {c: n_bins for c in names})
        # A fit drops what the previous fit's queries prepared.
        assert_pinned(tree, "query_probability",
                      [{}] + [{c: rng.random(n_bins)} for c in names])


# ----------------------------------------------------------------------
# Seeded properties over random ranges
# ----------------------------------------------------------------------
VALUE_DOMAIN, WIDTH_DOMAIN = 12, 600


def random_spn(rng: np.random.Generator, depth: int = 0):
    """A hand-built SPN: sums and products of 2–4 children (sums with
    uneven weights, where the order of the addition matters)."""
    kind = rng.integers(3) if depth < 3 else 0
    if kind == 0:
        column = f"t.c{rng.integers(4)}"
        domain = VALUE_DOMAIN if column in ("t.c0", "t.c1") else WIDTH_DOMAIN
        values = rng.integers(0, domain, int(rng.integers(5, 80)))
        return LeafNode(column, values)
    children = [random_spn(rng, depth + 1)
                for _ in range(int(rng.integers(2, 5)))]
    if kind == 1:
        return ProductNode(children)
    return SumNode(rng.integers(1, 100, len(children)).tolist(), children)


bounds = st.tuples(st.integers(-5, WIDTH_DOMAIN + 5),
                   st.integers(-5, WIDTH_DOMAIN + 5))


@seed(20_231_017)
@settings(max_examples=80, deadline=None)
@given(spn_seed=st.integers(0, 2**32 - 1),
       ranges=st.dictionaries(st.sampled_from(
           ["t.c0", "t.c1", "t.c2", "t.c3", "t.other"]), bounds))
def test_random_ranges_on_random_spns(spn_seed, ranges):
    spn = random_spn(np.random.default_rng(spn_seed))
    assert_pinned(spn, "probability", [ranges])


@seed(20_231_018)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_ranges_on_fitted_templates(data):
    models, _, _, _ = pinned(*SPECS[-1])
    model = data.draw(st.sampled_from(models))
    template = data.draw(st.sampled_from(sorted(model._models)))
    # Key columns are in no sample, so they are outside every model.
    columns = sorted(f"{t}.{c}" for t in template
                     for c in model._ctx.dataset[t].columns)
    chosen = data.draw(st.lists(st.sampled_from(columns), max_size=4))
    predicates = []
    for column in chosen:
        table, name = column.split(".", 1)
        lo, hi = sorted(data.draw(st.tuples(st.integers(-3, 60),
                                            st.integers(-3, 60))))
        predicates.append(Predicate(table, name, lo, hi))
    assert_pinned(model, "estimate", [Query(template, tuple(predicates))])


@seed(20_231_019)
@settings(max_examples=80, deadline=None)
@given(tree_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_random_masses_on_random_trees(tree_seed, data):
    rng = np.random.default_rng(tree_seed)
    names = [f"c{i}" for i in range(int(rng.integers(1, 7)))]
    bins = {c: int(rng.integers(2, 9)) for c in names}
    base = rng.integers(0, 64, 400)
    ids = {c: (base + rng.integers(0, 3, 400)) % bins[c] for c in names}
    tree = ChowLiuTree(alpha=float(rng.uniform(0.01, 0.5))).fit(ids, bins)
    constrained = data.draw(st.lists(st.sampled_from(names + ["other"]),
                                     unique=True))
    allowed = {c: rng.random(bins.get(c, 3)) for c in constrained}
    assert_pinned(tree, "query_probability", [allowed])


def test_reference_swaps_back():
    shipped = [getattr(cls, name) for cls, name, _ in RECURSION]
    with recursive_inference():
        assert [getattr(cls, name) for cls, name, _ in RECURSION] == \
            [method for _, _, method in RECURSION]
    assert [getattr(cls, name) for cls, name, _ in RECURSION] == shipped
