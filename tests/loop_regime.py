"""The optimizer loop's dataset regime.

Correlated, skewed 3–4-table datasets, where the histogram's independence
assumption misprices joins, so the pick of a CE model changes plans.
``benchmarks/e2e/workloads.py`` generates its loop datasets in this
regime (it keeps its own copy, since the end-to-end benchmark imports
only the package); the inference and planner pins and the
``ce_inference`` row of ``benchmarks/run_benchmarks.py`` import it from
here.

Test support only, like ``oracles.py``: pytest puts ``tests/`` on
``sys.path``, and ``run_benchmarks.py`` puts it there for the benches.
"""

#: ``random_spec`` ranges of the loop regime.
LOOP_RANGES = {"num_tables": (3, 4), "rows": (3_000, 6_000),
               "skew": (0.7, 0.95), "max_correlation": (0.8, 0.95),
               "interaction": (0.7, 0.95), "fanout_skew": (0.8, 1.0),
               "domain": (8, 40)}
