"""The streaming daemon's micro-batch coalescer.

``repro serve`` answers every request in process through
``AutoCE.recommend_batch``.  :mod:`~repro.serving.batching` turns the
``--daemon`` stdin stream into micro-batches so concurrent callers share
one batched call.  See ``docs/serving.md``.
"""

from .batching import BatchingConfig, iter_batches

__all__ = ["BatchingConfig", "iter_batches"]
