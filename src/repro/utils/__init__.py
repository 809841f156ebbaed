"""Shared utilities: deterministic RNG handling, disk caching."""

from .rng import rng_from_seed
from .cache import DiskCache, stable_hash

__all__ = ["rng_from_seed", "DiskCache", "stable_hash"]
