"""Deterministic storage faults: torn and corrupted files.

A crashed writer can leave a file cut short, and bit rot can flip bytes
in place.  :class:`FaultPlan` reproduces both from one seed, so a test
that feeds such a file to a loader replays bit-identically on every run:

* :meth:`FaultPlan.tear_file` truncates a file mid-payload (a torn write
  surviving a crash);
* :meth:`FaultPlan.corrupt_file` flips seeded bytes in place (bit rot, a
  bad sector).

Test support only: pytest puts ``tests/`` on ``sys.path``, so a test
imports it as ``from faults import FaultPlan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class FaultPlan:
    """A seeded plan of storage faults."""

    seed: int = 0
    #: Fraction of a file kept by :meth:`tear_file`.
    tear_fraction: float = 0.5
    #: Bytes flipped by :meth:`corrupt_file`.
    corrupt_bytes: int = 8

    def tear_file(self, path: str | Path) -> None:
        """Truncate ``path`` to ``tear_fraction`` of its bytes: the torn
        write a crashed process leaves behind when its writes were not
        routed through an atomic temp-file replace."""
        path = Path(path)
        size = path.stat().st_size
        keep = int(size * self.tear_fraction)
        with open(path, "rb+") as handle:
            handle.truncate(keep)

    def corrupt_file(self, path: str | Path) -> None:
        """Flip ``corrupt_bytes`` seeded byte positions of ``path`` in
        place (bit rot: size unchanged, payload silently wrong)."""
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            return
        rng = np.random.default_rng(self.seed)
        for pos in rng.integers(0, len(data), size=self.corrupt_bytes):
            data[int(pos)] ^= 0xFF
        path.write_bytes(bytes(data))
