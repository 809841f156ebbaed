"""Micro-batch coalescing for the streaming daemon.

``repro serve --daemon`` historically answered one stdin path at a time,
paying the full GIN forward + KNN scan per request even though the batched
fast path amortizes both across a whole query matrix.  The coalescer
turns the line stream into micro-batches: it blocks for the first line of
a batch, then keeps draining lines that arrive within ``window_ms``
(bounded by ``max_batch``) so concurrent callers share one
``recommend_batch`` call.  Latency cost is at most one window per
request; throughput gain is the batch fast path (see the
``daemon_microbatch`` row in ``results/BENCH_micro.json``).

Two drain strategies, picked per stream:

* **Selectable streams** (a real stdin pipe): ``select()`` with the
  remaining window as the timeout, so the daemon sleeps at most
  ``window_ms`` past the first request of a batch.
* **Non-selectable streams** (``io.StringIO`` under test, platforms
  without ``select`` on the handle): every buffered line is already
  available, so the batch is drained greedily up to ``max_batch`` with
  no waiting at all.

The coalescer never re-orders and never drops: lines are batched in
arrival order, blank lines are skipped, and EOF flushes the final
partial batch.
"""

from __future__ import annotations

import io
import select
import time
from dataclasses import dataclass
from typing import IO, Iterator


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of the daemon coalescer (CLI ``--max-batch`` /
    ``--batch-window-ms``)."""

    #: Largest number of requests coalesced into one batch.
    max_batch: int = 16
    #: How long (milliseconds) a batch stays open after its first request
    #: waiting for more.  0 disables waiting: only lines already buffered
    #: join the batch.
    window_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.window_ms < 0:
            raise ValueError("window_ms must be >= 0")


def _line_ready(stream: IO[str], deadline: float) -> bool:
    """Whether another line should be drained into the open batch."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, io.UnsupportedOperation):
        # Non-selectable stream: everything it will ever produce is
        # already buffered, so drain greedily (EOF closes the batch).
        return True
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return False
    try:
        ready, _, _ = select.select([fd], [], [], remaining)
    except (OSError, ValueError):
        return False
    return bool(ready)


def iter_batches(stream: IO[str],
                 config: BatchingConfig | None = None
                 ) -> Iterator[list[str]]:
    """Drain a line stream into micro-batches of stripped non-blank lines.

    Blocks until a batch's first line arrives, then admits further lines
    until the window closes or the batch is full.  Yields each non-empty
    batch in arrival order; returns at EOF (flushing the partial batch).
    """
    config = config or BatchingConfig()
    while True:
        line = stream.readline()
        if line == "":
            return
        batch = [line.strip()] if line.strip() else []
        deadline = time.monotonic() + config.window_ms / 1000.0
        while len(batch) < config.max_batch:
            if not _line_ready(stream, deadline):
                break
            line = stream.readline()
            if line == "":
                if batch:
                    yield batch
                return
            if line.strip():
                batch.append(line.strip())
        if batch:
            yield batch
