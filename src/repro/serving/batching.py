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

* **Selectable streams** (a real stdin pipe): the coalescer reads the
  fd itself into its own line buffer, so every line already read joins
  the open batch, and it calls ``select()`` (the remaining window as the
  timeout; a refusal closes the batch) only when no complete line is
  buffered.  The daemon sleeps at most ``window_ms`` past the first
  request of a batch.
* **Non-selectable streams** (no ``fileno``, such as ``io.StringIO``
  under test): every line is already buffered, so the batch is drained
  greedily up to ``max_batch`` with no waiting at all.

The coalescer never re-orders and never drops: lines are batched in
arrival order, blank lines are skipped, and EOF flushes the final
partial batch.
"""

from __future__ import annotations

import io
import math
import os
import select
import time
from collections import deque
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
        if not (math.isfinite(self.window_ms) and self.window_ms >= 0):
            raise ValueError("window_ms must be a finite number >= 0")


class _FdLines:
    """A selectable stream's lines, read from its fd into the coalescer's
    own buffer: ``select()`` sees only bytes still in the pipe, not lines a
    ``TextIOWrapper`` has already buffered, so it is asked only when no
    complete line is held here."""

    def __init__(self, stream: IO[str]) -> None:
        self.fd = stream.fileno()
        self.codec = (getattr(stream, "encoding", None) or "utf-8",
                      getattr(stream, "errors", None) or "strict")
        self.lines: deque[bytes] = deque()
        self.tail = b""
        self.eof = False

    def _read(self) -> None:
        """One blocking read; at EOF an unterminated last line completes."""
        chunk = os.read(self.fd, 65536)
        self.eof = not chunk
        *complete, self.tail = (self.tail + (chunk or b"\n")).split(b"\n")
        self.lines.extend(complete)

    def readline(self) -> str:
        """The next line, blocking for it; "" at EOF, as ``readline``."""
        while not self.lines and not self.eof:
            self._read()
        return (self.lines.popleft().decode(*self.codec) + "\n"
                if self.lines else "")

    def ready(self, deadline: float) -> bool:
        """Whether a line (or EOF) is at hand before ``deadline``."""
        while not self.lines and not self.eof:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0 or not select.select(
                        [self.fd], [], [], remaining)[0]:
                    return False
            except (OSError, ValueError):
                return False
            self._read()
        return True


def iter_batches(stream: IO[str],
                 config: BatchingConfig | None = None
                 ) -> Iterator[list[str]]:
    """Drain a line stream into micro-batches of stripped non-blank lines.

    Blocks until a batch's first line arrives, then admits further lines
    until the window closes or the batch is full.  Yields each non-empty
    batch in arrival order; returns at EOF (flushing the partial batch).
    A selectable stream is read through its fd, so nothing else may read
    it meanwhile.
    """
    config = config or BatchingConfig()
    try:
        lines: _FdLines | None = _FdLines(stream)
    except (AttributeError, OSError, io.UnsupportedOperation):
        # Non-selectable stream: everything it will ever produce is
        # already buffered, so drain greedily (EOF closes the batch).
        lines = None
    readline = stream.readline if lines is None else lines.readline
    while True:
        line = readline()
        if line == "":
            return
        batch = [line.strip()] if line.strip() else []
        deadline = time.monotonic() + config.window_ms / 1000.0
        while len(batch) < config.max_batch:
            if lines is not None and not lines.ready(deadline):
                break
            line = readline()
            if line == "":
                if batch:
                    yield batch
                return
            if line.strip():
                batch.append(line.strip())
        if batch:
            yield batch
