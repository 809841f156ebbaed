"""Micro-batch coalescing for the streaming daemon.

``repro serve --daemon`` reads dataset paths from stdin, one per line.
The coalescer turns that line stream into micro-batches, so callers whose
requests arrive together share one ``recommend_batch`` call (one GIN
forward and one KNN scan): it blocks for the first line of a batch, then
admits every further line that is already available, up to
``max_batch``, and never waits for more.  A request is never held back
for a batch-mate, so an idle daemon answers a lone request at once, and a
busy one batches whatever queued up while it served the last batch (the
``daemon_microbatch`` row in ``results/BENCH_micro.json``).

"Available" depends on the stream:

* **Selectable streams** (a real stdin pipe): the coalescer reads the
  fd itself into its own line buffer, so every line already read joins
  the open batch, and it polls the pipe with ``select()`` and a zero
  timeout only when no complete line is buffered.
* **Non-selectable streams** (no ``fileno``, such as ``io.StringIO``
  under test): every line is already buffered, so the batch is drained
  greedily up to ``max_batch``.

The coalescer never re-orders and never drops: lines are batched in
arrival order, blank lines are skipped, and EOF flushes the final
partial batch.
"""

from __future__ import annotations

import io
import os
import select
from collections import deque
from typing import IO, Iterator


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

    def ready(self) -> bool:
        """Whether a line (or EOF) is at hand without waiting."""
        while not self.lines and not self.eof:
            try:
                if not select.select([self.fd], [], [], 0)[0]:
                    return False
            except (OSError, ValueError):
                return False
            self._read()
        return True


def iter_batches(stream: IO[str],
                 max_batch: int = 16) -> Iterator[list[str]]:
    """Drain a line stream into micro-batches of stripped non-blank lines.

    Blocks until a batch's first line arrives, then admits the further
    lines already available until none is left or the batch holds
    ``max_batch`` (the CLI's ``--max-batch``).  Yields each non-empty
    batch in arrival order; returns at EOF (flushing the partial batch).
    A ``max_batch`` below 1 raises ``ValueError`` before the stream is
    read.  A selectable stream is read through its fd, so nothing else
    may read it meanwhile.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, not {max_batch}")
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
        while len(batch) < max_batch:
            if lines is not None and not lines.ready():
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
