"""Unit tests for the daemon micro-batch coalescer."""

import dataclasses
import io
import os
import select
import threading
import types

import pytest

from repro.serving import BatchingConfig, batching, iter_batches


class TestBatchingConfig:
    def test_defaults(self):
        assert BatchingConfig().max_batch == 16

    def test_rejects_non_positive_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=0)

    @pytest.mark.parametrize("max_batch", [-1, -16])
    def test_rejects_every_max_batch_below_one(self, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=max_batch)

    @pytest.mark.parametrize("max_batch", [1, 1024])
    def test_accepts_the_bounds_of_its_range(self, max_batch):
        assert BatchingConfig(max_batch=max_batch).max_batch == max_batch

    def test_has_no_window(self):
        """A batch never waits for more lines, so there is nothing to
        configure but its size."""
        assert [f.name for f in dataclasses.fields(BatchingConfig)] == [
            "max_batch"]

    def test_is_frozen(self):
        config = BatchingConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_batch = 2


def expected_batches(lines, max_batch):
    """The coalescer's contract on a fully buffered stream: the stripped
    non-blank lines, in order, cut into runs of ``max_batch``."""
    kept = [line.strip() for line in lines if line.strip()]
    return [kept[i:i + max_batch] for i in range(0, len(kept), max_batch)]


class TestIterBatches:
    """io.StringIO has no selectable fd, so the coalescer drains it
    greedily — everything buffered joins the batch up to max_batch."""

    def test_empty_stream_yields_nothing(self):
        assert list(iter_batches(io.StringIO(""))) == []

    def test_blank_lines_are_skipped(self):
        stream = io.StringIO("\n\n  \na\n\nb\n")
        assert list(iter_batches(stream)) == [["a", "b"]]

    def test_max_batch_splits_the_stream(self):
        stream = io.StringIO("a\nb\nc\nd\ne\n")
        config = BatchingConfig(max_batch=2)
        assert list(iter_batches(stream, config)) == [
            ["a", "b"], ["c", "d"], ["e"]]

    def test_max_batch_one_is_serial(self):
        stream = io.StringIO("a\nb\nc\n")
        config = BatchingConfig(max_batch=1)
        assert list(iter_batches(stream, config)) == [["a"], ["b"], ["c"]]

    def test_eof_flushes_partial_batch(self):
        stream = io.StringIO("a\nb")  # no trailing newline
        assert list(iter_batches(stream)) == [["a", "b"]]

    def test_order_is_preserved(self):
        lines = [f"path-{i}" for i in range(40)]
        stream = io.StringIO("\n".join(lines) + "\n")
        config = BatchingConfig(max_batch=7)
        flat = [line for batch in iter_batches(stream, config)
                for line in batch]
        assert flat == lines

    def test_surrounding_whitespace_is_stripped(self):
        stream = io.StringIO("  /data/a.npz\t\n\t/data/b.npz  \n")
        assert list(iter_batches(stream)) == [["/data/a.npz", "/data/b.npz"]]

    def test_crlf_line_endings_are_stripped(self):
        stream = io.StringIO("a.npz\r\nb.npz\r\n", newline="")
        assert list(iter_batches(stream)) == [["a.npz", "b.npz"]]

    def test_whitespace_only_stream_yields_nothing(self):
        assert list(iter_batches(io.StringIO("\n \n\t\n  "))) == []

    def test_default_config_coalesces_up_to_sixteen(self):
        lines = [f"p{i}" for i in range(40)]
        stream = io.StringIO("\n".join(lines) + "\n")
        sizes = [len(batch) for batch in iter_batches(stream)]
        assert sizes == [16, 16, 8]

    def test_exactly_max_batch_lines_form_one_batch(self):
        stream = io.StringIO("a\nb\nc\n")
        config = BatchingConfig(max_batch=3)
        assert list(iter_batches(stream, config)) == [["a", "b", "c"]]

    def test_blank_lines_do_not_count_toward_max_batch(self):
        stream = io.StringIO("a\n\n\nb\n\nc\n")
        config = BatchingConfig(max_batch=2)
        assert list(iter_batches(stream, config)) == [["a", "b"], ["c"]]

    @pytest.mark.parametrize("num_lines, max_batch, blank_every", [
        (1, 1, 0), (5, 5, 0), (6, 5, 0), (17, 4, 3), (32, 16, 2),
        (50, 7, 5)])
    def test_batches_partition_the_stream_in_order(
            self, num_lines, max_batch, blank_every):
        lines = []
        for i in range(num_lines):
            if blank_every and i % blank_every == 0:
                lines.append("   ")
            lines.append(f" ds-{i}.npz ")
        stream = io.StringIO("\n".join(lines) + "\n")
        config = BatchingConfig(max_batch=max_batch)
        batches = list(iter_batches(stream, config))
        assert batches == expected_batches(lines, max_batch)
        assert all(1 <= len(batch) <= max_batch for batch in batches)

    def test_batches_are_drawn_lazily(self):
        """The daemon answers a batch before later lines are read: the
        generator consumes only what the batch it yields needs."""
        stream = io.StringIO("a\nb\nc\nd\n")
        batches = iter_batches(stream, BatchingConfig(max_batch=2))
        assert next(batches) == ["a", "b"]
        assert stream.readline() == "c\n"
        assert list(batches) == [["d"]]

    def test_a_stream_without_fileno_is_drained_greedily(self):
        class LineSource:
            """Only ``readline``: not selectable, like a wrapped source."""

            def __init__(self, text):
                self.lines = io.StringIO(text)

            def readline(self):
                return self.lines.readline()

        batches = iter_batches(LineSource("a\nb\nc\n"),
                               BatchingConfig(max_batch=2))
        assert list(batches) == [["a", "b"], ["c"]]

    def test_pipe_stream_batches_what_is_buffered(self):
        """A real pipe is selectable: the lines already written join the
        first batch, and EOF from the closed write end stops the
        reader."""
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("a\nb\nc\n")
        config = BatchingConfig(max_batch=16)
        with os.fdopen(read_fd, "r") as reader:
            batches = list(iter_batches(reader, config))
        assert batches == [["a", "b", "c"]]

    def test_pipe_stream_splits_at_max_batch(self):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("a\n\nb\nc\nd\ne\n")
        config = BatchingConfig(max_batch=2)
        with os.fdopen(read_fd, "r") as reader:
            batches = list(iter_batches(reader, config))
        assert batches == [["a", "b"], ["c", "d"], ["e"]]

    def test_pipe_batch_closes_when_no_line_is_available(self):
        """With the writer still open and nothing more written, the open
        batch closes at once instead of waiting; lines written later
        start the next batch."""
        read_fd, write_fd = os.pipe()
        writer = os.fdopen(write_fd, "w")
        with os.fdopen(read_fd, "r") as reader:
            try:
                writer.write("a\n")
                writer.flush()
                batches = iter_batches(reader, BatchingConfig(max_batch=16))
                assert next(batches) == ["a"]
                writer.write("b\nc\n")
            finally:
                writer.close()
            assert list(batches) == [["b", "c"]]

    def test_an_empty_pipe_yields_nothing(self):
        read_fd, write_fd = os.pipe()
        os.close(write_fd)
        with os.fdopen(read_fd, "r") as reader:
            assert list(iter_batches(reader)) == []

    def test_pipe_eof_without_a_newline_flushes(self):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("a\nb")
        with os.fdopen(read_fd, "r") as reader:
            batches = list(iter_batches(reader))
        assert batches == [["a", "b"]]


class TestPipeWithTheWriterOpen:
    """Lines written together reach the reader in one read, so they sit in
    a buffer rather than in the pipe; ``select()`` on the fd cannot see
    them, and each must still join the open batch."""

    def open_pipe(self, text):
        read_fd, write_fd = os.pipe()
        writer = os.fdopen(write_fd, "w", encoding="utf-8")
        writer.write(text)
        writer.flush()
        return os.fdopen(read_fd, "r", encoding="utf-8"), writer

    def test_every_buffered_line_joins(self):
        reader, writer = self.open_pipe("a\nb\nc\n")
        with reader, writer:
            batches = iter_batches(reader)
            assert next(batches) == ["a", "b", "c"]

    def test_max_batch_cuts_the_buffered_lines(self):
        reader, writer = self.open_pipe("a\nb\nc\n")
        with reader:
            batches = iter_batches(reader, BatchingConfig(max_batch=2))
            assert next(batches) == ["a", "b"]
            assert next(batches) == ["c"]
            writer.close()
            assert list(batches) == []

    def test_a_line_split_across_writes_is_read_whole(self):
        reader, writer = self.open_pipe("a\npar")
        with reader:
            batches = iter_batches(reader)
            assert next(batches) == ["a"]
            writer.write("tial\n\u00e9t\u00e9.npz\n")
            writer.close()
            assert list(batches) == [["partial", "\u00e9t\u00e9.npz"]]

    def test_blank_lines_in_a_buffered_burst_are_skipped(self):
        reader, writer = self.open_pipe("\n a \n\n\t\nb\r\n\n")
        with reader, writer:
            batches = iter_batches(reader)
            assert next(batches) == ["a", "b"]

    def test_lines_still_in_the_pipe_join(self, monkeypatch):
        """Reads of two bytes leave the later lines in the pipe, out of
        the coalescer's buffer: a zero-timeout ``select()`` finds each,
        and the batch takes them all."""
        monkeypatch.setattr(batching, "os", types.SimpleNamespace(
            read=lambda fd, n: os.read(fd, 2)))
        reader, writer = self.open_pipe("a\nb\nc\n")
        with reader, writer:
            batches = iter_batches(reader)
            assert next(batches) == ["a", "b", "c"]

    def test_the_coalescer_never_waits(self, monkeypatch):
        """Every ``select()`` polls with a zero timeout: a lone request is
        answered at once, never held back for a batch-mate."""
        timeouts = []

        def recording_select(rlist, wlist, xlist, timeout=None):
            timeouts.append(timeout)
            return select.select(rlist, wlist, xlist, timeout)

        monkeypatch.setattr(batching, "select",
                            types.SimpleNamespace(select=recording_select))
        reader, writer = self.open_pipe("a\n")
        with reader:
            batches = iter_batches(reader)
            assert next(batches) == ["a"]
            writer.write("b\npar")
            writer.flush()
            assert next(batches) == ["b"]
            writer.write("tial\n")
            writer.close()
            assert list(batches) == [["partial"]]
        assert timeouts and set(timeouts) == {0}

    def test_lines_across_many_reads_keep_their_order(self):
        """Over 64 KiB written in 1 000-byte slices that cut lines apart:
        every line arrives whole, once, in order."""
        lines = [f"/data/request-{i:05d}.npz" for i in range(4000)]
        text = "".join(f"{line}\n" for line in lines).encode("utf-8")
        read_fd, write_fd = os.pipe()

        def write():
            try:
                for start in range(0, len(text), 1000):
                    os.write(write_fd, text[start:start + 1000])
            finally:
                os.close(write_fd)

        thread = threading.Thread(target=write)
        thread.start()
        with os.fdopen(read_fd, "r", encoding="utf-8") as reader:
            batches = list(iter_batches(reader,
                                        BatchingConfig(max_batch=64)))
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(text) > 65536
        assert [line for batch in batches for line in batch] == lines
        assert all(1 <= len(batch) <= 64 for batch in batches)
