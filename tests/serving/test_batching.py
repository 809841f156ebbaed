"""Unit tests for the daemon micro-batch coalescer."""

import dataclasses
import io
import os

import pytest

from repro.serving import BatchingConfig, iter_batches


class TestBatchingConfig:
    def test_defaults(self):
        config = BatchingConfig()
        assert config.max_batch == 16
        assert config.window_ms == 5.0

    def test_rejects_non_positive_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=0)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window_ms"):
            BatchingConfig(window_ms=-1.0)

    @pytest.mark.parametrize("max_batch", [-1, -16])
    def test_rejects_every_max_batch_below_one(self, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=max_batch)

    @pytest.mark.parametrize("window_ms", [-1e-9, float("-inf")])
    def test_rejects_every_negative_window(self, window_ms):
        with pytest.raises(ValueError, match="window_ms"):
            BatchingConfig(window_ms=window_ms)

    @pytest.mark.parametrize("max_batch, window_ms", [(1, 0.0), (1024, 1e3)])
    def test_accepts_the_bounds_of_its_range(self, max_batch, window_ms):
        config = BatchingConfig(max_batch=max_batch, window_ms=window_ms)
        assert (config.max_batch, config.window_ms) == (max_batch, window_ms)

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
        config = BatchingConfig(max_batch=2, window_ms=0)
        assert list(iter_batches(stream, config)) == [
            ["a", "b"], ["c", "d"], ["e"]]

    def test_max_batch_one_is_serial(self):
        stream = io.StringIO("a\nb\nc\n")
        config = BatchingConfig(max_batch=1, window_ms=0)
        assert list(iter_batches(stream, config)) == [["a"], ["b"], ["c"]]

    def test_eof_flushes_partial_batch(self):
        stream = io.StringIO("a\nb")  # no trailing newline
        assert list(iter_batches(stream)) == [["a", "b"]]

    def test_order_is_preserved(self):
        lines = [f"path-{i}" for i in range(40)]
        stream = io.StringIO("\n".join(lines) + "\n")
        config = BatchingConfig(max_batch=7, window_ms=0)
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
        config = BatchingConfig(max_batch=3, window_ms=0)
        assert list(iter_batches(stream, config)) == [["a", "b", "c"]]

    def test_blank_lines_do_not_count_toward_max_batch(self):
        stream = io.StringIO("a\n\n\nb\n\nc\n")
        config = BatchingConfig(max_batch=2, window_ms=0)
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
        config = BatchingConfig(max_batch=max_batch, window_ms=0)
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
                               BatchingConfig(max_batch=2, window_ms=1e3))
        assert list(batches) == [["a", "b"], ["c"]]

    def test_pipe_stream_respects_window(self):
        """A real pipe is selectable: with a zero window only already-
        buffered lines join, and the reader blocks for each next batch's
        first line (EOF from the closed write end stops it)."""
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("a\nb\nc\n")
        config = BatchingConfig(max_batch=16, window_ms=50.0)
        with os.fdopen(read_fd, "r") as reader:
            batches = list(iter_batches(reader, config))
        assert batches == [["a", "b", "c"]]

    def test_pipe_stream_splits_at_max_batch(self):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("a\n\nb\nc\nd\ne\n")
        config = BatchingConfig(max_batch=2, window_ms=50.0)
        with os.fdopen(read_fd, "r") as reader:
            batches = list(iter_batches(reader, config))
        assert batches == [["a", "b"], ["c", "d"], ["e"]]

    def test_pipe_batch_closes_when_its_window_expires(self):
        """With the writer still open and nothing more written, the open
        batch closes after its window; lines written later start the
        next batch."""
        read_fd, write_fd = os.pipe()
        writer = os.fdopen(write_fd, "w")
        with os.fdopen(read_fd, "r") as reader:
            try:
                writer.write("a\n")
                writer.flush()
                batches = iter_batches(
                    reader, BatchingConfig(max_batch=16, window_ms=20.0))
                assert next(batches) == ["a"]
                writer.write("b\nc\n")
            finally:
                writer.close()
            assert list(batches) == [["b", "c"]]

    def test_pipe_eof_without_a_newline_flushes(self):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write("a\nb")
        with os.fdopen(read_fd, "r") as reader:
            batches = list(iter_batches(reader,
                                        BatchingConfig(window_ms=50.0)))
        assert batches == [["a", "b"]]
