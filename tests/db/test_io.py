"""Dataset .npz round-trip (repro.db.io)."""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.core.graph import build_feature_graph
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.io import (FORMAT_VERSION, DatasetLoadError, load_dataset,
                         save_dataset)
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import Table


def small_dataset(parent_name="parent"):
    parent = Table(parent_name,
                   {"pk": np.arange(10), "a": np.arange(10) % 3})
    child = Table("child", {"fk_parent": np.array([0, 1, 1, 5, 9]),
                            "b": np.array([4, 4, 2, 0, 7])})
    return Dataset("tiny", [parent, child],
                   [ForeignKey("child", "fk_parent", parent_name)])


def read_format_2(path) -> tuple[dict, np.ndarray]:
    with np.load(path) as data:
        assert sorted(data.files) == ["columns", "metadata"]
        return (json.loads(bytes(data["metadata"]).decode()),
                data["columns"])


def write_format_2(path, metadata: dict, block: np.ndarray) -> None:
    np.savez(path, metadata=np.frombuffer(json.dumps(metadata).encode(),
                                          dtype=np.uint8),
             columns=block)


def write_zero_table_dataset(path) -> None:
    """A well-formed dataset file whose metadata lists no table."""
    write_format_2(path, {"format_version": FORMAT_VERSION, "name": "empty",
                          "tables": {}, "rows": {}, "foreign_keys": []},
                   np.zeros(0, dtype=np.int64))


def assert_same_dataset(actual: Dataset, expected: Dataset) -> None:
    """Names, table and column order, column bits and dtypes, FK list."""
    assert actual.name == expected.name
    assert actual.table_names == expected.table_names
    for name in expected.table_names:
        assert actual[name].column_names == expected[name].column_names
        for column in expected[name].column_names:
            loaded = actual[name][column]
            assert loaded.dtype == np.int64
            assert loaded.flags.c_contiguous and loaded.flags.writeable
            np.testing.assert_array_equal(loaded, expected[name][column],
                                          strict=True)
    assert actual.foreign_keys == expected.foreign_keys


def assert_same_feature_graph(actual: Dataset, expected: Dataset) -> None:
    a, b = build_feature_graph(actual), build_feature_graph(expected)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.edges.tobytes() == b.edges.tobytes()
    assert a.fingerprint() == b.fingerprint()


class TestRoundTrip:
    # "bad__name": a table name holding "__", which the old per-column
    # member keys ("{table}__{column}") could not store.
    @pytest.mark.parametrize("parent_name", ["parent", "bad__name"])
    def test_exact_columns(self, tmp_path, parent_name):
        path = str(tmp_path / "ds.npz")
        original = small_dataset(parent_name)
        save_dataset(original, path)
        restored = load_dataset(path)
        assert restored.name == original.name
        assert restored.table_names == original.table_names
        for name in original.table_names:
            orig_t, rest_t = original[name], restored[name]
            assert orig_t.column_names == rest_t.column_names
            for col in orig_t.column_names:
                np.testing.assert_array_equal(orig_t[col], rest_t[col])

    def test_foreign_keys_restored(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        save_dataset(small_dataset(), path)
        restored = load_dataset(path)
        assert restored.foreign_keys == [
            ForeignKey("child", "fk_parent", "parent")]

    def test_generated_dataset_round_trips(self, tmp_path):
        path = str(tmp_path / "gen.npz")
        original = generate_dataset(random_spec(17))
        save_dataset(original, path)
        restored = load_dataset(path)
        assert restored.table_names == original.table_names
        assert len(restored.foreign_keys) == len(original.foreign_keys)
        # The join graph is semantically identical: same connected subsets.
        tables = tuple(original.table_names)
        assert restored.is_connected_subset(tables) == \
            original.is_connected_subset(tables)

    @pytest.mark.parametrize("spec_seed", [0, 17, 42, 123])
    def test_generated_dataset_is_bit_identical(self, spec_seed, tmp_path):
        path = str(tmp_path / "gen.npz")
        original = generate_dataset(random_spec(spec_seed))
        save_dataset(original, path)
        restored = load_dataset(path)
        assert_same_dataset(restored, original)
        assert_same_feature_graph(restored, original)

    def test_restored_dataset_validates(self, tmp_path):
        """load_dataset goes through Dataset.__init__, re-running validation."""
        path = str(tmp_path / "ds.npz")
        save_dataset(small_dataset(), path)
        restored = load_dataset(path)
        assert restored["child"].fk_columns() == ["fk_parent"]


class TestFormat2Layout:
    def test_two_stored_members(self, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert [m.filename for m in members] == ["metadata.npy",
                                                 "columns.npy"]
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_metadata_and_block(self, tmp_path):
        path = tmp_path / "ds.npz"
        original = small_dataset()
        save_dataset(original, str(path))
        metadata, block = read_format_2(path)
        assert metadata == {
            "format_version": FORMAT_VERSION,
            "name": "tiny",
            "tables": {"parent": ["pk", "a"], "child": ["fk_parent", "b"]},
            "rows": {"parent": 10, "child": 5},
            "foreign_keys": [{"child": "child", "fk_column": "fk_parent",
                              "parent": "parent"}],
        }
        assert FORMAT_VERSION == 2
        assert block.dtype == np.int64 and block.ndim == 1
        np.testing.assert_array_equal(block, np.concatenate([
            original["parent"]["pk"], original["parent"]["a"],
            original["child"]["fk_parent"], original["child"]["b"]]))

    def test_table_with_zero_rows(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        parent = Table("parent", {"pk": np.arange(4), "a": np.arange(4)})
        child = Table("child", {"fk_parent": np.array([], dtype=np.int64),
                                "b": np.array([], dtype=np.int64)})
        original = Dataset("sparse", [parent, child],
                           [ForeignKey("child", "fk_parent", "parent")])
        save_dataset(original, path)
        assert_same_dataset(load_dataset(path), original)


class TestErrors:
    @pytest.mark.parametrize("version", [
        0, 1, FORMAT_VERSION + 1, str(FORMAT_VERSION), None])
    def test_version_mismatch(self, tmp_path, version):
        """This build reads only the format it writes: an older file fails
        like a newer one, as do a version held as a string and no version
        at all (None), and the error names the version."""
        path = str(tmp_path / "ds.npz")
        save_dataset(small_dataset(), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["metadata"]).decode())
        if version is None:
            del meta["format_version"]
        else:
            meta["format_version"] = version
        arrays["metadata"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(DatasetLoadError,
                           match=f"format version {version!r} "):
            load_dataset(path)

    @pytest.mark.parametrize("kind", [
        "missing", "directory", "not-a-zip", "torn", "no-metadata",
        "metadata-not-an-object"])
    def test_unloadable_file_raises_dataset_load_error(self, kind, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        if kind == "missing":
            path = tmp_path / "absent.npz"
        elif kind == "directory":
            path = tmp_path
        elif kind == "not-a-zip":
            path.write_bytes(b"not an npz payload")
        elif kind == "torn":
            path.write_bytes(path.read_bytes()[:100])
        elif kind == "no-metadata":
            del arrays["metadata"]
            np.savez_compressed(path, **arrays)
        else:
            arrays["metadata"] = np.frombuffer(b"[1, 2]", dtype=np.uint8)
            np.savez_compressed(path, **arrays)
        with pytest.raises(DatasetLoadError,
                           match="cannot load dataset from") as info:
            load_dataset(str(path))
        assert info.value.__cause__ is not None

    def test_zero_table_file_raises_dataset_load_error(self, tmp_path):
        path = tmp_path / "empty.npz"
        write_zero_table_dataset(path)
        with pytest.raises(DatasetLoadError,
                           match="at least one table") as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, ValueError)

    def test_permuted_parent_pk_raises_dataset_load_error(self, tmp_path):
        # Exact counts and execution address a parent row by its key, so a
        # parent whose key is not its row index must not load.
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        metadata, block = read_format_2(path)
        assert metadata["tables"]["parent"][0] == "pk"
        block[:10] = block[:10][::-1]
        write_format_2(path, metadata, block)
        with pytest.raises(DatasetLoadError, match="row index") as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("tables", [None, ["parent", "child"], "parent"])
    def test_metadata_without_a_table_map_raises_dataset_load_error(
            self, tables, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        metadata, block = read_format_2(path)
        if tables is None:
            del metadata["tables"]
        else:
            metadata["tables"] = tables
        write_format_2(path, metadata, block)
        with pytest.raises(DatasetLoadError, match="no table map") as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, ValueError)

    def test_flipped_block_byte_fails_the_crc(self, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        _, block = read_format_2(path)
        payload = bytearray(path.read_bytes())
        start = payload.find(block.tobytes())
        assert start > 0
        payload[start + 8] ^= 0x01  # parent.pk[1]: 1 -> 0, still in range
        path.write_bytes(bytes(payload))
        with pytest.raises(DatasetLoadError, match="CRC") as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, zipfile.BadZipFile)

    @pytest.mark.parametrize("offset, mask, message", [
        (6, 0xFF, "zip file version"),
        (8, 0xFF, "flag bit 5"),
        (8, 0x01, "encrypted"),
        (10, 0xFF, "compression method"),
    ], ids=["version-needed", "flags", "encrypted-flag", "compression"])
    def test_flipped_zip_directory_field_raises_dataset_load_error(
            self, offset, mask, message, tmp_path):
        """zipfile refuses these header values with NotImplementedError or
        RuntimeError rather than BadZipFile; the loader still answers
        with its typed error, so the serving daemon reports the file."""
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        payload = bytearray(path.read_bytes())
        entry = payload.find(b"PK\x01\x02")   # first central-directory entry
        assert entry > 0
        payload[entry + offset] ^= mask
        path.write_bytes(bytes(payload))
        with pytest.raises(DatasetLoadError, match=message) as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_every_flipped_byte_raises_typed_or_loads_the_same_dataset(
            self, tmp_path):
        """Bit rot anywhere in the file: the loader either refuses it
        with DatasetLoadError or returns the saved dataset unchanged
        (the byte sat in a field nothing reads, such as a timestamp).

        The clean bytes are written once and each position is flipped in
        place, then restored after the load, so each position writes one
        byte instead of the whole file."""
        save_dataset(small_dataset(), str(tmp_path / "clean.npz"))
        clean = (tmp_path / "clean.npz").read_bytes()
        path = tmp_path / "flipped.npz"
        path.write_bytes(clean)
        loaded = 0
        for position, byte in enumerate(clean):
            with open(path, "r+b") as handle:
                handle.seek(position)
                handle.write(bytes([byte ^ 0xFF]))
            try:
                dataset = load_dataset(str(path))
            except DatasetLoadError:
                continue
            finally:
                with open(path, "r+b") as handle:
                    handle.seek(position)
                    handle.write(bytes([byte]))
            assert_same_dataset(dataset, small_dataset())
            loaded += 1
        assert path.read_bytes() == clean
        assert loaded < len(clean) // 2

    @pytest.mark.parametrize("kind, message", [
        ("torn", "cannot load dataset from"),
        ("block-short", "need 30"),
        ("block-long", "need 30"),
        ("block-float", "1-D int64"),
        ("block-2d", "1-D int64"),
        ("no-block", "columns"),
        ("rows-missing", "row counts"),
        ("rows-not-an-object", "row counts"),
        ("rows-missing-a-table", "'child'"),
        ("rows-negative", "'child'"),
        ("rows-float", "'child'"),
        ("rows-string", "'child'"),
        ("rows-bool", "'child'"),
    ])
    def test_bad_format_2_file_raises_dataset_load_error(self, kind, message,
                                                         tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        metadata, block = read_format_2(path)
        rows = metadata["rows"]
        if kind == "torn":
            payload = path.read_bytes()
            path.write_bytes(payload[:len(payload) // 2])
        elif kind == "no-block":
            np.savez(path, metadata=np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8))
        else:
            if kind == "block-short":
                block = block[:-1]
            elif kind == "block-long":
                block = np.append(block, np.int64(0))
            elif kind == "block-float":
                block = block.astype(np.float64)
            elif kind == "block-2d":
                block = block.reshape(2, -1)
            elif kind == "rows-missing":
                del metadata["rows"]
            elif kind == "rows-not-an-object":
                metadata["rows"] = [10, 5]
            elif kind == "rows-missing-a-table":
                del rows["child"]
            elif kind == "rows-negative":
                # Balanced so the block length alone would not notice.
                rows["parent"], rows["child"] = 16, -1
            elif kind == "rows-float":
                rows["child"] = 5.0
            elif kind == "rows-string":
                rows["child"] = "5"
            else:
                rows["child"] = True
            write_format_2(path, metadata, block)
        with pytest.raises(DatasetLoadError, match=message) as info:
            load_dataset(str(path))
        assert info.value.__cause__ is not None
