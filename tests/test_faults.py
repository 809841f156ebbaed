"""The storage-fault harness: seeded torn writes and byte flips."""

from __future__ import annotations

import numpy as np
import pytest

from faults import FaultPlan

#: A 1 KiB payload in which every byte value occurs four times.
PAYLOAD = bytes(range(256)) * 4


def write_blob(tmp_path, data: bytes = PAYLOAD, name: str = "blob"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


class TestFaultPlanDefaults:
    def test_defaults(self):
        plan = FaultPlan()
        assert (plan.seed, plan.tear_fraction, plan.corrupt_bytes) == (
            0, 0.5, 8)


class TestTearFile:
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.9, 0.999, 1.0])
    def test_keeps_the_leading_fraction_of_the_bytes(self, tmp_path,
                                                     fraction):
        path = write_blob(tmp_path)
        FaultPlan(tear_fraction=fraction).tear_file(path)
        kept = path.read_bytes()
        assert len(kept) == int(len(PAYLOAD) * fraction)
        assert kept == PAYLOAD[:len(kept)]

    def test_accepts_a_string_path(self, tmp_path):
        path = write_blob(tmp_path)
        FaultPlan(tear_fraction=0.25).tear_file(str(path))
        assert path.read_bytes() == PAYLOAD[:256]

    def test_tearing_an_empty_file_leaves_it_empty(self, tmp_path):
        path = write_blob(tmp_path, b"")
        FaultPlan().tear_file(path)
        assert path.read_bytes() == b""

    def test_tearing_twice_compounds(self, tmp_path):
        path = write_blob(tmp_path)
        plan = FaultPlan(tear_fraction=0.5)
        plan.tear_file(path)
        plan.tear_file(path)
        assert path.read_bytes() == PAYLOAD[:256]

    def test_tear_ignores_the_seed(self, tmp_path):
        torn = []
        for seed in (0, 1):
            path = write_blob(tmp_path, name=f"blob{seed}")
            FaultPlan(seed=seed, tear_fraction=0.3).tear_file(path)
            torn.append(path.read_bytes())
        assert torn[0] == torn[1]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FaultPlan().tear_file(tmp_path / "absent")


def flipped_positions(before: bytes, after: bytes) -> np.ndarray:
    a = np.frombuffer(before, dtype=np.uint8)
    b = np.frombuffer(after, dtype=np.uint8)
    return np.flatnonzero(a != b)


class TestCorruptFile:
    @pytest.mark.parametrize("corrupt_bytes", [1, 8, 64, 512])
    def test_flips_whole_bytes_in_place(self, tmp_path, corrupt_bytes):
        path = write_blob(tmp_path)
        FaultPlan(seed=5, corrupt_bytes=corrupt_bytes).corrupt_file(path)
        after = path.read_bytes()
        assert len(after) == len(PAYLOAD)
        changed = flipped_positions(PAYLOAD, after)
        assert 0 < len(changed) <= corrupt_bytes
        for pos in changed:
            assert after[pos] == PAYLOAD[pos] ^ 0xFF

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_flips_exactly_the_seeded_positions(self, tmp_path, seed):
        """Each draw of ``integers(0, size)`` from ``default_rng(seed)``
        flips one byte; a position drawn twice flips back."""
        path = write_blob(tmp_path)
        FaultPlan(seed=seed, corrupt_bytes=6).corrupt_file(path)
        draws = np.random.default_rng(seed).integers(0, len(PAYLOAD), size=6)
        positions, counts = np.unique(draws, return_counts=True)
        want = positions[counts % 2 == 1]
        assert np.array_equal(
            flipped_positions(PAYLOAD, path.read_bytes()), want)

    def test_different_seeds_flip_different_bytes(self, tmp_path):
        flipped = []
        for seed in (0, 1):
            path = write_blob(tmp_path, name=f"blob{seed}")
            FaultPlan(seed=seed).corrupt_file(path)
            flipped.append(path.read_bytes())
        assert flipped[0] != flipped[1]

    def test_corrupting_twice_with_one_plan_restores_the_file(self,
                                                             tmp_path):
        path = write_blob(tmp_path)
        plan = FaultPlan(seed=11, corrupt_bytes=32)
        plan.corrupt_file(path)
        plan.corrupt_file(path)
        assert path.read_bytes() == PAYLOAD

    def test_zero_corrupt_bytes_leaves_the_file_unchanged(self, tmp_path):
        path = write_blob(tmp_path)
        FaultPlan(corrupt_bytes=0).corrupt_file(path)
        assert path.read_bytes() == PAYLOAD

    def test_corrupting_an_empty_file_is_a_no_op(self, tmp_path):
        path = write_blob(tmp_path, b"")
        FaultPlan(corrupt_bytes=16).corrupt_file(path)
        assert path.read_bytes() == b""

    def test_corrupt_ignores_the_tear_fraction(self, tmp_path):
        flipped = []
        for fraction in (0.1, 0.9):
            path = write_blob(tmp_path, name=f"blob{fraction}")
            FaultPlan(seed=4, tear_fraction=fraction).corrupt_file(path)
            flipped.append(path.read_bytes())
        assert flipped[0] == flipped[1]
