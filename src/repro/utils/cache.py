"""In-memory and on-disk caches for the serving and labeling paths.

The experiment harness labels corpora of datasets by training and testing all
candidate CE models — the expensive step the paper calls "dataset labeling".
Results are cached on disk (:class:`DiskCache`) keyed by a stable hash of the
experiment configuration, so every benchmark shares one labeling pass.
Serving nodes keep their embedding memo-cache in memory (:class:`LRUCache`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import re
import warnings
from collections import OrderedDict
from pathlib import Path

#: Sentinel distinguishing "missing" from a cached ``None``.
MISSING = object()

#: Keys that are already safe to use verbatim as file stems.
_SAFE_KEY = re.compile(r"^[A-Za-z0-9._-]{1,80}$")

#: Process-wide counter making concurrent temp-file names unique within one
#: process; the pid disambiguates across processes.
_TMP_COUNTER = itertools.count()


class LRUCache:
    """A bounded in-memory memo cache with least-recently-used eviction.

    Used as the serving-path embedding cache: repeat traffic for the same
    dataset fingerprint skips featurize + GIN forward entirely.  ``hits`` /
    ``misses`` counters make cache behavior observable in benchmarks.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key, default=None):
        value = self._data.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


def stable_hash(obj) -> str:
    """A deterministic hash of JSON-serializable configuration objects."""
    payload = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


class DiskCache:
    """Pickle-backed key/value store under a cache directory.

    Writes are atomic (unique temp file + ``os.replace``) so concurrent
    writers — including separate processes sharing one cache directory —
    never expose a torn pickle.  Reads treat corrupt or concurrently
    deleted entries as misses rather than raising mid-serve.

    A failed write (disk full, read-only directory, quota) never takes the
    caller down — the cache is an accelerator, not a durability contract —
    but it is never silent either: ``put_failures`` counts every lost write
    and the first one emits a :class:`RuntimeWarning`, so a run quietly
    recomputing every entry is visible instead of only in its timings.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Writes lost to OSError (disk full / read-only dir / quota).
        self.put_failures = 0
        self._warned_put_failure = False

    def _path(self, key: str) -> Path:
        # Keys may be arbitrary strings (fingerprints, config reprs, even
        # paths); anything that is not a plainly safe file stem is hashed so
        # it cannot escape the cache directory or collide with temp files.
        key = str(key)
        if not _SAFE_KEY.match(key):
            key = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.directory / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def get(self, key: str, default=None):
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return default
        except MemoryError:
            # A transient MemoryError is deliberately re-raised — it is no
            # evidence of corruption and must not destroy the entry.
            raise
        except Exception:
            # A torn write from a crashed process, flipped bytes, or an
            # entry pickled by an incompatible code version.  Unpickling
            # corrupt data can raise nearly anything (UnpicklingError,
            # EOFError, UnicodeDecodeError, Attribute/Import/Key/Index/
            # ValueError from opcode garbage), so the net is deliberately
            # wide: drop the entry and report a miss rather than crash
            # mid-serve.
            self._discard(path)
            return default

    def put(self, key: str, value) -> None:
        path = self._path(key)
        # Unique per writer: two processes (or threads) writing the same key
        # must never share a temp file, or the loser of the race publishes a
        # torn pickle via the atomic replace below.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
        try:
            try:
                handle = open(tmp, "wb")
            except FileNotFoundError:
                # The cache directory vanished (operator cleanup, tmpfs
                # wipe): recreate it rather than crash mid-serve.
                self.directory.mkdir(parents=True, exist_ok=True)
                handle = open(tmp, "wb")
            with handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as error:
            # Disk full / read-only directory / quota: the entry is lost
            # (reads will recompute) but the caller continues.  Count it and
            # warn once so degraded storage is observable.
            self.put_failures += 1
            if not self._warned_put_failure:
                self._warned_put_failure = True
                warnings.warn(
                    f"DiskCache write to {self.directory} failed "
                    f"({error}); cache storage is degraded — entries will "
                    "be recomputed instead of persisted "
                    "(warning once; see DiskCache.put_failures)",
                    RuntimeWarning, stacklevel=2)
        finally:
            self._discard(tmp)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def get_or_compute(self, key: str, compute):
        value = self.get(key, MISSING)
        if value is not MISSING:
            return value
        value = compute()
        self.put(key, value)
        return value
