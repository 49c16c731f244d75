"""The content-addressed on-disk result store.

One record per verified task, addressed by :func:`~repro.serve.protocol.
task_key`: a JSON file holding the codec ``task-result`` document (full
proof trees and witnesses — a store hit is indistinguishable from the
inline run that produced it), the task document it answers, and a
wall-clock ``stored_at`` stamp.  Records survive daemon restarts — the
store is *the* cache tier with ~forever retention, in contrast to the
in-memory image/mask/compile tiers that are LRU-bounded per worker
(``max_image_entries``).

Layout: ``root/<key[:2]>/<key>.json`` (fan-out directories keep any one
directory small).  Writes are atomic (temp file + ``os.replace``), so a
crashed daemon never leaves a half-written record — a torn or corrupt
file is treated as a miss and dropped.

``ttl`` optionally expires records (seconds since ``stored_at``;
``None`` keeps them forever — the default for verification results,
which never go stale while the schema version holds).  ``max_entries``
optionally bounds the record count with least-recently-used eviction;
recency is tracked by file mtime, so it too survives restarts.

The store only ever returns documents stamped with the *current* codec
``schema_version``: a record written by an older release fails the
``from_wire`` version check at read time in the caller — to keep that
loud-and-cheap, :meth:`get` itself drops records whose stored version
differs.

Tiers and write-behind.  The daemon (:mod:`repro.serve.server`) keeps a
bounded in-memory tier of encoded result text in front of this store,
so a repeated task is answered without reading a file; this store is
the tier that survives restarts.  :meth:`ResultStore.put` is two halves
the daemon calls apart: :func:`encode_record` builds a record's file
bytes around result text that is already encoded, and
:meth:`ResultStore.write` does only the file system calls.  The daemon
runs the second half on a :class:`StoreWriter` thread, off its response
path.
"""

import json
import logging
import os
import queue
import tempfile
import threading
import time
from collections import OrderedDict

from ..codec.wire import SCHEMA_VERSION, VERSION_KEY

_log = logging.getLogger(__name__)


def encode_record(key, result_text, task_document=None, stored_at=None):
    """The file bytes of one record around ``result_text``, the
    ``json.dumps(result, sort_keys=True)`` text of its result document.

    The bytes equal ``json.dumps(record, sort_keys=True)`` of the whole
    record: its keys are spliced in sorted order with the default
    separators, so the result is not encoded a second time.
    ``stored_at`` defaults to now.
    """
    if stored_at is None:
        stored_at = time.time()
    text = '{"key": %s, "result": %s, "stored_at": %s, "task": %s}' % (
        json.dumps(key),
        result_text,
        json.dumps(stored_at),
        json.dumps(task_document, sort_keys=True),
    )
    return text.encode("utf-8")


class ResultStore:
    """A thread-safe content-addressed store of task-result documents."""

    def __init__(self, root, ttl=None, max_entries=None):
        if ttl is not None and ttl < 0:
            raise ValueError("ttl must be >= 0 or None, got %r" % (ttl,))
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                "max_entries must be >= 1 or None, got %r" % (max_entries,)
            )
        self.root = os.path.abspath(root)
        self.ttl = ttl
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.expirations = 0
        self.corrupt_drops = 0
        os.makedirs(self.root, exist_ok=True)
        # key -> path, in least-recently-used-first order (rebuilt from
        # file mtimes, so recency persists across daemon restarts)
        self._index = OrderedDict()
        self._scan()

    # -- layout ----------------------------------------------------------
    def _path_for(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def _scan(self):
        entries = []
        for prefix in os.listdir(self.root):
            subdir = os.path.join(self.root, prefix)
            if not os.path.isdir(subdir):
                continue
            for name in os.listdir(subdir):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(subdir, name)
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    continue
                entries.append((mtime, name[: -len(".json")], path))
        entries.sort()
        for _, key, path in entries:
            self._index[key] = path

    # -- operations ------------------------------------------------------
    def get(self, key):
        """The stored record for ``key``, or ``None``.

        A hit refreshes the record's recency (mtime + index order).  A
        corrupt, expired or version-mismatched record is dropped and
        reported as a miss.
        """
        with self._lock:
            path = self._index.get(key)
            if path is None:
                self.misses += 1
                return None
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                if not isinstance(record, dict) or "result" not in record:
                    raise ValueError("not a store record")
            except (OSError, ValueError):
                self.corrupt_drops += 1
                self._drop(key, path)
                self.misses += 1
                return None
            if (
                self.ttl is not None
                and time.time() - record.get("stored_at", 0) > self.ttl
            ):
                self.expirations += 1
                self._drop(key, path)
                self.misses += 1
                return None
            result = record.get("result")
            if (
                not isinstance(result, dict)
                or result.get(VERSION_KEY) != SCHEMA_VERSION
            ):
                self.corrupt_drops += 1
                self._drop(key, path)
                self.misses += 1
                return None
            now = time.time()
            try:
                os.utime(path, (now, now))
            except OSError:
                pass
            self._index.move_to_end(key)
            self.hits += 1
            return record

    def put(self, key, result_document, task_document=None):
        """Store one result document under ``key`` (atomic, LRU-evicting)."""
        result_text = json.dumps(result_document, sort_keys=True)
        self.write(key, encode_record(key, result_text, task_document))

    def write(self, key, data):
        """Write one record's encoded bytes under ``key``: the file system
        half of :meth:`put` (atomic, LRU-evicting)."""
        path = self._path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self._index[key] = path
            self._index.move_to_end(key)
            self.puts += 1
            while (
                self.max_entries is not None
                and len(self._index) > self.max_entries
            ):
                old_key, old_path = self._index.popitem(last=False)
                self.evictions += 1
                try:
                    os.unlink(old_path)
                except OSError:
                    pass

    def _drop(self, key, path):
        """Remove one record (lock held)."""
        self._index.pop(key, None)
        try:
            os.unlink(path)
        except OSError:
            pass

    def clear(self):
        with self._lock:
            for key, path in list(self._index.items()):
                self._drop(key, path)

    def stats(self):
        with self._lock:
            return {
                "size": len(self._index),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "corrupt_drops": self.corrupt_drops,
                "ttl": self.ttl,
                "max_entries": self.max_entries,
                "root": self.root,
            }

    def __len__(self):
        with self._lock:
            return len(self._index)

    def __contains__(self, key):
        with self._lock:
            return key in self._index

    def __repr__(self):
        return "ResultStore(%r, %d records, ttl=%r, max_entries=%r)" % (
            self.root, len(self), self.ttl, self.max_entries,
        )


class StoreWriter:
    """Write-behind for one :class:`ResultStore`.

    :meth:`submit` queues a record's encoded bytes and returns at once;
    one thread, started by the first submit, runs
    :meth:`ResultStore.write` for each in submission order.  A failed
    write is logged and counted in :attr:`failures`, and the writer
    goes on with the next record.  :meth:`flush` blocks until every
    submitted record is written or has failed; :meth:`close` flushes
    and ends the thread.
    """

    def __init__(self, store):
        self.store = store
        self.failures = 0
        self._queue = queue.Queue()
        self._thread = None

    def submit(self, key, data):
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-store-writer", daemon=True
            )
            self._thread.start()
        self._queue.put((key, data))

    @property
    def pending(self):
        """Records submitted and not yet written (or failed)."""
        return self._queue.unfinished_tasks

    def flush(self):
        self._queue.join()

    def close(self):
        if self._thread is None:
            return
        self._queue.put(None)
        self._thread.join()
        self._thread = None

    def _run(self):
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                self.store.write(*item)
            except Exception:  # the writer must outlive one bad record
                self.failures += 1
                _log.exception("store write of %s failed", item[0])
            finally:
                self._queue.task_done()
