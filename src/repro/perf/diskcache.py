"""Persistent content-addressed cache tier underneath the in-process LRUs.

The source paper's measurement is longitudinal: months of daily crawls
over the same store/doorway population.  The reproduction's dominant cost
on every cold process start is re-deriving byte-identical intermediate
values — DOM parses, rendered views, shingle sets, feature bags, notice
verdicts — that a previous run already built.  This module persists those
values on disk under the *same* BLAKE2b content digests the in-process
caches key on (:func:`repro.perf.cache.content_key`), so a warm run
serves them from files instead of rebuilding, and correctness needs no
invalidation protocol beyond the hash: changed HTML is a different key.

Layout of a cache directory::

    <dir>/manifest.json          versioned manifest (schema, per-cache
                                 derivation-code digests, entry metadata,
                                 lifetime hit/miss totals)
    <dir>/<cache>/<key-hex>.pkl  one entry per derived value
    <dir>/quarantine/            entries that failed validation

Entry files embed a BLAKE2b digest of their pickled payload; a load that
fails the digest (or fails to unpickle, or was written under a different
schema or deriving-code version) **degrades to a miss** — the entry is
moved to ``quarantine/`` and the value is rebuilt, never served wrong and
never allowed to crash the run.  All writes go through
:func:`repro.util.atomicio.atomic_write`, so concurrent writers (two runs
sharing one directory) are idempotent: both write the same bytes to the
same content address and the atomic rename makes either winner correct.

The tier is size-capped: an in-memory index (rebuilt from a directory
scan on open, persisted to the manifest periodically) drives
oldest-first eviction once ``max_bytes`` is exceeded.  Losing an entry to
eviction — or to a concurrent evictor — is always safe: a miss rebuilds.

Counter semantics (``cache.<name>.disk_hit`` / ``.disk_miss`` /
``.promote`` / ``.write``) are owned by :mod:`repro.perf.cache`; this
module only reports per-instance totals so ``repro cache`` can show
lifetime hit rates.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import zlib
from collections import OrderedDict
from hashlib import blake2b
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.util.atomicio import atomic_write

#: Disk-entry layout version.  Bumping it invalidates every existing
#: entry: stale-schema entries are quarantined on validate and read as
#: misses before that.
DISK_SCHEMA = 1

#: Default size cap — generous, because entries are small (a pickled DOM
#: runs tens of KB) and losing one only costs a rebuild.
DEFAULT_MAX_BYTES = 4 * 1024**3

#: Flush the manifest's entry metadata every this many stores (the index
#: is advisory — a directory scan on open is the ground truth).
_FLUSH_EVERY = 256

#: Sentinel for "no entry" — distinct from None, which is a legal cached
#: value (the notice cache remembers None verdicts).
DISK_MISS = object()

#: Caches whose values persist, with the modules whose source defines
#: their derivation.  A change to any deriving module changes that
#: cache's code digest and retires its entries (quarantined on validate,
#: missed before that) — the disk tier must never serve a value an older
#: build derived differently.
PERSISTENT_CACHES: Dict[str, Tuple[str, ...]] = {
    "dom": ("repro.html.parser", "repro.html.nodes"),
    "render": ("repro.html.parser", "repro.html.nodes", "repro.web.render"),
    "shingle": ("repro.html.parser", "repro.html.nodes", "repro.crawler.dagger"),
    "features": ("repro.html.parser", "repro.html.nodes", "repro.classify.features"),
    "notice": ("repro.html.parser", "repro.html.nodes", "repro.interventions.notices"),
}


def entry_filename(key: Hashable) -> str:
    """Stable file name for a cache key.

    Content keys are already 16-byte BLAKE2b digests and map straight to
    hex; composite keys (the render cache's ``(digest, profile)``) hash
    their parts' stable representations.  Pure function of the key — the
    replay shadows use it to test disk membership without touching disk.
    """
    if isinstance(key, bytes):
        return key.hex()
    digest = blake2b(digest_size=16)
    parts = key if isinstance(key, tuple) else (key,)
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def derivation_digests() -> Dict[str, str]:
    """Per-cache BLAKE2b digest of the deriving modules' source bytes."""
    sources: Dict[str, bytes] = {}
    digests: Dict[str, str] = {}
    for name, modules in PERSISTENT_CACHES.items():
        digest = blake2b(digest_size=8)
        for module_name in modules:
            blob = sources.get(module_name)
            if blob is None:
                module = importlib.import_module(module_name)
                path = module.__file__
                with open(path, "rb") as handle:
                    blob = handle.read()
                sources[module_name] = blob
            digest.update(blob)
            digest.update(b"\x00")
        digests[name] = digest.hexdigest()
    return digests


class DiskCache:
    """One cache directory: open, load/store entries, validate, evict."""

    def __init__(
        self,
        path: str,
        code_digests: Optional[Dict[str, str]] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        self.path = os.path.abspath(path)
        self.code_digests = dict(code_digests or derivation_digests())
        self.max_bytes = max_bytes
        self.quarantine_dir = os.path.join(self.path, "quarantine")
        #: cache name -> filename -> size; ordered oldest-first, the
        #: eviction order.  Rebuilt from a scan on open.
        self._index: Dict[str, "OrderedDict[str, int]"] = {}
        self._total_bytes = 0
        self._stores_since_flush = 0
        #: Lifetime totals carried in the manifest across processes.
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self.quarantined = 0
        self._open()

    # ----------------------------------------------------------------- #
    # Open / manifest
    # ----------------------------------------------------------------- #

    def _manifest_path(self) -> str:
        return os.path.join(self.path, "manifest.json")

    def _open(self) -> None:
        os.makedirs(self.path, exist_ok=True)
        manifest = self._read_manifest()
        if manifest is not None:
            if manifest.get("schema") != DISK_SCHEMA:
                # A different layout version: retire everything at once.
                self._quarantine_all("schema")
                manifest = None
            else:
                stale = [
                    name for name, digest in self.code_digests.items()
                    if manifest.get("code_digests", {}).get(name) not in (None, digest)
                ]
                for name in stale:
                    self._quarantine_cache(name)
                self._hits = {
                    k: int(v) for k, v in manifest.get("hits", {}).items()
                }
                self._misses = {
                    k: int(v) for k, v in manifest.get("misses", {}).items()
                }
        self._scan()
        self._write_manifest()

    def _read_manifest(self) -> Optional[dict]:
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _write_manifest(self) -> None:
        entries = {
            name: {"count": len(files), "bytes": sum(files.values())}
            for name, files in sorted(self._index.items())
        }
        manifest = {
            "schema": DISK_SCHEMA,
            "code_digests": dict(sorted(self.code_digests.items())),
            "max_bytes": self.max_bytes,
            "entries": entries,
            "total_bytes": self._total_bytes,
            "hits": dict(sorted(self._hits.items())),
            "misses": dict(sorted(self._misses.items())),
        }
        with atomic_write(self._manifest_path()) as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        self._stores_since_flush = 0

    def _scan(self) -> None:
        """Rebuild the entry index from the directory (the ground truth:
        concurrent runs write entries this process's manifest never saw)."""
        self._index = {}
        self._total_bytes = 0
        for name in sorted(self.code_digests):
            cache_dir = os.path.join(self.path, name)
            files: "OrderedDict[str, int]" = OrderedDict()
            try:
                listing = os.listdir(cache_dir)
            except OSError:
                listing = []
            stamped = []
            for filename in listing:
                if not filename.endswith(".pkl"):
                    continue
                full = os.path.join(cache_dir, filename)
                try:
                    stat = os.stat(full)
                except OSError:
                    continue
                stamped.append((stat.st_mtime, filename, stat.st_size))
            for _mtime, filename, size in sorted(stamped):
                files[filename] = size
                self._total_bytes += size
            self._index[name] = files

    # ----------------------------------------------------------------- #
    # Entry IO
    # ----------------------------------------------------------------- #

    def _entry_path(self, name: str, filename: str) -> str:
        return os.path.join(self.path, name, filename)

    def load(self, name: str, key: Hashable) -> Any:
        """The cached value for ``key``, or :data:`DISK_MISS`.

        Corrupt, truncated, stale-schema, or stale-code entries are
        quarantined and read as misses — a bad file can never crash a run
        or serve a wrong value.
        """
        filename = entry_filename(key) + ".pkl"
        path = self._entry_path(name, filename)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self._misses[name] = self._misses.get(name, 0) + 1
            return DISK_MISS
        value = self._decode(name, blob)
        if value is DISK_MISS:
            self._quarantine_entry(name, filename)
            self._misses[name] = self._misses.get(name, 0) + 1
            return DISK_MISS
        self._hits[name] = self._hits.get(name, 0) + 1
        return value

    def _decode(self, name: str, blob: bytes) -> Any:
        try:
            record = pickle.loads(blob)
        except Exception:
            return DISK_MISS
        if not isinstance(record, dict):
            return DISK_MISS
        if record.get("schema") != DISK_SCHEMA:
            return DISK_MISS
        if record.get("code_digest") != self.code_digests.get(name):
            return DISK_MISS
        payload = record.get("payload")
        if not isinstance(payload, bytes):
            return DISK_MISS
        digest = blake2b(payload, digest_size=16).hexdigest()
        if digest != record.get("payload_digest"):
            return DISK_MISS
        try:
            return pickle.loads(zlib.decompress(payload))
        except Exception:
            return DISK_MISS

    def store(self, name: str, key: Hashable, value: Any) -> bool:
        """Persist one derived value; returns False when it cannot be
        pickled (the memory tier still holds it; the disk tier just
        declines)."""
        try:
            payload = zlib.compress(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), 1
            )
        except Exception:
            return False
        record = {
            "schema": DISK_SCHEMA,
            "code_digest": self.code_digests.get(name),
            "payload_digest": blake2b(payload, digest_size=16).hexdigest(),
            "payload": payload,
        }
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        filename = entry_filename(key) + ".pkl"
        cache_dir = os.path.join(self.path, name)
        os.makedirs(cache_dir, exist_ok=True)
        try:
            with atomic_write(os.path.join(cache_dir, filename), "wb") as handle:
                handle.write(blob)
        except OSError:
            return False
        files = self._index.setdefault(name, OrderedDict())
        previous = files.pop(filename, 0)
        files[filename] = len(blob)
        self._total_bytes += len(blob) - previous
        if self._total_bytes > self.max_bytes:
            self._evict_to(int(self.max_bytes * 0.9))
        self._stores_since_flush += 1
        if self._stores_since_flush >= _FLUSH_EVERY:
            self._write_manifest()
        return True

    def _evict_to(self, target_bytes: int) -> int:
        """Drop oldest entries (index order) until under ``target_bytes``."""
        evicted = 0
        for name in sorted(self._index):
            files = self._index[name]
            while files and self._total_bytes > target_bytes:
                filename, size = next(iter(files.items()))
                del files[filename]
                self._total_bytes -= size
                try:
                    os.unlink(self._entry_path(name, filename))
                except OSError:
                    pass
                evicted += 1
            if self._total_bytes <= target_bytes:
                break
        return evicted

    # ----------------------------------------------------------------- #
    # Quarantine
    # ----------------------------------------------------------------- #

    def _quarantine_entry(self, name: str, filename: str) -> None:
        os.makedirs(self.quarantine_dir, exist_ok=True)
        source = self._entry_path(name, filename)
        target = os.path.join(self.quarantine_dir, f"{name}-{filename}")
        try:
            os.replace(source, target)
        except OSError:
            try:
                os.unlink(source)
            except OSError:
                pass
        files = self._index.get(name)
        if files is not None:
            size = files.pop(filename, 0)
            self._total_bytes -= size
        self.quarantined += 1

    def _quarantine_cache(self, name: str) -> None:
        cache_dir = os.path.join(self.path, name)
        try:
            listing = sorted(os.listdir(cache_dir))
        except OSError:
            return
        for filename in listing:
            if filename.endswith(".pkl"):
                self._quarantine_entry(name, filename)

    def _quarantine_all(self, _reason: str) -> None:
        for name in sorted(self.code_digests):
            self._quarantine_cache(name)

    # ----------------------------------------------------------------- #
    # Inspection / maintenance (the ``repro cache`` subcommand)
    # ----------------------------------------------------------------- #

    def stats(self) -> dict:
        per_cache = {}
        for name in sorted(self.code_digests):
            files = self._index.get(name, {})
            hits = self._hits.get(name, 0)
            misses = self._misses.get(name, 0)
            per_cache[name] = {
                "entries": len(files),
                "bytes": sum(files.values()),
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else None,
            }
        return {
            "path": self.path,
            "schema": DISK_SCHEMA,
            "max_bytes": self.max_bytes,
            "total_bytes": self._total_bytes,
            "utilization": (
                self._total_bytes / self.max_bytes if self.max_bytes else 0.0
            ),
            "entries": sum(len(files) for files in self._index.values()),
            "quarantined": self.quarantined,
            "caches": per_cache,
        }

    def validate(self) -> dict:
        """Check every entry's digest; quarantine failures.  Returns
        ``{"checked": n, "ok": n, "quarantined": n}``."""
        checked = ok = bad = 0
        for name in sorted(self.code_digests):
            for filename in list(self._index.get(name, ())):
                checked += 1
                path = self._entry_path(name, filename)
                try:
                    with open(path, "rb") as handle:
                        blob = handle.read()
                except OSError:
                    blob = b""
                if self._decode(name, blob) is DISK_MISS:
                    self._quarantine_entry(name, filename)
                    bad += 1
                else:
                    ok += 1
        self._write_manifest()
        return {"checked": checked, "ok": ok, "quarantined": bad}

    def flush(self) -> None:
        """Persist the manifest's entry metadata now."""
        self._write_manifest()

    def clear(self) -> int:
        """Remove every entry, the quarantine, and reset the manifest.
        Returns the number of entry files removed."""
        removed = 0
        for name in sorted(self._index):
            for filename in list(self._index[name]):
                try:
                    os.unlink(self._entry_path(name, filename))
                except OSError:
                    pass
                removed += 1
            try:
                os.rmdir(os.path.join(self.path, name))
            except OSError:
                pass
        try:
            for filename in os.listdir(self.quarantine_dir):
                try:
                    os.unlink(os.path.join(self.quarantine_dir, filename))
                except OSError:
                    pass
            os.rmdir(self.quarantine_dir)
        except OSError:
            pass
        self._index = {}
        self._total_bytes = 0
        self._hits = {}
        self._misses = {}
        self.quarantined = 0
        self._write_manifest()
        return removed

    def __repr__(self) -> str:
        return (f"DiskCache({self.path!r}, "
                f"{sum(len(f) for f in self._index.values())} entries, "
                f"{self._total_bytes} bytes)")
