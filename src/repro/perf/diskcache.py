"""Persistent content-addressed cache tier underneath the in-process LRUs.

The source paper's measurement is longitudinal: months of daily crawls
over the same store/doorway population.  The reproduction's dominant cost
on every cold process start is re-deriving byte-identical intermediate
values — rendered views, shingle sets, feature bags, notice verdicts —
that a previous run already built.  This module persists those values on
disk under the *same* BLAKE2b content digests the in-process caches key
on (:func:`repro.perf.cache.content_key`), so a warm run serves them from
files instead of rebuilding, and correctness needs no invalidation
protocol beyond the hash: changed HTML is a different key.  Parsed DOMs
are not persisted: every consumer of a DOM is itself a persistent cache,
so a warm run that hits those never asks for the DOM.

Layout of a cache directory::

    <dir>/manifest.json          versioned manifest (schema, per-cache
                                 derivation-code digests, entry metadata,
                                 lifetime hit/miss totals)
    <dir>/<cache>/<key-hex>.pkl  one entry per derived value
    <dir>/quarantine/            entries that failed validation

Entry files embed a BLAKE2b digest of their pickled payload, taken over
the entry's own cache and file name too; a load that fails the digest
(or fails to unpickle, or was written under a different schema or
deriving-code version) **degrades to a miss** — the entry is moved to
``quarantine/`` and the value is rebuilt, never served wrong and never
allowed to crash the run.  Entries are written through
:func:`repro.util.atomicio.atomic_write` with ``durable=False``: a temp
file renamed into place, so concurrent writers (two runs sharing one
directory) are idempotent and never see each other's partial files, but
not fsynced.  A power loss can leave an entry missing, empty, short or
zero-filled, or holding the old blocks of another entry; each of those
fails verification (the digest binds a payload to the name it was
stored under) and reads as a miss, so the durability an fsync buys is
worth nothing here.  The manifest keeps its fsync.

The tier is size-capped: an in-memory index over the whole store
(rebuilt from a directory scan on open, persisted to the manifest
periodically) drives oldest-first eviction once ``max_bytes`` is
exceeded, in one age order across every cache.  Losing an entry to
eviction — or to a concurrent evictor — is always safe: a miss rebuilds.
A cache directory the manifest names but this build no longer has (the
DOM cache's, in a store an older build filled) is quarantined on open,
like a cache whose deriving code changed.

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
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.util.atomicio import atomic_write

#: Disk-entry layout version.  Bumping it invalidates every existing
#: entry: a store whose manifest records another version is quarantined
#: whole on open, and a stray stale-schema entry reads as a miss.
#: Version 2 keys the payload digest by the entry's name.
DISK_SCHEMA = 2

#: Default size cap — generous, because entries are small (about a KB
#: each) and losing one only costs a rebuild.
DEFAULT_MAX_BYTES = 4 * 1024**3

#: Flush the manifest's entry metadata every this many stores (the index
#: is advisory — a directory scan on open is the ground truth).
_FLUSH_EVERY = 256

#: Sentinel for "no entry" — distinct from None, which is a legal cached
#: value (the notice cache remembers None verdicts).
DISK_MISS = object()

#: Modules whose source defines every cached DOM: the parser, the node
#: classes, and the builder, whose trees the DOM cache adopts on a miss.
#: The DOM cache itself is memory-only, but every persistent value is
#: derived from its DOMs.
_DOM_MODULES = ("repro.html.parser", "repro.html.nodes", "repro.html.builder")

#: Caches whose values persist, with the modules whose source defines
#: their derivation.  A change to any deriving module changes that
#: cache's code digest and retires its entries (quarantined on open,
#: missed before that) — the disk tier must never serve a value an older
#: build derived differently.
PERSISTENT_CACHES: Dict[str, Tuple[str, ...]] = {
    "render": _DOM_MODULES + ("repro.web.render",),
    "shingle": _DOM_MODULES + ("repro.crawler.dagger",),
    "features": _DOM_MODULES + ("repro.classify.features",),
    "notice": _DOM_MODULES + ("repro.interventions.notices",),
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


def _payload_digest(name: str, filename: str, payload: bytes) -> str:
    """BLAKE2b digest of an entry's payload and of where it is stored, so
    a file holding another entry's record fails verification."""
    digest = blake2b(f"{name}/{filename}\x00".encode("utf-8"), digest_size=16)
    digest.update(payload)
    return digest.hexdigest()


def _is_cache_name(name: object) -> bool:
    """Whether a name read from a manifest is one plain directory of the
    store that may hold entries: nothing a path could climb out through."""
    return (isinstance(name, str) and os.path.basename(name) == name
            and name not in ("", ".", "..", "quarantine"))


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
        #: (cache name, filename) -> size over the whole store, ordered
        #: oldest-first: the eviction order.  Rebuilt from a scan on open.
        self._index: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
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
            recorded = manifest.get("code_digests")
            if not isinstance(recorded, dict):
                recorded = {}
            if manifest.get("schema") != DISK_SCHEMA:
                # A different layout version: retire everything at once.
                retired = set(recorded) | set(self.code_digests)
            else:
                # Caches this build derives differently, and caches it no
                # longer has (their entries would otherwise sit outside
                # the index: never counted, evicted or cleared).
                retired = {
                    name for name, digest in recorded.items()
                    if self.code_digests.get(name) != digest
                }
                self._hits = self._totals(manifest.get("hits"))
                self._misses = self._totals(manifest.get("misses"))
            # The manifest is only data: never follow a name it gives
            # out of the store.
            for name in sorted(filter(_is_cache_name, retired)):
                self._quarantine_cache(name)
        self._scan()
        self._write_manifest()

    def _totals(self, recorded: object) -> Dict[str, int]:
        """A manifest's lifetime hit or miss counts, for current caches;
        anything malformed is dropped rather than allowed to fail the
        open."""
        if not isinstance(recorded, dict):
            return {}
        return {name: count for name, count in recorded.items()
                if name in self.code_digests and isinstance(count, int)}

    def _read_manifest(self) -> Optional[dict]:
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _per_cache(self) -> Dict[str, Dict[str, int]]:
        """Entry count and bytes of every cache, from the index."""
        totals = {name: {"count": 0, "bytes": 0} for name in self.code_digests}
        for (name, _filename), size in self._index.items():
            tally = totals.setdefault(name, {"count": 0, "bytes": 0})
            tally["count"] += 1
            tally["bytes"] += size
        return totals

    def _write_manifest(self) -> None:
        manifest = {
            "schema": DISK_SCHEMA,
            "code_digests": dict(sorted(self.code_digests.items())),
            "max_bytes": self.max_bytes,
            "entries": self._per_cache(),
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
        concurrent runs write entries this process's manifest never saw),
        oldest first across every cache."""
        stamped = []
        for name in sorted(self.code_digests):
            cache_dir = os.path.join(self.path, name)
            try:
                listing = os.listdir(cache_dir)
            except OSError:
                continue
            for filename in listing:
                if not filename.endswith(".pkl"):
                    continue
                try:
                    stat = os.stat(os.path.join(cache_dir, filename))
                except OSError:
                    continue
                stamped.append((stat.st_mtime_ns, name, filename, stat.st_size))
        stamped.sort()
        self._index = OrderedDict(
            ((name, filename), size) for _mtime, name, filename, size in stamped
        )
        self._total_bytes = sum(self._index.values())

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
        value = self._decode(name, filename, blob)
        if value is DISK_MISS:
            self._quarantine_entry(name, filename)
            self._misses[name] = self._misses.get(name, 0) + 1
            return DISK_MISS
        self._hits[name] = self._hits.get(name, 0) + 1
        return value

    def _decode(self, name: str, filename: str, blob: bytes) -> Any:
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
        if _payload_digest(name, filename, payload) != record.get("payload_digest"):
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
        filename = entry_filename(key) + ".pkl"
        record = {
            "schema": DISK_SCHEMA,
            "code_digest": self.code_digests.get(name),
            "payload_digest": _payload_digest(name, filename, payload),
            "payload": payload,
        }
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        cache_dir = os.path.join(self.path, name)
        os.makedirs(cache_dir, exist_ok=True)
        try:
            with atomic_write(os.path.join(cache_dir, filename), "wb",
                              durable=False) as handle:
                handle.write(blob)
        except OSError:
            return False
        entry = (name, filename)
        previous = self._index.pop(entry, 0)
        self._index[entry] = len(blob)
        self._total_bytes += len(blob) - previous
        if self._total_bytes > self.max_bytes:
            self._evict_to(int(self.max_bytes * 0.9))
        self._stores_since_flush += 1
        if self._stores_since_flush >= _FLUSH_EVERY:
            self._write_manifest()
        return True

    def _evict_to(self, target_bytes: int) -> int:
        """Drop the oldest entries of the whole store until under
        ``target_bytes``."""
        evicted = 0
        while self._index and self._total_bytes > target_bytes:
            (name, filename), size = self._index.popitem(last=False)
            self._total_bytes -= size
            try:
                os.unlink(self._entry_path(name, filename))
            except OSError:
                pass
            evicted += 1
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
        self._total_bytes -= self._index.pop((name, filename), 0)
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
        try:
            os.rmdir(cache_dir)
        except OSError:
            pass

    # ----------------------------------------------------------------- #
    # Inspection / maintenance (the ``repro cache`` subcommand)
    # ----------------------------------------------------------------- #

    def stats(self) -> dict:
        per_cache = {}
        tallies = self._per_cache()
        for name in sorted(self.code_digests):
            hits = self._hits.get(name, 0)
            misses = self._misses.get(name, 0)
            per_cache[name] = {
                "entries": tallies[name]["count"],
                "bytes": tallies[name]["bytes"],
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
            "entries": len(self._index),
            "quarantined": self.quarantined,
            "caches": per_cache,
        }

    def validate(self) -> dict:
        """Check every entry's digest; quarantine failures.  Returns
        ``{"checked": n, "ok": n, "quarantined": n}``."""
        checked = ok = bad = 0
        for name, filename in sorted(self._index):
            checked += 1
            path = self._entry_path(name, filename)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = b""
            if self._decode(name, filename, blob) is DISK_MISS:
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
        for name, filename in self._index:
            try:
                os.unlink(self._entry_path(name, filename))
            except OSError:
                pass
            removed += 1
        for name in sorted(self.code_digests):
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
        self._index = OrderedDict()
        self._total_bytes = 0
        self._hits = {}
        self._misses = {}
        self.quarantined = 0
        self._write_manifest()
        return removed

    def __repr__(self) -> str:
        return (f"DiskCache({self.path!r}, {len(self._index)} entries, "
                f"{self._total_bytes} bytes)")
