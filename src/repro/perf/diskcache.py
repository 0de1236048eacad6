"""Persistent content-addressed cache tier underneath the in-process LRUs.

A study re-derives the same values from the same pages on every process
start.  This tier keeps two kinds on disk, under the BLAKE2b content
digests the in-process caches key on (:func:`repro.perf.cache.content_key`):
seizure-notice verdicts (``notice``, the paper's §5.3) and classifier
feature bags (``features``, §4.2).  A warm run reads them instead of
rebuilding them; changed HTML is a different key, so no invalidation
protocol is needed.  Rendered views and shingle sets stay in memory, like
DOMs: storing them cost a cold run more than reading them saved a warm
one (EXPERIMENTS.md, "Warm starts").  The two persisted caches also hold
the determinism canary: a page whose markup differs between hash seeds
lands under different entry names, which ``tests/test_determinism.py``
compares.

Layout: ``<dir>/<cache>/<key-hex>.pkl``, one entry per value, and nothing
else: no manifest, index or size cap (``rm -r DIR`` clears a store).  An
entry is a pickled record of the layout version, its cache's code digest
and a payload digest taken over the entry's own cache and file name.  A
load that fails any check reads as a miss and deletes the file; the
rebuilt value's store writes it again.  Entries are renamed into place by
:func:`repro.util.atomicio.atomic_write` without fsync: concurrent runs
may share a store, and every state a power loss can leave an entry in
(missing, empty, short, zero-filled, another entry's blocks) fails
verification.  The ``cache.<name>.disk_hit`` / ``.disk_miss`` /
``.promote`` / ``.write`` counters belong to :mod:`repro.perf.cache`.
"""

from __future__ import annotations

import importlib
import os
import pickle
import zlib
from hashlib import blake2b
from pathlib import Path
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.util.atomicio import atomic_write

#: Entry layout version; an entry recording another one reads as a miss.
#: Version 2 keys the payload digest by the entry's name.
DISK_SCHEMA = 2

#: Sentinel for "no entry" — distinct from None, which is a legal cached
#: value (the notice cache remembers None verdicts).
DISK_MISS = object()

#: Modules whose source defines every cached DOM (the parser, the node
#: classes, and the builder, whose trees the DOM cache adopts on a miss),
#: from which every persistent value is derived.
_DOM_MODULES = ("repro.html.parser", "repro.html.nodes", "repro.html.builder")

#: The caches whose values persist — the one list that decides it
#: (:class:`repro.perf.cache.LRUCache` reads it) — with the modules
#: whose source defines their derivation.  A change to any deriving
#: module changes that cache's code digest, and its old entries read as
#: misses: the disk tier must never serve a value an older build derived
#: differently.
PERSISTENT_CACHES: Dict[str, Tuple[str, ...]] = {
    "features": _DOM_MODULES + ("repro.classify.features",),
    "notice": _DOM_MODULES + ("repro.interventions.notices",),
}


def entry_filename(key: Hashable) -> str:
    """Stable file name for a cache key.

    Content keys are already 16-byte BLAKE2b digests and map straight to
    hex; composite keys hash their parts' stable representations.  A
    pure function of the key, so equal keys name equal files in every
    process and under every hash seed.
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
                with open(module.__file__, "rb") as handle:
                    blob = handle.read()
                sources[module_name] = blob
            digest.update(blob)
            digest.update(b"\x00")
        digests[name] = digest.hexdigest()
    return digests


class DiskCache:
    """One store directory: load and store self-verifying entries."""

    def __init__(self, path: str, code_digests: Optional[Dict[str, str]] = None):
        self.path = os.path.abspath(path)
        self.code_digests = dict(code_digests or derivation_digests())
        for name in self.code_digests:
            os.makedirs(os.path.join(self.path, name), exist_ok=True)

    def _entry(self, name: str, key: Hashable) -> Tuple[str, str]:
        filename = entry_filename(key) + ".pkl"
        return filename, os.path.join(self.path, name, filename)

    def load(self, name: str, key: Hashable) -> Any:
        """The cached value for ``key``, or :data:`DISK_MISS`.

        An entry that fails verification is deleted and reads as a miss:
        a bad file can never crash a run or serve a wrong value.
        """
        filename, path = self._entry(name, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return DISK_MISS
        value = self._decode(name, filename, blob)
        if value is DISK_MISS:
            try:
                os.unlink(path)
            except OSError:
                pass
        return value

    def _decode(self, name: str, filename: str, blob: bytes) -> Any:
        try:
            record = pickle.loads(blob)
        except Exception:
            return DISK_MISS
        if not isinstance(record, dict) or record.get("schema") != DISK_SCHEMA:
            return DISK_MISS
        code_digest = self.code_digests.get(name)
        if code_digest is None or record.get("code_digest") != code_digest:
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
        """Persist one derived value; returns False when the cache has no
        code digest or the value cannot be pickled or written (the memory
        tier still holds it; the disk tier just declines)."""
        code_digest = self.code_digests.get(name)
        if code_digest is None:
            return False
        try:
            payload = zlib.compress(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), 1)
        except Exception:
            return False
        filename, path = self._entry(name, key)
        record = {
            "schema": DISK_SCHEMA,
            "code_digest": code_digest,
            "payload_digest": _payload_digest(name, filename, payload),
            "payload": payload,
        }
        try:
            with atomic_write(path, "wb", durable=False) as handle:
                handle.write(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        except OSError:
            return False
        return True

    def stats(self) -> Dict[str, int]:
        """Entry count and bytes on disk, from a scan of the cache
        directories (entries other runs stored included)."""
        sizes = []
        for name in self.code_digests:
            for path in Path(self.path, name).glob("*.pkl"):
                try:
                    sizes.append(path.stat().st_size)
                except OSError:  # deleted by a concurrent load since the scan
                    pass
        return {"entries": len(sizes), "total_bytes": sum(sizes)}
