"""Incremental analysis cache: per-module summaries keyed by content digest.

Same addressing discipline as :mod:`repro.perf.cache` — the key is a
BLAKE2b digest of the module's source text (plus a format-version salt),
so an edited file hashes to a new key and a stale summary can never be
served; no invalidation protocol beyond the hash.  Summaries are stored
one JSON file per digest under the cache directory, written through
:func:`repro.util.atomicio.atomic_write` so a killed run never leaves a
torn entry.

Only the *summarize* stage is cached.  Linking, effect inference, and
rule evaluation are whole-program and re-run every time — they are cheap
next to parsing, and caching them would make results depend on more than
one file's content.
"""

from __future__ import annotations

import json
import os
from hashlib import blake2b

from repro.lint.flow.summarize import ModuleSummary, summarize_module
from repro.util.atomicio import atomic_write

#: Bump when the summary format or extraction logic changes: the salt is
#: part of every key, so old cache entries simply stop matching.
SUMMARY_VERSION = 2

#: Default cache location, relative to the invocation directory.
DEFAULT_CACHE_DIR = ".repro_flow_cache"


def source_digest(module: str, path: str, source: str) -> str:
    """Hex BLAKE2b digest addressing one module's summary.

    Module name and (relative) path participate in the key so identical
    source at two locations cannot alias one entry."""
    payload = f"v{SUMMARY_VERSION}\x00{module}\x00{path}\x00{source}"
    return blake2b(payload.encode("utf-8", "surrogatepass"), digest_size=16).hexdigest()


class AnalysisCache:
    """Digest-addressed store of :class:`ModuleSummary` JSON blobs."""

    def __init__(self, cache_dir: str | None):
        self.cache_dir = cache_dir
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.cache_dir is not None

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.cache_dir, f"{digest}.json")

    def load(self, digest: str) -> ModuleSummary | None:
        if not self.enabled:
            return None
        path = self._entry_path(digest)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            return ModuleSummary.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, digest: str, summary: ModuleSummary) -> None:
        if not self.enabled:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        with atomic_write(self._entry_path(digest)) as handle:
            json.dump(summary.to_dict(), handle, sort_keys=True)

    def summarize(self, module: str, path: str, source: str) -> ModuleSummary:
        """Summarize through the cache: hit returns the stored summary."""
        digest = source_digest(module, path, source)
        cached = self.load(digest)
        if cached is not None and cached.module == module:
            self.hits += 1
            return cached
        summary = summarize_module(module, path, source)
        self.store(digest, summary)
        self.misses += 1
        return summary
