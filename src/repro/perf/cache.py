"""Content-addressed caches for the measurement hot path.

The Dagger/VanGogh crawlers, the seizure-notice miner, and the feature
extractor all work from parsed HTML, and the simulated web serves the same
bytes many times over (cloaked pages rotate *content*, not markup, only
when campaign state changes), so parsing and rendering once per distinct
page is the point of this layer.  Every cache here is therefore
**content-addressed**: the key is a BLAKE2b digest of the HTML string
itself, so a page that changes hashes to a new key and stale derived values
can never be served — no invalidation protocol is required beyond the hash.

Layers built on this module:

* :func:`parse_html_cached` — the shared DOM cache.  Returned
  :class:`~repro.html.nodes.Document` objects are shared between callers
  and MUST be treated as immutable; every consumer wired through it
  (shingling, feature extraction, notice mining, rendering) only reads.
  A miss on a page the simulator has just built adopts the builder's own
  tree (:func:`repro.html.builder.built_tree`) instead of parsing the
  string back: the builder's round-trip contract makes the two equal.
  It still counts as a miss.  This cache is memory-only.
* :func:`render_document_cached` — parse + mini-JS render, keyed on
  ``(content hash, visitor profile)``; the profile rides in the key because
  a renderer's view is profile-dependent even though the fetched HTML
  already reflects it.
* Derived-value caches owned by their consumers (Dagger's shingle sets,
  the classifier's feature Counters, seizure-notice parses), all built
  from :class:`LRUCache`.

Every cache reports ``cache.<name>.hit`` / ``.miss`` / ``.evict`` counters
into the :data:`repro.util.perf.PERF` registry, so ``repro trace
--counters`` shows each span's hits and misses, ``metrics.jsonl`` a daily
hit rate, and perfbench each cache's hit ratio.

The whole layer can be switched off — :func:`set_caches_enabled`,
the :func:`caches_disabled` context manager, or ``REPRO_CACHE=0`` in the
environment — which is how the correctness tests prove cached and
uncached runs bit-identical.

Underneath the in-process LRUs sits an optional *persistent* tier
(:mod:`repro.perf.diskcache`), keyed on the same content digests, so a
fresh process warm-starts from artifacts a previous run derived.  It is
enabled per-run (``--disk-cache DIR`` / :func:`set_disk_cache`) or via
``REPRO_DISK_CACHE=<dir>``; every persistent cache reports
``cache.<name>.disk_hit/.disk_miss/.promote/.write`` alongside the
memory counters.  Only the derived caches persist.  The caches compose:
each derived value is built from a cached DOM, and a hit on it skips
that DOM lookup entirely, so a warm run never reaches the DOM cache and
persisted DOMs would cost every cold run writes that no warm run reads.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from hashlib import blake2b
from typing import Any, Callable, Hashable, Iterator, List, Optional

from repro.html.builder import built_tree
from repro.html.nodes import Document
from repro.html.parser import parse_html
from repro.perf.diskcache import DISK_MISS, DiskCache
from repro.util.perf import PERF
from repro.web.fetch import VisitorProfile
from repro.web.render import render_document

#: Global switch.  ``REPRO_CACHE=0`` opts a whole process out (the CI
#: equivalence jobs use it); tests and benchmarks toggle programmatically.
_enabled: bool = os.environ.get("REPRO_CACHE", "1") not in ("0", "false", "no")

#: The persistent tier (:class:`repro.perf.diskcache.DiskCache`), off by
#: default.  ``REPRO_DISK_CACHE=<dir>`` enables it lazily; ``--disk-cache``
#: / :func:`set_disk_cache` set it explicitly (and explicit disable beats
#: the environment).  ``--no-cache`` bypasses it wholesale: the disk tier
#: only ever runs underneath the memory tier.
_DISK: Optional[DiskCache] = None
_disk_resolved: bool = False

#: Every LRUCache ever constructed, for :func:`reset_caches`.
_caches: List["LRUCache"] = []

_MISSING = object()


def caches_enabled() -> bool:
    """Whether the content-addressed caching layer is active."""
    return _enabled


def set_caches_enabled(on: bool) -> bool:
    """Flip the global cache switch; returns the previous setting.

    Disabling also drops every registered cache's contents so a
    subsequent re-enable starts cold (the state a fresh process has).
    """
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    if not _enabled:
        reset_caches()
    return previous


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Run a block with the caching layer off (and cleared)."""
    previous = set_caches_enabled(False)
    try:
        yield
    finally:
        set_caches_enabled(previous)


def reset_caches() -> None:
    """Empty every registered cache (counters in PERF are left alone).

    The disk tier is *not* touched: dropping the memory tier is how tests
    and benchmarks simulate a cold process start, and a cold process is
    exactly what the disk tier exists to warm."""
    for cache in _caches:
        cache.clear()


def set_disk_cache(path: Optional[str], max_bytes: Optional[int] = None) -> Optional[str]:
    """Point the persistent tier at ``path`` (None disables it).

    Returns the previously active directory (or None).  An explicit call
    — either way — also stops the lazy ``REPRO_DISK_CACHE`` environment
    lookup, so ``--no-disk-cache`` beats an inherited environment knob.
    """
    global _DISK, _disk_resolved
    previous = _DISK.path if _DISK is not None else None
    _disk_resolved = True
    if path is None:
        _DISK = None
        return previous
    kwargs = {} if max_bytes is None else {"max_bytes": max_bytes}
    _DISK = DiskCache(path, **kwargs)
    return previous


def disk_cache() -> Optional[DiskCache]:
    """The active persistent tier, resolving ``REPRO_DISK_CACHE`` once."""
    global _DISK, _disk_resolved
    if not _disk_resolved:
        _disk_resolved = True
        path = os.environ.get("REPRO_DISK_CACHE")
        if path:
            _DISK = DiskCache(path)
    return _DISK


def disk_cache_path() -> Optional[str]:
    """Directory of the active persistent tier, or None when disabled."""
    disk = disk_cache()
    return disk.path if disk is not None else None


def content_key(html: str) -> bytes:
    """16-byte BLAKE2b digest of a page's HTML — the cache address."""
    return blake2b(html.encode("utf-8", "surrogatepass"), digest_size=16).digest()


class LRUCache:
    """Bounded mapping with least-recently-used eviction and PERF counters.

    Instances register their ``cache.<name>.hit/.miss/.evict`` counters at
    zero on construction so the perf report carries them even before any
    traffic, and report every event through :data:`PERF` afterwards.
    """

    __slots__ = ("name", "maxsize", "persistent", "_data", "_hit", "_miss",
                 "_evict", "_disk_hit", "_disk_miss", "_promote", "_write")

    def __init__(self, name: str, maxsize: int, persistent: bool = False):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        #: Persistent caches consult the disk tier (when one is active) on
        #: a memory miss — see :mod:`repro.perf.diskcache` for which
        #: caches qualify and how their entries are invalidated.
        self.persistent = persistent
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hit = f"cache.{name}.hit"
        self._miss = f"cache.{name}.miss"
        self._evict = f"cache.{name}.evict"
        self._disk_hit = f"cache.{name}.disk_hit"
        self._disk_miss = f"cache.{name}.disk_miss"
        self._promote = f"cache.{name}.promote"
        self._write = f"cache.{name}.write"
        PERF.count(self._hit, 0)
        PERF.count(self._miss, 0)
        PERF.count(self._evict, 0)
        if persistent:
            PERF.count(self._disk_hit, 0)
            PERF.count(self._disk_miss, 0)
            PERF.count(self._promote, 0)
            PERF.count(self._write, 0)
        _caches.append(self)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    def get_or_build(self, key: Hashable, build: Callable[[Any], Any], arg: Any) -> Any:
        """Return the cached value for ``key``, building via ``build(arg)``
        on a miss.  Assumes the caller already checked
        :func:`caches_enabled` (the wrappers below do).

        With a persistent tier active, a memory miss consults the disk
        before building: a disk hit is promoted into the memory tier
        (``.disk_hit`` + ``.promote``), a disk miss builds and persists
        the result (``.disk_miss`` + ``.write``).  ``.miss`` still counts
        every memory miss — the disk counters subdivide it.
        """
        data = self._data
        found = data.get(key, _MISSING)
        if found is not _MISSING:
            data.move_to_end(key)
            PERF.count(self._hit)
            return found
        PERF.count(self._miss)
        disk = disk_cache() if self.persistent else None
        if disk is not None:
            cached = disk.load(self.name, key)
            if cached is not DISK_MISS:
                PERF.count(self._disk_hit)
                PERF.count(self._promote)
                self._insert(key, cached)
                return cached
            PERF.count(self._disk_miss)
        value = build(arg)
        if disk is not None and disk.store(self.name, key, value):
            PERF.count(self._write)
        self._insert(key, value)
        return value

    def _insert(self, key: Hashable, value: Any) -> None:
        data = self._data
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            PERF.count(self._evict)

    def memo_html(self, html: str, build: Callable[[str], Any]) -> Any:
        """Content-addressed :meth:`get_or_build` for HTML-derived values,
        with the enabled check folded in: the disabled path is exactly one
        extra branch over calling ``build`` directly."""
        if not _enabled:
            return build(html)
        return self.get_or_build(content_key(html), build, html)

    def __repr__(self) -> str:
        return f"LRUCache({self.name!r}, {len(self._data)}/{self.maxsize})"


# --------------------------------------------------------------------- #
# The shared DOM and render caches
# --------------------------------------------------------------------- #

#: Parsed-DOM cache.  Generated pages run a few KB / a few hundred nodes
#: (~50 KB of Python objects each), so even the benchmark world's ~40k
#: distinct pages fit in a couple of GB; undersizing is far worse — at
#: scale 0.25 a 2048-entry cache *thrashed* (50k evictions, hit rate
#: under 50%) and re-parsed pages it had just dropped.
_DOM_CACHE = LRUCache("dom", maxsize=65536)

#: Rendered-view cache (parse + mini-JS execution).  Sized like the DOM
#: cache: every page the rendering crawler revisits between content
#: rotations should still be resident.
_RENDER_CACHE = LRUCache("render", maxsize=65536, persistent=True)


def parse_html_cached(html: str) -> Document:
    """``parse_html`` memoized by content hash.

    The returned Document is shared across callers: treat it as frozen.
    Consumers that mutate parse results (e.g. ``render_document``'s
    internal fragment parses) must keep using the pure ``parse_html``.
    """
    if not _enabled:
        return parse_html(html)
    return _DOM_CACHE.get_or_build(content_key(html), _parse_or_adopt, html)


def _parse_or_adopt(html: str) -> Document:
    # Most misses are pages a PageBuilder serialized moments ago: take its
    # tree, which parses back to itself, rather than re-derive it.
    tree = built_tree(html)
    return parse_html(html) if tree is None else tree


def _render_build(html: str) -> Document:
    # render_document never mutates the source document, so the shared DOM
    # cache can feed it; but the rendered view shares every subtree off the
    # root-to-body path with that cached DOM, so the values of both caches
    # must stay frozen.
    return render_document(parse_html_cached(html))


def render_document_cached(html: str, profile: Optional[VisitorProfile] = None) -> Document:
    """Parse + render, cached on ``(content hash, visitor profile)``.

    The rendered Document is shared: read-only, like every cached DOM.
    """
    if not _enabled:
        return render_document(parse_html(html))
    return _RENDER_CACHE.get_or_build((content_key(html), profile), _render_build, html)
