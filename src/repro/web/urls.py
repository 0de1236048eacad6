"""Tiny URL model.

We only need scheme/host/path/query and a couple of predicates (root URL,
same-registered-domain), so this avoids dragging in urllib semantics the
simulator does not use.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class Url(NamedTuple):
    scheme: str
    host: str
    path: str
    query: str

    def __str__(self) -> str:
        url = f"{self.scheme}://{self.host}{self.path}"
        if self.query:
            url += f"?{self.query}"
        return url

    @property
    def is_root(self) -> bool:
        """True for the site root (the only URL Google's "hacked" label
        covers, per Section 3.2.1)."""
        return self.path in ("", "/") and not self.query

    def root(self) -> "Url":
        return Url(self.scheme, self.host, "/", "")

    def with_path(self, path: str, query: str = "") -> "Url":
        if not path.startswith("/"):
            path = "/" + path
        return Url(self.scheme, self.host, path, query)

    def query_params(self) -> Dict[str, str]:
        params: Dict[str, str] = {}
        if not self.query:
            return params
        for pair in self.query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[key] = value
        return params


def parse_url(raw: str) -> Url:
    """Parse an absolute http(s) URL string into a :class:`Url`.

    >>> parse_url("http://doorway.com/?key=cheap+beats")
    Url(scheme='http', host='doorway.com', path='/', query='key=cheap+beats')
    >>> parse_url("http://a.com?x=1")
    Url(scheme='http', host='a.com', path='/', query='x=1')
    """
    scheme, sep, rest = raw.partition("://")
    if not sep:
        raise ValueError(f"not an absolute URL: {raw!r}")
    scheme = scheme.lower()
    if scheme not in ("http", "https"):
        raise ValueError(f"unsupported scheme {scheme!r} in {raw!r}")
    # The authority ends at the first "/" or "?", whichever comes first.
    end = len(rest)
    for mark in "/?":
        found = rest.find(mark, 0, end)
        if found != -1:
            end = found
    host = rest[:end].lower()
    if not host:
        raise ValueError(f"missing host in {raw!r}")
    path, _, query = rest[end:].partition("?")
    return Url(scheme, host, path or "/", query)


def registered_domain(host: str) -> str:
    """Collapse a hostname to its registered domain (naive two-label rule;
    our synthetic namespace has no public-suffix subtleties).

    >>> registered_domain("shop.cocovipbags.com")
    'cocovipbags.com'
    """
    labels = host.lower().split(".")
    if len(labels) <= 2:
        return host.lower()
    return ".".join(labels[-2:])
