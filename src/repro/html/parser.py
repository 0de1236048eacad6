"""A tolerant, single-pass HTML parser.

Handles the HTML our generator emits plus common sloppiness (unquoted
attributes, unclosed tags, stray close tags) so the crawlers can parse pages
without ever raising.  ``script`` and ``style`` contents are treated as raw
text, which matters because iframe-cloaking JavaScript lives there.

:func:`parse_html` scans the source once and builds elements as it goes:
there is no separate token stream, so a start tag becomes an
:class:`~repro.html.nodes.Element` that owns the attribute dict scanned
for it, and a tag with nothing between its name and ``>`` skips the
attribute scan.

``parse_html`` stays a pure function: the content-addressed memoized
wrapper lives in :mod:`repro.perf.cache` (``parse_html_cached``), and
callers that mutate their parse results must keep using this module
directly so shared cached Documents stay frozen.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Dict, List, Tuple

from repro.html.nodes import Comment, Document, Element, Text, VOID_ELEMENTS, adopt

#: Elements whose content is raw text until the matching close tag.
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})

_ATTR_RE = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)          # attribute name
        (?:\s*=\s*
            (?: "([^"]*)" | '([^']*)' | ([^\s>]+) )  # "v" | 'v' | bare
        )?""",
    re.VERBOSE,
)
_TAG_NAME_RE = re.compile(r"[a-zA-Z][-a-zA-Z0-9]*")


def _parse_attrs(text: str) -> Tuple[Dict[str, str], bool]:
    """Attributes of one start tag (later duplicates overwrite in place)
    and whether the tag ends in ``/``."""
    attrs: Dict[str, str] = {}
    # findall gives "" for a group that did not take part; at most one of
    # the three value forms matches, and a bare value is never empty, so
    # ``or`` picks the one that matched.
    for name, double, single, bare in _ATTR_RE.findall(text):
        attrs[name.lower()] = unescape(double or single or bare)
    return attrs, text.rstrip().endswith("/")


def _close(stack: List[Element], name: str) -> None:
    """Pop to the innermost open ``name``; a stray close (or one that
    would close the root) is ignored."""
    for i in range(len(stack) - 1, 0, -1):
        if stack[i].tag == name:
            del stack[i:]
            return


def parse_html(source: str) -> Document:
    """Parse HTML into a :class:`Document`; tolerant of malformed markup.

    Content outside any ``<html>`` element is adopted into a synthesized
    root, so the result always has a usable tree.  The first ``<html>``
    tag's attributes merge onto that root; a later one nests.
    """
    root = Element("html")
    stack: List[Element] = [root]
    kids = root.children  # of the innermost open element, stack[-1]
    saw_html = False
    find = source.find
    startswith = source.startswith
    pos = 0
    length = len(source)
    while pos < length:
        lt = find("<", pos)
        if lt == -1:
            data = unescape(source[pos:])
            if data:
                kids.append(Text(data))
            break
        if lt > pos:
            data = unescape(source[pos:lt])
            if data:
                kids.append(Text(data))
        if startswith("<!--", lt):
            close = find("-->", lt + 4)
            if close == -1:
                kids.append(Comment(source[lt + 4:]))
                break
            kids.append(Comment(source[lt + 4:close]))
            pos = close + 3
            continue
        if startswith("<!", lt):
            # A doctype or other declaration: dropped.
            close = find(">", lt)
            if close == -1:
                break
            pos = close + 1
            continue
        if startswith("</", lt):
            close = find(">", lt)
            if close == -1:
                break
            # Void elements are never open, so their close tags pop nothing.
            _close(stack, source[lt + 2:close].strip().lower())
            kids = stack[-1].children
            pos = close + 1
            continue
        match = _TAG_NAME_RE.match(source, lt + 1)
        if match is None:
            # A bare '<' in text; keep it literally and move on.
            kids.append(Text("<"))
            pos = lt + 1
            continue
        name = match.group().lower()
        end = match.end()
        close = find(">", end)
        if close == -1:
            break
        if close == end:
            attrs: Dict[str, str] = {}
            self_closing = False
        else:
            attrs, self_closing = _parse_attrs(source[end:close])
        pos = close + 1
        if name == "html" and not saw_html:
            # Merge attributes onto the synthesized root instead of
            # nesting a second <html>.
            saw_html = True
            root.attrs.update(attrs)
            continue
        element = adopt(name, attrs, [])
        kids.append(element)
        if self_closing or name in VOID_ELEMENTS:
            continue
        if name not in RAW_TEXT_ELEMENTS:
            stack.append(element)
            kids = element.children
            continue
        # Raw text runs to the first "</script" / "</style", unescaped;
        # that close tag (whatever follows the name) ends the element.
        close = find("</" + name, pos)
        if close == -1:
            if pos < length:
                element.children.append(Text(source[pos:]))
            break
        if close > pos:
            element.children.append(Text(source[pos:close]))
        end = find(">", close)
        pos = length if end == -1 else end + 1
    return Document(root)
