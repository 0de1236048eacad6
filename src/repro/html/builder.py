"""Fluent helper for composing HTML documents programmatically.

Campaign page templates (doorways, storefronts, seizure notices) are built
with this rather than string concatenation, so generated markup is always
well-formed and the parser/classifier round-trip is exact.

**Round-trip contract.**  ``parse_html(builder.html())`` is the builder's
own tree: the same tags, attribute items in the same order, and the same
child kinds and data.  The helpers keep it on their own: :meth:`script`
writes every ``</script`` in its code as ``<\\/script``, and
:meth:`comment` refuses text containing ``--``.  Code that reaches the
tree directly (``Element.add``, ``append``, ``attrs``) keeps it by giving
attributes lower-case names and ``str`` values, putting no children under
void elements (``img``, ``meta``, ``input``...), and adding no empty or
adjacent text nodes (``Element.add`` already skips empty text).
``tests/test_html.py`` checks every page family the simulator builds
against its parse.

**Hand-off.**  :meth:`PageBuilder.html` remembers the tree behind each of
its last few outputs (:func:`built_tree`), so the shared DOM cache adopts
that tree on a miss instead of parsing the string it was just serialized
to (:func:`repro.perf.cache.parse_html_cached`).  A builder is therefore
done once :meth:`~PageBuilder.html` returns: its tree may already be
shared, and like every cached DOM it must stay frozen.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.html.nodes import Comment, Document, Element, Text

#: How many recent :meth:`PageBuilder.html` outputs keep their tree.  A
#: built page is parsed, if at all, by the fetch that made it build: on
#: the benchmark's crawls 98% of adoptions take the newest tree and the
#: rest the one before it.  More would only hold trees the DOM cache has.
_BUILT_MAX = 2

#: Exact serialized string -> the tree it came from, oldest first.
_built: "OrderedDict[str, Document]" = OrderedDict()


def built_tree(html: str) -> Optional[Document]:
    """The tree one of the last few :meth:`PageBuilder.html` calls
    serialized to exactly ``html``, or None.  Any other string (a
    truncated or edited copy, say) finds nothing and must be parsed."""
    return _built.get(html)


def escape_script(code: str) -> str:
    """``code`` with every ``</script`` written ``<\\/script``: the same
    JavaScript, but the ``script`` element holding it closes only where
    its markup does."""
    return code.replace("</script", "<\\/script")


class PageBuilder:
    """Builds a Document with a head/body skeleton and chainable helpers."""

    def __init__(self, title: str = "", lang: str = "en"):
        self.doc = Document(Element("html", {"lang": lang}))
        self._head = self.doc.root.add("head")
        self._head.add("meta", {"charset": "utf-8"})
        if title:
            self._head.add("title", text=title)
        self._body = self.doc.root.add("body")

    @property
    def head(self) -> Element:
        return self._head

    @property
    def body(self) -> Element:
        return self._body

    def meta(self, name: str, content: str) -> "PageBuilder":
        self._head.add("meta", {"name": name, "content": content})
        return self

    def stylesheet(self, href: str) -> "PageBuilder":
        self._head.add("link", {"rel": "stylesheet", "href": href})
        return self

    def script(self, code: str = "", src: str = "") -> "PageBuilder":
        attrs = {"type": "text/javascript"}
        if src:
            attrs["src"] = src
        el = self._body.add("script", attrs)
        if code:
            el.append(Text(escape_script(code)))
        return self

    def comment(self, text: str) -> "PageBuilder":
        if "--" in text:
            raise ValueError(f"comment text must not contain '--': {text!r}")
        self._body.append(Comment(text))
        return self

    def div(self, cls: str = "", id_: str = "", text: str = "") -> Element:
        attrs: Dict[str, str] = {}
        if cls:
            attrs["class"] = cls
        if id_:
            attrs["id"] = id_
        return self._body.add("div", attrs, text=text)

    def heading(self, text: str, level: int = 1) -> "PageBuilder":
        if not 1 <= level <= 6:
            raise ValueError(f"heading level must be 1..6, got {level}")
        self._body.add(f"h{level}", text=text)
        return self

    def paragraph(self, text: str, cls: str = "") -> "PageBuilder":
        attrs = {"class": cls} if cls else {}
        self._body.add("p", attrs, text=text)
        return self

    def link(self, href: str, text: str, parent: Optional[Element] = None) -> "PageBuilder":
        (parent if parent is not None else self._body).add("a", {"href": href}, text=text)
        return self

    def image(self, src: str, alt: str = "", parent: Optional[Element] = None) -> "PageBuilder":
        (parent if parent is not None else self._body).add("img", {"src": src, "alt": alt})
        return self

    def iframe(self, src: str, width: str, height: str, **extra: str) -> "PageBuilder":
        attrs = {"src": src, "width": width, "height": height}
        attrs.update(extra)
        self._body.add("iframe", attrs)
        return self

    def build(self) -> Document:
        return self.doc

    def html(self) -> str:
        """The document's markup; its tree is remembered for
        :func:`built_tree` (see the module docstring)."""
        html = self.doc.to_html()
        _built[html] = self.doc
        _built.move_to_end(html)
        if len(_built) > _BUILT_MAX:
            _built.popitem(last=False)
        return html
