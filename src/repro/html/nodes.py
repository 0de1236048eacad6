"""HTML document object model: a small tree of elements, text, and comments."""

from __future__ import annotations

import html as _htmllib
from typing import Dict, List, Optional

#: Elements that never have children or closing tags.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)


class Node:
    """Base class for all DOM nodes."""

    def to_html(self) -> str:
        raise NotImplementedError

    def text_content(self) -> str:
        return ""


class Text(Node):
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str):
        self.data = data

    def to_html(self) -> str:
        return _htmllib.escape(self.data, quote=False)

    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An HTML comment; campaigns leave telltale comments in templates."""

    __slots__ = ("data",)

    def __init__(self, data: str):
        self.data = data

    def to_html(self) -> str:
        return f"<!--{self.data}-->"

    def __repr__(self) -> str:
        return f"Comment({self.data!r})"


class Element(Node):
    """An HTML element with attributes and children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None, children=None):
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.children: List[Node] = list(children or [])

    def append(self, node: Node) -> Node:
        self.children.append(node)
        return node

    def add(self, tag: str, attrs: Optional[Dict[str, str]] = None, text: str = "") -> "Element":
        """Convenience: create a child element, optionally with a text child."""
        child = Element(tag, attrs)
        if text:
            child.append(Text(text))
        self.children.append(child)
        return child

    def get(self, name: str, default: str = "") -> str:
        return self.attrs.get(name, default)

    def iter(self) -> List["Element"]:
        """This element and all its descendants, depth-first."""
        out: List[Element] = []
        _collect(self, out)
        return out

    def find_all(self, tag: str) -> List["Element"]:
        tag = tag.lower()
        return [el for el in self.iter() if el.tag == tag]

    def find(self, tag: str) -> Optional["Element"]:
        return _first_tagged(self, tag.lower())

    def text_content(self) -> str:
        out: List[str] = []
        _collect_text(self, out)
        return "".join(out)

    def to_html(self) -> str:
        parts = [f"<{self.tag}"]
        for name, value in self.attrs.items():
            parts.append(f' {name}="{_htmllib.escape(str(value), quote=True)}"')
        if self.tag in VOID_ELEMENTS:
            parts.append("/>")
            return "".join(parts)
        parts.append(">")
        if self.tag in ("script", "style"):
            # Raw-text elements: children serialize unescaped, matching how
            # the parser reads their content.
            for child in self.children:
                if isinstance(child, Text):
                    parts.append(child.data)
                else:
                    parts.append(child.to_html())
        else:
            for child in self.children:
                parts.append(child.to_html())
        parts.append(f"</{self.tag}>")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Element({self.tag!r}, attrs={self.attrs!r}, children={len(self.children)})"


def adopt(tag: str, attrs: Dict[str, str], children: List[Node]) -> Element:
    """An element that takes ``attrs`` and ``children`` as given, without
    the copies (or the lowercasing of ``tag``) the constructor makes: for
    the parser, which hands over fresh containers and lowercased names."""
    element = Element.__new__(Element)
    element.tag = tag
    element.attrs = attrs
    element.children = children
    return element


# The tree walks below are plain recursion (cheaper than nested
# generators); each visits nodes in document order.


def _collect(element: Element, out: List[Element]) -> None:
    out.append(element)
    for child in element.children:
        if isinstance(child, Element):
            _collect(child, out)


def _first_tagged(element: Element, tag: str) -> Optional[Element]:
    if element.tag == tag:
        return element
    for child in element.children:
        if isinstance(child, Element):
            found = _first_tagged(child, tag)
            if found is not None:
                return found
    return None


def _collect_text(element: Element, out: List[str]) -> None:
    for child in element.children:
        if isinstance(child, Text):
            out.append(child.data)
        elif isinstance(child, Element):
            _collect_text(child, out)


class Document:
    """A parsed or generated HTML document."""

    def __init__(self, root: Optional[Element] = None):
        self.root = root if root is not None else Element("html")

    @property
    def head(self) -> Optional[Element]:
        return self.root.find("head")

    @property
    def body(self) -> Optional[Element]:
        return self.root.find("body")

    def iter(self) -> List[Element]:
        return self.root.iter()

    def find_all(self, tag: str) -> List[Element]:
        return self.root.find_all(tag)

    def title(self) -> str:
        el = self.root.find("title")
        return el.text_content() if el is not None else ""

    def text_content(self) -> str:
        return self.root.text_content()

    def to_html(self) -> str:
        return "<!DOCTYPE html>" + self.root.to_html()

    def __repr__(self) -> str:
        return f"Document(title={self.title()!r})"
