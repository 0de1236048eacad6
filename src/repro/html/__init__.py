"""Minimal HTML substrate.

The paper's measurement pipeline operates on raw HTML: the classifier
extracts tag-attribute-value bag-of-words features (Section 4.2.1), Dagger
diffs page versions, and VanGogh looks for full-viewport iframes
(Section 4.1.2).  This package provides just enough HTML machinery to
generate realistic pages and to parse them back — with no external
dependencies.
"""

from repro.html.nodes import Element, Text, Comment, Document
from repro.html.parser import parse_html
from repro.html.builder import PageBuilder

__all__ = [
    "Element",
    "Text",
    "Comment",
    "Document",
    "parse_html",
    "PageBuilder",
]
