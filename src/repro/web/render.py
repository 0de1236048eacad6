"""A miniature JavaScript renderer.

Iframe cloaking runs entirely on the client and "relies on the assumption
that crawlers do not fully render pages at scale" (Section 3.1.1, footnote).
Detecting it therefore requires executing page JavaScript.  Real campaigns
obfuscate the script; our generated kits obfuscate within a small JS subset,
and this module implements an honest interpreter for that subset:

* ``var x = <expr>;`` / ``x = <expr>;`` / ``x += <expr>;``
* string literals, ``+`` concatenation, ``String.fromCharCode(..)``,
  ``unescape("%xx..")``, ``[.."s1","s2"..].join("")``
* ``document.write(<expr>);``
* ``var e = document.createElement('iframe'); e.src = ..;
  document.body.appendChild(e);``

Anything outside the subset is ignored (as a batch crawler's lightweight
renderer would time out or skip), never raising into the crawl loop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.html.nodes import Document, Element
from repro.html.parser import parse_html


@dataclass
class ScriptEffects:
    """Observable DOM mutations from running a page's scripts."""

    written_html: List[str] = field(default_factory=list)
    appended_elements: List[Element] = field(default_factory=list)

    def merged_into(self, other: "ScriptEffects") -> None:
        other.written_html.extend(self.written_html)
        other.appended_elements.extend(self.appended_elements)


class _Lexer:
    """Character-wise splitter that respects string literals."""

    def __init__(self, code: str):
        self.code = code

    def statements(self) -> List[str]:
        out: List[str] = []
        buf: List[str] = []
        quote: Optional[str] = None
        i = 0
        code = self.code
        while i < len(code):
            ch = code[i]
            if quote is not None:
                buf.append(ch)
                if ch == "\\" and i + 1 < len(code):
                    buf.append(code[i + 1])
                    i += 2
                    continue
                if ch == quote:
                    quote = None
            elif ch in "'\"":
                quote = ch
                buf.append(ch)
            elif ch in ";\n":
                stmt = "".join(buf).strip()
                if stmt:
                    out.append(stmt)
                buf = []
            else:
                buf.append(ch)
            i += 1
        stmt = "".join(buf).strip()
        if stmt:
            out.append(stmt)
        return out


_STRING_RE = re.compile(r"""('(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")""")
_FROMCHARCODE_RE = re.compile(r"String\.fromCharCode\(([\d,\s]*)\)")
_UNESCAPE_RE = re.compile(r"unescape\(\s*(['\"])(.*?)\1\s*\)")
_JOIN_RE = re.compile(r"\[([^\]]*)\]\.join\(\s*(?:''|\"\")\s*\)")
_IDENT_RE = re.compile(r"^[A-Za-z_$][\w$]*$")


def _unquote(literal: str) -> str:
    body = literal[1:-1]
    return (
        body.replace("\\'", "'")
        .replace('\\"', '"')
        .replace("\\\\", "\\")
        .replace("\\n", "\n")
    )


def _decode_percent(text: str) -> str:
    def sub(match: "re.Match[str]") -> str:
        return chr(int(match.group(1), 16))

    return re.sub(r"%([0-9a-fA-F]{2})", sub, text)


def _eval_expr(expr: str, env: Dict[str, str]) -> Optional[str]:
    """Evaluate a string-producing expression; None if outside the subset."""
    expr = expr.strip()
    if not expr:
        return None

    # Reduce builtin calls to string literals first.
    def charcode_sub(match: "re.Match[str]") -> str:
        codes = [int(c) for c in match.group(1).replace(" ", "").split(",") if c]
        return "'" + "".join(chr(c) for c in codes).replace("'", "\\'") + "'"

    expr = _FROMCHARCODE_RE.sub(charcode_sub, expr)
    expr = _UNESCAPE_RE.sub(
        lambda m: "'" + _decode_percent(m.group(2)).replace("'", "\\'") + "'", expr
    )

    def join_sub(match: "re.Match[str]") -> str:
        items = _STRING_RE.findall(match.group(1))
        joined = "".join(_unquote(s) for s in items)
        return "'" + joined.replace("'", "\\'") + "'"

    expr = _JOIN_RE.sub(join_sub, expr)

    # Now the expression must be terms joined by top-level '+'.
    terms = _split_concat(expr)
    if terms is None:
        return None
    parts: List[str] = []
    for term in terms:
        term = term.strip()
        if _STRING_RE.fullmatch(term):
            parts.append(_unquote(term))
        elif _IDENT_RE.match(term) and term in env:
            parts.append(env[term])
        else:
            return None
    return "".join(parts)


def _split_concat(expr: str) -> Optional[List[str]]:
    """Split an expression on '+' operators outside string literals."""
    terms: List[str] = []
    buf: List[str] = []
    quote: Optional[str] = None
    i = 0
    while i < len(expr):
        ch = expr[i]
        if quote is not None:
            buf.append(ch)
            if ch == "\\" and i + 1 < len(expr):
                buf.append(expr[i + 1])
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf.append(ch)
        elif ch == "+":
            terms.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    if quote is not None:
        return None
    terms.append("".join(buf))
    return terms


_CREATE_RE = re.compile(
    r"(?:var\s+)?([A-Za-z_$][\w$]*)\s*=\s*document\.createElement\(\s*(['\"])(\w+)\2\s*\)"
)
_SETPROP_RE = re.compile(r"([A-Za-z_$][\w$]*)\.(\w+)\s*=\s*(.+)$")
_SETATTR_RE = re.compile(
    r"([A-Za-z_$][\w$]*)\.setAttribute\(\s*(['\"])(\w+)\2\s*,\s*(.+)\)\s*$"
)
_APPEND_RE = re.compile(r"document\.body\.appendChild\(\s*([A-Za-z_$][\w$]*)\s*\)")
_WRITE_RE = re.compile(r"document\.write(?:ln)?\((.*)\)\s*$", re.DOTALL)
_ASSIGN_RE = re.compile(r"^(?:var\s+|let\s+|const\s+)?([A-Za-z_$][\w$]*)\s*(\+?=)\s*(.+)$", re.DOTALL)

#: element properties that map straight onto HTML attributes
_ELEMENT_PROPS = {"src", "width", "height", "id", "name", "frameborder", "scrolling", "style"}


def execute_script(code: str, env: Optional[Dict[str, str]] = None) -> ScriptEffects:
    """Run one script's code, returning its DOM effects."""
    effects = ScriptEffects()
    variables: Dict[str, str] = dict(env or {})
    elements: Dict[str, Element] = {}
    for stmt in _Lexer(code).statements():
        match = _CREATE_RE.search(stmt)
        if match:
            elements[match.group(1)] = Element(match.group(3))
            continue
        match = _APPEND_RE.search(stmt)
        if match:
            element = elements.get(match.group(1))
            if element is not None:
                effects.appended_elements.append(element)
            continue
        match = _WRITE_RE.search(stmt)
        if match:
            value = _eval_expr(match.group(1), variables)
            if value is not None:
                effects.written_html.append(value)
            continue
        match = _SETATTR_RE.match(stmt)
        if match and match.group(1) in elements:
            value = _eval_expr(match.group(4), variables)
            if value is not None:
                elements[match.group(1)].attrs[match.group(3).lower()] = value
            continue
        match = _SETPROP_RE.match(stmt)
        if match and match.group(1) in elements:
            prop = match.group(2).lower()
            if prop in _ELEMENT_PROPS:
                value = _eval_expr(match.group(3), variables)
                if value is not None:
                    elements[match.group(1)].attrs[prop] = value
            continue
        match = _ASSIGN_RE.match(stmt)
        if match:
            name, op, rhs = match.group(1), match.group(2), match.group(3)
            value = _eval_expr(rhs, variables)
            if value is not None:
                if op == "+=":
                    variables[name] = variables.get(name, "") + value
                else:
                    variables[name] = value
            continue
        # Unknown statement: skip, as a lightweight renderer would.
    return effects


def _path_to_first(element: Element, tag: str) -> Optional[List[int]]:
    """Child indexes from ``element`` down to its first (document-order)
    descendant-or-self tagged ``tag``; None if there is none."""
    if element.tag == tag:
        return []
    for i, child in enumerate(element.children):
        if isinstance(child, Element):
            path = _path_to_first(child, tag)
            if path is not None:
                path.insert(0, i)
                return path
    return None


def render_document(doc: Document) -> Document:
    """Execute every script in the document and apply DOM effects.

    Returns a *new* Document whose body includes elements produced by
    ``document.write`` and ``appendChild`` — the view VanGogh inspects.
    The source is never mutated: only the elements from the root down to
    the first ``<body>`` (the root alone when there is none) are copied,
    and every other subtree is shared with ``doc``, so the view is as
    read-only as the source.
    """
    scripts = doc.find_all("script")
    root = Element(doc.root.tag, doc.root.attrs, doc.root.children)
    body = root
    for i in _path_to_first(doc.root, "body") or ():
        child = body.children[i]
        copy = Element(child.tag, child.attrs, child.children)
        body.children[i] = copy
        body = copy
    for script in scripts:
        code = script.text_content()
        if not code.strip():
            continue
        effects = execute_script(code)
        for chunk in effects.written_html:
            fragment = parse_html(chunk)
            fragment_body = fragment.body if fragment.body is not None else fragment.root
            body.children.extend(fragment_body.children)
        body.children.extend(effects.appended_elements)
    return Document(root)
