"""Tests for the HTML substrate: DOM, parser, builder."""

import html as _htmllib
import re
from typing import Dict, Iterator, List, NamedTuple, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.html import Document, Element, Text, Comment, PageBuilder, parse_html
from repro.html.nodes import VOID_ELEMENTS


# --------------------------------------------------------------------- #
# Reference: the two-stage tokenizer + tree builder that the single-pass
# parse_html replaced, kept verbatim.  parse_html must build exactly the
# trees it builds.
# --------------------------------------------------------------------- #

_REF_RAW_TEXT_ELEMENTS = frozenset({"script", "style"})


class _Token(NamedTuple):
    kind: str
    data: str
    attrs: Dict[str, str]
    self_closing: bool


_REF_ATTR_RE = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)          # attribute name
        (?:\s*=\s*
            (?: "([^"]*)" | '([^']*)' | ([^\s>]+) )  # "v" | 'v' | bare
        )?""",
    re.VERBOSE,
)
_REF_TAG_NAME_RE = re.compile(r"[a-zA-Z][-a-zA-Z0-9]*")


def _ref_parse_attrs(text: str) -> Tuple[Dict[str, str], bool]:
    self_closing = text.rstrip().endswith("/")
    attrs: Dict[str, str] = {}
    for match in _REF_ATTR_RE.finditer(text):
        name = match.group(1).lower()
        if name == "/":
            continue
        value = next((g for g in match.groups()[1:] if g is not None), "")
        attrs[name] = _htmllib.unescape(value)
    return attrs, self_closing


def _ref_tokenize(source: str) -> Iterator[_Token]:
    pos = 0
    length = len(source)
    raw_mode_tag = None
    while pos < length:
        if raw_mode_tag is not None:
            close = source.find(f"</{raw_mode_tag}", pos)
            if close == -1:
                if pos < length:
                    yield _Token("text", source[pos:], {}, False)
                return
            if close > pos:
                yield _Token("text", source[pos:close], {}, False)
            end = source.find(">", close)
            end = length if end == -1 else end + 1
            yield _Token("end", raw_mode_tag, {}, False)
            pos = end
            raw_mode_tag = None
            continue

        lt = source.find("<", pos)
        if lt == -1:
            yield _Token("text", _htmllib.unescape(source[pos:]), {}, False)
            return
        if lt > pos:
            yield _Token("text", _htmllib.unescape(source[pos:lt]), {}, False)
        if source.startswith("<!--", lt):
            close = source.find("-->", lt + 4)
            if close == -1:
                yield _Token("comment", source[lt + 4:], {}, False)
                return
            yield _Token("comment", source[lt + 4:close], {}, False)
            pos = close + 3
            continue
        if source.startswith("<!", lt):
            close = source.find(">", lt)
            if close == -1:
                return
            yield _Token("doctype", source[lt + 2:close].strip(), {}, False)
            pos = close + 1
            continue
        if source.startswith("</", lt):
            close = source.find(">", lt)
            if close == -1:
                return
            name = source[lt + 2:close].strip().lower()
            yield _Token("end", name, {}, False)
            pos = close + 1
            continue
        # Start tag.
        match = _REF_TAG_NAME_RE.match(source, lt + 1)
        if match is None:
            # A bare '<' in text; emit it literally and move on.
            yield _Token("text", "<", {}, False)
            pos = lt + 1
            continue
        name = match.group(0).lower()
        close = source.find(">", match.end())
        if close == -1:
            return
        attrs, self_closing = _ref_parse_attrs(source[match.end():close])
        yield _Token("start", name, attrs, self_closing)
        pos = close + 1
        if name in _REF_RAW_TEXT_ELEMENTS and not self_closing:
            raw_mode_tag = name


def _reference_parse(source: str) -> Document:
    root = Element("html")
    stack: List[Element] = [root]
    saw_html = False
    for token in _ref_tokenize(source):
        if token.kind == "text":
            if token.data:
                stack[-1].append(Text(token.data))
        elif token.kind == "comment":
            stack[-1].append(Comment(token.data))
        elif token.kind == "doctype":
            continue
        elif token.kind == "start":
            if token.data == "html" and not saw_html:
                # Merge attributes onto the synthesized root instead of
                # nesting a second <html>.
                saw_html = True
                root.attrs.update(token.attrs)
                continue
            element = Element(token.data, token.attrs)
            stack[-1].append(element)
            if token.data not in VOID_ELEMENTS and not token.self_closing:
                stack.append(element)
        elif token.kind == "end":
            if token.data in VOID_ELEMENTS:
                continue
            # Pop to the matching open tag if present; ignore stray closes.
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == token.data:
                    del stack[i:]
                    break
    return Document(root)


def _shape(node, merge_text: bool = False):
    """A node as nested tuples: element tag, attribute items in order, and
    child kinds and data.  ``merge_text`` joins adjacent text nodes."""
    if isinstance(node, Document):
        node = node.root
    if not isinstance(node, Element):
        return (type(node).__name__, node.data)
    children: list = []
    for child in node.children:
        if merge_text and isinstance(child, Text) and children and children[-1][0] == "Text":
            children[-1] = ("Text", children[-1][1] + child.data)
        else:
            children.append(_shape(child, merge_text))
    return ("Element", node.tag, tuple(node.attrs.items()), tuple(children))


#: Markup pieces that reach every branch of the parser: raw text and its
#: close-tag forms, comments, declarations, entities (valid, bare and
#: dropped), unquoted and duplicate attributes, self-closing and void
#: tags, a second ``<html>``, and stray ``<`` / ``</``.
HTML_FRAGMENTS = [
    "<script>", "</script>", "<script/>", "<style>", "</style >", "</styles>",
    "<SCRIPT type=text/javascript>", "<!--", "-->", "<!DOCTYPE html>", "<!x",
    "&amp;", "&lt;p&gt;", "&copy", "&#1;", "&#x41;", "&", "&quot",
    "<p>", "</p>", "<P CLASS=lead>", "<div class=a>", "</div>", "</div x>",
    "<br>", "<br/>", "</br>", "<div/>", "<body>", "</body>", "<head>",
    "<a href=/x/>", "<a href='/q' HREF=\"/dup\" data-x>", "<img src=a.png alt>",
    "<i title=\"a &amp; b\" title=c>", "<b title='x &lt; y'>", "<a href=/q?a=1&amp;b=2>",
    "<html lang=de>", "<html lang='fr' dir=rtl>",
    "</html>", "<iframe src=http://s.com/ width=100% height=100%>",
    "<", "</", ">", "/", "=", '"', "'", " ", "\n", "x", "body",
]

html_soup = st.lists(
    st.one_of(
        st.sampled_from(HTML_FRAGMENTS),
        st.text(alphabet="<>ab /=\"'!-&;#", max_size=4),
    ),
    max_size=40,
).map("".join)


class TestNodes:
    def test_element_to_html(self):
        el = Element("div", {"class": "x"}, [Text("hello")])
        assert el.to_html() == '<div class="x">hello</div>'

    def test_void_element_no_close_tag(self):
        el = Element("img", {"src": "/a.jpg"})
        assert el.to_html() == '<img src="/a.jpg"/>'

    def test_attribute_escaping(self):
        el = Element("div", {"title": 'a"b'})
        assert "&quot;" in el.to_html()

    def test_text_escaping(self):
        assert Text("a < b & c").to_html() == "a &lt; b &amp; c"

    def test_comment(self):
        assert Comment("tpl:x").to_html() == "<!--tpl:x-->"

    def test_find_all_depth_first(self):
        root = Element("div")
        child = root.add("ul")
        child.add("li", text="one")
        child.add("li", text="two")
        assert [li.text_content() for li in root.find_all("li")] == ["one", "two"]

    def test_find_returns_first_or_none(self):
        root = Element("div")
        assert root.find("span") is None
        root.add("span", text="s")
        assert root.find("span").text_content() == "s"

    def test_text_content_recursive(self):
        root = Element("div")
        root.add("p", text="a")
        root.add("p", text="b")
        assert root.text_content() == "ab"

    def test_text_content_keeps_whitespace_and_skips_comments(self):
        root = Element("div", children=[Text(" a "), Comment("c")])
        root.add("p", text="b\n")
        assert root.text_content() == " a b\n"

    def test_walks_match_generator_reference(self, world_pages):
        # The walks the list-collecting ones replaced: nested generators.
        def iter_reference(element):
            yield element
            for child in element.children:
                if isinstance(child, Element):
                    yield from iter_reference(child)

        def text_reference(node):
            if isinstance(node, Text):
                return node.data
            if isinstance(node, Element):
                return "".join(text_reference(child) for child in node.children)
            return ""

        for html in world_pages:
            doc = parse_html(html)
            elements = list(iter_reference(doc.root))
            assert doc.iter() == elements
            for tag in ("script", "iframe", "a", "P", "nosuch"):
                tagged = [el for el in elements if el.tag == tag.lower()]
                assert doc.find_all(tag) == tagged
                assert doc.root.find(tag) is (tagged[0] if tagged else None)
            assert doc.text_content() == text_reference(doc.root)

    def test_document_title(self):
        builder = PageBuilder(title="Hello")
        assert builder.build().title() == "Hello"


class TestTokenizer:
    """Lexing behaviour, checked on the tree ``parse_html`` builds."""

    def test_simple_tags(self):
        (p,) = parse_html("<p>hi</p>").root.children
        assert p.tag == "p"
        assert _shape(p) == ("Element", "p", (), (("Text", "hi"),))

    def test_attributes_quoted(self):
        (a,) = parse_html('<a href="/x" class=\'y\'>').root.children
        assert list(a.attrs.items()) == [("href", "/x"), ("class", "y")]

    def test_attributes_unquoted(self):
        (a,) = parse_html("<a href=/x>").root.children
        assert a.attrs["href"] == "/x"

    def test_self_closing(self):
        # A self-closing non-void element takes no children.
        div, text = parse_html("<div/>x").root.children
        assert div.tag == "div" and div.children == []
        assert text.data == "x"

    def test_comment_token(self):
        (comment,) = parse_html("<!-- note -->").root.children
        assert isinstance(comment, Comment)
        assert comment.data == " note "

    def test_doctype(self):
        (p,) = parse_html("<!DOCTYPE html><p>x</p>").root.children
        assert p.tag == "p"

    def test_script_raw_text(self):
        html = "<script>if (a < b) { document.write('<p>x</p>'); }</script><i>k</i>"
        script, after = parse_html(html).root.children
        (code,) = script.children
        assert isinstance(code, Text)
        assert code.data == "if (a < b) { document.write('<p>x</p>'); }"
        assert after.tag == "i"

    def test_entity_unescaping_in_text(self):
        (p,) = parse_html("<p>a &amp; b</p>").root.children
        assert p.children[0].data == "a & b"

    def test_stray_lt_survives(self):
        doc = parse_html("1 < 2")
        assert [child.data for child in doc.root.children] == ["1 ", "<", " 2"]


class TestParser:
    def test_roundtrip_builder_output(self):
        builder = PageBuilder(title="T")
        builder.paragraph("hello world")
        builder.div(cls="c", text="d")
        html = builder.html()
        doc = parse_html(html)
        assert doc.title() == "T"
        assert len(doc.find_all("p")) >= 1
        assert doc.to_html() == parse_html(doc.to_html()).to_html()

    def test_unclosed_tags_tolerated(self):
        doc = parse_html("<div><p>one<p>two</div>")
        assert "one" in doc.text_content()
        assert "two" in doc.text_content()

    def test_stray_close_ignored(self):
        doc = parse_html("</div><p>x</p>")
        assert doc.find_all("p")

    def test_nested_structure(self):
        doc = parse_html("<div><ul><li>a</li><li>b</li></ul></div>")
        ul = doc.root.find("ul")
        assert len([c for c in ul.children if isinstance(c, Element)]) == 2

    def test_iframe_attrs(self):
        doc = parse_html('<iframe src="http://x.com/" width="100%" height="100%"></iframe>')
        iframe = doc.find_all("iframe")[0]
        assert iframe.get("width") == "100%"

    def test_script_content_preserved_verbatim(self):
        code = "var a = '<iframe src=\"http://e.com\">';"
        doc = parse_html(f"<body><script>{code}</script></body>")
        script = doc.find_all("script")[0]
        assert script.text_content() == code

    def test_html_attrs_merged_onto_root(self):
        doc = parse_html('<html lang="de"><body>x</body></html>')
        assert doc.root.get("lang") == "de"
        # No nested <html> element.
        assert len(doc.find_all("html")) == 1

    def test_parse_never_raises_on_noise(self):
        for source in ["", "<", "<<<>>>", "<a", "<!----", "</", "a<b>c"]:
            parse_html(source)  # must not raise

    @given(st.text(alphabet="<>ab c/\"'=!-", max_size=120))
    def test_parser_total_on_adversarial_input(self, source):
        parse_html(source)  # must not raise


class TestParserMatchesReference:
    """parse_html builds the reference's trees: same tags, attribute items
    in the same order, same child kinds and data."""

    @given(html_soup)
    def test_fuzzed_markup(self, source):
        assert _shape(parse_html(source)) == _shape(_reference_parse(source))

    def test_every_world_page(self, world_pages):
        assert len(world_pages) > 100
        for html in world_pages:
            assert _shape(parse_html(html)) == _shape(_reference_parse(html))

    @pytest.mark.parametrize("source", [
        "", "<", "</", "<!--", "<!-->", "<script>", "<script>a</scrip",
        "<style>x</style >y", "a<!x>b", "a</p>b", "<html a=1><html b=2>c",
        "<a b='1' b=\"2\" B=3>", "&#1;<p>&#1;</p>", "<div/ >",
    ])
    def test_edge_cases(self, source):
        assert _shape(parse_html(source)) == _shape(_reference_parse(source))


class TestPageBuilder:
    def test_head_contains_charset(self):
        page = PageBuilder()
        html = page.html()
        assert 'charset="utf-8"' in html

    def test_meta_and_stylesheet(self):
        page = PageBuilder().meta("robots", "noindex").stylesheet("/s.css")
        html = page.html()
        assert 'name="robots"' in html
        assert 'href="/s.css"' in html

    def test_script_inline(self):
        page = PageBuilder().script(code="document.write('x');")
        doc = parse_html(page.html())
        assert "document.write" in doc.find_all("script")[0].text_content()

    def test_heading_levels_validated(self):
        with pytest.raises(ValueError):
            PageBuilder().heading("x", level=7)

    def test_iframe_helper(self):
        page = PageBuilder().iframe("http://s.com/", "100%", "100%", frameborder="0")
        doc = parse_html(page.html())
        assert doc.find_all("iframe")[0].get("frameborder") == "0"
