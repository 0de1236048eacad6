"""Tests for the HTML substrate: DOM, parser, builder."""

import html as _htmllib
import pickle
import re
from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.html import Document, Element, Text, Comment, PageBuilder, parse_html
from repro.html.builder import built_tree
from repro.html.nodes import VOID_ELEMENTS
from repro.perf.cache import parse_html_cached, reset_caches, set_caches_enabled
from repro.web.fetch import SEARCH_USER
from repro.web.sites import StaticPage


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

    def test_script_code_cannot_close_its_element(self):
        code = "document.write('<script src=x></script>');"
        page = PageBuilder().script(code=code)
        scripts = parse_html(page.html()).find_all("script")
        assert len(scripts) == 1
        assert scripts[0].text_content() == "document.write('<script src=x><\\/script>');"

    @pytest.mark.parametrize("text", ["a--b", "--", "x-->"])
    def test_comment_refuses_double_hyphen(self, text):
        with pytest.raises(ValueError):
            PageBuilder().comment(text)


def _family(doc: Document) -> str:
    """Which page template built ``doc``, from the markup each one leaves."""
    ids = {el.get("id") for el in doc.iter()}
    classes = set(" ".join(el.get("class") for el in doc.iter()).split())
    for family, marks, marked in (
        ("seizure notice", ids, "seizure-notice"),
        ("checkout with order number", ids, "order-no"),
        ("checkout", classes, "checkout-form"),
        ("store home", classes, "product-grid"),
        ("product", classes, "product-detail"),
        ("doorway SEO", classes, "seo-content"),
        ("legitimate", classes, "article"),
    ):
        if marked in marks:
            return family
    return "unknown"


_FAMILIES = {
    "seizure notice", "checkout with order number", "checkout", "store home",
    "product", "doorway SEO", "legitimate",
}

#: Text of every kind the helpers take: markup characters, entities, the
#: script close tag, comment hyphens, quotes, and non-ASCII.
_builder_text = st.lists(
    st.one_of(
        st.sampled_from(["<", ">", "&", "&amp;", "&#1;", '"', "'", "/", "=", "-",
                         "</script", "</SCRIPT>", "<!--", "-->", "</p>", " ", "\n"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
).map("".join)
_attr_name = st.from_regex(r"[a-z_:][-a-z0-9_:.]{0,6}", fullmatch=True)


@st.composite
def _built_pages(draw) -> PageBuilder:
    """A page from a random run of builder helper calls."""
    page = PageBuilder(title=draw(_builder_text), lang=draw(_builder_text))
    parents = [None]
    for _ in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from(
            ["meta", "stylesheet", "script", "comment", "div", "heading",
             "paragraph", "link", "image", "iframe"]))
        text = draw(_builder_text)
        if op == "meta":
            page.meta(text, draw(_builder_text))
        elif op == "stylesheet":
            page.stylesheet(text)
        elif op == "script":
            page.script(code=text, src=draw(_builder_text))
        elif op == "comment":
            page.comment(text.replace("-", ""))
        elif op == "div":
            parents.append(page.div(cls=text, id_=draw(_builder_text),
                                    text=draw(_builder_text)))
        elif op == "heading":
            page.heading(text, level=draw(st.integers(1, 6)))
        elif op == "paragraph":
            page.paragraph(text, cls=draw(_builder_text))
        elif op == "link":
            page.link(draw(_builder_text), text, parent=draw(st.sampled_from(parents)))
        elif op == "image":
            page.image(text, draw(_builder_text), parent=draw(st.sampled_from(parents)))
        else:
            extra = draw(st.dictionaries(_attr_name, _builder_text, max_size=3))
            page.iframe(text, draw(_builder_text), draw(_builder_text), **extra)
    return page


class TestBuilderRoundTrip:
    """PageBuilder's round-trip contract: a built tree equals the parse of
    its own markup, which is what lets the DOM cache adopt built trees."""

    def test_every_page_family_equals_its_parse(self, world, monkeypatch):
        """Rebuilds every page the small-preset world serves — legitimate,
        doorway SEO, store home, product, checkout (with and without an
        order number) and seizure-notice pages — and compares each tree
        the builder serialized with the parse of that markup."""
        built = []
        serialize = PageBuilder.html

        def recording(builder):
            html = serialize(builder)
            built.append((builder.doc, html))
            return html

        monkeypatch.setattr(PageBuilder, "html", recording)
        replica = pickle.loads(pickle.dumps(world))
        pages = [page for site in replica.web.sites() for page in site.pages()]
        pages += [
            page.context.seo_page
            for campaign in replica.campaigns()
            for doorway in campaign.doorways
            for page in doorway.pages
        ]
        for page in pages:
            if isinstance(page, StaticPage):
                page.regenerate()
                assert page.html
        for site in replica.web.sites():
            for path in site.paths():
                replica.web.fetch(site.url(path), SEARCH_USER, replica.today)

        families = Counter(_family(doc) for doc, _ in built)
        assert set(families) == _FAMILIES, families
        for doc, html in built:
            assert _shape(doc) == _shape(parse_html(html)), _family(doc)

    @given(_built_pages())
    def test_builder_helpers_equal_their_parse(self, page):
        html = page.html()
        assert _shape(page.build()) == _shape(parse_html(html))


class TestBuiltTreeHandOff:
    """On a miss the DOM cache adopts the tree a PageBuilder just
    serialized; any other string is parsed."""

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        previous = set_caches_enabled(True)
        reset_caches()
        yield
        set_caches_enabled(previous)
        reset_caches()

    @staticmethod
    def _page() -> PageBuilder:
        page = PageBuilder(title="Shop & Save")
        page.comment("tpl:shop:1234")
        page.div(cls="shell", id_="main", text="Top <deals>")
        page.paragraph("Free shipping", cls="note")
        page.script(code="var a = '</script>';")
        return page

    def test_built_page_is_adopted(self):
        page = self._page()
        html = page.html()
        assert built_tree(html) is page.doc
        assert parse_html_cached(html) is page.doc

    @pytest.mark.parametrize("damage", [
        lambda html: html[: len(html) // 2],
        lambda html: html.replace("<p", "<q", 1),
    ], ids=["truncated", "garbled"])
    def test_damaged_copies_are_parsed(self, damage):
        page = self._page()
        copy = damage(page.html())
        assert built_tree(copy) is None
        doc = parse_html_cached(copy)
        assert doc is not page.doc
        assert _shape(doc) == _shape(parse_html(copy))
        assert _shape(doc) != _shape(page.doc)
