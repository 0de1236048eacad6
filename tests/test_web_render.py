"""Tests for the mini JavaScript renderer — the honest mechanism behind
iframe-cloaking detection."""

from hypothesis import given, strategies as st

from repro.html.nodes import Document
from repro.html.parser import parse_html
from repro.web.render import execute_script, render_document
from repro.seo.cloaking import IframeObfuscator
from repro.util.rng import RandomStreams
from tests.test_html import HTML_FRAGMENTS, _reference_parse, _shape


def _reference_render(doc: Document) -> Document:
    """The renderer before it shared subtrees: serialize the source, parse
    it again, and append the scripts' output to the copy's body."""
    rendered = _reference_parse(doc.to_html())
    body = rendered.body if rendered.body is not None else rendered.root
    for script in rendered.find_all("script"):
        code = script.text_content()
        if not code.strip():
            continue
        effects = execute_script(code)
        for chunk in effects.written_html:
            fragment = _reference_parse(chunk)
            fragment_body = fragment.body if fragment.body is not None else fragment.root
            for child in list(fragment_body.children):
                body.append(child)
        for element in effects.appended_elements:
            body.append(element)
    return rendered


_APPEND_IFRAME = (
    "var f = document.createElement('iframe'); f.src = 'http://s.com/';"
    " f.width = '100%'; f.height = '100%'; document.body.appendChild(f);"
)

#: The parser's fragments plus scripts whose output lands in the body.
_RENDER_FRAGMENTS = HTML_FRAGMENTS + [
    "<script>document.write('<p>w</p>x<i>');</script>",
    "<script>document.write(unescape('%3Cb%3Ek'));</script>",
    f"<script>{_APPEND_IFRAME}</script>",
]

render_soup = st.lists(
    st.one_of(
        st.sampled_from(_RENDER_FRAGMENTS),
        st.text(alphabet="<>ab /=\"'!-&;", max_size=4),
    ),
    max_size=40,
).map("".join)


class TestExecuteScript:
    def test_document_write_literal(self):
        effects = execute_script("document.write('<p>hi</p>');")
        assert effects.written_html == ["<p>hi</p>"]

    def test_variable_assignment_and_concat(self):
        code = "var a = '<p>'; var b = a + 'x' + '</p>'; document.write(b);"
        effects = execute_script(code)
        assert effects.written_html == ["<p>x</p>"]

    def test_plus_equals(self):
        code = "var z = '<i'; z += 'frame>'; document.write(z);"
        assert execute_script(code).written_html == ["<iframe>"]

    def test_from_char_code(self):
        code = "var u = String.fromCharCode(104, 105); document.write(u);"
        assert execute_script(code).written_html == ["hi"]

    def test_unescape(self):
        code = "document.write(unescape('%68%69'));"
        assert execute_script(code).written_html == ["hi"]

    def test_array_join(self):
        code = "document.write(['<p>', 'x', '</p>'].join(''));"
        assert execute_script(code).written_html == ["<p>x</p>"]

    def test_create_element_append(self):
        code = (
            "var f = document.createElement('iframe');\n"
            "f.src = 'http://store.com/';\n"
            "f.width = '100%';\nf.height = '100%';\n"
            "document.body.appendChild(f);"
        )
        effects = execute_script(code)
        assert len(effects.appended_elements) == 1
        el = effects.appended_elements[0]
        assert el.tag == "iframe"
        assert el.attrs["src"] == "http://store.com/"
        assert el.attrs["width"] == "100%"

    def test_set_attribute_form(self):
        code = (
            "var f = document.createElement('iframe');"
            "f.setAttribute('src', 'http://s.com/');"
            "document.body.appendChild(f);"
        )
        effects = execute_script(code)
        assert effects.appended_elements[0].attrs["src"] == "http://s.com/"

    def test_unknown_statements_ignored(self):
        code = "window.alert('x'); for (var i=0;i<3;i++){}; document.write('<b>k</b>');"
        effects = execute_script(code)
        assert effects.written_html == ["<b>k</b>"]

    def test_undefined_variable_skipped(self):
        effects = execute_script("document.write(mystery);")
        assert effects.written_html == []

    def test_semicolons_inside_strings(self):
        effects = execute_script("document.write('a;b');")
        assert effects.written_html == ["a;b"]

    def test_never_raises_on_garbage(self):
        for code in ["", ";;;", "var = = =", "document.write(", "'unterminated"]:
            execute_script(code)


class TestRenderDocument:
    def test_write_appends_to_body(self):
        html = "<html><body><script>document.write('<div id=\"late\">x</div>');</script></body></html>"
        rendered = render_document(parse_html(html))
        assert any(el.get("id") == "late" for el in rendered.iter())

    def test_append_child_iframe_visible_after_render(self):
        code = (
            "var f = document.createElement('iframe');"
            "f.src = 'http://store.com/'; f.width = '100%'; f.height = '100%';"
            "document.body.appendChild(f);"
        )
        html = f"<html><body><p>seo text</p><script>{code}</script></body></html>"
        unrendered = parse_html(html)
        assert unrendered.find_all("iframe") == []
        rendered = render_document(unrendered)
        assert len(rendered.find_all("iframe")) == 1

    def test_static_page_unchanged(self):
        html = "<html><body><p>static</p></body></html>"
        rendered = render_document(parse_html(html))
        assert rendered.text_content() == parse_html(html).text_content()


class TestRenderMatchesReference:
    """Rendering without the serialize-and-reparse round trip changes no
    tree."""

    def test_real_pages_exactly(self, world_pages):
        for html in world_pages:
            rendered = render_document(parse_html(html))
            assert _shape(rendered) == _shape(_reference_render(_reference_parse(html)))

    @given(render_soup)
    def test_fuzzed_markup_up_to_text_merging(self, source):
        # The old round trip re-parsed serialized text, so text nodes the
        # first parse kept apart (a stray '<', or text around a dropped
        # declaration, a stray close tag or the first <html> tag) came
        # back as one.
        rendered = render_document(parse_html(source))
        reference = _reference_render(_reference_parse(source))
        assert _shape(rendered, merge_text=True) == _shape(reference, merge_text=True)

    def test_source_document_unchanged(self, world_pages):
        revealed = 0
        for html in world_pages:
            source = parse_html(html)
            before = source.to_html()
            iframes = len(source.find_all("iframe"))
            rendered = render_document(source)
            assert source.to_html() == before
            assert len(source.find_all("iframe")) == iframes
            revealed += len(rendered.find_all("iframe")) > iframes
        # Cloaked doorways served to the rendering crawler are in the
        # corpus, so some renders did append an iframe.
        assert revealed > 0

    def test_view_shares_subtrees_off_the_body_path(self):
        html = "<html><head><title>t</title></head><body><p>x</p><script>document.write('<i>y</i>');</script></body></html>"
        source = parse_html(html)
        rendered = render_document(source)
        assert rendered.root is not source.root
        assert rendered.body is not source.body
        assert rendered.head is source.head
        assert rendered.body.children[0] is source.body.children[0]
        assert [el.tag for el in source.body.children] == ["p", "script"]
        assert [el.tag for el in rendered.body.children] == ["p", "script", "i"]


class TestObfuscationStylesRoundTrip:
    """Every obfuscation style a kit can emit must be executable by the
    renderer and reveal the iframe — the detection contract."""

    def test_all_styles_reveal_target(self):
        target = "http://store-example.com/"
        for i in range(40):  # cycle RNG so all styles appear
            streams = RandomStreams(i)
            obfuscator = IframeObfuscator(streams, f"campaign{i}")
            script = obfuscator.script_for(target)
            html = f"<html><body><p>x</p><script>{script}</script></body></html>"
            rendered = render_document(parse_html(html))
            iframes = rendered.find_all("iframe")
            assert iframes, f"style {obfuscator.style} produced no iframe"
            assert iframes[0].get("src") == target, obfuscator.style

    def test_styles_cover_all_variants(self):
        seen = {IframeObfuscator(RandomStreams(i), f"c{i}").style for i in range(60)}
        assert seen == set(IframeObfuscator.STYLES)
