"""Cloaking kits.

Two mechanisms from Section 3.1.1:

* **Redirect cloaking** — crawlers get keyword-stuffed SEO content; users
  arriving via search results get an HTTP redirect to the current landing
  store; direct visitors to a compromised site get the original content (so
  the owner doesn't notice the compromise).
* **Iframe cloaking** — everyone gets the same HTML, but obfuscated
  JavaScript loads the store in a full-viewport iframe.  Only a rendering
  client ever observes the store; non-rendering crawlers see the stuffed
  page, which is why VanGogh must execute JavaScript.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.util.rng import RandomStreams, derive_seed
from repro.util.simtime import SimDate
from repro.web.fetch import PageResult, VisitorProfile
from repro.web.sites import StaticPage


class CloakingType(enum.Enum):
    REDIRECT = "redirect"
    IFRAME = "iframe"
    NONE = "none"


@dataclass
class DoorwayPageContext:
    """Everything a cloaked page needs to answer a request."""

    campaign: str
    vertical: str
    term: str
    #: Returns the current landing-store URL (C&C lookup); None if the
    #: campaign has no live store for the vertical.
    landing_url: Callable[[], Optional[str]]
    #: Crawler-facing SEO content (generated on first serve, then kept).
    seo_page: StaticPage
    #: The compromised host's original page, shown to direct visitors.
    original_page: Optional[StaticPage] = None


class RedirectCloakingKit:
    """Classic redirect cloaking."""

    cloaking_type = CloakingType.REDIRECT

    def respond(self, ctx: DoorwayPageContext, profile: VisitorProfile, day: SimDate) -> PageResult:
        if profile.looks_like_crawler:
            return PageResult(html=ctx.seo_page.html)
        if profile.via_search:
            target = ctx.landing_url()
            if target is not None:
                return PageResult(redirect_to=target)
            return PageResult(html=ctx.seo_page.html)
        # Direct visitor: hide on compromised hosts, else show SEO page.
        if ctx.original_page is not None:
            return PageResult(html=ctx.original_page.html)
        return PageResult(html=ctx.seo_page.html)


def _js_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("'", "\\'")


def _hex_encode(text: str) -> str:
    return "".join(f"%{ord(ch):02x}" for ch in text)


class IframeObfuscator:
    """Emits the iframe-loading script in one of several obfuscation styles.

    All styles stay inside the subset our honest mini-renderer executes —
    matching reality, where detection works only because rendering works.

    Responses must be pure functions of (campaign, target): doorway pages
    are fetched by the measurement crawl, simulated users, and test orders,
    and a stateful per-request stream here would make page bytes depend on
    fetch order.  Split-write chunk sizes therefore come from a throwaway RNG
    seeded per (campaign seed, markup) instead of a shared stream.
    """

    STYLES = ("plain", "split-write", "hex-write", "charcode-dom")

    def __init__(self, streams: RandomStreams, campaign: str):
        child = streams.child(f"obfuscation:{campaign}")
        self.style = child.get("style").choice(self.STYLES)
        self._chunk_seed = derive_seed(child.base_seed, *child.path, "chunks")

    def script_for(self, target_url: str) -> str:
        if self.style == "plain":
            return (
                "var f = document.createElement('iframe');\n"
                f"f.src = '{_js_escape(target_url)}';\n"
                "f.width = '100%';\nf.height = '100%';\n"
                "f.frameborder = '0';\n"
                "document.body.appendChild(f);"
            )
        markup = (
            f'<iframe src="{target_url}" width="100%" height="100%" '
            'frameborder="0" scrolling="no"></iframe>'
        )
        if self.style == "split-write":
            chunks = self._split(markup)
            parts = " + ".join(f"'{_js_escape(c)}'" for c in chunks)
            return f"var z = {parts};\ndocument.write(z);"
        if self.style == "hex-write":
            return f"document.write(unescape('{_hex_encode(markup)}'));"
        # charcode-dom: build the src via fromCharCode, attach via DOM APIs.
        codes = ",".join(str(ord(ch)) for ch in target_url)
        return (
            f"var u = String.fromCharCode({codes});\n"
            "var f = document.createElement('iframe');\n"
            "f.src = u;\nf.width = '100%';\nf.height = '100%';\n"
            "document.body.appendChild(f);"
        )

    def _split(self, text: str) -> list:
        # repro: allow-D001 seed derives from the scenario seed + markup, so chunking is a pure function of (campaign, target)
        rng = random.Random(derive_seed(self._chunk_seed, text))
        chunks = []
        pos = 0
        while pos < len(text):
            size = rng.randint(4, 11)
            chunks.append(text[pos:pos + size])
            pos += size
        return chunks


class IframeCloakingKit:
    """Iframe cloaking: identical HTML for all visitors; the store only
    appears after JavaScript execution."""

    cloaking_type = CloakingType.IFRAME

    def __init__(self, streams: RandomStreams, campaign: str):
        self._obfuscator = IframeObfuscator(streams, campaign)

    def respond(self, ctx: DoorwayPageContext, profile: VisitorProfile, day: SimDate) -> PageResult:
        target = ctx.landing_url()
        if target is None:
            return PageResult(html=ctx.seo_page.html)
        script = self._obfuscator.script_for(target)
        html = ctx.seo_page.html.replace(
            "</body>", f'<script type="text/javascript">{_script_body(script)}</script></body>'
        )
        return PageResult(html=html)


def _script_body(script: str) -> str:
    # Scripts are embedded verbatim; the HTML parser treats script content
    # as raw text so no escaping is needed beyond avoiding '</script'.
    return script.replace("</script", "<\\/script")


def make_kit(cloaking_type: CloakingType, streams: RandomStreams, campaign: str):
    if cloaking_type is CloakingType.REDIRECT:
        return RedirectCloakingKit()
    if cloaking_type is CloakingType.IFRAME:
        return IframeCloakingKit(streams, campaign)
    raise ValueError(f"no kit for cloaking type {cloaking_type}")
