"""Page HTML built on first serve matches the eager build it replaced.

Legitimate pages (``web/population.py``) and doorway SEO pages
(``seo/doorways.py``, ``Campaign._inject_root``) used to render their HTML
when the page was created.  They now carry a picklable generator and build
on first serve.  The eager builders are kept here as the reference: a
world built with them patched back in must hold byte-identical pages, so
neither the creating streams nor any page's bytes moved.
"""

import pickle

import pytest

from repro.ecosystem import small_preset
from repro.ecosystem.simulator import Simulator
from repro.html.builder import PageBuilder
from repro.seo import doorways
from repro.web import population
from repro.web.sites import SiteKind, StaticPage

DAYS = 30


def _legit_page_html_reference(host: str, topic: str, seed_rng) -> str:
    """The eager legitimate page: the paragraph draw happens mid-build."""
    page = PageBuilder(title=f"{topic.title()} — {host}")
    page.meta("description", f"{topic} coverage and reviews from {host}")
    main = page.div(cls="article")
    main.add("h1", text=f"{topic.title()} guide")
    for _ in range(seed_rng.randint(2, 5)):
        main.add(
            "p",
            text=(
                f"Everything you need to know about {topic}: comparisons, "
                "pricing history, and where to buy from authorized retailers."
            ),
        )
    page.link("/about.html", "About us")
    return page.html()


def _eager_legit_page(path, host, topic, rng):
    return StaticPage(path, html=_legit_page_html_reference(host, topic, rng))


def _eager_seo_page(path, theme, term, vertical, page_seed):
    return StaticPage(path, html=theme.doorway_seo_page(term, vertical, page_seed))


def _simulate():
    simulator = Simulator(small_preset(days=DAYS))
    simulator.build()
    simulator.run()
    return simulator


@pytest.fixture(scope="module")
def eager():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(population, "_legit_page", _eager_legit_page)
        patch.setattr(doorways, "seo_page", _eager_seo_page)
        return _simulate()


def _static_pages(world):
    """(host, path) -> StaticPage for every site, in a stable order."""
    return {
        (site.host, page.path): page
        for site in sorted(world.web.sites(), key=lambda s: s.host)
        for page in site.pages()
        if isinstance(page, StaticPage)
    }


def _doorway_contexts(world):
    """Each doorway page's context, keyed by who built it and where."""
    contexts = {}
    for campaign in world.campaigns():
        for doorway in campaign.doorways:
            for page in doorway.pages:
                contexts[(campaign.name, doorway.host, page.path, page.term)] = page.context
    return contexts


def _lazy_page_count(world) -> int:
    return sum(1 for page in _static_pages(world).values() if not page._generated)


def _assert_same_bytes(lazy_world, eager_world):
    """Serve the lazy world's pages in reverse creation order, so a page
    whose bytes depended on when it was built would differ."""
    lazy_doors, eager_doors = _doorway_contexts(lazy_world), _doorway_contexts(eager_world)
    assert lazy_doors.keys() == eager_doors.keys()
    for key in reversed(list(lazy_doors)):
        context = lazy_doors[key]
        reference = eager_doors[key]
        assert context.seo_page.html == reference.seo_page.html, key
        if reference.original_page is None:
            assert context.original_page is None, key
        else:
            assert context.original_page.html == reference.original_page.html, key
    lazy_pages, eager_pages = _static_pages(lazy_world), _static_pages(eager_world)
    assert lazy_pages.keys() == eager_pages.keys()
    for key in reversed(list(lazy_pages)):
        assert lazy_pages[key].html == eager_pages[key].html, key


def test_lazy_world_serves_the_eager_bytes(eager):
    lazy = _simulate()
    world = lazy.world
    # The run leaves most pages unbuilt: nothing crawled them.
    assert _lazy_page_count(world) > len(_static_pages(world)) // 2
    contexts = _doorway_contexts(world).values()
    assert any(c.original_page is not None for c in contexts)
    assert any(c.original_page is None for c in contexts)
    assert world.web.sites(SiteKind.LEGITIMATE)
    _assert_same_bytes(world, eager.world)


def test_pickled_world_round_trips_unserved_pages(eager):
    lazy = _simulate()
    unserved = _lazy_page_count(lazy.world)
    assert unserved > 0
    restored = pickle.loads(pickle.dumps(lazy, protocol=pickle.HIGHEST_PROTOCOL))
    assert _lazy_page_count(restored.world) == unserved
    _assert_same_bytes(restored.world, eager.world)
