"""Shared fixtures.

The expensive end-to-end study run (small preset) is session-scoped; most
integration-flavoured tests read from it rather than re-running the
simulation.
"""

from __future__ import annotations

import pickle

import pytest

from repro import StudyRun
from repro.ecosystem import Simulator, small_preset
from repro.util.rng import RandomStreams
from repro.util.simtime import SimDate
from repro.web.fetch import CRAWLER, RENDERING_CRAWLER, SEARCH_USER


@pytest.fixture(scope="session")
def study():
    """A complete small-preset study: simulation + crawl + orders +
    classification."""
    return StudyRun(small_preset(), seed_label_count=80).execute()


@pytest.fixture(scope="session")
def world(study):
    return study.world


@pytest.fixture(scope="session")
def world_pages(world):
    """Every distinct page the session world serves on its last day,
    fetched as a search user, a crawler and a rendering crawler, sorted.

    Fetched from a private copy of the world: some pages (order
    confirmations) change the world that serves them."""
    replica = pickle.loads(pickle.dumps(world))
    pages = set()
    for site in replica.web.sites():
        for path in site.paths():
            for profile in (SEARCH_USER, CRAWLER, RENDERING_CRAWLER):
                response = replica.web.fetch(site.url(path), profile, replica.today)
                if response.ok and response.html:
                    pages.add(response.html)
    return sorted(pages)


@pytest.fixture(scope="session")
def dataset(study):
    return study.dataset


@pytest.fixture()
def streams():
    return RandomStreams(1234)


@pytest.fixture()
def day0():
    return SimDate("2013-11-13")
