"""The columnar engine against the scalar reference, through index churn.

The index grows each term's columns in place, and the engine grows its
static scores with them and keys its penalty and label columns on the
rows they cover.  After every step of a run of changes — doorways added
on later days, a deindex, a re-add, a demotion, a label, adds onto
demoted and labeled hosts, and a host crowding the per-host cap — each
monitored term's page must equal, bit for bit, the page a fresh build of
the columns serves and the page the scalar loop
(``tests/serp_reference.py``) ranks.
"""

from __future__ import annotations

import pickle

import pytest

from repro.ecosystem import Simulator, small_preset
from repro.search import ResultLabel

from tests.serp_reference import scalar_serp

#: Days of real campaign and intervention churn before the scripted steps.
CHURN_DAYS = 12


def _page(results):
    return [
        (r.rank, r.url, r.host, r.path, r.label, float(r.score).hex())
        for r in results
    ]


def _fresh(engine):
    """A copy of the engine with no derived state: unpickling drops the
    index's columns and the engine's caches, so its serves build them
    from the candidate lists."""
    copy = pickle.loads(pickle.dumps(engine))
    assert not copy.index._columns and not copy._static_cache
    return copy


def _check(engine, terms, day):
    fresh = _fresh(engine)
    served = 0
    for term in terms:
        page = _page(engine.serp(term, day).results)
        assert page == _page(fresh.serp(term, day).results), (term, day)
        # A fresh id()-keyed cache per serve: entries die between steps.
        assert page == _page(scalar_serp(engine, {}, term, day)), (term, day)
        served += bool(page)
    assert served, "no term served a result"


@pytest.fixture(scope="module")
def churned():
    """A small-preset world after CHURN_DAYS real days, checked daily."""
    sim = Simulator(small_preset())
    world = sim.build()
    terms = sorted(sim.vertical_of_term_map())
    days = list(world.window)
    grown = 0
    for day in days[:CHURN_DAYS]:
        before = {term: world.index.columns(term) for term in terms}
        sizes = {term: len(cols) for term, cols in before.items()}
        sim.step_day(day)
        _check(world.engine, terms, day)
        grown += sum(
            world.index.columns(term) is before[term]
            and len(before[term]) > sizes[term]
            for term in terms
        )
    assert grown, "no term's columns grew in place during the churn"
    return sim, world, terms, days[CHURN_DAYS]


def test_scripted_changes_match_fresh_build_and_scalar(churned):
    sim, world, terms, day = churned
    index, engine = world.index, world.engine
    term = max(terms, key=lambda t: len(index.candidates(t)))
    top = engine.serp(term, day).results
    hosts = [r.host for r in top]

    # Doorway pages indexed for later days: the masking path, then the
    # day they become eligible.  Signals come from a live doorway entry.
    doorway = next(e for e in index.candidates(term)
                   if getattr(e.seo_signal, "schedule", None) is not None)
    cols = index.columns(term)
    for offset in (1, 2):
        index.add_page(term, doorway.site, f"/later-{offset}.html", 0.9,
                       seo_signal=doorway.seo_signal, indexed_on=day + offset)
    _check(engine, terms, day)
    _check(engine, terms, day + 2)
    assert index.columns(term) is cols

    # Deindex the top host, then re-add it as fresh entries.
    gone = index.entries_for_host(hosts[0])[0]
    engine.deindex_host(hosts[0])
    _check(engine, terms, day)
    index.add_page(term, gone.site, "/back.html", 0.99, indexed_on=day)
    _check(engine, terms, day)

    # Demote a host, then index another page on it: the penalty columns
    # must cover the new row.
    engine.demote_host(hosts[1], day, 3.0)
    _check(engine, terms, day)
    demoted = index.entries_for_host(hosts[1])[0]
    index.add_page(term, demoted.site, "/demoted-new.html", 0.99)
    _check(engine, terms, day)
    assert all(r.host != hosts[1] for r in engine.serp(term, day).results[:5])

    # Label a host hacked, then index its root page: only the root result
    # carries the label, and the label columns must cover the new row.
    labeled = index.entries_for_host(hosts[2])[0]
    engine.label_host(hosts[2], day, ResultLabel.HACKED)
    _check(engine, terms, day)
    index.add_page(term, labeled.site, "/", 0.99)
    _check(engine, terms, day)
    labels = {(r.host, r.path): r.label for r in engine.serp(term, day).results}
    assert labels.get((hosts[2], "/")) is ResultLabel.HACKED

    # A host crowding the page: its new rows count against the per-host
    # cap together with the rows it had before.
    crowd = index.entries_for_host(hosts[3])[0]
    for k in range(3):
        index.add_page(term, crowd.site, f"/crowd-{k}.html", 0.99)
    _check(engine, terms, day)
    results = engine.serp(term, day).results
    assert sum(r.host == hosts[3] for r in results) == engine.max_results_per_host

    # Serving on: the next days' real churn over the scripted state.
    for later in (day + 1, day + 2):
        sim.step_day(later)
        _check(engine, terms, later)
