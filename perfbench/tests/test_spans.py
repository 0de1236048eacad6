"""Span recording and self-time subtraction."""

import pytest

from spans import SpanRecorder, self_times


def test_self_time_subtracts_direct_children():
    # TestOrderer.on_day -> VanGogh.check -> Web.fetch, plus a sibling fetch.
    spans = [
        ("TestOrderer.on_day", 0.0, 10.0, 10.0, -1),
        ("VanGogh.check", 2.0, 8.0, 6.0, 0),
        ("Web.fetch", 3.0, 5.0, 2.0, 1),
        ("Web.fetch", 8.5, 9.0, 0.1, 0),
    ]
    rows = self_times(spans)
    assert rows["TestOrderer.on_day"]["self_s"] == pytest.approx(10.0 - 6.0 - 0.5)
    assert rows["VanGogh.check"]["self_s"] == pytest.approx(6.0 - 2.0)
    assert rows["Web.fetch"]["self_s"] == pytest.approx(2.5)
    assert rows["Web.fetch"]["calls"] == 2
    assert rows["TestOrderer.on_day"]["total_s"] == pytest.approx(10.0)
    # The second fetch waited 0.4 s of its 0.5 s.
    assert rows["Web.fetch"]["wait_s"] == pytest.approx(0.4)


def test_self_time_is_taken_in_the_given_clock():
    spans = [("outer", 0.0, 4.0, 4.0, -1), ("inner", 1.0, 2.0, 1.0, 0)]
    rows = self_times(spans, clock=lambda t: t * 3)
    assert rows["outer"]["self_s"] == pytest.approx(9.0)
    assert rows["inner"]["self_s"] == pytest.approx(3.0)


class _Web:
    def fetch(self, url):
        return url.upper()


class _VanGogh:
    def __init__(self):
        self.web = _Web()

    def check(self, url):
        return self.web.fetch(url) + "!"


class _Orderer:
    def __init__(self):
        self.vangogh = _VanGogh()

    def on_day(self):
        return [self.vangogh.check("a"), self.vangogh.check("b")]


def test_wrapped_methods_record_nested_spans_only_while_active():
    recorder = SpanRecorder()
    recorder.wrap(_Orderer, "on_day", "orders")
    recorder.wrap(_VanGogh, "check", "vangogh",
                  on_result=lambda rec, result, args: rec.count("checked"))
    recorder.wrap(_Web, "fetch", "fetch")
    orderer = _Orderer()
    assert orderer.on_day() == ["A!", "B!"]
    assert recorder.spans == [] and recorder.counts == {}
    recorder.active = True
    assert orderer.on_day() == ["A!", "B!"]
    names = [s[0] for s in recorder.spans]
    parents = [s[4] for s in recorder.spans]
    assert names == ["orders", "vangogh", "fetch", "vangogh", "fetch"]
    assert parents == [-1, 0, 1, 0, 3]
    assert recorder.counts == {"checked": 2}
