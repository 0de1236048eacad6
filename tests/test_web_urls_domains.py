"""Tests for URL parsing and the domain registry."""

import pytest

from repro.util.simtime import SimDate
from repro.web.domains import Domain, DomainRegistry, SeizureRecord
from repro.web.urls import Url, parse_url, registered_domain


class TestParseUrl:
    def test_basic(self):
        url = parse_url("http://example.com/path")
        assert url.scheme == "http"
        assert url.host == "example.com"
        assert url.path == "/path"

    def test_query(self):
        url = parse_url("http://doorway.com/?key=cheap+beats")
        assert url.query == "key=cheap+beats"
        assert url.query_params() == {"key": "cheap+beats"}

    def test_default_path(self):
        assert parse_url("http://example.com").path == "/"

    def test_query_without_path(self):
        url = parse_url("http://a.com?x=1")
        assert url == Url("http", "a.com", "/", "x=1")
        assert registered_domain(parse_url("http://shop.a.com?x=1&y=/z").host) == "a.com"
        assert parse_url("http://shop.a.com?x=1&y=/z").query == "x=1&y=/z"

    def test_host_lowercased(self):
        assert parse_url("http://EXAMPLE.com/").host == "example.com"

    def test_is_root(self):
        assert parse_url("http://x.com/").is_root
        assert not parse_url("http://x.com/a.html").is_root
        assert not parse_url("http://x.com/?q=1").is_root

    def test_root_helper(self):
        assert parse_url("http://x.com/a/b?q=1").root() == parse_url("http://x.com/")

    def test_with_path(self):
        url = parse_url("http://x.com/").with_path("checkout")
        assert str(url) == "http://x.com/checkout"

    def test_rejects_relative(self):
        with pytest.raises(ValueError):
            parse_url("/relative/path")

    def test_rejects_other_schemes(self):
        with pytest.raises(ValueError):
            parse_url("ftp://x.com/")

    def test_rejects_empty_host(self):
        with pytest.raises(ValueError):
            parse_url("http:///path")

    def test_str_roundtrip(self):
        raw = "https://shop.example.com/a/b?x=1"
        assert str(parse_url(raw)) == raw

    def test_registered_domain(self):
        assert registered_domain("shop.cocovipbags.com") == "cocovipbags.com"
        assert registered_domain("example.com") == "example.com"


class TestDomainRegistry:
    def test_register_and_get(self, day0):
        registry = DomainRegistry()
        domain = registry.register("example.com", day0)
        assert registry.get("EXAMPLE.com") is domain

    def test_duplicate_rejected(self, day0):
        registry = DomainRegistry()
        registry.register("example.com", day0)
        with pytest.raises(ValueError):
            registry.register("example.com", day0)

    def test_contains(self, day0):
        registry = DomainRegistry()
        registry.register("a.com", day0)
        assert "a.com" in registry
        assert "b.com" not in registry

    def test_seizure_state(self, day0):
        registry = DomainRegistry()
        domain = registry.register("store.com", day0)
        assert not domain.is_seized
        record = SeizureRecord(day=day0 + 30, case_id="14-cv-1", firm="GBC", brand="Uggs")
        domain.seize(record)
        assert domain.is_seized
        assert not domain.seized_as_of(day0 + 29)
        assert domain.seized_as_of(day0 + 30)

    def test_double_seizure_rejected(self, day0):
        registry = DomainRegistry()
        domain = registry.register("store.com", day0)
        domain.seize(SeizureRecord(day=day0 + 1, case_id="c1", firm="GBC", brand="Uggs"))
        with pytest.raises(ValueError):
            domain.seize(SeizureRecord(day=day0 + 2, case_id="c2", firm="GBC", brand="Uggs"))

    def test_seizure_before_registration_rejected(self, day0):
        registry = DomainRegistry()
        domain = registry.register("store.com", day0 + 10)
        with pytest.raises(ValueError):
            domain.seize(SeizureRecord(day=day0, case_id="c", firm="GBC", brand="Uggs"))

    def test_seized_listing_respects_as_of(self, day0):
        registry = DomainRegistry()
        a = registry.register("a.com", day0)
        registry.register("b.com", day0)
        a.seize(SeizureRecord(day=day0 + 5, case_id="c", firm="GBC", brand="Nike"))
        assert registry.seized(as_of=day0 + 4) == []
        assert [d.name for d in registry.seized(as_of=day0 + 5)] == ["a.com"]

    def test_listings_sorted_by_name(self, day0):
        """The D005 contract: listing APIs return name order, not insertion
        order, so consumers cannot silently depend on registration order."""
        registry = DomainRegistry()
        for name in ("zeta.com", "alpha.com", "mid.com"):
            registry.register(name, day0)
        for name in ("zeta.com", "alpha.com"):
            registry.get(name).seize(SeizureRecord(
                day=day0 + 1, case_id="c", firm="GBC", brand="Nike",
            ))
        assert [d.name for d in registry.all()] == [
            "alpha.com", "mid.com", "zeta.com",
        ]
        assert [d.name for d in registry.seized()] == ["alpha.com", "zeta.com"]
