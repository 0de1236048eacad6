"""Tests for the fault-injection / retry / checkpoint-resume layer.

Pins the resilience contract:

* fault decisions are deterministic, order-independent functions of
  (seed, profile, subject) — a resumed run replays the same failures;
* the retry layer is bounded (attempts, per-day budget, breaker) and
  backs off in *simulated* seconds;
* a clean profile (or no injector at all) leaves study output
  byte-identical to a run without the fault layer;
* a run killed mid-window and resumed from its checkpoint produces
  byte-identical final artifacts;
* JSONL loaders tolerate a torn final line and nothing else.
"""

import json
import os
import pickle
import tempfile
import unittest
import warnings
from pathlib import Path

from repro.analysis.ecosystem import _peak_duration
from repro.analysis.seizures import _extend_through_gaps
from repro.crawler.records import PsrDataset
from repro.ecosystem import small_preset
from repro.faults import (
    CheckpointError,
    FaultInjector,
    ResilientFetcher,
    RetryPolicy,
    SimulatedCrash,
    load_checkpoint,
    profile_named,
)
from repro.faults.injector import (
    FAULT_CONNECTION,
    FAULT_IP_BLOCK,
    FAULT_TIMEOUT,
    FAULT_TRUNCATED,
)
from repro.faults.profiles import FaultProfile, PROFILES
from repro.faults.retry import FAULT_CIRCUIT_OPEN
from repro.study import StudyRun
from repro.util.atomicio import atomic_write
from repro.util.simtime import SimDate
from repro.web.fetch import SEARCH_USER, Response
from repro.web.hosting import FetchError, Web

DAY = SimDate("2014-01-10")


def _profile(**rates) -> FaultProfile:
    return FaultProfile(name="test", description="test profile", **rates)


class TestFaultInjector(unittest.TestCase):
    def test_decisions_deterministic_across_instances(self):
        profile = _profile(timeout_rate=0.3, connection_rate=0.2)
        a = FaultInjector(profile, seed=7)
        b = FaultInjector(profile, seed=7)
        for i in range(200):
            url = f"http://host{i}.example.com/p"
            self.assertEqual(
                a.fetch_fault(url, SEARCH_USER, DAY),
                b.fetch_fault(url, SEARCH_USER, DAY),
            )

    def test_seed_changes_decisions(self):
        profile = _profile(timeout_rate=0.3)
        a = FaultInjector(profile, seed=0)
        b = FaultInjector(profile, seed=1)
        urls = [f"http://host{i}.example.com/p" for i in range(200)]
        self.assertNotEqual(
            [a.fetch_fault(u, SEARCH_USER, DAY) for u in urls],
            [b.fetch_fault(u, SEARCH_USER, DAY) for u in urls],
        )

    def test_order_independent(self):
        profile = _profile(timeout_rate=0.5)
        a = FaultInjector(profile, seed=3)
        b = FaultInjector(profile, seed=3)
        url = "http://shop.example.com/"
        # a asks attempts 0..3 in order; b asks attempt 3 cold.
        in_order = [a.fetch_fault(url, SEARCH_USER, DAY, attempt=k)
                    for k in range(4)]
        self.assertEqual(
            b.fetch_fault(url, SEARCH_USER, DAY, attempt=3), in_order[3]
        )

    def test_decisions_are_order_free(self):
        """Decisions are pure functions of (url, visitor, day, attempt):
        asking in reverse order, attempts swapped, gives the same answers."""
        profile = PROFILES["monsoon"]
        first = FaultInjector(profile, seed=9)
        second = FaultInjector(profile, seed=9)
        urls = [f"http://host{i}.example/p{i}.html" for i in range(30)]
        forward = {(u, attempt): first.fetch_fault(u, SEARCH_USER, DAY, attempt)
                   for u in urls for attempt in (1, 2)}
        backward = {(u, attempt): second.fetch_fault(u, SEARCH_USER, DAY, attempt)
                    for u in reversed(urls) for attempt in (2, 1)}
        self.assertEqual(forward, backward)
        self.assertTrue(any(forward.values()), "monsoon injected nothing")

    def test_clean_profile_never_injects(self):
        injector = FaultInjector(PROFILES["clean"], seed=0)
        for i in range(100):
            url = f"http://host{i}.example.com/p"
            self.assertIsNone(injector.fetch_fault(url, SEARCH_USER, DAY))
            html, fault = injector.corrupt_html("<html>x</html>", url, DAY)
            self.assertIsNone(fault)
            self.assertEqual(html, "<html>x</html>")
            self.assertFalse(injector.serp_missing(f"term{i}", DAY))
            self.assertFalse(injector.awstats_down(f"h{i}.com", DAY))

    def test_ip_block_persists_for_whole_window(self):
        profile = _profile(ip_block_rate=0.4, ip_block_days=5)
        injector = FaultInjector(profile, seed=11)
        blocked_hosts = [
            f"h{i}.example.com" for i in range(100)
            if injector.host_blocked(f"h{i}.example.com", DAY)
        ]
        self.assertTrue(blocked_hosts)
        window_start = SimDate((DAY.ordinal // 5) * 5)
        for host in blocked_hosts:
            for offset in range(5):
                self.assertTrue(
                    injector.host_blocked(host, window_start + offset)
                )

    def test_corruption_independent_of_retry_count(self):
        profile = _profile(truncated_rate=1.0)
        injector = FaultInjector(profile, seed=5)
        html = "<html>" + "x" * 500 + "</html>"
        url = "http://doorway.example.com/p"
        first = injector.corrupt_html(html, url, DAY)
        self.assertEqual(first[1], FAULT_TRUNCATED)
        for _ in range(3):
            self.assertEqual(injector.corrupt_html(html, url, DAY), first)

    def test_pickle_round_trip_preserves_decisions(self):
        profile = _profile(timeout_rate=0.4, serp_missing_rate=0.3)
        original = FaultInjector(profile, seed=9)
        restored = pickle.loads(pickle.dumps(original))
        for i in range(100):
            url = f"http://host{i}.example.com/p"
            self.assertEqual(
                original.fetch_fault(url, SEARCH_USER, DAY),
                restored.fetch_fault(url, SEARCH_USER, DAY),
            )
            self.assertEqual(
                original.serp_missing(f"term{i}", DAY),
                restored.serp_missing(f"term{i}", DAY),
            )

    def test_profile_named_unknown_raises(self):
        with self.assertRaises(KeyError):
            profile_named("no-such-profile")


class _FakeWeb:
    """Web stand-in: always serves the same 200 page; counts fetches."""

    def __init__(self, injector=None):
        self.fault_injector = injector
        self.fetches = 0

    def fetch(self, url, profile, day):
        self.fetches += 1
        return Response(status=200, url=url, final_url=url,
                        html="<html>stock</html>")


class _ScriptedInjector:
    """Injector stand-in returning a scripted fault sequence."""

    def __init__(self, faults):
        self.faults = list(faults)

    def fetch_fault(self, url, visitor, day, attempt=0):
        if self.faults:
            return self.faults.pop(0)
        return None

    def corrupt_html(self, html, url, day):
        return html, None


class TestResilientFetcher(unittest.TestCase):
    def test_pass_through_without_injector(self):
        web = _FakeWeb(injector=None)
        fetcher = ResilientFetcher(web)
        response = fetcher.fetch("http://a.example.com/", SEARCH_USER, DAY)
        self.assertTrue(response.ok)
        self.assertIsNone(response.fault)
        self.assertEqual(web.fetches, 1)

    def test_malformed_url_raises_fetch_error(self):
        # The same error Web.fetch raises, with or without a fault profile.
        web = Web()
        for injector in (None, FaultInjector(PROFILES["monsoon"], seed=0)):
            web.fault_injector = injector
            with self.assertRaises(FetchError):
                ResilientFetcher(web).fetch("not a url", SEARCH_USER, DAY)

    def test_transient_fault_retried_then_succeeds(self):
        web = _FakeWeb(_ScriptedInjector([FAULT_TIMEOUT, FAULT_CONNECTION]))
        fetcher = ResilientFetcher(web, RetryPolicy(max_attempts=3))
        response = fetcher.fetch("http://a.example.com/", SEARCH_USER, DAY)
        self.assertTrue(response.ok)
        self.assertIsNone(response.fault)
        self.assertEqual(web.fetches, 1)  # only the final attempt reached it

    def test_attempts_are_bounded(self):
        web = _FakeWeb(_ScriptedInjector([FAULT_TIMEOUT] * 50))
        fetcher = ResilientFetcher(web, RetryPolicy(max_attempts=3))
        response = fetcher.fetch("http://a.example.com/", SEARCH_USER, DAY)
        self.assertEqual(response.fault, FAULT_TIMEOUT)
        self.assertFalse(response.ok)
        self.assertEqual(web.fetches, 0)

    def test_ip_block_not_retried_within_day(self):
        web = _FakeWeb(_ScriptedInjector([FAULT_IP_BLOCK, None]))
        fetcher = ResilientFetcher(web, RetryPolicy(max_attempts=5))
        response = fetcher.fetch("http://a.example.com/", SEARCH_USER, DAY)
        self.assertEqual(response.fault, FAULT_IP_BLOCK)
        # The second scripted answer (None = success) was never consulted.
        self.assertEqual(web.fetches, 0)

    def test_breaker_opens_and_cools_down(self):
        policy = RetryPolicy(max_attempts=1, breaker_threshold=2,
                             breaker_cooldown_days=2)
        web = _FakeWeb(_ScriptedInjector([FAULT_TIMEOUT] * 10))
        fetcher = ResilientFetcher(web, policy)
        url = "http://blocked.example.com/"
        fetcher.fetch(url, SEARCH_USER, DAY)
        fetcher.fetch(url, SEARCH_USER, DAY)  # second failure trips it
        refused = fetcher.fetch(url, SEARCH_USER, DAY)
        self.assertEqual(refused.fault, FAULT_CIRCUIT_OPEN)
        # After the cooldown the breaker closes and fetches flow again.
        web.fault_injector = _ScriptedInjector([])
        recovered = fetcher.fetch(url, SEARCH_USER, DAY + 2)
        self.assertTrue(recovered.ok)

    def test_per_day_retry_budget(self):
        policy = RetryPolicy(max_attempts=3, per_day_retry_budget=1,
                             breaker_threshold=99)
        web = _FakeWeb(_ScriptedInjector([FAULT_TIMEOUT] * 20))
        fetcher = ResilientFetcher(web, policy)
        fetcher.fetch("http://a.example.com/", SEARCH_USER, DAY)
        self.assertEqual(fetcher._retries_today, 1)
        fetcher.fetch("http://b.example.com/", SEARCH_USER, DAY)
        self.assertEqual(fetcher._retries_today, 1)  # budget already spent
        # A new sim day resets the budget.
        fetcher.fetch("http://c.example.com/", SEARCH_USER, DAY + 1)
        self.assertEqual(fetcher._retries_today, 1)


class TestAtomicWrite(unittest.TestCase):
    def test_success_replaces_atomically(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.txt")
            with atomic_write(path) as handle:
                handle.write("payload")
            self.assertEqual(Path(path).read_text(), "payload")
            self.assertEqual(os.listdir(tmp), ["out.txt"])

    def test_failure_leaves_no_file_and_no_temp(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.txt")
            with self.assertRaises(RuntimeError):
                with atomic_write(path) as handle:
                    handle.write("partial")
                    raise RuntimeError("crash mid-write")
            self.assertEqual(os.listdir(tmp), [])

    def test_failure_preserves_previous_version(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.txt")
            Path(path).write_text("old")
            with self.assertRaises(RuntimeError):
                with atomic_write(path) as handle:
                    handle.write("new-partial")
                    raise RuntimeError("crash mid-write")
            self.assertEqual(Path(path).read_text(), "old")

    def test_mode_follows_the_umask(self):
        """The artifact gets the mode a plain ``open()`` gives it."""
        for umask, expected in ((0o022, 0o644), (0o077, 0o600)):
            with self.subTest(umask=oct(umask)), \
                    tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "out.txt")
                previous = os.umask(umask)
                try:
                    with atomic_write(path) as handle:
                        handle.write("payload")
                finally:
                    os.umask(previous)
                self.assertEqual(os.stat(path).st_mode & 0o777, expected)


class TestTornTailTolerance(unittest.TestCase):
    def _dataset_file(self, tmp):
        config = small_preset(days=12)
        results = StudyRun(config, classify=False).execute()
        path = os.path.join(tmp, "psrs.jsonl")
        results.dataset.dump_jsonl(path)
        return results.dataset, path

    def test_torn_final_line_skipped_with_warning(self):
        with tempfile.TemporaryDirectory() as tmp:
            dataset, path = self._dataset_file(tmp)
            with open(path, "a") as handle:
                handle.write('{"day": "2014-01-01", "term": "tru')
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = PsrDataset.load_jsonl(path)
            self.assertEqual(len(loaded), len(dataset))
            self.assertTrue(any("torn final line" in str(w.message)
                                for w in caught))

    def test_mid_file_corruption_still_raises(self):
        with tempfile.TemporaryDirectory() as tmp:
            _, path = self._dataset_file(tmp)
            lines = Path(path).read_text().splitlines()
            lines[len(lines) // 2] = '{"broken":'
            Path(path).write_text("\n".join(lines) + "\n")
            with self.assertRaises(json.JSONDecodeError):
                PsrDataset.load_jsonl(path)


class TestGapTolerantAnalysis(unittest.TestCase):
    def test_peak_duration_carries_forward_over_missed_days(self):
        series = {0: 5, 1: 5, 3: 5, 4: 5}
        # Day 2 as a true zero dilutes the peak: the >=60% window must
        # swallow the dead day.
        self.assertEqual(_peak_duration(series), 4)
        # Day 2 as a crawl-blind day carries forward: three live days
        # already hold 60% of the (bridged) mass.
        self.assertEqual(_peak_duration(series, {2}), 3)

    def test_peak_duration_ignores_irrelevant_missed_days(self):
        series = {0: 5, 1: 5, 2: 5}
        self.assertEqual(_peak_duration(series), _peak_duration(series, {9}))

    def test_extend_through_gaps(self):
        self.assertEqual(_extend_through_gaps(10, {11, 12, 13}, limit=20), 13)
        self.assertEqual(_extend_through_gaps(10, {11, 12, 13}, limit=12), 11)
        self.assertEqual(_extend_through_gaps(10, {12}, limit=20), 10)
        self.assertEqual(_extend_through_gaps(10, set(), limit=20), 10)

    def test_no_op_when_nothing_missed(self):
        config = small_preset(days=16)
        results = StudyRun(config, classify=False).execute()
        self.assertEqual(results.dataset.missed_ordinals(), set())


class TestCheckpointResume(unittest.TestCase):
    """The tentpole acceptance pin: kill + resume is byte-identical."""

    DAYS = 20

    def _dump(self, results, path):
        results.dataset.dump_jsonl(path)
        return Path(path).read_bytes()

    def test_kill_resume_output_byte_identical(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = StudyRun(
                small_preset(days=self.DAYS), classify=False
            ).execute()
            expected = self._dump(baseline, os.path.join(tmp, "full.jsonl"))

            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                StudyRun(
                    small_preset(days=self.DAYS), classify=False,
                    checkpoint_path=ckpt, die_after_day=7,
                ).execute()
            self.assertTrue(os.path.exists(ckpt))

            resumed_run = StudyRun(
                small_preset(days=self.DAYS), classify=False,
                checkpoint_path=ckpt, resume=True,
            )
            resumed = resumed_run.execute()
            self.assertEqual(resumed_run.resumed_from_day, 8)
            got = self._dump(resumed, os.path.join(tmp, "resumed.jsonl"))
            self.assertEqual(got, expected)
            # Completion clears the checkpoint.
            self.assertFalse(os.path.exists(ckpt))

    def test_kill_resume_under_faults_byte_identical(self):
        profile = PROFILES["flaky-network"]
        with tempfile.TemporaryDirectory() as tmp:
            baseline = StudyRun(
                small_preset(days=self.DAYS), classify=False,
                fault_profile=profile, fault_seed=4,
            ).execute()
            expected = self._dump(baseline, os.path.join(tmp, "full.jsonl"))

            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                StudyRun(
                    small_preset(days=self.DAYS), classify=False,
                    fault_profile=profile, fault_seed=4,
                    checkpoint_path=ckpt, die_after_day=9,
                ).execute()
            resumed = StudyRun(
                small_preset(days=self.DAYS), classify=False,
                checkpoint_path=ckpt, resume=True,
            ).execute()
            got = self._dump(resumed, os.path.join(tmp, "resumed.jsonl"))
            self.assertEqual(got, expected)

    def test_checkpoint_rejects_mismatched_config(self):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                StudyRun(
                    small_preset(days=self.DAYS), classify=False,
                    checkpoint_path=ckpt, die_after_day=3,
                ).execute()
            with self.assertRaises(CheckpointError):
                load_checkpoint(ckpt, small_preset(days=self.DAYS + 5))


class TestChaosInvariants(unittest.TestCase):
    DAYS = 20

    def _psr_bytes(self, results, tmp, name):
        path = os.path.join(tmp, name)
        results.dataset.dump_jsonl(path)
        return Path(path).read_bytes()

    def test_same_fault_seed_same_output(self):
        profile = PROFILES["monsoon"]
        with tempfile.TemporaryDirectory() as tmp:
            first = StudyRun(
                small_preset(days=self.DAYS), classify=False,
                fault_profile=profile, fault_seed=2,
            ).execute()
            second = StudyRun(
                small_preset(days=self.DAYS), classify=False,
                fault_profile=profile, fault_seed=2,
            ).execute()
            self.assertEqual(
                self._psr_bytes(first, tmp, "a.jsonl"),
                self._psr_bytes(second, tmp, "b.jsonl"),
            )

    def test_clean_profile_matches_no_injector(self):
        with tempfile.TemporaryDirectory() as tmp:
            plain = StudyRun(
                small_preset(days=self.DAYS), classify=False
            ).execute()
            clean = StudyRun(
                small_preset(days=self.DAYS), classify=False,
                fault_profile=PROFILES["clean"], fault_seed=123,
            ).execute()
            self.assertEqual(
                self._psr_bytes(plain, tmp, "plain.jsonl"),
                self._psr_bytes(clean, tmp, "clean.jsonl"),
            )

    def test_chaos_run_degrades_but_survives(self):
        profile = PROFILES["monsoon"]
        chaos = StudyRun(
            small_preset(days=self.DAYS), classify=False,
            fault_profile=profile,
        ).execute()
        plain = StudyRun(
            small_preset(days=self.DAYS), classify=False
        ).execute()
        self.assertGreater(len(chaos.dataset), 0)
        self.assertLessEqual(len(chaos.dataset), len(plain.dataset))
        # Monsoon loses SERPs: the gaps are marked, not silently absent.
        self.assertTrue(chaos.dataset.missed_ordinals())
        missing = sum(
            c.terms_missed for c in chaos.dataset._coverage.values()
        )
        self.assertGreater(missing, 0)


if __name__ == "__main__":
    unittest.main()
