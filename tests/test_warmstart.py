"""Tests for the persistent disk cache tier and delta checkpoints.

Pins the ISSUE-8 contract:

* a study run with ``--disk-cache`` is byte-identical to one without it
  — cold or warm — and the warm run actually reads from disk
  (``disk_hit`` counters increment);
* corrupted / truncated / stale-schema disk entries degrade to misses
  and are quarantined, never served;
* the delta checkpointer writes a fraction of the whole-pickle bytes at
  ``--checkpoint-every 1`` while kill + resume stays byte-identical,
  including resuming over a warm disk cache, and compaction bounds the
  store; a checkpoint of another schema, or one naming classes this code
  no longer has, is refused with :class:`CheckpointError`;
* the ``repro cache`` CLI reports, validates, and clears the store.
"""

import contextlib
import io
import json
import os
import pickle
import random
import sys
import tempfile
import types
import unittest
from pathlib import Path

from repro.cli import main as cli_main
from repro.ecosystem import small_preset
from repro.faults import SimulatedCrash
from repro.faults.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpointer,
    CheckpointError,
    chunk_spans,
    load_checkpoint,
)
from repro.faults.profiles import PROFILES
from repro.perf.cache import disk_cache, reset_caches, set_disk_cache
from repro.perf.diskcache import DISK_MISS, DiskCache, entry_filename
from repro.study import StudyRun
from repro.util.perf import PERF
from repro.util.simtime import SimDate

DAYS = 14


def _psr_bytes(results) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "psrs.jsonl")
        results.dataset.dump_jsonl(path)
        return Path(path).read_bytes()


def _serp_fingerprint(results):
    """Final-day SERP re-serves, scores included: a run must leave the
    engine (and the world feeding it) exactly as its reference does."""
    world = results.world
    day = world.window.end
    fingerprint = []
    for term in sorted(results.simulator.vertical_of_term_map()):
        serp = world.engine.serp(term, day)
        fingerprint.append((term, tuple(
            (r.rank, r.url, r.label.value, r.score.hex())
            for r in serp.results
        )))
    return fingerprint


def _study(**kwargs):
    return StudyRun(small_preset(days=DAYS), classify=False, **kwargs)


class DiskTierBase(unittest.TestCase):
    """Shared isolation: the disk tier is process-global state."""

    def setUp(self):
        self._prev_disk = set_disk_cache(None)
        reset_caches()

    def tearDown(self):
        set_disk_cache(self._prev_disk)
        reset_caches()


class TestDiskCacheUnit(DiskTierBase):
    def _cache(self, tmp, **kwargs):
        kwargs.setdefault("code_digests", {"dom": "digest-a"})
        return DiskCache(os.path.join(tmp, "cache"), **kwargs)

    def test_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp)
            key = b"\x01" * 16
            self.assertIs(disk.load("dom", key), DISK_MISS)
            self.assertTrue(disk.store("dom", key, {"value": [1, 2, 3]}))
            self.assertEqual(disk.load("dom", key), {"value": [1, 2, 3]})
            # A fresh instance over the same directory sees the entry.
            again = self._cache(tmp)
            self.assertEqual(again.load("dom", key), {"value": [1, 2, 3]})

    def test_corrupted_entry_degrades_to_miss_and_quarantines(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp)
            key = b"\x02" * 16
            disk.store("dom", key, "payload")
            entry = os.path.join(disk.path, "dom",
                                 entry_filename(key) + ".pkl")
            Path(entry).write_bytes(b"\x80garbage-not-a-record")
            self.assertIs(disk.load("dom", key), DISK_MISS)
            self.assertFalse(os.path.exists(entry))
            self.assertEqual(disk.quarantined, 1)
            # The store still works after quarantining.
            self.assertTrue(disk.store("dom", key, "payload"))
            self.assertEqual(disk.load("dom", key), "payload")

    def test_truncated_entry_degrades_to_miss(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp)
            key = b"\x03" * 16
            disk.store("dom", key, list(range(100)))
            entry = os.path.join(disk.path, "dom",
                                 entry_filename(key) + ".pkl")
            blob = Path(entry).read_bytes()
            Path(entry).write_bytes(blob[: len(blob) // 2])
            self.assertIs(disk.load("dom", key), DISK_MISS)
            self.assertEqual(disk.quarantined, 1)

    def test_schema_bump_quarantines_all_on_load(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp)
            disk.store("dom", b"\x04" * 16, "old")
            disk.flush()
            manifest_path = os.path.join(disk.path, "manifest.json")
            manifest = json.loads(Path(manifest_path).read_text())
            manifest["schema"] = 999
            Path(manifest_path).write_text(json.dumps(manifest))
            reopened = self._cache(tmp)
            self.assertIs(reopened.load("dom", b"\x04" * 16), DISK_MISS)
            self.assertEqual(reopened.stats()["entries"], 0)

    def test_code_digest_change_quarantines_cache(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp, code_digests={"dom": "digest-a"})
            disk.store("dom", b"\x05" * 16, "derived-under-a")
            disk.flush()
            changed = self._cache(tmp, code_digests={"dom": "digest-b"})
            self.assertIs(changed.load("dom", b"\x05" * 16), DISK_MISS)

    def test_eviction_respects_cap(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp, max_bytes=4096)
            for i in range(64):
                disk.store("dom", i.to_bytes(16, "big"), "x" * 200)
            self.assertLessEqual(disk.stats()["total_bytes"], 4096)
            self.assertLess(disk.stats()["entries"], 64)

    def test_validate_and_clear(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp)
            for i in range(5):
                disk.store("dom", i.to_bytes(16, "big"), i)
            entry = os.path.join(disk.path, "dom",
                                 entry_filename(b"\x00" * 15 + b"\x03") + ".pkl")
            Path(entry).write_bytes(b"torn")
            outcome = disk.validate()
            self.assertEqual(outcome["checked"], 5)
            self.assertEqual(outcome["ok"], 4)
            self.assertEqual(outcome["quarantined"], 1)
            removed = disk.clear()
            self.assertEqual(removed, 4)
            self.assertEqual(disk.stats()["entries"], 0)

    def test_entry_filename_stable_across_key_shapes(self):
        self.assertEqual(entry_filename(b"\xab\xcd"), "abcd")
        tuple_key = (b"\x01\x02", "profile-repr")
        self.assertEqual(entry_filename(tuple_key), entry_filename(tuple_key))
        self.assertNotEqual(entry_filename((b"\x01\x02", "a")),
                            entry_filename((b"\x01\x02", "b")))


class TestWarmStartStudy(DiskTierBase):
    """Cold → warm study runs over a shared disk dir are byte-identical."""

    def test_cold_warm_nodisc_identical_and_warm_hits_disk(self):
        baseline = _study().execute()
        expected = _psr_bytes(baseline)
        expected_serps = _serp_fingerprint(baseline)
        with tempfile.TemporaryDirectory() as tmp:
            set_disk_cache(os.path.join(tmp, "dcache"))
            reset_caches()
            cold = _study().execute()
            self.assertEqual(_psr_bytes(cold), expected)

            reset_caches()  # cold-process simulation: memory gone, disk kept
            before = dict(PERF.counters())
            warm = _study().execute()
            self.assertEqual(_psr_bytes(warm), expected)
            self.assertEqual(_serp_fingerprint(warm), expected_serps)
            deltas = {
                name: value - before.get(name, 0)
                for name, value in PERF.counters().items()
                if value != before.get(name, 0)
            }
            disk_hits = sum(v for k, v in deltas.items()
                            if k.endswith(".disk_hit"))
            disk_writes = sum(v for k, v in deltas.items()
                              if k.startswith("cache.") and k.endswith(".write"))
            self.assertGreater(disk_hits, 0)
            self.assertEqual(disk_writes, 0,
                             f"warm run re-stored entries: {deltas}")


class TestChunkSpans(unittest.TestCase):
    def test_spans_cover_exactly(self):
        data = os.urandom(300_000)
        spans = chunk_spans(data)
        self.assertEqual(spans[0][0], 0)
        self.assertEqual(spans[-1][1], len(data))
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            self.assertEqual(prev_end, start)
        reassembled = b"".join(data[s:e] for s, e in spans)
        self.assertEqual(reassembled, data)

    def test_shared_suffix_re_aligns(self):
        import hashlib

        # Distinct ~1 KiB blocks, each ending at the chunk anchor, so the
        # content defines stable chunk boundaries with unique digests.
        blocks = [
            hashlib.blake2b(i.to_bytes(4, "big"), digest_size=64).digest() * 16
            + b"\x94\x00"
            for i in range(60)
        ]
        body = b"".join(blocks)
        original = b"A" * 10_000 + body
        shifted = b"A" * 10_000 + b"INSERTED-BYTES" + body

        def digests(blob):
            return {hashlib.blake2b(blob[s:e], digest_size=16).hexdigest()
                    for s, e in chunk_spans(blob)}

        shared = digests(original) & digests(shifted)
        # An insertion near the front must not re-chunk the whole tail.
        self.assertGreater(len(shared), len(chunk_spans(original)) // 2)


class TestDeltaCheckpoint(DiskTierBase):
    def test_every_day_checkpoint_writes_fraction_of_payload(self):
        with tempfile.TemporaryDirectory() as tmp:
            run = _study(checkpoint_path=os.path.join(tmp, "run.ckpt"),
                         checkpoint_every_days=1)
            run.execute()
            stats = run.checkpoint_stats
            self.assertEqual(stats["saves"], DAYS)
            self.assertGreater(stats["chunks_reused"], 0)
            ratio = stats["bytes_written"] / stats["payload_bytes_total"]
            self.assertLess(
                ratio, 0.40,
                f"delta store wrote {ratio:.1%} of the whole-pickle bytes",
            )
            # Completion cleared the store.
            self.assertFalse(os.path.exists(os.path.join(tmp, "run.ckpt")))

    def test_kill_resume_every_day_under_monsoon(self):
        profile = PROFILES["monsoon"]
        baseline = _study(fault_profile=profile, fault_seed=6).execute()
        expected = _psr_bytes(baseline)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                _study(fault_profile=profile, fault_seed=6,
                       checkpoint_path=ckpt, checkpoint_every_days=1,
                       die_after_day=9).execute()
            self.assertTrue(os.path.isdir(ckpt))
            # Compaction ran (save 7 of 10) and pruned old day manifests.
            manifests = [n for n in os.listdir(ckpt)
                         if n.startswith("day-") and n.endswith(".json")]
            self.assertLessEqual(len(manifests), 4)
            self.assertTrue(os.path.exists(os.path.join(ckpt, "HEAD")))
            resumed = _study(checkpoint_path=ckpt, resume=True).execute()
            self.assertEqual(_psr_bytes(resumed), expected)
            self.assertFalse(os.path.exists(ckpt))

    def test_cross_jobs_warm_resume(self):
        """Kill a run that fills the disk cache; a resume asking for
        another ``jobs`` level is refused before it touches the store, and
        the ``jobs=1`` resume in a fresh (memory-cold) process reads the
        cache warm and finishes byte-identical."""
        baseline = _study().execute()
        expected = _psr_bytes(baseline)
        with tempfile.TemporaryDirectory() as tmp:
            set_disk_cache(os.path.join(tmp, "dcache"))
            reset_caches()
            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                _study(jobs=1, checkpoint_path=ckpt,
                       checkpoint_every_days=1, die_after_day=7).execute()
            head = Path(os.path.join(ckpt, "HEAD")).read_bytes()
            with self.assertRaisesRegex(ValueError, "jobs must be 1"):
                _study(jobs=2, checkpoint_path=ckpt, resume=True)
            self.assertEqual(Path(os.path.join(ckpt, "HEAD")).read_bytes(), head)
            reset_caches()  # new-process simulation; disk stays warm
            before = dict(PERF.counters())
            resumed_run = _study(jobs=1, checkpoint_path=ckpt, resume=True)
            resumed = resumed_run.execute()
            self.assertEqual(resumed_run.resumed_from_day, 8)
            self.assertEqual(_psr_bytes(resumed), expected)
            disk_hits = sum(value - before.get(name, 0)
                            for name, value in PERF.counters().items()
                            if name.endswith(".disk_hit"))
            self.assertGreater(disk_hits, 0)

    def test_tampered_chunk_refuses_resume(self):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                _study(checkpoint_path=ckpt, die_after_day=3).execute()
            head = json.loads(Path(os.path.join(ckpt, "HEAD")).read_text())
            manifest = json.loads(
                Path(os.path.join(ckpt, head["manifest"])).read_text())
            victim = manifest["chunks"][0] + ".z"
            Path(os.path.join(ckpt, "chunks", victim)).write_bytes(b"corrupt")
            with self.assertRaises(CheckpointError):
                load_checkpoint(ckpt, small_preset(days=DAYS))

    def test_legacy_single_file_checkpoint_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            legacy = os.path.join(tmp, "old.ckpt")
            with open(legacy, "wb") as handle:
                pickle.dump({"schema": 1, "config_digest": "x"}, handle)
            with self.assertRaises(CheckpointError) as caught:
                load_checkpoint(legacy, small_preset(days=DAYS))
            self.assertIn("schema", str(caught.exception))
            self.assertNotEqual(CHECKPOINT_SCHEMA, 1)

    def test_schema2_checkpoint_refused(self):
        """A store written before the object graph changed is refused up
        front, naming both schemas, instead of failing inside unpickling."""
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                _study(checkpoint_path=ckpt, die_after_day=2).execute()
            head_path = os.path.join(ckpt, "HEAD")
            head = json.loads(Path(head_path).read_text())
            head["schema"] = 2
            Path(head_path).write_text(json.dumps(head))
            with self.assertRaises(CheckpointError) as caught:
                load_checkpoint(ckpt, small_preset(days=DAYS))
            message = str(caught.exception)
            self.assertIn("schema 2", message)
            self.assertIn(f"supported {CHECKPOINT_SCHEMA}", message)

    def test_payload_naming_a_missing_class_refused(self):
        """A payload that passes every digest check but pickles a class
        this code no longer has raises CheckpointError, not a bare
        AttributeError from inside ``pickle.loads``."""
        module = types.ModuleType("repro_checkpoint_fixture")

        class Retired:
            pass

        Retired.__module__ = module.__name__
        Retired.__qualname__ = "Retired"
        module.Retired = Retired
        config = small_preset(days=DAYS)
        simulator = types.SimpleNamespace(
            world=types.SimpleNamespace(today=None),
            _traffic_rng=random.Random(0),
            retired=Retired(),
        )
        sys.modules[module.__name__] = module
        try:
            with tempfile.TemporaryDirectory() as tmp:
                ckpt = os.path.join(tmp, "run.ckpt")
                Checkpointer(ckpt, config).save(simulator, [], 0, SimDate("2013-11-13"))
                del module.Retired
                with self.assertRaises(CheckpointError) as caught:
                    load_checkpoint(ckpt, config)
                self.assertIn("Retired", str(caught.exception))
                self.assertIsInstance(caught.exception.__cause__, AttributeError)
        finally:
            del sys.modules[module.__name__]


class TestCacheCli(DiskTierBase):
    def _run_cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(argv))
        return code, out.getvalue()

    def test_stats_validate_clear(self):
        with tempfile.TemporaryDirectory() as tmp:
            # Default code digests: the CLI opens the store with the real
            # derivation digests, so the fixture must use them too.
            path = os.path.join(tmp, "dcache")
            disk = DiskCache(path)
            for i in range(3):
                disk.store("dom", i.to_bytes(16, "big"), i)
            disk.flush()

            code, out = self._run_cli("cache", "--dir", path)
            self.assertEqual(code, 0)
            self.assertIn("dom", out)
            self.assertIn("3 entries", out)

            code, out = self._run_cli("cache", "--dir", path, "--json")
            self.assertEqual(code, 0)
            self.assertEqual(json.loads(out)["entries"], 3)

            entry = os.path.join(path, "dom",
                                 entry_filename(b"\x00" * 16) + ".pkl")
            Path(entry).write_bytes(b"torn")
            code, out = self._run_cli("cache", "--dir", path, "--validate")
            self.assertEqual(code, 1)
            self.assertIn("1 quarantined", out)

            code, out = self._run_cli("cache", "--dir", path, "--clear")
            self.assertEqual(code, 0)
            self.assertIn("cleared 2", out)

    def test_missing_dir_exits_two(self):
        env_had = os.environ.pop("REPRO_DISK_CACHE", None)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(cli_main(["cache"]), 2)
                self.assertEqual(
                    cli_main(["cache", "--dir", "/no/such/dir"]), 2)
        finally:
            if env_had is not None:
                os.environ["REPRO_DISK_CACHE"] = env_had


if __name__ == "__main__":
    unittest.main()
