"""Tests for the persistent disk cache tier and one-file checkpoints.

Pins the ISSUE-8 contract:

* a study run with ``--disk-cache`` is byte-identical to one without it
  — cold or warm — and the warm run actually reads from disk
  (``disk_hit`` counters increment);
* corrupted / truncated / stale-schema disk entries degrade to misses
  and are quarantined, never served — including every state an unsynced
  entry can come back in after a power loss (empty, zero-filled, cut
  short, holding another entry's record), which is why entries are the
  one write that skips ``fsync``;
* eviction is oldest-first across the whole store, and a cache
  directory the store no longer has is quarantined on open (never a
  path outside the store, whatever its manifest says);
* the checkpointer keeps one file, written with one fsync per save, and
  kill + resume stays byte-identical at ``--checkpoint-every 1``,
  including resuming over a warm disk cache; a save that fails midway
  leaves the previous one loadable and no temp file; a damaged file, a
  checkpoint of another schema, one naming classes this code no longer
  has, or one whose state does not round-trip is refused with
  :class:`CheckpointError` before anything unpickles a damaged payload;
* the ``repro cache`` CLI reports, validates, and clears the store.
"""

import contextlib
import errno
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
from unittest import mock

from repro.cli import main as cli_main
from repro.ecosystem import small_preset
from repro.faults import SimulatedCrash
from repro.faults.checkpoint import (
    CHECKPOINT_FILE,
    CHECKPOINT_SCHEMA,
    Checkpointer,
    CheckpointError,
    load_checkpoint,
)
from repro.faults.profiles import PROFILES
from repro.perf.cache import disk_cache, reset_caches, set_disk_cache
from repro.perf.diskcache import (
    DISK_MISS,
    PERSISTENT_CACHES,
    DiskCache,
    derivation_digests,
    entry_filename,
)
from repro.study import StudyRun
from repro.util.atomicio import atomic_write
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


def _bare_simulator(**extra):
    """The least a checkpoint save reads off a simulator."""
    return types.SimpleNamespace(
        world=types.SimpleNamespace(today=None),
        _traffic_rng=random.Random(0),
        **extra,
    )


class _FragileObserver:
    """Pickles until ``broken`` is set, then fails like an observer
    holding state that cannot be pickled."""

    broken = False

    def __getstate__(self):
        if self.broken:
            raise pickle.PicklingError("observer state cannot be pickled")
        return {}


class _ForgetfulObserver:
    """Loses its order count in pickling, as a ``__getstate__`` that
    drops a field would."""

    def __init__(self):
        self.total_orders_created = 5

    def __getstate__(self):
        return {"total_orders_created": 0}


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
        """Garbage, and the states an entry renamed into place without
        fsync can come back in after a power loss: empty, zero-filled to
        its full size, or holding the blocks of another entry (a valid
        record, but stored under another name)."""
        damages = {
            "garbage": lambda blob, other: b"\x80garbage-not-a-record",
            "empty": lambda blob, other: b"",
            "zero-filled": lambda blob, other: bytes(len(blob)),
            "another entry": lambda blob, other: other,
        }
        for how, damage in damages.items():
            with self.subTest(how), tempfile.TemporaryDirectory() as tmp:
                disk = self._cache(tmp)
                key, other_key = b"\x02" * 16, b"\x12" * 16
                disk.store("dom", key, "payload")
                disk.store("dom", other_key, "other payload")
                entry = os.path.join(disk.path, "dom",
                                     entry_filename(key) + ".pkl")
                other = os.path.join(disk.path, "dom",
                                     entry_filename(other_key) + ".pkl")
                Path(entry).write_bytes(damage(Path(entry).read_bytes(),
                                               Path(other).read_bytes()))
                self.assertIs(disk.load("dom", key), DISK_MISS)
                self.assertFalse(os.path.exists(entry))
                self.assertEqual(disk.quarantined, 1)
                # The store still works after quarantining.
                self.assertTrue(disk.store("dom", key, "payload"))
                self.assertEqual(disk.load("dom", key), "payload")
                self.assertEqual(disk.load("dom", other_key), "other payload")

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

    def test_eviction_is_oldest_first_across_caches(self):
        """A cache's name must not decide what the cap drops: the entries
        left are always the newest of the whole store, the one just
        stored among them."""
        rng = random.Random(0)
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp, code_digests={"alpha": "a", "zeta": "z"},
                               max_bytes=8000)
            stored = []
            for name in ("zeta", "alpha"):
                for i in range(6):
                    key = i.to_bytes(16, "big")
                    self.assertTrue(disk.store(name, key, rng.randbytes(1000)))
                    stored.append((name, key))
            kept = [(name, key) for name, key in stored
                    if disk.load(name, key) is not DISK_MISS]
            self.assertLessEqual(disk.stats()["total_bytes"], 8000)
            self.assertIn(("alpha", (5).to_bytes(16, "big")), kept)
            self.assertEqual(kept, stored[len(stored) - len(kept):])
            self.assertGreater(disk.stats()["caches"]["alpha"]["entries"], 0)

    def test_retired_cache_directory_is_quarantined_and_cleared(self):
        """Entries of a cache this build no longer has (a DOM store filled
        by an older build) leave the index on open, so they are neither
        counted nor left behind by ``clear``."""
        with tempfile.TemporaryDirectory() as tmp:
            old = self._cache(tmp, code_digests={"dom": "d", "render": "r"})
            for i in range(3):
                old.store("dom", i.to_bytes(16, "big"), "x" * 500)
                old.store("render", i.to_bytes(16, "big"), i)
            render_bytes = old.stats()["caches"]["render"]["bytes"]
            old.flush()
            disk = self._cache(tmp, code_digests={"render": "r"})
            stats = disk.stats()
            self.assertEqual(stats["total_bytes"], render_bytes)
            self.assertEqual(stats["entries"], 3)
            self.assertEqual(disk.quarantined, 3)
            self.assertEqual(list(Path(disk.path, "dom").glob("*.pkl")), [])
            disk.clear()
            self.assertEqual(list(Path(disk.path).rglob("*.pkl")), [])

    def test_validate_and_clear(self):
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp)
            for i in range(6):
                disk.store("dom", i.to_bytes(16, "big"), i)

            def entry(i):
                return Path(disk.path, "dom",
                            entry_filename(i.to_bytes(16, "big")) + ".pkl")

            entry(3).write_bytes(b"torn")
            # What an unsynced entry can hold after a power loss.
            entry(1).write_bytes(b"")
            entry(2).write_bytes(bytes(entry(2).stat().st_size))
            entry(4).write_bytes(entry(4).read_bytes()[:20])
            outcome = disk.validate()
            self.assertEqual(outcome["checked"], 6)
            self.assertEqual(outcome["ok"], 2)
            self.assertEqual(outcome["quarantined"], 4)
            removed = disk.clear()
            self.assertEqual(removed, 2)
            self.assertEqual(disk.stats()["entries"], 0)

    def test_only_cache_entries_skip_fsync(self):
        """``DiskCache.store`` makes no fsync; the store's manifest, a
        default ``atomic_write`` and a checkpoint save still make one
        each."""
        with tempfile.TemporaryDirectory() as tmp:
            disk = self._cache(tmp)
            with mock.patch("os.fsync", wraps=os.fsync) as fsync:
                for i in range(3):
                    self.assertTrue(disk.store("dom", bytes([i]) * 16, i))
                self.assertEqual(fsync.call_count, 0)
                disk.flush()
                self.assertEqual(fsync.call_count, 1)
                with atomic_write(os.path.join(tmp, "artifact.txt")) as handle:
                    handle.write("artifact\n")
                self.assertEqual(fsync.call_count, 2)

                fsync.reset_mock()
                checkpointer = Checkpointer(os.path.join(tmp, "run.ckpt"),
                                            small_preset(days=DAYS))
                checkpointer.save(_bare_simulator(), [], 0, SimDate("2013-11-13"))
                self.assertEqual(fsync.call_count, 1)

    def test_manifest_names_never_leave_the_store(self):
        """The caches retired on open are named by ``manifest.json``,
        which is only data: a name that climbs out of the store, or a
        ``code_digests`` that is no mapping, moves no file outside it,
        and malformed lifetime totals do not fail the open."""
        for schema_bumped in (False, True):
            for recorded in ({"..": "x", ".": "x", "": "x", "quarantine": "x"},
                             "absolute", ["dom"], "dom"):
                with self.subTest(recorded=recorded, schema_bumped=schema_bumped), \
                        tempfile.TemporaryDirectory() as tmp:
                    beside = Path(tmp, "beside.pkl")
                    beside.write_bytes(b"not the store's")
                    elsewhere = Path(tmp, "elsewhere")
                    elsewhere.mkdir()
                    Path(elsewhere, "other.pkl").write_bytes(b"not the store's")
                    if recorded == "absolute":
                        recorded = {str(elsewhere): "x"}
                    disk = self._cache(tmp)
                    disk.store("dom", b"\x07" * 16, "kept")
                    disk.flush()
                    manifest_path = Path(disk.path, "manifest.json")
                    manifest = json.loads(manifest_path.read_text())
                    manifest["code_digests"] = recorded
                    manifest["hits"] = manifest["misses"] = recorded
                    if schema_bumped:
                        manifest["schema"] = 999
                    manifest_path.write_text(json.dumps(manifest))
                    reopened = self._cache(tmp)
                    self.assertEqual(beside.read_bytes(), b"not the store's")
                    self.assertEqual(Path(elsewhere, "other.pkl").read_bytes(),
                                     b"not the store's")
                    self.assertEqual(reopened.quarantined, int(schema_bumped))
                    if not schema_bumped:
                        self.assertEqual(reopened.load("dom", b"\x07" * 16), "kept")
                        self.assertEqual(reopened.stats()["caches"]["dom"]["hits"], 1)

    def test_entry_filename_stable_across_key_shapes(self):
        self.assertEqual(entry_filename(b"\xab\xcd"), "abcd")
        tuple_key = (b"\x01\x02", "profile-repr")
        self.assertEqual(entry_filename(tuple_key), entry_filename(tuple_key))
        self.assertNotEqual(entry_filename((b"\x01\x02", "a")),
                            entry_filename((b"\x01\x02", "b")))


class TestDerivationDigests(unittest.TestCase):
    def test_builder_change_retires_every_dom_derived_cache(self):
        """Every persistent cache derives from cached DOMs, and the DOM
        cache adopts PageBuilder trees on a miss, so an edit to the
        builder must retire the entries of all four."""
        import repro.html.builder as builder

        self.assertEqual(set(PERSISTENT_CACHES),
                         {"render", "shingle", "features", "notice"})
        for name, modules in PERSISTENT_CACHES.items():
            self.assertIn("repro.html.builder", modules, name)
        before = derivation_digests()
        original = builder.__file__
        with tempfile.TemporaryDirectory() as tmp:
            edited = os.path.join(tmp, "builder.py")
            Path(edited).write_bytes(Path(original).read_bytes() + b"# edited\n")
            builder.__file__ = edited
            try:
                after = derivation_digests()
            finally:
                builder.__file__ = original
        for name in PERSISTENT_CACHES:
            self.assertNotEqual(before[name], after[name], name)


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


class TestDeltaCheckpoint(DiskTierBase):
    def test_every_day_checkpoint_saves_each_day_and_clears(self):
        with tempfile.TemporaryDirectory() as tmp:
            run = _study(checkpoint_path=os.path.join(tmp, "run.ckpt"),
                         checkpoint_every_days=1)
            run.execute()
            stats = run.checkpoint_stats
            self.assertEqual(stats["saves"], DAYS)
            # The chunk keys perfbench reads: one file a save, no reuse.
            self.assertEqual(stats["chunks_written"], DAYS)
            self.assertEqual((stats["chunks_reused"], stats["compactions"]), (0, 0))
            self.assertGreater(stats["bytes_written"], stats["payload_bytes_total"])
            self.assertLess(stats["delta_ratio"], 1.01)
            # Completion cleared the store.
            self.assertFalse(os.path.exists(os.path.join(tmp, "run.ckpt")))

    def test_checkpoint_leaves_out_serp_columns_and_resume_serves_same(self):
        """The index's columns and the engine's score caches derive from
        the candidate lists and intervention maps: a checkpoint leaves
        them out, and the serves after a resume rebuild them to the same
        pages, scores included."""
        baseline = _study().execute()
        world = baseline.world
        self.assertTrue(world.index._columns)
        self.assertTrue(world.engine._static_cache)
        self.assertNotIn(b"TermColumns", pickle.dumps(baseline.simulator))
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                _study(checkpoint_path=ckpt, checkpoint_every_days=1,
                       die_after_day=7).execute()
            resumed = _study(checkpoint_path=ckpt, resume=True).execute()
        self.assertEqual(_psr_bytes(resumed), _psr_bytes(baseline))
        self.assertEqual(_serp_fingerprint(resumed), _serp_fingerprint(baseline))

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
            # Ten saves leave one file and no temp file.
            self.assertEqual(os.listdir(ckpt), [CHECKPOINT_FILE])
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
            saved = Path(ckpt, CHECKPOINT_FILE).read_bytes()
            with self.assertRaisesRegex(ValueError, "jobs must be 1"):
                _study(jobs=2, checkpoint_path=ckpt, resume=True)
            self.assertEqual(Path(ckpt, CHECKPOINT_FILE).read_bytes(), saved)
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

    def test_damaged_checkpoint_file_refuses_resume(self):
        """Every damage is refused before ``pickle.loads`` sees a byte,
        an edited header field included: the digest covers it too."""
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "run.ckpt")
            with self.assertRaises(SimulatedCrash):
                _study(checkpoint_path=ckpt, die_after_day=3).execute()
            path = Path(ckpt, CHECKPOINT_FILE)
            saved = path.read_bytes()
            body = saved.index(b"\n") + 1
            middle = body + (len(saved) - body) // 2
            self.assertIn(b'"day_index": 3,', saved[:body])
            damaged = {
                "flipped payload byte": (saved[:middle] + bytes([saved[middle] ^ 1])
                                         + saved[middle + 1:]),
                "cut short": saved[:middle],
                "garbled header": b"\x00" * 16 + saved[16:],
                "edited day index": saved.replace(b'"day_index": 3,',
                                                  b'"day_index": 2,', 1),
            }
            for damage, data in damaged.items():
                with self.subTest(damage=damage):
                    path.write_bytes(data)
                    with mock.patch("pickle.loads") as loads:
                        with self.assertRaises(CheckpointError):
                            load_checkpoint(ckpt, small_preset(days=DAYS))
                    loads.assert_not_called()
            path.write_bytes(saved)
            self.assertEqual(load_checkpoint(ckpt, small_preset(days=DAYS))[2], 4)

    def test_failed_save_keeps_the_previous_one(self):
        """A save that raises midway, while pickling or at the fsync,
        leaves the last good save loadable and no temp file behind."""
        config = small_preset(days=DAYS)
        disk_full = OSError(errno.ENOSPC, "No space left on device")
        for where in ("pickling", "fsync"):
            with self.subTest(where=where), tempfile.TemporaryDirectory() as tmp:
                ckpt = os.path.join(tmp, "run.ckpt")
                observer = _FragileObserver()
                checkpointer = Checkpointer(ckpt, config)
                checkpointer.save(_bare_simulator(), [observer], 0, SimDate("2013-11-13"))
                first = Path(ckpt, CHECKPOINT_FILE).read_bytes()
                with contextlib.ExitStack() as stack:
                    if where == "pickling":
                        observer.broken = True
                        stack.enter_context(self.assertRaises(pickle.PicklingError))
                    else:
                        stack.enter_context(mock.patch("os.fsync", side_effect=disk_full))
                        stack.enter_context(self.assertRaises(OSError))
                    checkpointer.save(_bare_simulator(), [observer], 1,
                                      SimDate("2013-11-14"))
                self.assertEqual(os.listdir(ckpt), [CHECKPOINT_FILE])
                self.assertEqual(Path(ckpt, CHECKPOINT_FILE).read_bytes(), first)
                self.assertEqual(checkpointer.saves, 1)
                self.assertEqual(load_checkpoint(ckpt, config)[2], 1)

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
        """A chunk store of the layout schema 2 introduced (``HEAD`` plus
        ``chunks/``, schemas 2 and 3) is refused up front, naming both
        schemas; ``clear`` still removes it, and refuses a directory that
        holds neither it nor a checkpoint file."""
        self.assertEqual(CHECKPOINT_SCHEMA, 4)
        for schema in (2, 3):
            with self.subTest(schema=schema), tempfile.TemporaryDirectory() as tmp:
                ckpt = os.path.join(tmp, "run.ckpt")
                os.makedirs(os.path.join(ckpt, "chunks"))
                Path(ckpt, "HEAD").write_text(json.dumps(
                    {"schema": schema, "day_index": 2, "manifest": "day-00002.json"}))
                with self.assertRaises(CheckpointError) as caught:
                    load_checkpoint(ckpt, small_preset(days=DAYS))
                message = str(caught.exception)
                self.assertIn(f"schema {schema}", message)
                self.assertIn("supported 4", message)
                Checkpointer(ckpt, small_preset(days=DAYS)).clear()
                self.assertFalse(os.path.exists(ckpt))
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "notes.txt").write_text("not a checkpoint\n")
            with self.assertRaises(CheckpointError):
                Checkpointer(tmp, small_preset(days=DAYS)).clear()
            self.assertTrue(Path(tmp, "notes.txt").exists())

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
        simulator = _bare_simulator(retired=Retired())
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

    def test_state_that_does_not_round_trip_refused(self):
        """A payload that passes its digest but whose state comes back
        different from what was saved fails the state digest."""
        config = small_preset(days=DAYS)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "run.ckpt")
            Checkpointer(ckpt, config).save(
                _bare_simulator(), [_ForgetfulObserver()], 0, SimDate("2013-11-13"))
            with self.assertRaisesRegex(CheckpointError, "state digest mismatch"):
                load_checkpoint(ckpt, config)


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
                disk.store("render", i.to_bytes(16, "big"), i)
            disk.flush()

            code, out = self._run_cli("cache", "--dir", path)
            self.assertEqual(code, 0)
            self.assertIn("render", out)
            self.assertIn("3 entries", out)

            code, out = self._run_cli("cache", "--dir", path, "--json")
            self.assertEqual(code, 0)
            self.assertEqual(json.loads(out)["entries"], 3)

            entry = os.path.join(path, "render",
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
