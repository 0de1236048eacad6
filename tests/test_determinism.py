"""The same seed gives the same bytes, checked by running the program.

Two checks hold the study to the determinism the paper tables rest on:

* **Bytes.** ``python -m repro run --preset small`` runs in three
  processes: under ``PYTHONHASHSEED`` 0 and 1, each with its own cold
  ``--disk-cache``, and with the content caches off (``REPRO_CACHE=0``).
  Every artifact must be byte-equal across the three, and the two disk
  stores must hold entries under the same names.  The names matter
  because the artifacts alone miss what the crawler saw: with a store's
  ``merchant_id`` derived from the salted builtin ``hash()``, checkout
  pages differ between hash seeds while every table, figure and PSR row
  stays equal.  Entry names are content digests, so those pages land
  under different names.  File bytes would be the wrong comparison: a
  pickled set follows hash order, so equal values can differ in bytes.
  A warm rerun over the first store, under the other hash seed, must
  give the same artifacts again.
* **Streams.** Each named ``RandomStreams`` stream is drawn by one
  module: a second module taking the same stream would shift the first
  one's draws whenever it draws more or less.  ``RandomStreams.get`` is
  wrapped to record, per full stream path, the first module outside
  ``repro.util.rng`` on the stack, over a small study with every
  intervention drawing.
* **Firm order.** The small preset has one seizure firm, so its tables
  cannot show a firm-order bug.  A two-firm leg (its firm's policy split
  between GBC and SMGPA) runs under two hash seeds that order a bare set
  of the two names differently; Table 3 and the rotation reactions must
  list the firms sorted under both.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Set, Tuple

import pytest

from repro.ecosystem import small_preset
from repro.interventions.payments import PaymentPolicy
from repro.study import StudyRun
from repro.util.rng import RandomStreams

REPO_ROOT = Path(__file__).resolve().parent.parent

StreamPath = Tuple[int, Tuple[str, ...], str]


def _env(**extra: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra)
    return env


def _start_run(cwd: Path, out: str, env: Dict[str, str], *args: str):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "--preset", "small",
         "--out", out, *args],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc) -> None:
    _, stderr = proc.communicate()
    assert proc.returncode == 0, stderr


def _files(directory: Path) -> Dict[str, bytes]:
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _entry_names(store: Path) -> Set[str]:
    return {path.relative_to(store).as_posix() for path in store.glob("*/*.pkl")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Three cold runs side by side, then a warm rerun over store A.

    Store A is read as soon as its cold run ends, before the warm rerun
    touches it; the rerun overlaps the other two cold runs."""
    tmp = tmp_path_factory.mktemp("determinism")
    # Leaving the stack waits for every run, so a failed one leaves no
    # process behind.
    with contextlib.ExitStack() as stack:
        def start(out, env, *args):
            return stack.enter_context(_start_run(tmp, out, env, *args))

        cold_a = start("out-hash0", _env(PYTHONHASHSEED="0"),
                       "--disk-cache", "store-a")
        cold_b = start("out-hash1", _env(PYTHONHASHSEED="1"),
                       "--disk-cache", "store-b")
        nocache = start("out-nocache", _env(PYTHONHASHSEED="2", REPRO_CACHE="0"))
        _finish(cold_a)
        store_a = tmp / "store-a"
        result = {"names_a": _entry_names(store_a)}
        warm = start("out-warm", _env(PYTHONHASHSEED="1"), "--disk-cache", "store-a")
        for proc in (cold_b, nocache, warm):
            _finish(proc)
    result["names_b"] = _entry_names(tmp / "store-b")
    result["outs"] = {
        name: _files(tmp / name)
        for name in ("out-hash0", "out-hash1", "out-nocache", "out-warm")
    }
    return result


class TestSameBytes:
    def test_artifacts_equal_across_hash_seeds_and_cache_modes(self, runs):
        outs = runs["outs"]
        reference = outs["out-hash0"]
        assert "psrs.jsonl" in reference and "table3.txt" in reference
        for name, files in outs.items():
            assert sorted(files) == sorted(reference), name
            for filename, blob in files.items():
                assert blob == reference[filename], f"{name}/{filename}"

    def test_disk_entry_names_equal_across_hash_seeds(self, runs):
        names_a, names_b = runs["names_a"], runs["names_b"]
        assert names_a, "the cold run stored nothing"
        differing = sorted(names_a ^ names_b)
        assert not differing, (
            f"{len(differing)} of {len(names_a | names_b)} disk entries "
            f"differ by name between hash seeds, e.g. {differing[:5]}"
        )


# --------------------------------------------------------------------- #
# Firm order
# --------------------------------------------------------------------- #

#: The small preset with its seizure firm's clients split between two
#: firms under the same policy.  Prints Table 3 and the rotation
#: reactions' firms in the order the analyses return them, and the order
#: of a bare set of the firms the PSRs name.
_TWO_FIRMS = """
import dataclasses, json
from repro import StudyRun
from repro.analysis import rotation_reactions
from repro.ecosystem import small_preset
config = small_preset()
(gbc,) = config.firms
config.firms = [
    dataclasses.replace(gbc, clients=["Louis Vuitton", "Uggs"]),
    dataclasses.replace(gbc, name="SMGPA", clients=["Beats By Dre"]),
]
results = StudyRun(config).execute()
records = results.dataset.records
print(json.dumps({
    "table3": list(results.headline()["table3"].items()),
    "reactions": [row.firm for row in rotation_reactions(results.dataset)],
    "set_order": list({r.seizure_firm for r in records if r.seizure_firm}),
}))
"""


def test_two_firms_listed_in_sorted_order_under_any_hash_seed():
    with contextlib.ExitStack() as stack:
        procs = [
            stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", _TWO_FIRMS], cwd=REPO_ROOT,
                env=_env(PYTHONHASHSEED=seed), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True))
            for seed in ("0", "3")
        ]
        outs = []
        for proc in procs:
            stdout, stderr = proc.communicate()
            assert proc.returncode == 0, stderr
            outs.append(json.loads(stdout))
    # The two hash seeds must order the bare set differently, or the leg
    # could not see a firm-order bug.
    assert outs[0]["set_order"] != outs[1]["set_order"]
    for out in outs:
        assert [firm for firm, _ in out["table3"]] == ["GBC", "SMGPA"]
        assert all(row["cases"] > 0 for _, row in out["table3"])
        assert out["reactions"] == ["GBC", "SMGPA"]
        assert out["table3"] == outs[0]["table3"]


# --------------------------------------------------------------------- #
# Stream ownership
# --------------------------------------------------------------------- #

_RNG_MODULE = RandomStreams.__module__


def record_stream_owners(monkeypatch) -> Dict[StreamPath, Set[str]]:
    """Wrap ``RandomStreams.get`` to record who asks for each stream.

    Maps each full stream path ``(base_seed, path, name)`` to the set of
    modules requesting it: the first frame outside ``repro.util.rng``, so
    a draw through a helper such as ``bounded_lognormal`` counts for the
    helper's caller."""
    owners: Dict[StreamPath, Set[str]] = defaultdict(set)
    original = RandomStreams.get

    def get(self, name):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == _RNG_MODULE:
            frame = frame.f_back
        owners[(self.base_seed, self.path, name)].add(frame.f_globals["__name__"])
        return original(self, name)

    monkeypatch.setattr(RandomStreams, "get", get)
    return owners


def shared_streams(owners: Dict[StreamPath, Set[str]]) -> Dict[StreamPath, list]:
    return {path: sorted(modules) for path, modules in owners.items()
            if len(modules) > 1}


def _in_module(module_name: str, source: str, function: str):
    """A function whose globals name ``module_name``, as if defined there."""
    namespace = {"__name__": module_name}
    exec(source, namespace)
    return namespace[function]


class TestStreamRecorder:
    REQUEST = "def request(streams, name):\n    return streams.get(name)\n"

    def test_same_path_from_two_modules_is_reported(self, monkeypatch):
        owners = record_stream_owners(monkeypatch)
        first = _in_module("sim.alpha", self.REQUEST, "request")
        second = _in_module("sim.beta", self.REQUEST, "request")
        streams = RandomStreams(5)
        first(streams, "traffic")
        second(streams, "traffic")
        assert shared_streams(owners) == {
            (5, (), "traffic"): ["sim.alpha", "sim.beta"],
        }

    def test_distinct_child_namespaces_are_not_reported(self, monkeypatch):
        owners = record_stream_owners(monkeypatch)
        first = _in_module("sim.alpha", self.REQUEST, "request")
        second = _in_module("sim.beta", self.REQUEST, "request")
        streams = RandomStreams(5)
        first(streams.child("alpha"), "traffic")
        second(streams.child("beta"), "traffic")
        assert len(owners) == 2
        assert shared_streams(owners) == {}

    def test_helper_draw_is_attributed_to_its_caller(self, monkeypatch):
        owners = record_stream_owners(monkeypatch)
        delay = _in_module(
            "sim.gamma",
            "def delay(streams):\n"
            "    return streams.bounded_lognormal('delay', 0.0, 1.0, 0.5, 5.0)\n",
            "delay",
        )
        delay(RandomStreams(5))
        assert dict(owners) == {(5, (), "delay"): {"sim.gamma"}}


def test_every_stream_has_one_owning_module(monkeypatch):
    config = small_preset()
    # The payment intervention is off by default; start it so its
    # module draws too.
    config.payment_policy = PaymentPolicy(start_day=config.window.start + 20)
    owners = record_stream_owners(monkeypatch)
    StudyRun(config).execute()
    modules = set().union(*owners.values())
    assert "repro.interventions.payments" in modules
    assert len(owners) > 100
    assert shared_streams(owners) == {}
