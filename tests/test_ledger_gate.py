"""Tests for the run ledger and the release gate.

Covers the contract chain ISSUE 9 promises:

* ledger append/round-trip — records survive a write/read cycle with
  provenance intact, and the loader tolerates torn lines *anywhere* in
  the file (an append-only log buries a crash's torn tail under later
  appends);
* band math — absolute and relative tolerances, one-sided directions,
  first-match-wins pattern ordering; wall time is never gated;
* gate exit codes through the real CLI — 0 on a clean re-check, 1 on an
  injected Table 2 drift (a perturbed ``peak_days``), 2 on missing
  inputs (no ledger record, no baseline file);
* ``repro compare``/``repro history`` rendering determinism.

The study-shaped records come from the session-scoped ``study`` fixture
so this file adds no extra simulation runs to the suite.
"""

import copy
import json
import os

import pytest

from repro.cli import main
from repro.ecosystem import small_preset
from repro.obs.gate import (
    DEFAULT_BANDS,
    Band,
    check_bands,
    load_baseline,
    run_gate,
    write_baseline,
)
from repro.obs.ledger import (
    RunLedger,
    build_study_record,
    flatten,
    record_metrics,
    shown_metrics,
)


@pytest.fixture(scope="module")
def study_record(study):
    """One real ledger record built from the session study."""
    return build_study_record(
        small_preset(), study, wall_s=12.5, stride=2, preset="small")


@pytest.fixture(autouse=True)
def no_ambient_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)


class TestLedgerRoundTrip:
    def test_append_read_round_trip(self, tmp_path, study_record):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        written = ledger.append(dict(study_record))
        assert written["run_id"]
        assert written["schema"] == 1
        (loaded,) = ledger.records()
        assert loaded == json.loads(json.dumps(written))
        assert loaded["kind"] == "study"
        assert loaded["key"].endswith("/stride2")
        assert loaded["headline"]["psr"]["total"] > 0
        assert loaded["headline"]["table2"]
        assert ledger.skipped == 0

    def test_torn_line_mid_file_is_skipped_not_fatal(self, tmp_path,
                                                     study_record):
        path = str(tmp_path / "ledger.jsonl")
        ledger = RunLedger(path)
        first = ledger.append(dict(study_record))
        # A crash mid-append leaves a torn, newline-less tail...
        with open(path, "a") as handle:
            handle.write('{"_type": "run", "kind": "stu')
        # ...which the next append buries (self-healing newline prefix).
        second = ledger.append(dict(study_record))
        with pytest.warns(RuntimeWarning, match="skipped 1 unparseable"):
            records = ledger.records()
        assert [r["run_id"] for r in records] == \
            [first["run_id"], second["run_id"]]
        assert ledger.skipped == 1

    def test_find_by_index_and_id_prefix(self, tmp_path, study_record):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        first = ledger.append(dict(study_record))
        drifted = copy.deepcopy(study_record)
        drifted["headline"]["psr"]["total"] += 1
        second = ledger.append(drifted)
        assert ledger.find("-1")["run_id"] == second["run_id"]
        assert ledger.find("0")["run_id"] == first["run_id"]
        assert ledger.find(first["run_id"][:6])["run_id"] == first["run_id"]
        with pytest.raises(LookupError):
            ledger.find("ffffffffffff")
        with pytest.raises(LookupError):
            ledger.find("99")

    def test_all_digit_id_prefix_is_not_an_index(self, tmp_path):
        # About 6% of run ids start with six decimal digits.
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append({"run_id": "0a0000000000"})
        ledger.append({"run_id": "123456abcdef"})
        assert ledger.find("123456")["run_id"] == "123456abcdef"
        assert ledger.find("123456abcdef")["run_id"] == "123456abcdef"
        # Shorter integer refs stay indexes.
        assert ledger.find("1")["run_id"] == "123456abcdef"
        assert ledger.find("-2")["run_id"] == "0a0000000000"
        with pytest.raises(LookupError, match="index 12345 out of range"):
            ledger.find("12345")

    def test_flatten_keeps_numbers_drops_provenance(self):
        flat = flatten({"a": {"b": 2, "c": True, "d": "str"}, "e": 1.5})
        assert flat == {"a.b": 2, "e": 1.5}

    def test_record_metrics_covers_tables_and_curve(self, study_record):
        flat = record_metrics(study_record)
        assert flat["psr.total"] > 0
        assert any(path.startswith("table2.") for path in flat)
        assert any(path.startswith("psr_curve.") for path in flat)
        # Wall time is provenance: compare and history show it, the gate
        # never bands it.
        assert "wall_s" not in flat
        assert shown_metrics(study_record)["wall_s"] == 12.5


class TestBandMath:
    def test_allowed_is_max_of_abs_and_rel(self):
        band = Band("x", abs_tol=2, rel_tol=0.1)
        assert band.allowed(10) == 2       # abs floor wins near zero
        assert band.allowed(100) == 10     # rel takes over at scale
        assert band.allowed(-100) == 10    # magnitude, not sign

    def test_two_sided_drift_and_ok(self):
        bands = [Band("x", abs_tol=2)]
        ok, = check_bands({"x": 11.0}, {"x": 10.0}, bands)
        assert ok.status == "ok"
        up, = check_bands({"x": 13.0}, {"x": 10.0}, bands)
        assert up.status == "drift"
        down, = check_bands({"x": 7.0}, {"x": 10.0}, bands)
        assert down.status == "drift"

    def test_one_sided_bands(self):
        upper = [Band("x", abs_tol=1, direction="upper")]
        shrink, = check_bands({"x": 0.0}, {"x": 10.0}, upper)
        assert shrink.status == "ok"       # shrinking freely allowed
        grow, = check_bands({"x": 12.0}, {"x": 10.0}, upper)
        assert grow.status == "drift"
        lower = [Band("x", rel_tol=0.5, direction="lower")]
        slower, = check_bands({"x": 4.0}, {"x": 10.0}, lower)
        assert slower.status == "drift"    # a speedup band: falling is bad
        faster, = check_bands({"x": 99.0}, {"x": 10.0}, lower)
        assert faster.status == "ok"

    def test_checks_derive_from_baseline_paths_only(self):
        bands = [Band("x", abs_tol=1), Band("y", abs_tol=1)]
        checks = check_bands({"x": 1.0, "extra": 9.0}, {"x": 1.0, "y": 2.0},
                             bands)
        assert [(c.path, c.status) for c in checks] == \
            [("x", "ok"), ("y", "missing")]

    def test_first_matching_band_wins(self):
        bands = [Band("a.b", abs_tol=100), Band("a.*", abs_tol=0)]
        loose, = check_bands({"a.b": 50.0}, {"a.b": 0.0}, bands)
        assert loose.status == "ok"
        strict, = check_bands({"a.c": 50.0}, {"a.c": 0.0}, bands)
        assert strict.status == "drift"

    def test_default_bands_cover_the_headline_tree(self, study_record):
        flat = record_metrics(study_record)
        for prefix in ("psr.", "table1.", "table2.", "table3."):
            paths = [p for p in flat if p.startswith(prefix)]
            assert paths, prefix
            for path in paths:
                assert any(b.matches(path) for b in DEFAULT_BANDS), path


class TestGateLibrary:
    def test_baseline_round_trip_and_schema_check(self, tmp_path,
                                                  study_record):
        path = str(tmp_path / "gate.json")
        write_baseline(path, [study_record])
        payload = load_baseline(path)
        assert payload["baselines"][study_record["key"]]["headline"] == \
            json.loads(json.dumps(study_record["headline"]))
        with open(path, "w") as handle:
            json.dump({"schema": 99, "baselines": {}}, handle)
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_self_gate_passes(self, tmp_path, study_record):
        path = str(tmp_path / "gate.json")
        baseline = write_baseline(path, [study_record])
        result = run_gate(study_record, baseline)
        assert result is not None
        assert result.ok
        statuses = {c.status for c in result.checks}
        assert statuses == {"ok"}
        verdict = result.verdict_lines()
        assert verdict[0].endswith("PASS")
        assert len(verdict) == 1 + len(result.checks)

    def test_unknown_key_returns_none(self, study_record):
        assert run_gate(study_record, {"baselines": {}}) is None

    def test_wall_time_is_not_gated(self, tmp_path, study_record):
        # A baseline with the old ledger's ``perf`` block, against a run
        # ten times slower that carries none: timing is perfbench's
        # business, so the gate passes and prints no perf line.
        base = copy.deepcopy(study_record)
        base["perf"] = {"engine.serp": {"calls": 10, "mean_us": 50.0,
                                        "total_s": 0.0005}}
        baseline = write_baseline(str(tmp_path / "gate.json"), [base])
        slow = copy.deepcopy(study_record)
        assert "perf" not in slow  # records no longer carry a PERF snapshot
        slow["wall_s"] = study_record["wall_s"] * 10
        result = run_gate(slow, baseline)
        assert result.ok
        assert {c.status for c in result.checks} == {"ok"}
        assert not any(c.path == "wall_s" or c.path.startswith("perf.")
                       for c in result.checks)
        assert not any(line.strip().startswith("perf:")
                       for line in result.verdict_lines())


class TestGateCommand:
    """Exit-code contract of ``repro gate`` through the real CLI."""

    def _seed(self, tmp_path, study_record):
        ledger_path = str(tmp_path / "ledger.jsonl")
        baseline_path = str(tmp_path / "gate.json")
        RunLedger(ledger_path).append(dict(study_record))
        return ledger_path, baseline_path

    def test_missing_ledger_and_baseline_are_usage_errors(self, tmp_path,
                                                          study_record):
        assert main(["gate"]) == 2  # no ledger anywhere
        ledger_path, baseline_path = self._seed(tmp_path, study_record)
        assert main(["gate", "--ledger", str(tmp_path / "absent.jsonl"),
                     "--baseline", baseline_path]) == 2  # empty ledger
        assert main(["gate", "--ledger", ledger_path,
                     "--baseline", baseline_path]) == 2  # no baseline file

    def test_update_then_clean_gate_passes(self, tmp_path, study_record,
                                           capsys):
        ledger_path, baseline_path = self._seed(tmp_path, study_record)
        assert main(["gate", "--ledger", ledger_path,
                     "--baseline", baseline_path, "--update"]) == 0
        verdict_path = str(tmp_path / "verdict.txt")
        assert main(["gate", "--ledger", ledger_path,
                     "--baseline", baseline_path,
                     "--verdict", verdict_path]) == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        with open(verdict_path) as handle:
            assert "PASS" in handle.read()

    def test_injected_table2_drift_fails_the_gate(self, tmp_path,
                                                  study_record, capsys):
        ledger_path, baseline_path = self._seed(tmp_path, study_record)
        assert main(["gate", "--ledger", ledger_path,
                     "--baseline", baseline_path, "--update"]) == 0
        capsys.readouterr()
        # The acceptance drill: a perturbed penalty epoch shows up as a
        # Table 2 peak-days shift far beyond the 5%/±2 band.
        drifted = copy.deepcopy(study_record)
        campaign = sorted(drifted["headline"]["table2"])[0]
        drifted["headline"]["table2"][campaign]["peak_days"] += 30
        RunLedger(ledger_path).append(drifted)
        code = main(["gate", "--ledger", ledger_path,
                     "--baseline", baseline_path,
                     "--report", str(tmp_path / "report.txt")])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "DRIFT" in stdout
        assert f"table2.{campaign}.peak_days" in stdout
        with open(tmp_path / "report.txt") as handle:
            assert "drift" in handle.read()

    def test_lost_metric_is_a_missing_drift(self, tmp_path, study_record,
                                            capsys):
        ledger_path, baseline_path = self._seed(tmp_path, study_record)
        assert main(["gate", "--ledger", ledger_path,
                     "--baseline", baseline_path, "--update"]) == 0
        lost = copy.deepcopy(study_record)
        del lost["headline"]["psr_curve"]
        RunLedger(ledger_path).append(lost)
        assert main(["gate", "--ledger", ledger_path,
                     "--baseline", baseline_path]) == 1
        assert "[missing]" in capsys.readouterr().out


class TestHistoryAndCompare:
    def _two_record_ledger(self, tmp_path, study_record):
        ledger_path = str(tmp_path / "ledger.jsonl")
        ledger = RunLedger(ledger_path)
        first = ledger.append(dict(study_record))
        drifted = copy.deepcopy(study_record)
        drifted["headline"]["psr"]["total"] += 5
        drifted["wall_s"] = 14.25
        second = ledger.append(drifted)
        return ledger_path, first, second

    def test_history_lists_records_and_sparklines(self, tmp_path,
                                                  study_record, capsys):
        ledger_path, first, second = self._two_record_ledger(
            tmp_path, study_record)
        assert main(["history", "--ledger", ledger_path]) == 0
        stdout = capsys.readouterr().out
        assert first["run_id"] in stdout
        assert second["run_id"] in stdout
        assert "psr.total" in stdout
        assert main(["history", "--ledger",
                     str(tmp_path / "absent.jsonl")]) == 2

    def test_compare_is_deterministic_and_shows_deltas(self, tmp_path,
                                                       study_record, capsys):
        ledger_path, first, second = self._two_record_ledger(
            tmp_path, study_record)
        assert main(["compare", "0", "-1", "--ledger", ledger_path]) == 0
        once = capsys.readouterr().out
        assert main(["compare", "0", "-1", "--ledger", ledger_path]) == 0
        assert capsys.readouterr().out == once  # byte-identical re-render
        assert first["run_id"] in once
        assert second["run_id"] in once
        assert "psr.total" in once
        assert main(["compare", "0", "zzzz", "--ledger", ledger_path]) == 2
