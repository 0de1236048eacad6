"""Tests for the observability layer (`repro.obs`).

Covers the four pillars the layer promises:

* span-tree determinism — two traced runs of the same seed produce the
  same structure (names, tags, nesting), timings aside;
* the ``metrics.jsonl`` schema — one row per simulated day, the golden
  column set, a write/parse round-trip (no manifest row is written);
* run-manifest round-trip — config digest stability and sensitivity;
* non-interference — a traced study's PSR dump is byte-identical to an
  untraced one (tracing reads simulation state, never writes it).
"""

import json

import pytest

from repro.crawler.records import PsrDataset
from repro.ecosystem import small_preset
from repro.obs.manifest import config_digest, run_manifest
from repro.obs.metrics import METRICS_COLUMNS
from repro.obs.trace import TRACER, set_tracing_enabled
from repro.study import StudyRun

DAYS = 20


def run_study(traced, seed=7):
    set_tracing_enabled(traced)
    if not traced:
        TRACER.reset()  # drop spans left over from earlier traced tests
    try:
        config = small_preset(days=DAYS, seed=seed)
        results = StudyRun(config).execute()
        structures = tuple(root.structure() for root in TRACER.roots)
        return results, structures
    finally:
        set_tracing_enabled(False)


@pytest.fixture(scope="module")
def traced_run():
    return run_study(traced=True)


class TestSpanTreeDeterminism:
    def test_same_seed_same_structure(self, traced_run):
        _, first = traced_run
        _, second = run_study(traced=True)
        assert first  # the study recorded spans at all
        assert first == second

    def test_structure_covers_pipeline_phases(self, traced_run):
        _, structures = traced_run
        names = set()

        def collect(structure):
            names.add(structure[0])
            for child in structure[2]:
                collect(child)

        for structure in structures:
            collect(structure)
        assert {"study", "simulate", "day", "campaigns", "interventions",
                "serps", "traffic", "crawl", "orders"} <= names

    def test_day_spans_tagged_with_sim_dates(self, traced_run):
        _, structures = traced_run
        study = structures[0]
        simulate = study[2][0]
        days = [child for child in simulate[2] if child[0] == "day"]
        assert len(days) == DAYS
        tags = [dict(day[1]) for day in days]
        assert all("sim_day" in tag for tag in tags)
        assert len({tag["sim_day"] for tag in tags}) == DAYS


class TestTraceExport:
    def test_root_total_approximates_span_sum(self):
        run_study(traced=True)
        root = TRACER.roots[0]
        child_sum = sum(c.dur_s for c in root.children)
        assert child_sum <= root.dur_s
        assert child_sum >= 0.5 * root.dur_s

    def test_chrome_trace_is_valid_trace_event_json(self, traced_run):
        run_study(traced=True)
        payload = json.loads(json.dumps(TRACER.chrome_trace(
            manifest=run_manifest())))
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}
        assert payload["otherData"]["manifest"]["package"] == "repro"

    def test_disabled_tracer_returns_shared_null_span(self):
        assert not TRACER.enabled
        assert TRACER.span("anything") is TRACER.span("other")


class TestMetricsSchema:
    def test_one_row_per_sim_day_with_golden_columns(self, traced_run):
        results, _ = traced_run
        recorder = results.metrics
        rows = recorder.rows()
        assert len(rows) == DAYS
        for row in rows:
            assert tuple(row) == METRICS_COLUMNS
        assert [row["day_index"] for row in rows] == list(range(DAYS))
        # The columns the acceptance bar names must carry signal.
        assert rows[-1]["psrs_total"] > 0
        assert any(row["serps_served"] > 0 for row in rows)
        assert any(row["cache_hit_rate"] > 0 for row in rows)
        # Timing never goes here: the rows are deterministic.
        assert "serp_serve_us" not in METRICS_COLUMNS

    def test_write_load_round_trip_with_manifest(self, traced_run, tmp_path):
        results, _ = traced_run
        path = tmp_path / "metrics.jsonl"
        results.metrics.write_jsonl(str(path))
        payloads = [json.loads(line) for line in path.read_text().splitlines()]
        # Every row is a sample: provenance lives in manifest.json.
        assert [p.pop("_type") for p in payloads] == ["sample"] * DAYS
        assert payloads == results.metrics.rows()


class TestManifest:
    def test_manifest_fields(self):
        manifest = run_manifest(small_preset(), preset="small")
        assert manifest["schema"] == 1
        assert manifest["package"] == "repro"
        assert manifest["preset"] == "small"
        for key in ("version", "git_sha", "python", "platform", "cpus",
                    "cache_enabled", "trace_enabled", "created_at"):
            assert key in manifest
        assert manifest["config"]["days"] == len(small_preset().window)

    def test_config_digest_stable_and_sensitive(self):
        a = config_digest(small_preset(days=DAYS, seed=7))
        b = config_digest(small_preset(days=DAYS, seed=7))
        c = config_digest(small_preset(days=DAYS, seed=8))
        d = config_digest(small_preset(days=DAYS + 1, seed=7))
        assert a == b
        assert len({a, c, d}) == 3

    def test_manifest_json_serializable(self):
        json.dumps(run_manifest(small_preset()))


class TestNonInterference:
    def test_traced_psr_dump_byte_identical_to_untraced(self, tmp_path,
                                                        traced_run):
        traced_results, _ = traced_run
        untraced_results, structures = run_study(traced=False)
        assert structures == ()  # disabled tracer recorded nothing new
        traced_path = tmp_path / "traced.jsonl"
        untraced_path = tmp_path / "untraced.jsonl"
        traced_results.dataset.dump_jsonl(str(traced_path))
        untraced_results.dataset.dump_jsonl(str(untraced_path))
        assert traced_path.read_bytes() == untraced_path.read_bytes()

    def test_manifest_header_skipped_by_psr_loader(self, tmp_path,
                                                   traced_run):
        # Files written before provenance moved to manifest.json lead with
        # a manifest row; the loader still skips it.
        results, _ = traced_run
        plain = tmp_path / "plain.jsonl"
        headed = tmp_path / "headed.jsonl"
        results.dataset.dump_jsonl(str(plain))
        header = json.dumps({"_type": "manifest", **run_manifest()},
                            sort_keys=True)
        headed.write_text(header + "\n" + plain.read_text())
        loaded_plain = PsrDataset.load_jsonl(str(plain))
        loaded_headed = PsrDataset.load_jsonl(str(headed))
        assert len(loaded_plain) == len(loaded_headed) == len(results.dataset)
