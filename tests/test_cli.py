"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.trace import set_tracing_enabled


@pytest.fixture
def tracing_off_after():
    yield
    set_tracing_enabled(False)


class TestRunCommand:
    def test_run_small_writes_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "study")
        code = main(["run", "--preset", "small", "--stride", "2", "--out", out])
        assert code == 0
        for name in ("psrs.jsonl", "table1.txt", "table2.txt", "table3.txt",
                     "figure3.txt", "summary.txt"):
            path = os.path.join(out, name)
            assert os.path.exists(path), name
            assert os.path.getsize(path) > 0, name
        stdout = capsys.readouterr().out
        assert "PSRs:" in stdout
        assert "Artifacts written" in stdout

    def test_run_psrs_jsonl_loadable(self, tmp_path):
        out = str(tmp_path / "study")
        main(["run", "--preset", "small", "--stride", "3", "--out", out])
        from repro.crawler import PsrDataset

        dataset = PsrDataset.load_jsonl(os.path.join(out, "psrs.jsonl"))
        assert len(dataset) > 0
        assert dataset.verticals()

    def test_run_seed_changes_world(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["run", "--preset", "small", "--seed", "1", "--out", out_a])
        main(["run", "--preset", "small", "--seed", "2", "--out", out_b])
        with open(os.path.join(out_a, "summary.txt")) as fa:
            summary_a = fa.read()
        with open(os.path.join(out_b, "summary.txt")) as fb:
            summary_b = fb.read()
        assert summary_a != summary_b


class TestTraceCommands:
    def test_trace_prints_tree_and_writes_exports(self, tmp_path, capsys,
                                                  tracing_off_after):
        trace_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.jsonl")
        code = main(["trace", "--preset", "small", "--stride", "2",
                     "--json", trace_path, "--metrics", metrics_path])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "study" in stdout
        assert "simulate" in stdout
        assert "wall-clock" in stdout
        with open(trace_path) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]
        assert payload["otherData"]["manifest"]["package"] == "repro"
        from repro.obs.metrics import MetricsRecorder

        manifest, rows = MetricsRecorder.load_jsonl(metrics_path)
        assert manifest is None  # provenance rides in trace.json only
        assert rows

    def test_run_trace_writes_trace_artifacts(self, tmp_path,
                                              tracing_off_after):
        out = str(tmp_path / "study")
        code = main(["run", "--preset", "small", "--stride", "3",
                     "--trace", "--out", out])
        assert code == 0
        for name in ("trace.json", "manifest.json", "metrics.jsonl",
                     "psrs.jsonl"):
            assert os.path.getsize(os.path.join(out, name)) > 0, name
        with open(os.path.join(out, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["trace_enabled"] is True
        assert "digest" in manifest["config"]

    def test_traced_data_files_carry_no_provenance(self, tmp_path,
                                                   tracing_off_after):
        # Provenance goes to manifest.json and trace.json only, so a
        # traced run's data files equal an untraced run's byte for byte.
        traced = str(tmp_path / "traced")
        plain = str(tmp_path / "plain")
        assert main(["run", "--preset", "small", "--trace",
                     "--out", traced]) == 0
        set_tracing_enabled(False)
        assert main(["run", "--preset", "small", "--out", plain]) == 0
        with open(os.path.join(traced, "psrs.jsonl"), "rb") as handle:
            traced_psrs = handle.read()
        with open(os.path.join(plain, "psrs.jsonl"), "rb") as handle:
            assert handle.read() == traced_psrs
        assert not os.path.exists(os.path.join(traced, "telemetry.jsonl"))
        for name in ("psrs.jsonl", "metrics.jsonl"):
            with open(os.path.join(traced, name)) as handle:
                for line in handle:
                    assert json.loads(line).get("_type") != "manifest", name

    def test_run_appends_ledger_record(self, tmp_path, capsys):
        out = str(tmp_path / "study")
        ledger_path = str(tmp_path / "ledger.jsonl")
        code = main(["run", "--preset", "small", "--stride", "3",
                     "--out", out, "--ledger", ledger_path])
        assert code == 0
        assert "Ledger record" in capsys.readouterr().out
        from repro.obs.ledger import RunLedger

        records = RunLedger(ledger_path).records()
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "study"
        assert record["headline"]["psr"]["total"] > 0
        assert record["switches"]["stride"] == 3

    def test_untraced_run_writes_no_observability_artifacts(self, tmp_path):
        # Plain runs keep byte-identical same-seed artifacts; metrics and
        # trace files (timing + provenance data) require --trace.
        out = str(tmp_path / "study")
        main(["run", "--preset", "small", "--stride", "3", "--out", out])
        assert not os.path.exists(os.path.join(out, "metrics.jsonl"))
        assert not os.path.exists(os.path.join(out, "telemetry.jsonl"))
        assert not os.path.exists(os.path.join(out, "trace.json"))
        assert not os.path.exists(os.path.join(out, "manifest.json"))


class TestAblationsCommand:
    def test_ablations_prints_table(self, capsys):
        code = main(["ablations", "--days", "40"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "baseline" in stdout
        assert "no-interventions" in stdout
        assert "payment-intervention" in stdout


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
