"""Tests for ``repro.lint.flow`` — the interprocedural ``--deep`` pass.

Fixture packages under ``tests/lint_fixtures/flow/`` each exercise one
rule with a positive case (must fire), a negative case (must stay
quiet), and a waived case (fires but is consumed by a reasoned
``# repro: allow-D10x`` comment).  They are shallow-clean by design so
the per-file fixture totals in ``test_lint.py`` stay pinned.

The shipped ``src/`` tree must come out of the deep pass clean — both
through the API and through the real ``python -m repro lint --deep``
entry point CI uses.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from repro.lint import lint_paths, select_rules
from repro.lint.flow import (
    analyze_paths,
    deep_lint,
    flow_rule_codes,
    graph_dump,
)

TESTS_DIR = Path(__file__).resolve().parent
FLOW_FIXTURES = TESTS_DIR / "lint_fixtures" / "flow"
REPO_ROOT = TESTS_DIR.parent


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def deep_on(case, **kwargs):
    kwargs.setdefault("cache_dir", None)
    return deep_lint([str(FLOW_FIXTURES / case)], **kwargs)


class TestCallGraph(unittest.TestCase):
    """Linking on the graphcase package: cycle, methods, decorators."""

    @classmethod
    def setUpClass(cls):
        cls.program, cls.effects, cls.stats = analyze_paths(
            [str(FLOW_FIXTURES / "graphcase")], cache_dir=None
        )

    def edges(self):
        return {(e.caller, e.callee) for e in self.program.edges}

    def test_cross_module_cycle_edges(self):
        self.assertIn(
            ("graphcase.alpha.countdown", "graphcase.beta.bounce"), self.edges()
        )
        self.assertIn(
            ("graphcase.beta.bounce", "graphcase.alpha.countdown"), self.edges()
        )

    def test_method_call_resolves_through_constructed_instance(self):
        self.assertIn(
            ("graphcase.beta.bounce", "graphcase.beta.Tracker.__init__"),
            self.edges(),
        )
        self.assertIn(
            ("graphcase.beta.bounce", "graphcase.beta.Tracker.note"), self.edges()
        )

    def test_decorated_function_is_linked(self):
        self.assertIn("graphcase.alpha.decorated_entry", self.program.functions)
        self.assertIn(
            ("graphcase.alpha.decorated_entry", "graphcase.alpha.countdown"),
            self.edges(),
        )

    def test_import_edges_counted(self):
        self.assertEqual(self.stats.import_edges, 2)  # alpha <-> beta

    def test_fixpoint_propagates_effects_around_the_cycle(self):
        # bump()'s global store must reach every function on the cycle,
        # and through it the decorated entry point two hops up.
        for qual in (
            "graphcase.beta.bounce",
            "graphcase.alpha.countdown",
            "graphcase.alpha.decorated_entry",
        ):
            targets = self.effects.of(qual).get("mutates-global", {}).get(
                "targets", {}
            )
            self.assertIn("graphcase.alpha:COUNTS", targets, qual)
        self.assertGreater(self.stats.fixpoint_iterations, 0)

    def test_witness_chain_names_the_origin(self):
        record = self.effects.of("graphcase.alpha.decorated_entry")[
            "mutates-global"
        ]["targets"]["graphcase.alpha:COUNTS"]
        self.assertEqual(record["origin"], "graphcase.alpha.bump")
        self.assertEqual(record["origin_module"], "graphcase.alpha")


class TestRules(unittest.TestCase):
    """Each D10x rule: fires on the positive, quiet on the negative,
    consumed by the waiver — per fixture package."""

    def findings(self, case):
        report = deep_on(case)
        return report, [(f.code, Path(f.path).name, f.line) for f in report.findings]

    def test_d102_artifact_taint(self):
        report, findings = self.findings("d102case")
        self.assertEqual(findings, [("D102", "writer.py", 6)])
        self.assertIn("identity", report.findings[0].message)
        self.assertEqual(report.suppressions_used, 1)

    def test_d102_interprocedural_id_bug_is_invisible_to_shallow_rules(self):
        # The PR 1 regression class, split across a module boundary:
        # id() is produced in keys.py and only *used* as a key by the
        # writer — so per-file D004 (and every other shallow rule) stays
        # quiet, while --deep tracks the identity taint across the call.
        shallow = lint_paths(
            [str(FLOW_FIXTURES / "d102case")], select_rules(None)
        )
        self.assertEqual(shallow.findings, [])
        _report, findings = self.findings("d102case")
        self.assertEqual([code for code, _, _ in findings], ["D102"])

    def test_d104_contract_verification(self):
        report, findings = self.findings("d104case")
        self.assertEqual(
            findings,
            [("D104", "contracts.py", 6), ("D104", "contracts.py", 16)],
        )
        messages = [f.message for f in report.findings]
        self.assertIn("mutates-global", messages[0])      # declared pure, isn't
        self.assertIn("unknown effect contract", messages[1])
        # truly_pure stays quiet; waived_impure's violation is consumed
        # by its allow-D104.
        self.assertEqual(report.suppressions_used, 1)

    def test_d104_stray_annotation_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            stray = Path(tmp) / "stray.py"
            stray.write_text(
                "# repro: effects=pure\nVALUE = 3\n\ndef f():\n    return VALUE\n"
            )
            report = deep_lint([tmp], cache_dir=None)
        self.assertEqual(
            [(f.code, f.line) for f in report.findings], [("D104", 1)]
        )
        self.assertIn("not attached", report.findings[0].message)

    def test_d105_stream_aliasing(self):
        report, findings = self.findings("d105case")
        # 'demand' is drawn in both modules: the lexicographically-later
        # module gets the finding.  'supply' is single-module (quiet) and
        # the shared 'cursor' draw is waived.
        self.assertEqual(findings, [("D105", "gen_two.py", 5)])
        self.assertIn("'demand'", report.findings[0].message)
        self.assertEqual(report.suppressions_used, 1)

    def test_unused_deep_waiver_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            clean = Path(tmp) / "clean.py"
            clean.write_text(
                "# repro: allow-D102 left over from a removed writer\n"
                "def f(x):\n"
                "    return x\n"
            )
            report = deep_lint([tmp], cache_dir=None)
        self.assertEqual(report.findings, [])
        self.assertEqual(len(report.unused_suppression_sites), 1)

    def test_rule_selection(self):
        from repro.lint.flow import all_flow_rules

        only_d104 = [r for r in all_flow_rules() if r.code == "D104"]
        report = deep_on("d102case", rules=only_d104)
        self.assertEqual(report.findings, [])
        self.assertEqual(report.rule_codes, ["D104"])


class TestSummaryCache(unittest.TestCase):
    """The content-digest cache: cold misses, warm hits, edit invalidates."""

    def setUp(self):
        self._tmpdir = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmpdir.name)
        self.addCleanup(self._tmpdir.cleanup)
        self.pkg = self.tmp / "d102case"
        shutil.copytree(FLOW_FIXTURES / "d102case", self.pkg)
        self.cache_dir = str(self.tmp / "flowcache")

    def analyze(self):
        _program, _effects, stats = analyze_paths(
            [str(self.pkg)], cache_dir=self.cache_dir
        )
        return stats

    def test_cold_then_warm_then_invalidate(self):
        cold = self.analyze()
        self.assertEqual(cold.cache_hits, 0)
        self.assertEqual(cold.cache_misses, cold.modules)

        warm = self.analyze()
        self.assertEqual(warm.cache_hits, warm.modules)
        self.assertEqual(warm.cache_misses, 0)

        # Touching content (not just mtime) re-summarizes only that module.
        target = self.pkg / "writer.py"
        target.write_text(target.read_text() + "\n\ndef extra():\n    return 1\n")
        edited = self.analyze()
        self.assertEqual(edited.cache_misses, 1)
        self.assertEqual(edited.cache_hits, edited.modules - 1)
        # And the re-summarized module really is the new one.
        program, _effects, _stats = analyze_paths(
            [str(self.pkg)], cache_dir=self.cache_dir
        )
        self.assertIn("d102case.writer.extra", program.functions)

    def test_cache_disabled_runs_clean(self):
        _program, _effects, stats = analyze_paths([str(self.pkg)], cache_dir=None)
        self.assertEqual(stats.cache_hits, 0)


class TestShippedTreeDeep(unittest.TestCase):
    """``src/`` and ``benchmarks/`` must hold the interprocedural
    discipline too — with no stale deep waivers."""

    @classmethod
    def setUpClass(cls):
        cls.report = deep_lint(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")],
            root=str(REPO_ROOT),
            cache_dir=None,
        )

    def test_tree_is_deep_clean(self):
        self.assertEqual(
            [f.format_text() for f in self.report.findings], [],
            "shipped tree must pass repro lint --deep clean",
        )
        self.assertEqual(self.report.unused_suppression_sites, [])

    def test_real_roots_discovered(self):
        stats = self.report.stats
        self.assertGreater(stats.call_edges, 500)
        # The ablation pool's worker is linked as a spawn edge, whose
        # effects stay in the worker instead of reaching the caller.
        spawned = {(e.caller, e.callee) for e in self.report.program.edges
                   if e.kind == "spawn"}
        self.assertIn(
            ("repro.analysis.ablations.run_intervention_ablations",
             "repro.analysis.ablations._run_variant"),
            spawned,
        )

    def test_graph_dump_shape(self):
        dump = graph_dump(self.report.program, self.report.stats)
        self.assertEqual(dump["schema"], 1)
        self.assertEqual(dump["stats"]["modules"], self.report.stats.modules)
        self.assertTrue(all("caller" in e for e in dump["edges"]))
        json.dumps(dump)  # must be JSON-serializable as-is


class TestCommandLine(unittest.TestCase):
    """End-to-end through ``python -m repro lint --deep`` as CI runs it."""

    def test_deep_clean_exit_zero(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = run_cli(
                "src/", "benchmarks/", "--deep",
                "--flow-cache", str(Path(tmp) / "cache"),
            )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("repro.lint --deep: ok", proc.stdout)

    def test_deep_fixture_findings_exit_one(self):
        proc = run_cli(
            "tests/lint_fixtures/flow/", "--deep", "--no-flow-cache"
        )
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        for code in flow_rule_codes():
            self.assertIn(code, proc.stdout)

    def test_deep_code_without_deep_flag_exits_two(self):
        proc = run_cli("src/", "--select", "D102")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("--deep", proc.stderr)

    def test_graph_requires_deep(self):
        proc = run_cli("src/", "--graph", "json")
        self.assertEqual(proc.returncode, 2)

    def test_graph_json_parses(self):
        proc = run_cli(
            "tests/lint_fixtures/flow/graphcase", "--deep", "--graph", "json",
            "--no-flow-cache",
        )
        payload = json.loads(proc.stdout)
        self.assertEqual(payload["schema"], 1)
        self.assertTrue(payload["edges"])

    def test_sarif_output_carries_both_registries(self):
        proc = run_cli(
            "tests/lint_fixtures/flow/", "--deep", "--format", "sarif",
            "--no-flow-cache",
        )
        self.assertEqual(proc.returncode, 1)
        payload = json.loads(proc.stdout)
        self.assertEqual(payload["version"], "2.1.0")
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertLessEqual({"D001", "D102", "D105"}, rule_ids)
        result_rules = {r["ruleId"] for r in run["results"]}
        self.assertLessEqual(set(flow_rule_codes()), result_rules)

    def test_json_format_carries_deep_block(self):
        proc = run_cli(
            "tests/lint_fixtures/flow/d102case", "--deep", "--format", "json",
            "--no-flow-cache",
        )
        payload = json.loads(proc.stdout)
        deep = payload["summary"]["deep"]
        self.assertEqual(deep["by_rule"], {"D102": 1})
        self.assertEqual(deep["suppressions_used"], 1)
        self.assertIn("fixpoint_iterations", deep["stats"])
        self.assertEqual(len(payload["deep_findings"]), 1)

    def test_warm_cli_run_hits_cache(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = str(Path(tmp) / "cache")
            run_cli("src/repro/analysis", "--deep", "--flow-cache", cache)
            proc = run_cli(
                "src/repro/analysis", "--deep", "--flow-cache", cache,
                "--format", "json",
            )
        payload = json.loads(proc.stdout)
        stats = payload["summary"]["deep"]["stats"]
        self.assertEqual(stats["cache_hits"], stats["modules"])
        self.assertEqual(stats["cache_misses"], 0)

    def test_list_rules_includes_flow_rules_with_deep(self):
        proc = run_cli("--list-rules", "--deep")
        self.assertEqual(proc.returncode, 0)
        for code in flow_rule_codes():
            self.assertIn(code, proc.stdout)


if __name__ == "__main__":
    unittest.main()
