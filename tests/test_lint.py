"""Tests for the ``repro.lint`` static analyzer.

Fixture files under ``tests/lint_fixtures/`` carry one rule each, with a
positive case (must fire), a negative case (must stay quiet), and a
suppressed case (fires but is waived by an inline
``# repro: allow-D00x <reason>`` comment).  The shipped ``src/`` tree
must lint clean — both through the API and through the real
``python -m repro lint`` entry point CI uses.
"""

import json
import os
import subprocess
import sys
import textwrap
import unittest
from pathlib import Path

from repro.lint import (
    all_rules,
    format_json,
    lint_file,
    lint_paths,
    registered_codes,
    select_rules,
    summary_line,
    write_summary,
)

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "lint_fixtures"
REPO_ROOT = TESTS_DIR.parent

#: Per-fixture ground truth: unsuppressed finding lines, by rule code.
EXPECTED = {
    "d001_random.py": ("D001", [7, 11]),
    "d002_nprandom.py": ("D002", [7, 11]),
    "d003_wallclock.py": ("D003", [8, 12, 16]),
    "d004_id_keys.py": ("D004", [5, 9, 13]),
    "d005_ordering.py": ("D005", [5, 9, 14]),
    "d006_defaults.py": ("D006", [4]),
    "d007_executor.py": ("D007", [10]),
    "d008_except.py": ("D008", [7, 14]),
    "d009_retry.py": ("D009", [7, 19]),
    "d010_poolloop.py": ("D010", [10]),
    "d011_atomicio.py": ("D011", [10, 15]),
}


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


class TestFixtures(unittest.TestCase):
    """Every rule fires on its fixture — and only where expected."""

    def test_each_fixture_yields_expected_findings(self):
        for filename, (code, lines) in EXPECTED.items():
            with self.subTest(fixture=filename):
                result = lint_file(str(FIXTURES / filename), all_rules())
                got = [(f.code, f.line) for f in result.findings]
                self.assertEqual(got, [(code, line) for line in lines])

    def test_every_registered_rule_fires(self):
        report = lint_paths([str(FIXTURES)], all_rules(), root=str(REPO_ROOT))
        self.assertEqual(sorted(report.by_rule), registered_codes())

    def test_fixture_totals(self):
        report = lint_paths([str(FIXTURES)], all_rules(), root=str(REPO_ROOT))
        self.assertEqual(len(report.findings), 22)
        self.assertEqual(report.files, len(EXPECTED))
        # One waived case per fixture, none stale.
        self.assertEqual(report.suppressions_used, 11)
        self.assertEqual(report.suppressions_unused, 0)
        self.assertFalse(report.ok)

    def test_select_restricts_rules(self):
        report = lint_paths(
            [str(FIXTURES)], select_rules(["D004"]), root=str(REPO_ROOT)
        )
        self.assertEqual(report.by_rule, {"D004": 3})
        self.assertEqual(report.rule_codes, ["D004"])


class TestSuppressions(unittest.TestCase):
    def lint_source(self, source, name="snippet.py"):
        path = Path(self.tmp) / name
        path.write_text(textwrap.dedent(source))
        return lint_file(str(path), all_rules())

    def setUp(self):
        import tempfile

        self._tmpdir = tempfile.TemporaryDirectory()
        self.tmp = self._tmpdir.name
        self.addCleanup(self._tmpdir.cleanup)

    def test_reasonless_suppression_does_not_suppress(self):
        result = self.lint_source(
            """\
            def f(x, acc=[]):  # repro: allow-D006
                acc.append(x)
                return acc
            """
        )
        codes = [f.code for f in result.findings]
        # The D006 finding survives AND the malformed waiver is reported.
        self.assertIn("D006", codes)
        self.assertIn("D000", codes)

    def test_unused_suppression_is_counted(self):
        path = Path(self.tmp) / "clean.py"
        path.write_text(
            "# repro: allow-D006 left over from a removed default\n"
            "def f(x):\n"
            "    return x\n"
        )
        report = lint_paths([str(path)], all_rules())
        self.assertTrue(report.ok)
        self.assertEqual(report.suppressions_unused, 1)
        self.assertEqual(report.unused_suppression_sites[0][1], 1)
        self.assertIn("unused suppression", summary_line(report))

    def test_comma_list_covers_multiple_codes(self):
        result = self.lint_source(
            """\
            import time

            def f(mapping):
                # repro: allow-D003,D005 demo: both waived by one comment
                return [time.time() for _ in mapping.values()]
            """
        )
        self.assertEqual(result.findings, [])
        self.assertTrue(all(s.used for s in result.suppressions))

    def test_syntax_error_reported_as_meta(self):
        result = self.lint_source("def broken(:\n")
        self.assertEqual([f.code for f in result.findings], ["D000"])

    def test_unknown_select_code_raises(self):
        with self.assertRaises(ValueError):
            select_rules(["D999"])


class TestSanctionedDirs(unittest.TestCase):
    """D003's directory allowance: ``repro/obs`` reads the host clock for
    provenance timestamps; the same code anywhere else still fires."""

    WALLCLOCK = textwrap.dedent(
        """\
        import time

        def stamp():
            return time.strftime("%Y", time.localtime())
        """
    )

    def setUp(self):
        import tempfile

        self._tmpdir = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmpdir.name)
        self.addCleanup(self._tmpdir.cleanup)

    def lint_at(self, relpath):
        path = self.tmp / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.WALLCLOCK)
        return lint_file(str(path), select_rules(["D003"]))

    def test_obs_dir_is_exempt(self):
        result = self.lint_at("src/repro/obs/manifest_like.py")
        self.assertEqual(result.findings, [])

    def test_d003_still_fires_outside_obs(self):
        result = self.lint_at("src/repro/ecosystem/snippet.py")
        self.assertEqual([f.code for f in result.findings], ["D003"])

    def test_obs_as_plain_name_fragment_not_exempt(self):
        # 'repro/obs' must match whole path components, not substrings.
        result = self.lint_at("src/repro/observatory/snippet.py")
        self.assertEqual([f.code for f in result.findings], ["D003"])

    def test_util_perf_suffix_is_exempt(self):
        result = self.lint_at("src/repro/util/perf.py")
        self.assertEqual(result.findings, [])


class TestReporting(unittest.TestCase):
    def test_json_schema(self):
        report = lint_paths([str(FIXTURES)], all_rules(), root=str(REPO_ROOT))
        payload = json.loads(format_json(report))
        self.assertEqual(payload["version"], 1)
        self.assertEqual(len(payload["findings"]), payload["summary"]["findings"])
        self.assertEqual(payload["summary"]["files"], report.files)
        self.assertEqual(payload["summary"]["by_rule"], report.by_rule)
        first = payload["findings"][0]
        self.assertEqual(
            sorted(first), ["code", "col", "hint", "line", "message", "path"]
        )

    def test_write_summary_artifact(self):
        import tempfile

        report = lint_paths([str(FIXTURES)], all_rules(), root=str(REPO_ROOT))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "BENCH_lint.json"
            write_summary(report, str(out))
            payload = json.loads(out.read_text())
        self.assertEqual(payload["version"], 1)
        self.assertEqual(payload["findings"], len(report.findings))
        self.assertEqual(payload["suppressions_used"], report.suppressions_used)


class TestShippedTree(unittest.TestCase):
    """The codebase itself must hold the discipline the linter enforces."""

    def test_src_tree_is_clean_via_api(self):
        report = lint_paths(
            [str(REPO_ROOT / "src")], all_rules(), root=str(REPO_ROOT)
        )
        self.assertEqual(
            [f.format_text() for f in report.findings], [],
            "shipped src/ tree must lint clean",
        )
        self.assertEqual(report.suppressions_unused, 0)

    def test_benchmarks_tree_is_clean_via_api(self):
        report = lint_paths(
            [str(REPO_ROOT / "benchmarks")], all_rules(), root=str(REPO_ROOT)
        )
        self.assertEqual([f.format_text() for f in report.findings], [])


class TestCommandLine(unittest.TestCase):
    """End-to-end through ``python -m repro lint`` as CI invokes it."""

    def test_shipped_tree_exits_zero(self):
        proc = run_cli("src/")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("repro.lint: ok", proc.stdout)

    def test_fixture_tree_exits_nonzero(self):
        proc = run_cli("tests/lint_fixtures/")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("22 finding(s)", proc.stdout)

    def test_unknown_select_exits_two(self):
        proc = run_cli("src/", "--select", "D999")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("unknown rule code", proc.stderr)

    def test_missing_path_exits_two(self):
        proc = run_cli("no/such/dir")
        self.assertEqual(proc.returncode, 2)

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for code in registered_codes():
            self.assertIn(code, proc.stdout)

    def test_json_output_parses(self):
        proc = run_cli("tests/lint_fixtures/", "--format", "json")
        self.assertEqual(proc.returncode, 1)
        payload = json.loads(proc.stdout)
        self.assertEqual(payload["version"], 1)
        self.assertEqual(payload["summary"]["findings"], 22)


def imported_modules(*argv):
    """Run ``python -X importtime *argv``; return it and the modules it
    imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    names = {line.rsplit("|", 1)[-1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc, names


class TestStartup(unittest.TestCase):
    """The analyzer needs only ``ast``: neither importing it nor the
    ``lint`` command may load the study stack's numpy."""

    def test_import_skips_numpy(self):
        proc, names = imported_modules("-c", "import repro.lint")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIn("repro.lint", names)
        self.assertNotIn("numpy", names)

    def test_cli_skips_numpy(self):
        proc, names = imported_modules("-m", "repro", "lint", "--list-rules")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIn("repro.cli", names)
        self.assertNotIn("numpy", names)

    def test_package_still_exports_the_study_runner(self):
        import repro
        from repro import StudyResults, StudyRun
        from repro.study import StudyResults as results_class
        from repro.study import StudyRun as run_class

        self.assertIs(StudyRun, run_class)
        self.assertIs(StudyResults, results_class)
        with self.assertRaises(AttributeError):
            repro.NoSuchName


if __name__ == "__main__":
    unittest.main()
