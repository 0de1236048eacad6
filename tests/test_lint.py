"""Tests for the ``repro.lint`` static analyzer.

Fixture files under ``tests/lint_fixtures/`` carry one rule each, with a
positive case (must fire), a negative case (must stay quiet), and a
waived case (fires but is waived by an inline
``# repro: allow-D00x <reason>`` comment).  The shipped ``src/`` tree
must lint clean — both through the API and through the real
``python -m repro lint`` entry point CI uses.
"""

import os
import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

from repro.lint import RULES, lint_file, lint_paths

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "lint_fixtures"
REPO_ROOT = TESTS_DIR.parent

#: Per-fixture ground truth: unwaived finding lines, by rule code.
EXPECTED = {
    "d001_random.py": ("D001", [7, 11]),
    "d002_nprandom.py": ("D002", [7, 11]),
    "d003_wallclock.py": ("D003", [8, 12, 16]),
    "d004_id_keys.py": ("D004", [5, 9, 13]),
    "d005_ordering.py": ("D005", [5, 9, 14, 21]),
    "d006_defaults.py": ("D006", [4]),
    "d011_atomicio.py": ("D011", [10, 15]),
}
FIXTURE_FINDINGS = sum(len(lines) for _, lines in EXPECTED.values())


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
                result = lint_file(str(FIXTURES / filename), RULES)
                got = [(f.code, f.line) for f in result.findings]
                self.assertEqual(got, [(code, line) for line in lines])

    def test_every_registered_rule_fires(self):
        report = lint_paths([str(FIXTURES)], RULES, root=str(REPO_ROOT))
        self.assertEqual(sorted({f.code for f in report.findings}),
                         [rule.code for rule in RULES])

    def test_fixture_totals(self):
        report = lint_paths([str(FIXTURES)], RULES, root=str(REPO_ROOT))
        self.assertEqual(len(report.findings), FIXTURE_FINDINGS)
        self.assertEqual(report.files, len(EXPECTED))
        # One waived case per fixture, none stale.
        self.assertEqual(report.waivers_used, len(EXPECTED))
        self.assertFalse(report.ok)


class TestSuppressions(unittest.TestCase):
    def setUp(self):
        self._tmpdir = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmpdir.name)
        self.addCleanup(self._tmpdir.cleanup)

    def lint_source(self, source, relpath="snippet.py"):
        path = self.tmp / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_file(str(path), RULES)

    def test_reasonless_suppression_does_not_suppress(self):
        result = self.lint_source(
            """\
            import time

            def stamp():
                return time.time()  # repro: allow-D003
            """
        )
        codes = [f.code for f in result.findings]
        # The D003 finding survives AND the malformed waiver is reported.
        self.assertIn("D003", codes)
        self.assertIn("D000", codes)

    def test_unused_suppression_is_counted(self):
        # A waiver left behind after its finding went away is a finding
        # itself, so the run fails until the comment is deleted.
        result = self.lint_source(
            """\
            # repro: allow-D005 left over from a removed set loop
            def f(x):
                return x
            """
        )
        self.assertEqual([(f.code, f.line) for f in result.findings], [("D000", 1)])
        self.assertIn("waives nothing", result.findings[0].message)
        self.assertEqual(result.waivers_used, 0)

    def test_unknown_code_in_waiver_is_a_finding(self):
        result = self.lint_source("x = 1  # repro: allow-D999 no such rule\n")
        self.assertEqual([(f.code, f.line) for f in result.findings], [("D000", 1)])
        self.assertIn("unknown rule D999", result.findings[0].message)

    def test_comma_list_covers_multiple_codes(self):
        result = self.lint_source(
            """\
            import time

            def f(items):
                # repro: allow-D003,D005 demo: both waived by one comment
                return [time.time() for _ in set(items)]
            """
        )
        self.assertEqual(result.findings, [])
        self.assertEqual(result.waivers_used, 2)

    def test_syntax_error_reported_as_meta(self):
        result = self.lint_source("def broken(:\n")
        self.assertEqual([f.code for f in result.findings], ["D000"])


class TestSanctionedDirs(unittest.TestCase):
    """No directory is exempt from a rule: the clock read in
    ``repro/obs/manifest.py`` passes by its waiver alone."""

    def test_d003_still_fires_outside_obs(self):
        for relpath in ("src/repro/ecosystem/snippet.py", "src/repro/obs/snippet.py"):
            with self.subTest(path=relpath), tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / relpath
                path.parent.mkdir(parents=True)
                path.write_text("import time\n\nSTAMP = time.localtime()\n")
                result = lint_file(str(path), RULES)
                self.assertEqual([f.code for f in result.findings], ["D003"])


class TestShippedTree(unittest.TestCase):
    """The codebase itself must hold the discipline the linter enforces."""

    def test_src_tree_is_clean_via_api(self):
        report = lint_paths([str(REPO_ROOT / "src")], RULES, root=str(REPO_ROOT))
        self.assertEqual(
            [f.format_text() for f in report.findings], [],
            "shipped src/ tree must lint clean",
        )
        # One waiver in the tree: the run manifest's provenance timestamp.
        self.assertEqual(report.waivers_used, 1)

    def test_benchmarks_tree_is_clean_via_api(self):
        report = lint_paths(
            [str(REPO_ROOT / "benchmarks")], RULES, root=str(REPO_ROOT)
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
        self.assertIn(f"{FIXTURE_FINDINGS} finding(s)", proc.stdout)

    def test_stale_waiver_exits_nonzero(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stale.py"
            path.write_text("x = 1  # repro: allow-D003 clock read since removed\n")
            proc = run_cli(str(path))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("D000 waiver for D003 waives nothing", proc.stdout)

    def test_missing_path_exits_two(self):
        proc = run_cli("no/such/dir")
        self.assertEqual(proc.returncode, 2)

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in RULES:
            self.assertIn(rule.code, proc.stdout)


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


#: A small study in a fresh interpreter, with the persistent cache tier
#: on, as perfbench's ``rerun-warm`` workload runs it.
_STUDY = """
import sys, tempfile
from repro import StudyRun
from repro.ecosystem import small_preset
from repro.perf.cache import set_disk_cache
with tempfile.TemporaryDirectory() as tmp:
    set_disk_cache(tmp)
    StudyRun(small_preset(days=14), classify={classify}).execute()
"""


class TestStudyImports(unittest.TestCase):
    """A study loads only what it runs: scipy only to classify, and
    networkx never."""

    def _imports(self, classify):
        proc, names = imported_modules("-c", _STUDY.format(classify=classify))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIn("repro.classify.features", names)
        return names

    def test_crawl_only_run_skips_scipy_and_networkx(self):
        names = self._imports(classify=False)
        self.assertFalse({n for n in names if n.split(".")[0] in ("scipy", "networkx")})

    def test_classifying_run_loads_scipy(self):
        names = self._imports(classify=True)
        self.assertIn("scipy", names)
        self.assertNotIn("networkx", names)


if __name__ == "__main__":
    unittest.main()
