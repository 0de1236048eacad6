"""``repro.lint`` — AST-based determinism & concurrency-safety analyzer.

The reproduction's claims rest on bit-exact reruns (golden SERPs,
hash-seed- and cache-independent runs); this package enforces the hazard classes the
codebase has actually hit — most notably PR 1's ``id()``-recycling cache
bug — mechanically instead of by review.  Run it with::

    python -m repro lint src/ benchmarks/
    python -m repro lint --select D004,D005 --format json src/

Rules (each suppressible inline with ``# repro: allow-D00x <reason>``):

======  ==========================================================
D001    stdlib ``random`` use outside ``util/rng.py``/``util/randmath.py``
D002    ``np.random`` global-state API (only Generator/PCG64 allowed)
D003    wall-clock reads (``time.time``, ``datetime.now``) in simulation code
D004    ``id()`` as a dict key / set member (the PR 1 staleness class)
D005    set / dict-view iteration feeding ordered output without ``sorted``
D006    mutable default arguments
D007    module-level state written from ``ThreadPoolExecutor`` workers
D008    bare ``except:`` / ``except Exception: pass``
======  ==========================================================
"""

from repro.lint.core import (
    Finding,
    LintReport,
    Rule,
    discover_files,
    lint_file,
    lint_paths,
)
from repro.lint.registry import all_rules, register, registered_codes, select_rules
from repro.lint.reporting import (
    format_json,
    format_text,
    summary_dict,
    summary_line,
    write_summary,
)

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "discover_files",
    "format_json",
    "format_text",
    "lint_file",
    "lint_paths",
    "register",
    "registered_codes",
    "select_rules",
    "summary_dict",
    "summary_line",
    "write_summary",
]
