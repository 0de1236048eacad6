"""``repro.lint`` — per-file determinism rules.

The reproduction's claims rest on bit-exact reruns (golden SERPs,
hash-seed- and cache-independent runs).  Each rule here guards one bug
class that can make two runs of one seed differ and that no dynamic check
sees everywhere: ``tests/test_determinism.py`` runs only what
``repro run --preset small`` executes.  EXPERIMENTS.md ("Determinism
rules") records, per rule, the mutation only it catches.  Run it with::

    python -m repro lint src/ benchmarks/
    python -m repro lint --list-rules

Rules (a line is exempted only by ``# repro: allow-D00x <reason>``):

======  ==========================================================
D001    module-global or unseeded stdlib ``random``
D002    ``np.random`` global-state API (only Generator/PCG64 allowed)
D003    wall-clock reads (``time.time``, ``datetime.now``)
D004    ``id()`` as a dict key / set member (CPython recycles ids)
D005    set iteration feeding ordered output without ``sorted``
D006    mutable default arguments
D011    raw write-mode ``open()`` instead of ``atomic_write``
======  ==========================================================
"""

from repro.lint.core import Finding, LintReport, Rule, lint_file, lint_paths
from repro.lint.rules import RULES

__all__ = ["Finding", "LintReport", "RULES", "Rule", "lint_file", "lint_paths"]
