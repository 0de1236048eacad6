"""``repro.lint.flow`` — whole-program determinism analysis.

The per-file rules (D001–D011) are syntactic: each looks at one module's
AST and cannot see that an artifact writer calls, three modules away, a
helper that reads the wall clock.  This package checks such
whole-program contracts mechanically:

1. a **module import graph** and a **call graph** over the analyzed
   package (direct calls, method resolution through a lightweight
   class/attribute binder, callables passed as arguments);
2. an **effect-inference pass** that computes per-function effect sets
   (mutates-module-global, mutates-self/parameter, wall-clock reads,
   raw RNG sources, ``id()`` identity, filesystem IO, unordered set
   iteration) and propagates them transitively along call edges with
   fixpoint iteration;
3. interprocedural rules on top:

======  ===============================================================
D102    nondeterminism taint (wallclock / raw RNG / ``id()`` / unordered
        iteration) reaching an artifact writer
D104    declared effect contracts (``# repro: effects=pure``) verified
        against inferred effects
D105    cross-module aliasing of one seeded RNG stream
======  ===============================================================

Functions may declare contracts inline::

    # repro: effects=pure
    def digest(text):
        ...

Declared contracts are *trusted* during propagation (assume–guarantee:
a ``pure`` callee contributes no effects to its callers)
and independently *verified* by D104, so a wrong declaration surfaces at
the declaration site instead of poisoning every caller.  Findings are
waived with the same ``# repro: allow-D10x <reason>`` machinery the
shallow rules use.

Run it as ``python -m repro lint --deep`` (``--graph`` dumps the module/
call graph as JSON, ``--format sarif`` emits SARIF 2.1.0).  Warm runs are
incremental: per-module summaries are cached under a BLAKE2 content
digest (same scheme as :mod:`repro.perf.cache`), so only edited modules
re-summarize.
"""

from repro.lint.flow.analysis import (
    FlowReport,
    FlowStats,
    analyze_paths,
    deep_lint,
    graph_dump,
)
from repro.lint.flow.rules import all_flow_rules, flow_rule_codes, register_flow

__all__ = [
    "FlowReport",
    "FlowStats",
    "all_flow_rules",
    "analyze_paths",
    "deep_lint",
    "flow_rule_codes",
    "graph_dump",
    "register_flow",
]
