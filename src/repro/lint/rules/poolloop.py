"""D010 — process-pool construction inside a loop.

Pool startup is expensive: every worker is forked or spawned (a spawned
one re-imports the package), so constructing a pool inside a loop pays
that cost on every iteration and erases the parallel speedup.  The
sanctioned pattern is one pool per batch of independent work, built
once and reused for all of it (``run_intervention_ablations`` in
``analysis/ablations.py``).

The check is lexical: a ``multiprocessing.Pool`` / ``Pool`` /
``ThreadPool`` / ``*PoolExecutor`` construction whose nearest enclosing
statement chain reaches a ``for``/``while`` before leaving the current
function is flagged.  Pools built in helper functions that a loop calls
are out of scope (that is a profiling question, not a lexical one).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, LintContext, Rule, dotted_name
from repro.lint.registry import register

#: Final attribute names that construct a worker pool.
_POOL_NAMES = frozenset({"Pool", "ThreadPool"})
_POOL_SUFFIX = "PoolExecutor"

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)


@register
class PoolInLoopRule(Rule):
    """D010: a process pool constructed inside a per-day (or any) loop."""

    code = "D010"
    name = "pool-in-loop"
    hint = ("create one pool for the whole batch and reuse it "
            "(see repro.analysis.ablations.run_intervention_ablations)")
    node_types = (ast.Call,)

    def visit_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        last = name.rpartition(".")[2]
        if last not in _POOL_NAMES and not last.endswith(_POOL_SUFFIX):
            return
        parent = getattr(node, "parent", None)
        while parent is not None and not isinstance(parent, _SCOPE_NODES):
            if isinstance(parent, _LOOP_NODES):
                yield self.finding(ctx, node, (
                    f"worker pool {last}(...) constructed inside a loop — "
                    "pool startup (forking or spawning the workers) is "
                    "paid every iteration"
                ))
                return
            parent = getattr(parent, "parent", None)
