"""D003 — wall-clock reads.

Simulated time is :class:`repro.util.simtime.SimDate`; reading the host
clock couples results to when (and where) a run happens.  Monotonic
timers used for perf measurement (``perf_counter``, ``monotonic``,
``process_time``) are explicitly allowed — they never feed simulation
state, only the PERF registry.  A provenance timestamp takes a waiver.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, Rule, dotted_name, imported_aliases

#: ``time.<func>`` reads of the host clock.
_TIME_FUNCS = frozenset({
    "time", "time_ns", "localtime", "gmtime", "ctime", "asctime",
})

#: Constructor-style reads on datetime/date objects.
_DATETIME_ATTRS = frozenset({"now", "today", "utcnow"})


class WallClockRule(Rule):
    """D003: ``time.time()`` / ``datetime.now()`` / ``date.today()``."""

    code = "D003"
    name = "wall-clock"
    hint = "use SimDate / world.today (repro.util.simtime); perf timing uses perf_counter"
    node_types = (ast.Call, ast.ImportFrom)

    def begin_module(self, tree: ast.Module) -> None:
        self.time_aliases = imported_aliases(tree, "time")

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name in _TIME_FUNCS:
                        yield self.finding(path, node, (
                            f"'from time import {alias.name}' imports a "
                            "wall-clock read"
                        ))
            return
        name = dotted_name(node.func)
        if name is None or "." not in name:
            return
        base, _, attr = name.rpartition(".")
        if base in self.time_aliases and attr in _TIME_FUNCS:
            yield self.finding(path, node, (
                f"wall-clock read time.{attr}()"
            ))
            return
        # datetime.datetime.now(), datetime.now(), date.today(), ...
        if attr in _DATETIME_ATTRS and base.split(".")[-1] in ("datetime", "date"):
            yield self.finding(path, node, (
                f"wall-clock read {base}.{attr}()"
            ))
