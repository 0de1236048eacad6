"""D006 — mutable default arguments.

A mutable default is one shared object across every call; state leaks
between calls that never passed the argument.  In a simulator that's a
cross-scenario contamination channel: run A's leftovers change run B's
draws.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, Rule, dotted_name

_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray",
    "defaultdict", "OrderedDict", "Counter", "deque",
})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


class MutableDefaultRule(Rule):
    """D006: ``def f(x, acc=[])`` / ``def f(x, cache={})``."""

    code = "D006"
    name = "mutable-default"
    hint = "default to None and create the container inside the function"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        label = (
            f"lambda at line {node.lineno}"
            if isinstance(node, ast.Lambda)
            else f"{node.name}()"
        )
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield Finding(
                    path=path,
                    line=default.lineno,
                    col=default.col_offset,
                    code=self.code,
                    message=(
                        f"mutable default argument in {label} is shared "
                        "across all calls"
                    ),
                    hint=self.hint,
                )
