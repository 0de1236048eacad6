"""D005 — set iteration feeding ordered output.

Iterating a ``set`` gives hash order — PYTHONHASHSEED-dependent for
strings, so two runs of the same scenario can disagree.  The rule sees a
set it can recognise at the iteration site: ``set(...)``/``frozenset(...)``
calls, set literals and set comprehensions, not a set bound to a name.
Dicts iterate in insertion order, which is deterministic whenever the
inserts are, so dict views pass.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.core import Finding, Rule

#: Builtins whose output preserves iteration order.
_ORDERED_SINKS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: Accumulator methods that make a for-loop an ordered producer (a dict
#: keeps insertion order, so filling one in set order leaks hash order).
_ACCUMULATORS = frozenset({"append", "extend", "insert", "appendleft", "setdefault"})


def _accumulates(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Attribute) and func.attr in _ACCUMULATORS
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(target, ast.Subscript) for target in targets)
    return isinstance(node, (ast.Yield, ast.YieldFrom))


def _set_source(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it iterates in set order, else None."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    return None


def _source_of(node: ast.AST) -> Optional[str]:
    """Like :func:`_set_source`, also looking through one generator or
    list comprehension (``",".join(f(x) for x in s)``)."""
    direct = _set_source(node)
    if direct is not None:
        return direct
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)) and node.generators:
        return _set_source(node.generators[0].iter)
    return None


def _inside_sorted(node: ast.AST) -> bool:
    """True when an enclosing expression sorts (or order-insensitively
    reduces) the value before anything order-dependent sees it."""
    current = node
    while True:
        parent = getattr(current, "parent", None)
        if parent is None or isinstance(parent, ast.stmt):
            return False
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            if parent.func.id in ("sorted", "min", "max", "sum", "len", "any", "all"):
                return True
        current = parent


class SetIterationRule(Rule):
    """D005: set iteration flowing into ordered output."""

    code = "D005"
    name = "set-iteration"
    hint = "wrap the set in sorted(...) before anything order-dependent sees it"
    node_types = (ast.Call, ast.ListComp, ast.For)

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            func = node.func
            sink: Optional[str] = None
            if isinstance(func, ast.Name) and func.id in _ORDERED_SINKS:
                sink = f"{func.id}()"
            elif isinstance(func, ast.Attribute) and func.attr == "join":
                sink = "str.join()"
            if sink is None or not node.args:
                return
            source = _source_of(node.args[0])
            if source is not None and not _inside_sorted(node):
                yield self.finding(path, node, (
                    f"{sink} over a {source} fixes hash order into "
                    "ordered output"
                ))
            return
        if isinstance(node, ast.ListComp):
            if not node.generators:
                return
            source = _set_source(node.generators[0].iter)
            if source is not None and not _inside_sorted(node):
                yield self.finding(path, node, (
                    f"list comprehension over a {source} fixes hash order "
                    "into ordered output"
                ))
            return
        if isinstance(node, ast.For):
            source = _set_source(node.iter)
            if source is None:
                return
            if any(_accumulates(sub) for sub in ast.walk(node)):
                yield self.finding(path, node, (
                    f"loop over a {source} accumulates into ordered output"
                ))
