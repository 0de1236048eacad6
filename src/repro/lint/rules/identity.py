"""D004 — ``id()`` used as a key or membership token.

The bug class PR 1 actually hit: CPython recycles object ids as soon as
the object is collected, so an ``id()``-keyed cache (or an id-set used to
filter later) can silently alias a dead object's key to a newly allocated
one.  Key containers by a stable attribute instead (an entry id assigned
at insertion, a schedule's group key, a host name).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, Rule

#: Mapping/set methods whose first argument is a key/member.
_KEYED_METHODS = frozenset({
    "get", "setdefault", "pop", "add", "discard", "remove",
})


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
        and not node.keywords
    )


def _yields_ids(node: ast.AST) -> bool:
    """An expression producing a stream of ids: ``(id(e) for ...)``,
    ``[id(e) for ...]``, or ``map(id, ...)``."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return _is_id_call(node.elt)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "map"
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "id"
    ):
        return True
    return False


class IdentityKeyRule(Rule):
    """D004: ``id(x)`` as dict key, set member, or membership probe."""

    code = "D004"
    name = "id-as-key"
    hint = "key by a stable identity attribute; CPython recycles ids after GC"
    node_types = (
        ast.Subscript, ast.Call, ast.Compare,
        ast.Dict, ast.DictComp, ast.Set, ast.SetComp,
    )

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        if isinstance(node, ast.Subscript):
            if _is_id_call(node.slice):
                yield self.finding(path, node, "id() used as a subscript key")
            return
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _KEYED_METHODS
                and node.args
                and _is_id_call(node.args[0])
            ):
                yield self.finding(
                    path, node, f"id() passed as the key to .{func.attr}()"
                )
            elif (
                isinstance(func, ast.Name)
                and func.id in ("set", "frozenset", "dict")
                and node.args
                and (_is_id_call(node.args[0]) or _yields_ids(node.args[0]))
            ):
                yield self.finding(
                    path, node, f"{func.id}() built from id() values"
                )
            return
        if isinstance(node, ast.Compare):
            if _is_id_call(node.left) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                yield self.finding(
                    path, node, "membership test on id() values"
                )
            return
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and _is_id_call(key):
                    yield self.finding(path, key, "id() used as a dict-literal key")
            return
        if isinstance(node, ast.DictComp):
            if _is_id_call(node.key):
                yield self.finding(path, node, "id() used as a dict-comprehension key")
            return
        if isinstance(node, ast.Set):
            for elt in node.elts:
                if _is_id_call(elt):
                    yield self.finding(path, elt, "id() used as a set-literal member")
            return
        if isinstance(node, ast.SetComp):
            if _is_id_call(node.elt):
                yield self.finding(path, node, "set comprehension over id() values")
