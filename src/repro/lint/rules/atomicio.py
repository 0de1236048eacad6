"""D011 — atomic artifact writes.

Every artifact this repo emits (psrs.jsonl, tables, trace exports,
checkpoints, disk-cache entries) is a file another process — CI's
``cmp``, a resumed run, a warm-started cache — will read back and trust
byte-for-byte.  A raw write-mode ``open()`` tears on a crash: the reader
sees a half-written file with a valid name, which is strictly worse than
no file at all (a truncated checkpoint resumes garbage).

The sanctioned writer is :func:`repro.util.atomicio.atomic_write`:
temp file in the target directory, fsync, then ``os.replace`` — readers
see the old complete bytes or the new complete bytes, never a mix.
This rule flags ``open()`` calls whose mode creates or truncates
(``w``/``a``/``x``, and ``+`` update modes); read-mode opens are fine.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.core import Finding, Rule, dotted_name

_WRITE_CHARS = frozenset("wax+")


def _call_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of an ``open()`` call, if statically known."""
    mode_node: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode_node = keyword.value
                break
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


class AtomicWriteRule(Rule):
    """D011: raw write-mode ``open()`` instead of ``atomic_write``."""

    code = "D011"
    name = "atomic-write"
    hint = (
        "write files through repro.util.atomicio.atomic_write "
        "(temp file + fsync + rename; readers never see a torn file)"
    )
    node_types = (ast.Call,)

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        if dotted_name(node.func) != "open":
            return
        mode = _call_mode(node)
        if mode is None or not (_WRITE_CHARS & set(mode)):
            return
        yield self.finding(path, node, (
            f"raw open(..., {mode!r}) can leave a torn file on a crash — "
            f"write through atomic_write"
        ))
