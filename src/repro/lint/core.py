"""Visitor core for ``repro.lint``.

The analyzer walks each file's AST once, dispatching every node to the
rules that registered interest in its type (:attr:`Rule.node_types`).
During the walk each child node gets a ``parent`` backlink so rules can
climb enclosing expressions (e.g., D005's ``sorted(...)`` guard).  Rules
needing a whole-module view (D007's executor/worker analysis) do their
work in :meth:`Rule.end_module` instead.

Findings can be waived inline::

    grouped[key] = ...  # repro: allow-D004 keys are live for the whole pass

A suppression must name the rule code (``allow-D004`` or a comma list
``allow-D004,D005``) and carry a written reason; a reason-less
suppression does not suppress anything and is itself reported under the
``D000`` meta-code.  A suppression applies to findings on its own line or,
when written as a standalone comment, on the line directly below it.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Meta-code for problems with the lint pass itself (syntax errors in a
#: linted file, malformed suppressions) — never selectable, never waivable.
META_CODE = "D000"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}: {self.code} {self.message}"
        if self.hint:
            text += f" [fix: {self.hint}]"
        return text

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }


_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow-(?P<codes>D\d{3}(?:\s*,\s*D\d{3})*)\s*(?P<reason>.*?)\s*$"
)


@dataclass
class Suppression:
    """A parsed ``# repro: allow-D00x <reason>`` comment."""

    path: str
    line: int
    codes: Tuple[str, ...]
    reason: str
    standalone: bool  #: comment-only line (waives the line below too)
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        if finding.code not in self.codes:
            return False
        if finding.line == self.line:
            return True
        return self.standalone and finding.line == self.line + 1


class LintContext:
    """Per-file state handed to every rule callback."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an Attribute/Subscript chain (``a`` in
    ``a.b[k].c``), else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`code` (stable ``D00x`` identifier), a short
    :attr:`name`, a one-line fix :attr:`hint`, the AST :attr:`node_types`
    they want dispatched, and optionally :attr:`exempt_suffixes` — path
    suffixes (posix form) where the rule does not apply (e.g., D001 is
    exempt inside the RNG discipline modules themselves) — and
    :attr:`exempt_dirs` — sanctioned directories (posix path fragments
    matched on whole components, e.g. ``repro/obs``) whose every file the
    rule skips.
    """

    code: str = META_CODE
    name: str = ""
    hint: str = ""
    node_types: Tuple[type, ...] = ()
    exempt_suffixes: Tuple[str, ...] = ()
    exempt_dirs: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        posix = path.replace(os.sep, "/")
        if any(posix.endswith(suffix) for suffix in self.exempt_suffixes):
            return False
        anchored = "/" + posix
        return not any(
            f"/{directory.strip('/')}/" in anchored
            for directory in self.exempt_dirs
        )

    def begin_module(self, tree: ast.Module, ctx: LintContext) -> None:
        """Called before the walk; collect module-level facts here."""

    def visit_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        return ()

    def end_module(self, tree: ast.Module, ctx: LintContext) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            hint=self.hint,
        )


def _collect_suppressions(path: str, source: str) -> Tuple[List[Suppression], List[Finding]]:
    suppressions: List[Suppression] = []
    problems: List[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.start[1], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        return suppressions, problems
    lines = source.splitlines()
    for lineno, col, text in comments:
        match = _SUPPRESSION_RE.match(text)
        if match is None:
            continue
        codes = tuple(
            code.strip() for code in match.group("codes").split(",")
        )
        reason = match.group("reason")
        standalone = lines[lineno - 1][:col].strip() == ""
        if not reason:
            problems.append(Finding(
                path=path, line=lineno, col=col, code=META_CODE,
                message=(
                    f"suppression for {','.join(codes)} has no reason; "
                    "write '# repro: allow-D00x <why this is safe>'"
                ),
            ))
            continue
        suppressions.append(Suppression(
            path=path, line=lineno, codes=codes, reason=reason,
            standalone=standalone,
        ))
    return suppressions, problems


def _run_rules(rules: Sequence[Rule], ctx: LintContext) -> List[Finding]:
    dispatch: Dict[type, List[Rule]] = {}
    for rule in rules:
        rule.begin_module(ctx.tree, ctx)
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    findings: List[Finding] = []
    stack: List[ast.AST] = [ctx.tree]
    while stack:
        node = stack.pop()
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.visit_node(node, ctx))
        for child in ast.iter_child_nodes(node):
            child.parent = node  # backlink for ancestor-sensitive rules
            stack.append(child)
    for rule in rules:
        findings.extend(rule.end_module(ctx.tree, ctx))
    return findings


@dataclass
class FileResult:
    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)


def lint_file(path: str, rules: Sequence[Rule], display_path: Optional[str] = None) -> FileResult:
    """Lint one file: parse, walk, apply suppressions."""
    shown = (display_path or path).replace(os.sep, "/")
    result = FileResult(path=shown)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(Finding(
            path=shown, line=exc.lineno or 1, col=exc.offset or 0,
            code=META_CODE, message=f"syntax error: {exc.msg}",
        ))
        return result
    suppressions, problems = _collect_suppressions(shown, source)
    result.suppressions = suppressions
    applicable = [rule for rule in rules if rule.applies_to(shown)]
    ctx = LintContext(shown, source, tree)
    raw = _run_rules(applicable, ctx)
    kept: List[Finding] = []
    for finding in raw:
        waiver = next((s for s in suppressions if s.covers(finding)), None)
        if waiver is not None:
            waiver.used = True
        else:
            kept.append(finding)
    kept.extend(problems)
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    result.findings = kept
    return result


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return sorted(dict.fromkeys(found))


@dataclass
class LintReport:
    """Aggregated outcome of one lint run (see :mod:`repro.lint.reporting`
    for the serialized schema)."""

    findings: List[Finding]
    files: int
    rule_codes: List[str]
    suppressions_used: int
    suppressions_unused: int
    unused_suppression_sites: List[Tuple[str, int]]

    @property
    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[Rule],
    root: Optional[str] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with the given rules."""
    files = discover_files(paths)
    base = root or os.getcwd()
    findings: List[Finding] = []
    used = 0
    unused_sites: List[Tuple[str, int]] = []
    active_codes = {rule.code for rule in rules}
    for path in files:
        display = os.path.relpath(path, base) if os.path.isabs(path) else path
        result = lint_file(path, rules, display_path=display)
        findings.extend(result.findings)
        for suppression in result.suppressions:
            if suppression.used:
                used += 1
            elif any(code in active_codes for code in suppression.codes):
                # A waiver is only "unused" when a rule it names actually
                # ran: `--select D004` must not flag allow-D005 sites.
                unused_sites.append((result.path, suppression.line))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return LintReport(
        findings=findings,
        files=len(files),
        rule_codes=[rule.code for rule in rules],
        suppressions_used=used,
        suppressions_unused=len(unused_sites),
        unused_suppression_sites=unused_sites,
    )
