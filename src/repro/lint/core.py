"""Visitor core for ``repro.lint``.

The analyzer walks each file's AST once, dispatching every node to the
rules that registered interest in its type (:attr:`Rule.node_types`).
During the walk each child node gets a ``parent`` backlink so rules can
climb enclosing expressions (e.g., D005's ``sorted(...)`` guard).

A waiver is the one way to exempt a line::

    stamp = time.time()  # repro: allow-D003 provenance only, never simulation state

It names the rule code (``allow-D003`` or a comma list
``allow-D003,D005``) and carries a written reason, and applies to
findings on its own line or, when written as a standalone comment, on
the line directly below it.  A waiver with no reason, one naming a code
no rule has, and one that waives nothing are each reported under the
``D000`` meta-code, which no waiver covers.
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
#: linted file, malformed or stale waivers) — never waivable.
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


_WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow-(?P<codes>D\d{3}(?:\s*,\s*D\d{3})*)\s*(?P<reason>.*?)\s*$"
)


@dataclass
class Waiver:
    """A parsed ``# repro: allow-D00x <reason>`` comment."""

    line: int
    col: int
    codes: Tuple[str, ...]
    standalone: bool  #: comment-only line (waives the line below too)
    used: set = field(default_factory=set)  #: codes that waived a finding

    def covers(self, finding: Finding) -> bool:
        if finding.code not in self.codes:
            return False
        if finding.line == self.line:
            return True
        return self.standalone and finding.line == self.line + 1


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def imported_aliases(tree: ast.Module, module: str) -> set:
    """Names ``import <module> [as x]`` binds in ``tree``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == module
    }


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`code` (stable ``D00x`` identifier), a short
    :attr:`name`, a one-line fix :attr:`hint` and the AST
    :attr:`node_types` they want dispatched.
    """

    code: str = META_CODE
    name: str = ""
    hint: str = ""
    node_types: Tuple[type, ...] = ()

    def begin_module(self, tree: ast.Module) -> None:
        """Called before the walk; collect module-level facts here."""

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        return ()

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            hint=self.hint,
        )


def _meta(path: str, line: int, col: int, message: str) -> Finding:
    return Finding(path=path, line=line, col=col, code=META_CODE, message=message)


def _collect_waivers(
    path: str, source: str, known: Sequence[str]
) -> Tuple[List[Waiver], List[Finding]]:
    waivers: List[Waiver] = []
    problems: List[Finding] = []
    try:
        comments = [
            (tok.start[0], tok.start[1], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        return waivers, problems
    lines = source.splitlines()
    for lineno, col, text in comments:
        match = _WAIVER_RE.match(text)
        if match is None:
            continue
        codes = tuple(code.strip() for code in match.group("codes").split(","))
        if not match.group("reason"):
            problems.append(_meta(path, lineno, col, (
                f"waiver for {','.join(codes)} has no reason; "
                "write '# repro: allow-D00x <why this is safe>'"
            )))
            continue
        unknown = [code for code in codes if code not in known]
        if unknown:
            problems.append(_meta(path, lineno, col, (
                f"waiver names unknown rule {','.join(unknown)} "
                f"(rules: {', '.join(known)})"
            )))
            continue
        standalone = lines[lineno - 1][:col].strip() == ""
        waivers.append(Waiver(line=lineno, col=col, codes=codes,
                              standalone=standalone))
    return waivers, problems


def _run_rules(rules: Sequence[Rule], tree: ast.Module, path: str) -> List[Finding]:
    dispatch: Dict[type, List[Rule]] = {}
    for rule in rules:
        rule.begin_module(tree)
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    findings: List[Finding] = []
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.visit_node(node, path))
        for child in ast.iter_child_nodes(node):
            child.parent = node  # backlink for ancestor-sensitive rules
            stack.append(child)
    return findings


@dataclass
class FileResult:
    findings: List[Finding] = field(default_factory=list)
    waivers_used: int = 0


def lint_file(path: str, rules: Sequence[Rule],
              display_path: Optional[str] = None) -> FileResult:
    """Lint one file: parse, walk, apply waivers."""
    shown = (display_path or path).replace(os.sep, "/")
    result = FileResult()
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(_meta(shown, exc.lineno or 1, exc.offset or 0,
                                     f"syntax error: {exc.msg}"))
        return result
    waivers, kept = _collect_waivers(shown, source, [rule.code for rule in rules])
    for finding in _run_rules(rules, tree, shown):
        waiver = next((w for w in waivers if w.covers(finding)), None)
        if waiver is None:
            kept.append(finding)
        else:
            waiver.used.add(finding.code)
    for waiver in waivers:
        stale = [code for code in waiver.codes if code not in waiver.used]
        if stale:
            kept.append(_meta(shown, waiver.line, waiver.col, (
                f"waiver for {','.join(stale)} waives nothing; delete it"
            )))
        result.waivers_used += len(waiver.used)
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
    """Aggregated outcome of one lint run."""

    findings: List[Finding]
    files: int
    rules: int
    waivers_used: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def format_text(self) -> str:
        """One ``path:line: D00x message`` row per finding, then a summary."""
        status = "ok" if self.ok else f"{len(self.findings)} finding(s)"
        summary = (
            f"repro.lint: {status} in {self.files} file(s) "
            f"({self.rules} rules, {self.waivers_used} waiver(s) used)"
        )
        return "\n".join([f.format_text() for f in self.findings] + [summary])


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
    for path in files:
        display = os.path.relpath(path, base) if os.path.isabs(path) else path
        result = lint_file(path, rules, display_path=display)
        findings.extend(result.findings)
        used += result.waivers_used
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return LintReport(findings=findings, files=len(files), rules=len(rules),
                      waivers_used=used)
