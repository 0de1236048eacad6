"""Per-module summaries for the flow analyzer.

One :class:`ModuleSummary` is extracted per source file and is the unit
of incremental caching: it must be derivable from the module source
alone (no cross-module lookups — those happen in
:mod:`repro.lint.flow.graphs`) and must round-trip through JSON so the
digest cache can store it.

A summary records, per function (methods included, nested defs and
lambdas folded into their enclosing function):

* **base effects** — effects evident in the body itself: writes to
  module globals / ``self`` / parameters, wall-clock reads, raw RNG
  calls, ``id()``, filesystem IO, iteration over sets;
* **call sites** — with the receiver classified through a lightweight
  binder (parameter, local, ``self`` attribute, module-level binding,
  dotted import chain) so method calls can be resolved cross-module
  later, plus any internal callables passed as arguments (a task
  function handed to ``apply_async`` is a call edge in every sense that
  matters here);
* **declared contracts** — ``# repro: effects=...`` comments, parsed
  with the same tokenize approach as the waiver machinery.

Classes record their bases and a binder of ``self.<attr>`` assignments
so ``self._fetcher.fetch(...)`` can be resolved to the bound class.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Effect kinds
# ---------------------------------------------------------------------------

MUTATES_GLOBAL = "mutates-global"
MUTATES_SELF = "mutates-self"
MUTATES_PARAM = "mutates-param"
WALLCLOCK = "wallclock"
RAW_RNG = "raw-rng"
IDENTITY = "identity"
IO_EFFECT = "io"
UNORDERED_ITER = "unordered-iter"

EFFECT_KINDS = (
    MUTATES_GLOBAL,
    MUTATES_SELF,
    MUTATES_PARAM,
    WALLCLOCK,
    RAW_RNG,
    IDENTITY,
    IO_EFFECT,
    UNORDERED_ITER,
)

#: Contract levels a function may declare: ``pure`` forbids every kind.
CONTRACTS = ("pure",)

CONTRACT_FORBIDS = {"pure": frozenset(EFFECT_KINDS)}

# Wall-clock reads, matched after import resolution (same set D003 uses,
# minus the monotonic clocks).
_WALLCLOCK_CALLS = frozenset(
    (
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    )
)

# Raw (unseeded, process-global) RNG sources.
_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
_RNG_EXACT = frozenset(("uuid.uuid4", "os.urandom"))
# Seeded-generator constructors are the *discipline*, not a violation:
# random.Random(seed) / PCG64(seed) own their reproducible stream.
_RNG_SEEDED_CONSTRUCTORS = frozenset(
    (
        "random.Random",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
    )
)

# Filesystem / network IO (write-capable entries marked in the witness).
_IO_CALLS = frozenset(
    (
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.mkdir",
        "os.rmdir",
    )
)
_IO_PREFIXES = ("shutil.", "socket.", "subprocess.", "urllib.request.")

# Mutating container/object methods (superset of the D007 list).
_MUTATING_METHODS = frozenset(
    (
        "append",
        "add",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
        "popleft",
        "write",
        "writelines",
    )
)

_ANNOTATION_RE = re.compile(
    r"#\s*repro:\s*effects=(?P<value>[\w-]+)\s*$"
)

# ---------------------------------------------------------------------------
# Summary records
# ---------------------------------------------------------------------------


def _witness(line: int, detail: str) -> dict:
    return {"line": line, "detail": detail}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    #: dotted name when the callee is a plain ``Name``/``Attribute`` chain
    #: (``"helper"``, ``"mod.helper"``, ``"a.b.c"``); None for computed calls.
    dotted: str | None = None
    #: method name when the callee is ``<expr>.m(...)`` with a non-trivial
    #: receiver; the receiver is then classified in ``recv``.
    method: str | None = None
    #: receiver bind info for method calls (see ``classify`` kinds).
    recv: dict | None = None
    #: literal string first argument, when present (``.get("traffic")``).
    str_arg0: str | None = None
    #: dotted refs of Name/Attribute arguments (callables passed along).
    arg_refs: list = field(default_factory=list)
    #: dotted ref of the ``initializer=`` keyword, when present.
    initializer_ref: str | None = None

    def to_dict(self) -> dict:
        return {
            "line": self.line,
            "dotted": self.dotted,
            "method": self.method,
            "recv": self.recv,
            "str_arg0": self.str_arg0,
            "arg_refs": self.arg_refs,
            "initializer_ref": self.initializer_ref,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CallSite":
        return cls(**data)


@dataclass
class FunctionSummary:
    qualname: str  # module-relative: "f" or "Class.m"
    lineno: int
    params: list = field(default_factory=list)
    #: kind -> witness dict; MUTATES_GLOBAL instead maps target "mod:name"
    #: -> witness under the "targets" key.
    base_effects: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)
    declared: str | None = None  # "pure"
    declared_line: int | None = None

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "params": self.params,
            "base_effects": self.base_effects,
            "calls": [c.to_dict() for c in self.calls],
            "declared": self.declared,
            "declared_line": self.declared_line,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        data = dict(data)
        data["calls"] = [CallSite.from_dict(c) for c in data["calls"]]
        return cls(**data)


@dataclass
class ClassSummary:
    name: str
    lineno: int
    bases: list = field(default_factory=list)  # dotted names, module-local
    #: ``self.<attr> = <expr>`` binder: attr -> bind info dict.
    attrs: dict = field(default_factory=dict)
    methods: list = field(default_factory=list)  # method names

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "bases": self.bases,
            "attrs": self.attrs,
            "methods": self.methods,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassSummary":
        return cls(**data)


@dataclass
class ModuleSummary:
    module: str  # dotted module name, e.g. "repro.perf.cache"
    path: str
    #: local name -> {"kind": "module", "module": dotted} or
    #: {"kind": "object", "module": dotted, "name": str}
    imports: dict = field(default_factory=dict)
    #: module-level assignment binder: name -> bind info dict.
    bindings: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)  # qualname -> FunctionSummary
    classes: dict = field(default_factory=dict)  # name -> ClassSummary
    #: problems met while summarizing: {"kind": "syntax"|"annotation",
    #: "line": int, "message": str}
    errors: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "path": self.path,
            "imports": self.imports,
            "bindings": self.bindings,
            "functions": {q: f.to_dict() for q, f in sorted(self.functions.items())},
            "classes": {n: c.to_dict() for n, c in sorted(self.classes.items())},
            "errors": self.errors,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        data = dict(data)
        data["functions"] = {
            q: FunctionSummary.from_dict(f) for q, f in data["functions"].items()
        }
        data["classes"] = {
            n: ClassSummary.from_dict(c) for n, c in data["classes"].items()
        }
        return cls(**data)


# ---------------------------------------------------------------------------
# Annotation comments (tokenize pass, mirrors the waiver collector)
# ---------------------------------------------------------------------------


def collect_annotations(source: str) -> dict:
    """Map line numbers to flow annotations found in comments.

    Returns ``{line: {"kind": "effects", "value": str}}``.  Unknown
    ``effects=`` values are kept verbatim so D104 can flag them at the
    declaration site.
    """
    annotations: dict[int, dict] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ANNOTATION_RE.match(tok.string.strip())
            if not match:
                continue
            annotations[tok.start[0]] = {
                "kind": "effects",
                "value": match.group("value"),
            }
    except tokenize.TokenError:
        pass
    return annotations


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` as a string for pure Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_name(node: ast.AST) -> str | None:
    """Leftmost Name of an attribute/subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


class _FunctionExtractor:
    """Walk one function body (nested defs folded in) collecting base
    effects, call sites, and a local-variable binder."""

    def __init__(
        self,
        summary: FunctionSummary,
        module_names: set,
        owner_class: str | None,
        imports: dict | None = None,
    ):
        self.fn = summary
        self.module_names = module_names  # names bound at module level
        self.owner_class = owner_class
        self.imports = imports or {}
        self.params = set(summary.params)
        self.globals_declared: set[str] = set()
        self.locals: dict[str, dict] = {}
        self.set_locals: set[str] = set()

    def _canonical(self, dotted: str | None) -> str | None:
        """Expand the root of a dotted name through the import table so
        ``from time import time`` matches ``time.time``."""
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        info = self.imports.get(root)
        if info is None:
            return dotted
        if info["kind"] == "module":
            base = info["module"]
        else:
            base = f"{info['module']}.{info['name']}"
        return f"{base}.{rest}" if rest else base

    # -- effect recording ---------------------------------------------------

    def _add_effect(self, kind: str, line: int, detail: str) -> None:
        effects = self.fn.base_effects
        if kind == MUTATES_GLOBAL:
            raise ValueError("use _add_global_effect")
        effects.setdefault(kind, _witness(line, detail))

    def _add_global_effect(self, name: str, line: int, detail: str) -> None:
        targets = self.fn.base_effects.setdefault(MUTATES_GLOBAL, {"targets": {}})
        targets["targets"].setdefault(name, _witness(line, detail))

    def _record_store(self, target: ast.AST, line: int) -> None:
        root = _root_name(target)
        if isinstance(target, ast.Name):
            # Plain rebind of a local is not an effect unless declared global.
            if target.id in self.globals_declared:
                self._add_global_effect(target.id, line, f"assign {target.id}")
            return
        if root is None:
            return
        if root == "self" and self.owner_class is not None:
            self._add_effect(MUTATES_SELF, line, _dotted_name(target) or "self")
        elif root in self.params:
            self._add_effect(MUTATES_PARAM, line, root)
        elif root in self.locals or root in self.set_locals:
            pass
        elif root in self.module_names or root in self.globals_declared:
            self._add_global_effect(root, line, f"store into {root}")

    def _record_mutating_call(self, recv: ast.AST, method: str, line: int) -> None:
        root = _root_name(recv)
        detail = f".{method}()"
        if root is None:
            return
        if root == "self" and self.owner_class is not None:
            self._add_effect(MUTATES_SELF, line, f"self...{detail}")
        elif root in self.params:
            self._add_effect(MUTATES_PARAM, line, f"{root}{detail}")
        elif root in self.locals or root in self.set_locals:
            pass
        elif root in self.module_names or root in self.globals_declared:
            self._add_global_effect(root, line, f"{root}{detail}")

    # -- binder -------------------------------------------------------------

    def classify(self, node: ast.AST, depth: int = 0) -> dict:
        """Bind info for an expression, for receiver/attr resolution.

        Kinds produced here (module-local; cross-module meaning assigned
        in graphs.py): ``construct`` (call of a Name/Attribute — likely a
        class), ``param``, ``name-ref`` (module-level name), ``self-attr``,
        ``dotted-ref``, ``child-const`` / ``child-dyn`` / ``get-result``
        (RNG stream plumbing), ``set``, ``unknown``.
        """
        if depth > 6:
            return {"kind": "unknown"}
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.locals:
                return self.locals[name]
            if name in self.set_locals:
                return {"kind": "set"}
            if name in self.params:
                return {"kind": "param", "name": name}
            if name in self.module_names:
                return {"kind": "name-ref", "name": name}
            return {"kind": "unknown"}
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                if self.owner_class is not None:
                    return {
                        "kind": "self-attr",
                        "cls": self.owner_class,
                        "attr": node.attr,
                    }
            dotted = _dotted_name(node)
            if dotted is not None:
                return {"kind": "dotted-ref", "dotted": dotted}
            return {"kind": "unknown"}
        if isinstance(node, ast.Call):
            func_dotted = _dotted_name(node.func)
            if func_dotted in ("set", "frozenset"):
                return {"kind": "set"}
            if isinstance(node.func, ast.Attribute):
                base = self.classify(node.func.value, depth + 1)
                method = node.func.attr
                if method == "child":
                    arg = node.args[0] if node.args else None
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        path = list(base.get("path", [])) if base.get("kind") == "child-const" else []
                        return {"kind": "child-const", "base": _strip(base), "path": path + [arg.value]}
                    return {"kind": "child-dyn"}
                if method == "get":
                    return {"kind": "get-result", "base": _strip(base)}
            if func_dotted is not None:
                return {"kind": "construct", "name": func_dotted}
            return {"kind": "unknown"}
        if _is_set_expr(node):
            return {"kind": "set"}
        return {"kind": "unknown"}

    def _bind_local(self, target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        info = self.classify(value)
        if info.get("kind") == "set" or _is_set_expr(value):
            self.set_locals.add(target.id)
            self.locals.pop(target.id, None)
        else:
            self.locals[target.id] = info
            self.set_locals.discard(target.id)

    # -- calls --------------------------------------------------------------

    def _external_effects(self, dotted: str | None, line: int) -> bool:
        """Record wallclock/RNG/IO/identity effects for well-known calls.

        Returns True when the call was consumed as an external effect
        source (no call-site record needed)."""
        if dotted is None:
            return False
        if dotted == "id":
            self._add_effect(IDENTITY, line, "id()")
            return True
        if dotted == "open":
            self._add_effect(IO_EFFECT, line, "open")
            return True
        if dotted in _WALLCLOCK_CALLS:
            self._add_effect(WALLCLOCK, line, dotted)
            return True
        if dotted in _RNG_EXACT or (
            dotted.startswith(_RNG_PREFIXES) and dotted not in _RNG_SEEDED_CONSTRUCTORS
        ):
            self._add_effect(RAW_RNG, line, dotted)
            return True
        if dotted in _IO_CALLS or dotted.startswith(_IO_PREFIXES):
            self._add_effect(IO_EFFECT, line, dotted)
            return True
        return False

    def _open_mode(self, node: ast.Call) -> str:
        for idx, arg in enumerate(node.args):
            if idx == 1 and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                return str(kw.value.value)
        return "r"

    def _record_call(self, node: ast.Call) -> None:
        line = node.lineno
        raw_dotted = _dotted_name(node.func)
        resolved_dotted = raw_dotted
        if raw_dotted is not None and _root_name(node.func) not in self.locals:
            resolved_dotted = self._canonical(raw_dotted)
        if self._external_effects(resolved_dotted, line):
            if resolved_dotted == "open":
                mode = self._open_mode(node)
                if any(ch in mode for ch in "wax+"):
                    self.fn.base_effects[IO_EFFECT] = _witness(line, f"open:{mode}")
            return

        site = CallSite(line=line)
        if isinstance(node.func, ast.Attribute) and raw_dotted is None:
            # Computed receiver: <expr>.m(...)
            site.method = node.func.attr
            site.recv = self.classify(node.func.value)
        elif isinstance(node.func, ast.Attribute):
            # Pure dotted chain a.b.m(...): keep both views — graphs.py
            # prefers dotted resolution and falls back to receiver+method.
            site.dotted = raw_dotted
            site.method = node.func.attr
            site.recv = self.classify(node.func.value)
        elif isinstance(node.func, ast.Name):
            site.dotted = raw_dotted
        else:
            return  # computed callee — nothing to resolve

        if node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                site.str_arg0 = first.value
        for arg in node.args:
            ref = _dotted_name(arg)
            if ref is not None and not isinstance(arg, ast.Constant):
                site.arg_refs.append(ref)
        for kw in node.keywords:
            ref = _dotted_name(kw.value)
            if ref is None:
                continue
            site.arg_refs.append(ref)
            if kw.arg == "initializer":
                site.initializer_ref = ref

        # Mutating method on a classified receiver is also a base effect.
        if site.method in _MUTATING_METHODS and isinstance(node.func, ast.Attribute):
            self._record_mutating_call(node.func.value, site.method, line)
        self.fn.calls.append(site)

    # -- walk ---------------------------------------------------------------

    def walk(self, body: list) -> None:
        # Pre-order, source-ordered traversal: locals must be bound before
        # later statements that use them (e.g. a set assigned then iterated).
        stack = list(reversed(body))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record_store(target, node.lineno)
                    self._bind_local(target, node.value)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if node.value is not None or isinstance(node, ast.AugAssign):
                    self._record_store(node.target, node.lineno)
                    if node.value is not None:
                        self._bind_local(node.target, node.value)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._record_store(target, node.lineno)
            elif isinstance(node, ast.Call):
                self._record_call(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iteration(node.iter, node.iter.lineno)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    self._check_iteration(gen.iter, getattr(gen.iter, "lineno", node.lineno))
            elif isinstance(node, ast.withitem):
                pass

            children: list = []
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    # Fold nested callables into the encloser: their params
                    # join the param set (conservative) and bodies are walked.
                    if isinstance(child, ast.Lambda):
                        children.append(child.body)
                    else:
                        self.params.update(a.arg for a in _all_args(child.args))
                        children.extend(child.body)
                    continue
                if isinstance(child, ast.ClassDef):
                    continue  # classes nested in functions: out of scope
                children.append(child)
            stack.extend(reversed(children))

    def _check_iteration(self, iter_node: ast.AST, line: int) -> None:
        if _is_set_expr(iter_node):
            self._add_effect(UNORDERED_ITER, line, "iterating a set expression")
            return
        if isinstance(iter_node, ast.Name) and iter_node.id in self.set_locals:
            self._add_effect(UNORDERED_ITER, line, f"iterating set {iter_node.id!r}")


def _strip(info: dict) -> dict:
    """Bound the nesting of stored bind infos (cache-size hygiene)."""
    if info.get("kind") in ("child-const", "get-result") and isinstance(info.get("base"), dict):
        base = dict(info["base"])
        base.pop("base", None)
        info = dict(info)
        info["base"] = base
    return info


def _all_args(args: ast.arguments) -> list:
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg:
        out.append(args.vararg)
    if args.kwarg:
        out.append(args.kwarg)
    return out


# ---------------------------------------------------------------------------
# Module summarization
# ---------------------------------------------------------------------------


def _module_level_names(tree: ast.Module) -> set:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Tuple):
                    names.update(e.id for e in target.elts if isinstance(e, ast.Name))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _resolve_relative(module: str, node: ast.ImportFrom) -> str | None:
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _apply_annotations(summary: ModuleSummary, annotations: dict, def_lines: dict) -> None:
    """Attach ``effects=`` comments to functions.

    A comment binds to the def on the same line, or to a def on the next
    line when it stands alone above the signature."""
    for line, ann in sorted(annotations.items()):
        qual = def_lines.get(line) or def_lines.get(line + 1)
        if qual is None:
            summary.errors.append(
                {
                    "kind": "annotation",
                    "line": line,
                    "message": "flow annotation is not attached to a function def",
                }
            )
            continue
        fn = summary.functions[qual]
        fn.declared = ann["value"]
        fn.declared_line = line


def summarize_module(module: str, path: str, source: str) -> ModuleSummary:
    """Extract the flow summary for one module's source text."""
    summary = ModuleSummary(module=module, path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        summary.errors.append(
            {"kind": "syntax", "line": exc.lineno or 1, "message": f"syntax error: {exc.msg}"}
        )
        return summary

    module_names = _module_level_names(tree)
    def_lines: dict[int, str] = {}

    # Imports first: external-effect matching inside function bodies
    # canonicalizes through this table regardless of statement order.
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    summary.imports[alias.asname] = {"kind": "module", "module": alias.name}
                else:
                    # "import a.b.c" binds the root package; submodules are
                    # reached by attribute walking during resolution.
                    root = alias.name.split(".")[0]
                    summary.imports[root] = {"kind": "module", "module": root}
        elif isinstance(node, ast.ImportFrom):
            resolved = _resolve_relative(module, node)
            if resolved is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = {
                    "kind": "object",
                    "module": resolved,
                    "name": alias.name,
                }

    for node in tree.body:
        if isinstance(node, ast.Assign):
            extractor = _FunctionExtractor(
                FunctionSummary(qualname="<module>", lineno=node.lineno),
                module_names,
                None,
                summary.imports,
            )
            info = extractor.classify(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    summary.bindings[target.id] = info
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _summarize_function(summary, node, node.name, module_names, None, def_lines, summary.imports)
        elif isinstance(node, ast.ClassDef):
            _summarize_class(summary, node, module_names, def_lines, summary.imports)

    _apply_annotations(summary, collect_annotations(source), def_lines)
    return summary


def _summarize_function(
    summary: ModuleSummary,
    node: ast.FunctionDef,
    qualname: str,
    module_names: set,
    owner_class: str | None,
    def_lines: dict,
    imports: dict,
) -> None:
    fn = FunctionSummary(
        qualname=qualname,
        lineno=node.lineno,
        params=[a.arg for a in _all_args(node.args)],
    )
    extractor = _FunctionExtractor(fn, module_names, owner_class, imports)
    extractor.walk(node.body)
    summary.functions[qualname] = fn
    def_lines[node.lineno] = qualname
    # Decorated defs: the annotation comment may sit above the first
    # decorator, so map that line too.
    if node.decorator_list:
        first = min(d.lineno for d in node.decorator_list)
        def_lines.setdefault(first, qualname)
        def_lines.setdefault(first - 1, qualname)


def _summarize_class(
    summary: ModuleSummary,
    node: ast.ClassDef,
    module_names: set,
    def_lines: dict,
    imports: dict,
) -> None:
    cls = ClassSummary(name=node.name, lineno=node.lineno)
    for base in node.bases:
        dotted = _dotted_name(base)
        if dotted is not None:
            cls.bases.append(dotted)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods.append(item.name)
            qual = f"{node.name}.{item.name}"
            _summarize_function(summary, item, qual, module_names, node.name, def_lines, imports)
            _collect_self_attrs(summary.functions[qual], item, cls, module_names, node.name, imports)
    summary.classes[node.name] = cls


def _collect_self_attrs(
    fn: FunctionSummary,
    node: ast.FunctionDef,
    cls: ClassSummary,
    module_names: set,
    owner_class: str,
    imports: dict,
) -> None:
    """Record ``self.<attr> = <expr>`` bindings into the class binder."""
    extractor = _FunctionExtractor(
        FunctionSummary(qualname=fn.qualname, lineno=fn.lineno, params=list(fn.params)),
        module_names,
        owner_class,
        imports,
    )
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                extractor._bind_local(target, stmt.value)
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info = extractor.classify(stmt.value)
                    cls.attrs.setdefault(target.attr, _strip(info))
