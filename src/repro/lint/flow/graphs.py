"""Cross-module resolution: import graph + call graph over summaries.

This is the only place with a whole-program view.  It links the
module-local :class:`~repro.lint.flow.summarize.ModuleSummary` records
into:

* an **import graph** (internal modules only);
* a **call graph** of :class:`Edge` records — direct calls, constructor
  calls (to ``__init__``), method calls resolved through the class /
  attribute binder (with base-class walking), and ``may-call`` edges for
  internal callables passed as arguments (a task function handed to
  ``apply_async`` will be *executed* by pool machinery we never see, so
  passing it counts as calling it);
* ``spawn`` edges to functions dispatched via pool spawn methods
  (``apply_async``/``submit``/``map*``) or a ``Pool(initializer=...)``
  keyword — they run in a worker, so their effects stay there;
* **RNG stream sites** — ``.get("<literal>")`` calls whose receiver
  provably descends from a ``RandomStreams`` root, grouped by
  (namespace, stream name) for D105.

Resolution is best-effort and conservative: an unresolved call produces
no edge (counted in ``unresolved_calls``), never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.flow.summarize import ModuleSummary

#: Pool dispatch methods whose first callable argument runs in a worker.
SPAWN_METHODS = frozenset(
    ("apply_async", "apply", "submit", "map", "map_async", "starmap", "imap", "imap_unordered")
)

#: Parameter names assumed to carry the seeded RandomStreams root.
_STREAMS_PARAMS = frozenset(("streams", "rng_streams"))

_MAX_RESOLVE_DEPTH = 12


@dataclass
class Edge:
    caller: str  #: fully-qualified caller, e.g. "repro.analysis.ablations._run_variant"
    callee: str
    line: int  #: line in the *caller's* module
    module: str  #: caller's module (dotted)
    recv_global: str | None = None  #: "defmodule:NAME" when the receiver is a module-level instance
    kind: str = "call"  #: "call" | "may-call" | "spawn"

    def to_dict(self) -> dict:
        return {
            "caller": self.caller,
            "callee": self.callee,
            "line": self.line,
            "module": self.module,
            "recv_global": self.recv_global,
            "kind": self.kind,
        }


@dataclass
class StreamSite:
    module: str
    qual: str  #: function containing the call
    line: int
    namespace: str  #: "/".join(child path), "" for the root
    name: str  #: the stream name literal

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "qual": self.qual,
            "line": self.line,
            "namespace": self.namespace,
            "name": self.name,
        }


@dataclass
class Program:
    """Linked whole-program view over a set of module summaries."""

    summaries: dict  # module -> ModuleSummary
    functions: dict = field(default_factory=dict)  # qual -> (module, FunctionSummary)
    classes: dict = field(default_factory=dict)  # qual -> (module, ClassSummary)
    import_edges: dict = field(default_factory=dict)  # module -> sorted [module]
    edges: list = field(default_factory=list)
    stream_sites: list = field(default_factory=list)
    unresolved_calls: int = 0

    def path_of(self, module: str) -> str:
        return self.summaries[module].path

    def edges_from(self, qual: str) -> list:
        return self._by_caller.get(qual, [])

    def function(self, qual: str):
        entry = self.functions.get(qual)
        return entry[1] if entry else None

    def module_of(self, qual: str) -> str | None:
        entry = self.functions.get(qual)
        return entry[0] if entry else None

    def finalize(self) -> None:
        self._by_caller: dict[str, list] = {}
        for edge in self.edges:
            self._by_caller.setdefault(edge.caller, []).append(edge)


def link(summaries: dict) -> Program:
    """Build the linked :class:`Program` from per-module summaries."""
    program = Program(summaries=summaries)
    linker = _Linker(program)
    linker.run()
    program.finalize()
    return program


class _Linker:
    def __init__(self, program: Program):
        self.program = program
        self.summaries = program.summaries

    # -- indexing -----------------------------------------------------------

    def run(self) -> None:
        program = self.program
        for module, summary in sorted(self.summaries.items()):
            for qual, fn in summary.functions.items():
                program.functions[f"{module}.{qual}"] = (module, fn)
            for name, cls in summary.classes.items():
                program.classes[f"{module}.{name}"] = (module, cls)
            imported = set()
            for info in summary.imports.values():
                target = info["module"]
                if target in self.summaries and target != module:
                    imported.add(target)
                elif info["kind"] == "object":
                    # "from repro.perf import diskcache" style
                    sub = f"{target}.{info['name']}"
                    if sub in self.summaries and sub != module:
                        imported.add(sub)
            program.import_edges[module] = sorted(imported)

        for module, summary in sorted(self.summaries.items()):
            for qual in sorted(summary.functions):
                self._link_function(module, summary, qual)

    # -- name resolution ----------------------------------------------------

    def _resolve_name(self, module: str, name: str, depth: int = 0):
        """Resolve a bare name in a module's namespace.

        Returns ("func", qual) | ("class", qual) | ("binding", module, name)
        | ("module", dotted) | None.
        """
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        summary = self.summaries.get(module)
        if summary is None:
            return None
        if name in summary.functions:
            return ("func", f"{module}.{name}")
        if name in summary.classes:
            return ("class", f"{module}.{name}")
        if name in summary.bindings:
            return ("binding", module, name)
        info = summary.imports.get(name)
        if info is None:
            # Package attribute access: repro.perf -> repro.perf.diskcache.
            if f"{module}.{name}" in self.summaries:
                return ("module", f"{module}.{name}")
            return None
        if info["kind"] == "module":
            return ("module", info["module"])
        target_module = info["module"]
        if target_module in self.summaries:
            resolved = self._resolve_name(target_module, info["name"], depth + 1)
            if resolved is not None:
                return resolved
            sub = f"{target_module}.{info['name']}"
            if sub in self.summaries:
                return ("module", sub)
        return None

    def _lookup_method(self, class_qual: str, method: str, depth: int = 0) -> str | None:
        """Find ``method`` on a class or its (internal) bases."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        entry = self.program.classes.get(class_qual)
        if entry is None:
            return None
        module, cls = entry
        if method in cls.methods:
            return f"{module}.{cls.name}.{method}"
        for base in cls.bases:
            resolved = self._resolve_dotted_target(module, base)
            if resolved is not None and resolved[0] == "class":
                found = self._lookup_method(resolved[1], method, depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_dotted_target(self, module: str, dotted: str):
        """Resolve a dotted chain to ("func"|"class", qual) or
        ("binding", module, name) or None."""
        parts = dotted.split(".")
        current = self._resolve_name(module, parts[0])
        for part in parts[1:]:
            if current is None:
                return None
            kind = current[0]
            if kind == "module":
                current = self._resolve_name(current[1], part)
            elif kind == "class":
                found = self._lookup_method(current[1], part)
                current = ("func", found) if found else None
            elif kind == "binding":
                # attribute access on a module-global instance
                qual = self._method_on_binding(current[1], current[2], part)
                current = ("func", qual) if qual else None
            else:
                return None
        return current

    def _binding_class(self, module: str, name: str, depth: int = 0) -> str | None:
        """Class qual of a module-level instance binding, if derivable."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        summary = self.summaries.get(module)
        if summary is None:
            return None
        info = summary.bindings.get(name)
        if info is None:
            return None
        return self._class_of_bindinfo(module, info, depth)

    def _class_of_bindinfo(self, module: str, info: dict, depth: int = 0) -> str | None:
        if depth > _MAX_RESOLVE_DEPTH or not isinstance(info, dict):
            return None
        kind = info.get("kind")
        if kind == "construct":
            resolved = self._resolve_dotted_target(module, info["name"])
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            return None
        if kind == "name-ref":
            return self._binding_class(module, info["name"], depth + 1)
        return None

    def _method_on_binding(self, module: str, name: str, method: str) -> str | None:
        class_qual = self._binding_class(module, name)
        if class_qual is None:
            return None
        return self._lookup_method(class_qual, method)

    # -- streams ------------------------------------------------------------

    def _streams_base(self, module: str, info: dict, depth: int = 0):
        """(is_streams, namespace_path | None) for a receiver bind info."""
        if depth > _MAX_RESOLVE_DEPTH or not isinstance(info, dict):
            return (False, None)
        kind = info.get("kind")
        if kind == "construct":
            if info["name"].split(".")[-1] == "RandomStreams":
                return (True, [])
            resolved = self._resolve_dotted_target(module, info["name"])
            if (
                resolved is not None
                and resolved[0] == "class"
                and resolved[1].split(".")[-1] == "RandomStreams"
            ):
                return (True, [])
            return (False, None)
        if kind == "param":
            if info.get("name") in _STREAMS_PARAMS:
                return (True, [])
            return (False, None)
        if kind == "name-ref":
            summary = self.summaries.get(module)
            if summary is not None and info["name"] in summary.bindings:
                return self._streams_base(module, summary.bindings[info["name"]], depth + 1)
            return (False, None)
        if kind == "self-attr":
            attr_info = self._self_attr_info(module, info)
            if attr_info is not None:
                return self._streams_base(module, attr_info, depth + 1)
            return (False, None)
        if kind == "child-const":
            is_streams, path = self._streams_base(module, info.get("base") or {}, depth + 1)
            if is_streams:
                return (True, (path or []) + list(info.get("path", [])))
            return (False, None)
        return (False, None)

    def _self_attr_info(self, module: str, info: dict) -> dict | None:
        cls_name = info.get("cls")
        attr = info.get("attr")
        summary = self.summaries.get(module)
        if summary is None or cls_name not in summary.classes:
            return None
        return summary.classes[cls_name].attrs.get(attr)

    # -- per-function linking -----------------------------------------------

    def _link_function(self, module: str, summary: ModuleSummary, qual: str) -> None:
        program = self.program
        fn = summary.functions[qual]
        caller = f"{module}.{qual}"
        owner_class = qual.split(".")[0] if "." in qual else None

        for site in fn.calls:
            consumed_args: set[str] = set()

            # Worker dispatch: pool.apply_async(task, ...) / initializer=.
            if site.method in SPAWN_METHODS and site.arg_refs:
                target = self._resolve_callable_ref(module, owner_class, site.arg_refs[0])
                if target is not None:
                    program.edges.append(
                        Edge(caller, target[0], site.line, module, target[1], "spawn")
                    )
                    consumed_args.add(site.arg_refs[0])
            if site.initializer_ref:
                target = self._resolve_callable_ref(module, owner_class, site.initializer_ref)
                if target is not None:
                    program.edges.append(
                        Edge(caller, target[0], site.line, module, target[1], "spawn")
                    )
                    consumed_args.add(site.initializer_ref)

            resolved = self._resolve_site(module, owner_class, site, caller)
            if resolved == "stream":
                pass  # recorded as a stream site, not an edge
            elif resolved is not None:
                callee, recv_global = resolved
                program.edges.append(Edge(caller, callee, site.line, module, recv_global))
            else:
                program.unresolved_calls += 1

            # Callables passed as arguments become may-call edges.
            for ref in site.arg_refs:
                if ref in consumed_args:
                    continue
                target = self._resolve_callable_ref(module, owner_class, ref)
                if target is not None:
                    program.edges.append(
                        Edge(caller, target[0], site.line, module, target[1], "may-call")
                    )

    def _resolve_callable_ref(self, module: str, owner_class: str | None, ref: str):
        """Resolve an argument ref to (func_qual, recv_global) if it names
        an internal function, bound method, or callable-instance class."""
        if ref.startswith("self.") and owner_class is not None:
            summary = self.summaries[module]
            parts = ref.split(".")
            if len(parts) == 2:
                # self.method or self.attr (callable instance)
                found = self._lookup_method(f"{module}.{owner_class}", parts[1])
                if found is not None:
                    return (found, None)
                attr_info = self._self_attr_info(
                    module, {"cls": owner_class, "attr": parts[1]}
                )
                return self._callable_from_bindinfo(module, attr_info)
            if len(parts) == 3 and owner_class in summary.classes:
                # self.attr.method
                attr_info = summary.classes[owner_class].attrs.get(parts[1])
                class_qual = self._class_of_bindinfo(module, attr_info or {})
                if class_qual is not None:
                    found = self._lookup_method(class_qual, parts[2])
                    if found is not None:
                        return (found, None)
            return None
        resolved = self._resolve_dotted_target(module, ref)
        if resolved is None:
            return None
        if resolved[0] == "func":
            return (resolved[1], None)
        if resolved[0] == "class":
            found = self._lookup_method(resolved[1], "__call__")
            if found is not None:
                return (found, None)
        if resolved[0] == "binding":
            recv = f"{resolved[1]}:{resolved[2]}"
            class_qual = self._binding_class(resolved[1], resolved[2])
            if class_qual is not None:
                found = self._lookup_method(class_qual, "__call__")
                if found is not None:
                    return (found, recv)
        return None

    def _callable_from_bindinfo(self, module: str, info: dict | None):
        class_qual = self._class_of_bindinfo(module, info or {})
        if class_qual is None:
            return None
        found = self._lookup_method(class_qual, "__call__")
        if found is not None:
            return (found, None)
        return None

    def _resolve_site(self, module: str, owner_class: str | None, site, caller: str):
        """Resolve one call site to (callee_qual, recv_global), the string
        "stream" for RNG-stream plumbing, or None."""
        program = self.program

        # Stream .get()/.child() first: these are plumbing, not edges.
        if site.method in ("get", "child") and site.recv is not None:
            is_streams, path = self._streams_base(module, site.recv)
            if is_streams:
                if site.method == "get" and site.str_arg0 is not None:
                    program.stream_sites.append(
                        StreamSite(
                            module=module,
                            qual=caller,
                            line=site.line,
                            namespace="/".join(path or []),
                            name=site.str_arg0,
                        )
                    )
                return "stream"

        # Methods on self: self.m() / self.attr.m().
        if (
            site.dotted is not None
            and site.dotted.startswith("self.")
            and owner_class is not None
        ):
            parts = site.dotted.split(".")
            class_qual = f"{module}.{owner_class}"
            if len(parts) == 2:
                found = self._lookup_method(class_qual, parts[1])
                if found is not None:
                    return (found, None)
                # self._fetch(...): a callable instance bound to an attr.
                attr_info = self._self_attr_info(
                    module, {"cls": owner_class, "attr": parts[1]}
                )
                return self._callable_from_bindinfo(module, attr_info)
            if len(parts) == 3:
                attr_info = self._self_attr_info(
                    module, {"cls": owner_class, "attr": parts[1]}
                )
                attr_class = self._class_of_bindinfo(module, attr_info or {})
                if attr_class is not None:
                    found = self._lookup_method(attr_class, parts[2])
                    if found is not None:
                        return (found, None)
            return None

        # Bare name call: helper() / Class().
        if site.dotted is not None and "." not in site.dotted:
            resolved = self._resolve_name(module, site.dotted)
            if resolved is None:
                return None
            if resolved[0] == "func":
                return (resolved[1], None)
            if resolved[0] == "class":
                found = self._lookup_method(resolved[1], "__init__")
                if found is not None:
                    return (found, None)
            return None

        # Pure dotted chain: mod.helper() / mod.OBJ.m() / Class.m().
        if site.dotted is not None:
            resolved = self._resolve_dotted_target(module, site.dotted)
            if resolved is not None and resolved[0] == "func":
                recv_global = self._dotted_recv_global(module, site.dotted)
                return (resolved[1], recv_global)
            if resolved is not None and resolved[0] == "class":
                found = self._lookup_method(resolved[1], "__init__")
                if found is not None:
                    return (found, None)

        # Receiver-classified method call.
        if site.method is not None and site.recv is not None:
            return self._resolve_method_on(module, site.recv, site.method)
        return None

    def _dotted_recv_global(self, module: str, dotted: str) -> str | None:
        """recv_global for chains like ``perf.PERF.count`` / ``PERF.count``."""
        parts = dotted.split(".")
        if len(parts) < 2:
            return None
        # Walk to the second-to-last component and check it is a binding.
        prefix = parts[:-1]
        current = self._resolve_name(module, prefix[0])
        for part in prefix[1:]:
            if current is None or current[0] != "module":
                break
            current = self._resolve_name(current[1], part)
        else:
            if current is not None and current[0] == "binding":
                return f"{current[1]}:{current[2]}"
        return None

    def _resolve_method_on(self, module: str, recv: dict, method: str):
        kind = recv.get("kind")
        if kind == "name-ref":
            resolved = self._resolve_name(module, recv["name"])
            if resolved is None:
                return None
            if resolved[0] == "binding":
                recv_global = f"{resolved[1]}:{resolved[2]}"
                class_qual = self._binding_class(resolved[1], resolved[2])
                if class_qual is not None:
                    found = self._lookup_method(class_qual, method)
                    if found is not None:
                        return (found, recv_global)
                return None
            if resolved[0] == "class":
                found = self._lookup_method(resolved[1], method)
                if found is not None:
                    return (found, None)
            if resolved[0] == "module":
                resolved_fn = self._resolve_name(resolved[1], method)
                if resolved_fn is not None and resolved_fn[0] == "func":
                    return (resolved_fn[1], None)
            return None
        if kind == "self-attr":
            # Method on self: self.m() arrives as recv {"kind": "self-attr"}?
            # No — self.m() is a dotted=None method call with recv self-attr
            # only for self.<attr>.m(); plain self.m() has recv kind unknown
            # (Name "self" is a param).  Handle the attr case:
            attr_info = self._self_attr_info(module, recv)
            if attr_info is None:
                return None
            class_qual = self._class_of_bindinfo(module, attr_info)
            if class_qual is not None:
                found = self._lookup_method(class_qual, method)
                if found is not None:
                    return (found, None)
            return None
        if kind == "param" and recv.get("name") == "self":
            return None  # resolved via the dotted "self.m" path instead
        if kind == "construct":
            resolved = self._resolve_dotted_target(module, recv["name"])
            if resolved is not None and resolved[0] == "class":
                found = self._lookup_method(resolved[1], method)
                if found is not None:
                    return (found, None)
            return None
        if kind == "get-result":
            return "stream" if method else None
        return None
