"""Interprocedural rules D102, D104 and D105 over the linked program + effects.

Flow rules see the whole program at once (unlike :class:`repro.lint.core.Rule`,
which sees one file), so they register in their own registry and are run
by :func:`repro.lint.flow.analysis.analyze_paths`.  Findings reuse
:class:`repro.lint.core.Finding` and the same ``# repro: allow-D10x``
waiver machinery, anchored at the line each message names.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Type

from repro.lint.core import Finding
from repro.lint.flow.effects import EffectResult
from repro.lint.flow.graphs import Program
from repro.lint.flow.summarize import (
    CONTRACT_FORBIDS,
    CONTRACTS,
    IDENTITY,
    RAW_RNG,
    UNORDERED_ITER,
    WALLCLOCK,
)

#: Nondeterminism kinds that taint an artifact writer (D102).
TAINT_KINDS = (WALLCLOCK, RAW_RNG, IDENTITY, UNORDERED_ITER)

#: Origin locations whose wallclock/identity reads are sanctioned — the
#: observability layer stamps manifests by design (mirrors D003's exemption).
_SANCTIONED_ORIGIN_DIRS = ("repro/obs",)
_SANCTIONED_ORIGIN_SUFFIXES = ("util/perf.py",)

_FLOW_REGISTRY: Dict[str, Type["FlowRule"]] = {}


def register_flow(rule_cls: Type["FlowRule"]) -> Type["FlowRule"]:
    _FLOW_REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_flow_rules() -> List["FlowRule"]:
    return [_FLOW_REGISTRY[code]() for code in sorted(_FLOW_REGISTRY)]


def flow_rule_codes() -> List[str]:
    return sorted(_FLOW_REGISTRY)


class FlowRule:
    """One whole-program rule: sees the linked program and effect sets."""

    code: str = "D1xx"
    name: str = ""
    hint: str = ""

    def check(self, program: Program, effects: EffectResult) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, program: Program, module: str, line: int, message: str) -> Finding:
        return Finding(
            path=program.path_of(module),
            line=line,
            col=0,
            code=self.code,
            message=message,
            hint=self.hint,
        )


def _origin_sanctioned(program: Program, origin_module: str) -> bool:
    summary = program.summaries.get(origin_module)
    if summary is None:
        return False
    posix = summary.path.replace("\\", "/")
    if any(posix.endswith(suffix) for suffix in _SANCTIONED_ORIGIN_SUFFIXES):
        return True
    anchored = "/" + posix
    return any(f"/{d}/" in anchored for d in _SANCTIONED_ORIGIN_DIRS)


def _short(qual: str, program: Program) -> str:
    """``module:fn`` display form of a fully-qualified function."""
    module = program.module_of(qual)
    if module and qual.startswith(module + "."):
        return f"{module}:{qual[len(module) + 1:]}"
    return qual


def _effect_chain(effects: EffectResult, qual: str, kind: str, program: Program, target=None) -> str:
    hops = effects.chain(qual, kind, target)
    parts = []
    for hop_qual, module, line, detail in hops:
        parts.append(f"{_short(hop_qual, program)}:{line}")
    if hops:
        parts[-1] += f" ({hops[-1][3]})"
    return " -> ".join(parts)


@register_flow
class ArtifactTaintRule(FlowRule):
    """D102: nondeterminism must not reach an artifact writer.

    Sinks are functions that *directly* write — a write-mode ``open()``
    or a call to ``atomic_write`` (every psrs/golden-SERP/metrics/
    checkpoint path goes through it).  A sink whose transitive effect set
    carries wallclock / raw-RNG / ``id()`` / unordered-iteration taint
    would embed unreproducible bytes in an artifact.  Taint originating
    in the observability layer (manifest timestamps) is sanctioned,
    mirroring D003's exemption.
    """

    code = "D102"
    name = "artifact-writer-taint"
    hint = (
        "derive artifact content from seeded streams / simulated time only; "
        "manifest stamps belong in repro.obs"
    )

    def check(self, program: Program, effects: EffectResult) -> Iterable[Finding]:
        for qual in sorted(program.functions):
            module, fn = program.functions[qual]
            if not self._is_sink(program, qual, fn):
                continue
            for kind in TAINT_KINDS:
                rec = effects.of(qual).get(kind)
                if rec is None:
                    continue
                if _origin_sanctioned(program, rec["origin_module"]):
                    continue
                yield self.finding(
                    program,
                    module,
                    fn.lineno,
                    (
                        f"artifact writer {_short(qual, program)} is tainted by "
                        f"{kind}: {_effect_chain(effects, qual, kind, program)}"
                    ),
                )

    @staticmethod
    def _is_sink(program: Program, qual: str, fn) -> bool:
        witness = fn.base_effects.get("io")
        if witness is not None and witness["detail"].startswith("open:"):
            return True
        for edge in program.edges_from(qual):
            if edge.callee.rsplit(".", 1)[-1] == "atomic_write":
                return True
        return False


@register_flow
class ContractRule(FlowRule):
    """D104: declared effect contracts must match inferred effects.

    ``# repro: effects=pure`` forbids every effect kind.  The fixpoint
    *trusts* declarations, so this rule is what keeps a stale annotation
    from silently sanctioning a whole call subtree.
    """

    code = "D104"
    name = "effect-contract"
    hint = "fix the function or the annotation; waive with allow-D104 plus the invariant that makes it safe"

    def check(self, program: Program, effects: EffectResult) -> Iterable[Finding]:
        for module, summary in sorted(program.summaries.items()):
            for err in summary.errors:
                if err.get("kind") == "annotation":
                    yield self.finding(program, module, err["line"], err["message"])
            for qual_local in sorted(summary.functions):
                fn = summary.functions[qual_local]
                if fn.declared is None:
                    continue
                qual = f"{module}.{qual_local}"
                line = fn.declared_line or fn.lineno
                if fn.declared not in CONTRACTS:
                    yield self.finding(
                        program,
                        module,
                        line,
                        (
                            f"unknown effect contract {fn.declared!r} on "
                            f"{_short(qual, program)}; use one of {', '.join(CONTRACTS)}"
                        ),
                    )
                    continue
                forbidden = CONTRACT_FORBIDS[fn.declared]
                for kind in sorted(set(effects.kinds(qual)) & forbidden):
                    yield self.finding(
                        program,
                        module,
                        line,
                        (
                            f"{_short(qual, program)} declares effects={fn.declared} "
                            f"but is inferred to have {kind}: "
                            f"{_effect_chain(effects, qual, kind, program)}"
                        ),
                    )


@register_flow
class StreamAliasRule(FlowRule):
    """D105: one seeded RNG stream drawn from two modules.

    ``RandomStreams.get(name)`` returns the *same* seeded generator for a
    given (namespace, name); two modules sharing one stream couple their
    draw sequences — inserting a draw in one silently shifts the other,
    the exact failure class the per-stream discipline exists to prevent.
    Dynamic (per-instance) ``child(f"...")`` namespaces are skipped: they
    cannot alias across modules.
    """

    code = "D105"
    name = "rng-stream-aliasing"
    hint = "give each module its own stream name or a .child(...) namespace"

    def check(self, program: Program, effects: EffectResult) -> Iterable[Finding]:
        grouped: Dict[tuple, list] = {}
        for site in program.stream_sites:
            grouped.setdefault((site.namespace, site.name), []).append(site)
        for (namespace, name), sites in sorted(grouped.items()):
            modules = sorted({s.module for s in sites})
            if len(modules) < 2:
                continue
            owner = modules[0]
            label = f"{namespace}/{name}" if namespace else name
            for site in sorted(sites, key=lambda s: (s.module, s.line)):
                if site.module == owner:
                    continue
                yield self.finding(
                    program,
                    site.module,
                    site.line,
                    (
                        f"stream {label!r} drawn here in {_short(site.qual, program)} "
                        f"is also drawn in module {owner} — two modules share one "
                        f"seeded sequence"
                    ),
                )
