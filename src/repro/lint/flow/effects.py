"""Transitive effect inference over the call graph (worklist fixpoint).

Every function starts from the base effects its own body exhibits
(:mod:`repro.lint.flow.summarize`) and absorbs the effects of its
callees until nothing changes.  Propagation is *assume–guarantee*: a
callee that declares ``# repro: effects=pure`` contributes nothing to
its callers — the declaration is trusted here and independently
verified by rule D104, so a wrong annotation surfaces exactly at the
annotation site instead of poisoning the whole graph.

Per-kind contribution rules:

* ``mutates-self`` crosses a call edge only when the receiver is a
  module-level instance (``PERF.count()`` → the caller mutates the
  module global ``PERF``); mutation of locally-constructed receivers
  stays local.
* ``mutates-param`` never crosses (mapping arguments through call sites
  is beyond this analyzer; direct writes in the caller still count).
* everything else (``mutates-global``, ``wallclock``, ``raw-rng``,
  ``identity``, ``io``, ``unordered-iter``) propagates as-is.
* ``spawn`` edges do not propagate — the callee runs in a worker
  process, not in the caller's.

Each propagated effect keeps a ``via`` link (callee + call line), so a
finding can print the full witness chain down to the base effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.flow.graphs import Program
from repro.lint.flow.summarize import (
    CONTRACTS,
    MUTATES_GLOBAL,
    MUTATES_PARAM,
    MUTATES_SELF,
)

_MAX_TARGETS_PER_FN = 32
_MAX_CHAIN = 32


def _base_record(qual: str, module: str, witness: dict) -> dict:
    return {
        "line": witness["line"],
        "detail": witness["detail"],
        "origin": qual,
        "origin_module": module,
        "via": None,
        "via_line": None,
    }


def _via_record(rec: dict, callee: str, line: int) -> dict:
    return {
        "line": line,
        "detail": rec["detail"],
        "origin": rec["origin"],
        "origin_module": rec["origin_module"],
        "via": callee,
        "via_line": line,
    }


@dataclass
class EffectResult:
    """Converged per-function effect sets plus fixpoint metadata."""

    program: Program
    effects: dict = field(default_factory=dict)  # qual -> {kind: record}
    iterations: int = 0
    overflowed: list = field(default_factory=list)  # quals that hit the target cap

    def of(self, qual: str) -> dict:
        return self.effects.get(qual, {})

    def has(self, qual: str, kind: str) -> bool:
        return kind in self.effects.get(qual, {})

    def kinds(self, qual: str) -> list:
        return sorted(self.effects.get(qual, {}))

    def record(self, qual: str, kind: str, target: str | None = None) -> dict | None:
        entry = self.effects.get(qual, {}).get(kind)
        if entry is None:
            return None
        if kind == MUTATES_GLOBAL:
            targets = entry["targets"]
            if target is not None:
                return targets.get(target)
            # arbitrary-but-deterministic representative
            first = min(targets) if targets else None
            return targets.get(first) if first else None
        return entry

    def chain(self, qual: str, kind: str, target: str | None = None) -> list:
        """Witness chain ``[(qual, module, line, detail), ...]`` from
        ``qual`` down to the function exhibiting the base effect."""
        hops: list = []
        seen: set[str] = set()
        current = qual
        for _ in range(_MAX_CHAIN):
            if current in seen:
                break
            seen.add(current)
            rec = self.record(current, kind, target)
            if rec is None:
                break
            module = self.program.module_of(current) or rec["origin_module"]
            hops.append((current, module, rec["line"], rec["detail"]))
            if rec["via"] is None:
                break
            current = rec["via"]
        return hops


def trusted(fn) -> bool:
    """True when the function's declared contract suppresses propagation."""
    return fn is not None and fn.declared in CONTRACTS


def infer_effects(program: Program) -> EffectResult:
    """Run the worklist fixpoint and return converged effect sets."""
    result = EffectResult(program=program)
    effects = result.effects

    # Seed with base effects.
    for qual, (module, fn) in sorted(program.functions.items()):
        per_fn: dict = {}
        for kind, payload in fn.base_effects.items():
            if kind == MUTATES_GLOBAL:
                targets = {}
                for target, witness in payload["targets"].items():
                    # Module-local target names become "module:name".
                    full = target if ":" in target else f"{module}:{target}"
                    targets[full] = _base_record(qual, module, witness)
                per_fn[kind] = {"targets": targets}
            else:
                per_fn[kind] = _base_record(qual, module, payload)
        if per_fn:
            effects[qual] = per_fn

    # Reverse adjacency: callee -> [(caller, edge)].
    callers_of: dict[str, list] = {}
    for edge in program.edges:
        if edge.kind == "spawn":
            continue
        callers_of.setdefault(edge.callee, []).append(edge)

    # Worklist: start from every function that has effects.
    pending = sorted(effects)
    in_queue = set(pending)
    iterations = 0

    while pending:
        iterations += 1
        callee = pending.pop()
        in_queue.discard(callee)
        callee_fn = program.function(callee)
        if trusted(callee_fn):
            continue
        callee_effects = effects.get(callee)
        if not callee_effects:
            continue
        for edge in callers_of.get(callee, ()):
            caller = edge.caller
            if caller == callee:
                continue
            changed = _absorb(effects, caller, callee, edge, callee_effects, result)
            if changed and caller not in in_queue:
                pending.append(caller)
                in_queue.add(caller)

    result.iterations = iterations
    result.overflowed = sorted(set(result.overflowed))
    return result


def _absorb(effects, caller, callee, edge, callee_effects, result) -> bool:
    """Merge ``callee``'s effects into ``caller`` across one edge."""
    changed = False
    per_caller = effects.setdefault(caller, {})
    for kind, payload in callee_effects.items():
        if kind == MUTATES_PARAM:
            continue
        if kind == MUTATES_SELF:
            if edge.recv_global is None:
                continue
            targets = per_caller.setdefault(MUTATES_GLOBAL, {"targets": {}})["targets"]
            if edge.recv_global not in targets:
                if len(targets) >= _MAX_TARGETS_PER_FN:
                    result.overflowed.append(caller)
                    continue
                targets[edge.recv_global] = _via_record(payload, callee, edge.line)
                changed = True
            continue
        if kind == MUTATES_GLOBAL:
            targets = per_caller.setdefault(MUTATES_GLOBAL, {"targets": {}})["targets"]
            for target, rec in payload["targets"].items():
                if target in targets:
                    continue
                if len(targets) >= _MAX_TARGETS_PER_FN:
                    result.overflowed.append(caller)
                    break
                targets[target] = _via_record(rec, callee, edge.line)
                changed = True
            continue
        if kind not in per_caller:
            per_caller[kind] = _via_record(payload, callee, edge.line)
            changed = True
    mutates = per_caller.get(MUTATES_GLOBAL)
    if mutates is not None and not mutates["targets"]:
        del per_caller[MUTATES_GLOBAL]
    if not per_caller:
        effects.pop(caller, None)
    return changed
