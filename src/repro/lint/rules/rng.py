"""D001/D002 — RNG discipline.

Every draw in the simulator must come from a seeded generator: a named
stream (:class:`repro.util.rng.RandomStreams`), a ``random.Random(seed)``
or an explicit NumPy ``Generator(PCG64(seed))``.  Process-global or
entropy-seeded RNG state makes two runs of one seed differ.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.lint.core import Finding, Rule, dotted_name, imported_aliases

#: ``random.<func>`` calls that touch the hidden module-global Mersenne
#: Twister instance.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})


class StdlibRandomRule(Rule):
    """D001: module-global or unseeded stdlib ``random``.

    Flags module-global draws (``random.random()``, ``random.shuffle``, or
    any ``from random import <func>``) and unseeded constructions
    (``random.Random()`` with no arguments, ``random.SystemRandom``).  A
    seeded ``random.Random(seed)`` is deterministic and passes.
    """

    code = "D001"
    name = "stdlib-random"
    hint = "draw from a named RandomStreams stream or a seeded random.Random(seed)"
    node_types = (ast.Call, ast.ImportFrom)

    def begin_module(self, tree: ast.Module) -> None:
        self.random_aliases = imported_aliases(tree, "random")

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(path, node, (
                            f"'from random import {alias.name}' binds the "
                            "process-global RNG"
                        ))
            return
        name = dotted_name(node.func)
        if name is None or "." not in name:
            return
        base, _, attr = name.rpartition(".")
        if base not in self.random_aliases:
            return
        if attr in _GLOBAL_RANDOM_FUNCS:
            yield self.finding(path, node, (
                f"call to module-global random.{attr}() (hidden shared "
                "Mersenne Twister state)"
            ))
        elif attr == "SystemRandom":
            yield self.finding(path, node, (
                "random.SystemRandom draws from the OS entropy pool and can "
                "never be reproduced"
            ))
        elif attr == "Random" and not node.args and not node.keywords:
            yield self.finding(path, node, (
                "unseeded random.Random() — seeds itself from OS entropy"
            ))


class NumpyRandomRule(Rule):
    """D002: legacy/global ``numpy.random`` API.

    Only the explicit-state constructors (``Generator``, ``PCG64``,
    ``PCG64DXSM``, ``SeedSequence``) are allowed; ``np.random.seed``,
    ``np.random.rand`` and friends mutate or read the module-global
    ``RandomState``, and ``default_rng()`` hides the bit-generator choice
    behind a NumPy version default.
    """

    code = "D002"
    name = "numpy-random"
    hint = "use np.random.Generator(np.random.PCG64(seed))"
    node_types = (ast.Call, ast.ImportFrom)

    _ALLOWED = frozenset({"Generator", "PCG64", "PCG64DXSM", "SeedSequence"})

    def begin_module(self, tree: ast.Module) -> None:
        self.numpy_aliases: Set[str] = set()
        self.nprandom_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.nprandom_aliases.add(alias.asname)
                        else:
                            self.numpy_aliases.add("numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        self.nprandom_aliases.add(alias.asname or "random")

    def visit_node(self, node: ast.AST, path: str) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "numpy.random" and node.level == 0:
                for alias in node.names:
                    if alias.name not in self._ALLOWED:
                        yield self.finding(path, node, (
                            f"'from numpy.random import {alias.name}' binds "
                            "the legacy global-state API"
                        ))
            return
        name = dotted_name(node.func)
        if name is None or "." not in name:
            return
        base, _, attr = name.rpartition(".")
        parts = base.split(".")
        is_np_random = (
            base in self.nprandom_aliases
            or (len(parts) == 2 and parts[0] in self.numpy_aliases
                and parts[1] == "random")
        )
        if is_np_random and attr not in self._ALLOWED:
            yield self.finding(path, node, (
                f"np.random.{attr}() uses numpy's module-global RandomState "
                "(or a version-dependent default bit generator)"
            ))
