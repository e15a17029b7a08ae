"""Determinism rules: keep artifact bytes independent of hash order,
process entropy, and wall-clock time.

The family exists because the byte-identity contract has been broken
twice by exactly these patterns (str-hash-order voting in PR 2, a
wall-clock epoch anchor in PR 8); each rule encodes one of those bug
classes so it is caught at diff time instead of in a golden-hash test
three PRs later.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.core import (
    FileContext,
    Finding,
    ImportMap,
    Rule,
    register_rule,
)
from repro.analysis.project import (
    RNG_EXEMPT_FILES,
    SERIALIZATION_PATHS,
    in_paths,
)

#: ``random`` module functions that consume the unseeded global stream.
_RANDOM_GLOBAL_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: ``numpy.random`` constructors that are fine *when given a seed*.
_NP_SEEDED_CTORS = frozenset({
    "default_rng", "Generator", "MT19937", "PCG64", "Philox",
    "SeedSequence", "SFC64",
})

#: Wall-clock reads (resolved dotted names).  ``time.perf_counter`` /
#: ``time.monotonic`` are the sanctioned interval clocks.
_WALL_CLOCK_CALLS = frozenset({
    "time.asctime",
    "time.ctime",
    "time.gmtime",
    "time.localtime",
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
})


def _set_expr_names(tree: ast.Module) -> (Set[str], Set[str]):
    """Names (locals and ``self.X`` attrs) assigned syntactic sets."""
    names: Set[str] = set()
    attrs: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None or not _is_set_literalish(value):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    attrs.add(target.attr)
    return names, attrs


def _is_set_literalish(node: ast.AST) -> bool:
    """A syntactic set: literal, comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register_rule
class SetIterationRule(Rule):
    """Iteration over a set in a serialization/voting path.

    Set iteration order follows the hash seed, so any set that flows
    into a digest, golden file, or vote tally must pass through
    ``sorted()`` first.  (Dicts are insertion-ordered since 3.7 and are
    not flagged.)  Membership tests, order-insensitive reductions
    (``min``/``max``/``sum``/``len``/``any``/``all``), and set
    comprehensions over sets (unordered in, unordered out) are fine.
    """

    name = "set-iteration"
    family = "determinism"
    description = ("unordered set iteration in a serialization path; "
                   "wrap in sorted()")

    _ORDER_SENSITIVE_CALLS = ("list", "tuple")
    _ORDER_INSENSITIVE_CALLS = ("sorted", "min", "max", "sum", "len",
                                "any", "all", "frozenset", "set")

    def check(self, ctx: FileContext) -> List[Finding]:
        if not in_paths(ctx.relpath, SERIALIZATION_PATHS):
            return []
        names, attrs = _set_expr_names(ctx.tree)

        def is_set(node: ast.AST) -> bool:
            if _is_set_literalish(node):
                return True
            if isinstance(node, ast.Name):
                return node.id in names
            return (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in attrs)

        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and is_set(node.iter):
                findings.append(ctx.finding(
                    self.name, node.iter,
                    "iterating a set directly; order follows the hash "
                    "seed — use sorted(...)"))
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # SetComp is exempt: a set built from a set stays
                # unordered, so no order leaks.
                for gen in node.generators:
                    if is_set(gen.iter):
                        findings.append(ctx.finding(
                            self.name, gen.iter,
                            "comprehension over a set; order follows the "
                            "hash seed — use sorted(...)"))
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name)
                        and func.id in self._ORDER_SENSITIVE_CALLS
                        and node.args and is_set(node.args[0])):
                    findings.append(ctx.finding(
                        self.name, node,
                        f"{func.id}() over a set preserves hash order — "
                        "use sorted(...)"))
                elif (isinstance(func, ast.Attribute) and func.attr == "join"
                        and node.args and is_set(node.args[0])):
                    findings.append(ctx.finding(
                        self.name, node,
                        "join() over a set preserves hash order — "
                        "use sorted(...)"))
        return findings


@register_rule
class UnseededRngRule(Rule):
    """Module-level / unseeded RNG use outside ``sim/rng.py``.

    All randomness must come from an explicitly seeded generator —
    ``RngRegistry.stream()`` in simulation code, ``random.Random(seed)``
    / ``np.random.default_rng(seed)`` elsewhere — so every artifact is
    a pure function of the spec seed.
    """

    name = "unseeded-rng"
    family = "determinism"
    description = ("global or unseeded RNG call; derive a seeded "
                   "generator instead")

    def check(self, ctx: FileContext) -> List[Finding]:
        if ctx.relpath in RNG_EXEMPT_FILES:
            return []
        imports = ImportMap(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node)
            if not resolved:
                continue
            message = self._verdict(resolved, node)
            if message:
                findings.append(ctx.finding(self.name, node, message))
        return findings

    @staticmethod
    def _verdict(resolved: str, call: ast.Call) -> Optional[str]:
        parts = resolved.split(".")
        if parts[0] == "random" and len(parts) == 2:
            func = parts[1]
            if func in _RANDOM_GLOBAL_FUNCS:
                return (f"random.{func}() uses the process-global stream; "
                        "use random.Random(seed) or RngRegistry.stream()")
            if func in ("Random", "SystemRandom") and not (call.args or call.keywords):
                return (f"random.{func}() constructed without a seed; "
                        "pass an explicit seed")
            return None
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            func = parts[2]
            if func in _NP_SEEDED_CTORS:
                if not (call.args or call.keywords):
                    return (f"np.random.{func}() constructed without a "
                            "seed; pass an explicit seed")
                return None
            return (f"np.random.{func}() uses numpy's global state; "
                    "use np.random.default_rng(seed)")
        return None


@register_rule
class WallClockRule(Rule):
    """Wall-clock reads: ``time.time()`` / ``datetime.now()`` and kin.

    Simulation, checkpoint, and verification code must be a function of
    sim-time only; harness code timing real intervals wants
    ``time.perf_counter()`` / ``time.monotonic()``, which never leak
    the host's clock into an artifact (a wall-clock epoch anchor in an
    event queue is the classic way one leaks in).
    """

    name = "wall-clock"
    family = "determinism"
    description = ("wall-clock read; use time.perf_counter()/"
                   "monotonic() for intervals")

    def check(self, ctx: FileContext) -> List[Finding]:
        imports = ImportMap(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node)
            if resolved in _WALL_CLOCK_CALLS:
                findings.append(ctx.finding(
                    self.name, node,
                    f"{resolved}() reads the wall clock; use "
                    "time.perf_counter()/monotonic() for intervals, or "
                    "thread a timestamp in explicitly"))
        return findings


@register_rule
class IdOrderRule(Rule):
    """Ordering by ``id()``: memory-address order differs per process.

    ``id()`` as a dict key (identity memoization) is fine; ``id()`` as
    a *sort key* or in comparisons makes the order an accident of the
    allocator.
    """

    name = "id-order"
    family = "determinism"
    description = "ordering by id(); memory addresses differ per process"

    _SORTERS = ("sorted", "min", "max")

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                is_sorter = (isinstance(func, ast.Name)
                             and func.id in self._SORTERS)
                is_sort_method = (isinstance(func, ast.Attribute)
                                  and func.attr == "sort")
                if is_sorter or is_sort_method:
                    for kw in node.keywords:
                        if kw.arg == "key" and self._key_uses_id(kw.value):
                            findings.append(ctx.finding(
                                self.name, node,
                                "sort key uses id(); ordering follows "
                                "memory addresses — key on stable fields"))
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if sum(1 for s in sides if self._is_id_call(s)) >= 2:
                    findings.append(ctx.finding(
                        self.name, node,
                        "comparing id() values; memory addresses differ "
                        "per process"))
        return findings

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id")

    @classmethod
    def _key_uses_id(cls, key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            return any(cls._is_id_call(sub) for sub in ast.walk(key.body))
        return False
