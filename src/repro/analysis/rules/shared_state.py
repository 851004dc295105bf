"""R6 shared-immutability: arrays crossing a sharing boundary stay frozen.

The fleet engines step K lanes against *one* set of graph-derived tiles —
CSR arrays, padded incidence tables, packed bitmask tables — cached on
the graph's ``scratch_cache()`` (or in module-level table registries)
and shared by every fleet, and eventually by every
*thread* once the fused kernel drops the GIL.  The bit-identical-replay
contract survives that sharing only if the shared tiles are provably
read-only: frozen with ``setflags(write=False)`` at creation, and never
mutated through any alias downstream.

Two checks, per function, with alias tracking through assignments:

* **freeze-at-creation** — a numpy-producing value stored into a scratch
  cache (``cache[key] = out`` where ``cache`` came from
  ``scratch_cache()``, or a module-level ``_TABLES[...] = ...`` registry
  fill) must be frozen first: every stored array name needs a dominating
  ``name.setflags(write=False)`` (the ``for arr in (...):
  arr.setflags(write=False)`` loop idiom counts);
* **no mutation through a shared alias** — a name bound from a
  sharing-boundary accessor (``csr_arrays()``/``csr_offsets``/
  ``csr_edge_ids``/``csr_neighbors``/``incidence_table()``/
  ``_packed_tables()``, a cache read, a slice view or alias of any of
  those) must not be the target of an indexed store, an augmented
  assignment, a mutating method call (``sort``/``fill``/``put``/...), or
  a numpy ``out=`` argument.
  ``setflags(write=True)`` is flagged on *any* name: un-freezing is never
  a per-lane operation.

Dict memos stored in the cache (``table = cache[k] = {}`` then
``table[v] = ...``) are the sanctioned lazy-fill pattern for non-array
lookups and stay exempt; mutating state bound from fresh ``np.zeros``/
``np.empty`` allocations (per-fleet lane state) is untouched — the rule
only chases names whose provenance is a sharing boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.astutil import dotted_name, resolve_call_target
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import FileContext, Rule

__all__ = ["SharedImmutabilityRule"]

#: Accessors (attribute or call, matched on the last dotted segment) whose
#: result is shared across walks/fleets/threads and must stay read-only.
_SHARED_ACCESSORS = frozenset(
    {
        "csr_arrays",
        "csr_offsets",
        "csr_edge_ids",
        "csr_neighbors",
        "incidence_table",
        "_packed_tables",
    }
)

#: The accessor that hands out a graph's shared memo dict itself.
_CACHE_ACCESSOR = "scratch_cache"

#: ndarray methods that mutate in place.
_MUTATING_METHODS = frozenset(
    {"sort", "fill", "put", "itemset", "partition", "resize", "byteswap"}
)

# Name classifications, tracked per function in statement order.
_CACHE = "cache"      # the scratch_cache() dict handle
_SHARED = "shared"    # aliases a shared tile (mutation = violation)
_ARRAYISH = "arrayish"  # a fresh numpy value (must be frozen before caching)
_MEMO = "memo"        # a dict memo (lazy fill through the cache is sanctioned)
_PLAIN = "plain"


class _FunctionScan:
    """One function's (or the module body's) alias/freeze bookkeeping."""

    def __init__(
        self,
        rule: "SharedImmutabilityRule",
        ctx: FileContext,
        module_caches: Set[str],
    ):
        self.rule = rule
        self.ctx = ctx
        self.module_caches = module_caches
        self.klass: Dict[str, str] = {}
        self.tuple_bindings: Dict[str, List[ast.expr]] = {}
        self.frozen: Set[str] = set()
        self.findings: List[Diagnostic] = []

    # -- classification ------------------------------------------------------

    def _name_class(self, name: str) -> str:
        if name in self.module_caches:
            return _CACHE
        return self.klass.get(name, _PLAIN)

    def _mentions_shared_or_numpy(self, expr: ast.expr) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute) and sub.attr in _SHARED_ACCESSORS:
                return True
            if isinstance(sub, ast.Name):
                if self._name_class(sub.id) in (_SHARED, _ARRAYISH):
                    return True
                if self.ctx.aliases.get(sub.id, "").split(".")[0] == "numpy":
                    return True
        return False

    def _classify_value(self, value: ast.expr) -> str:
        """What storing ``value`` under a name means for later statements."""
        if isinstance(value, ast.Name):
            return self._name_class(value.id)
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return _MEMO
        if isinstance(value, ast.Call):
            func = value.func
            last = None
            if isinstance(func, ast.Attribute):
                last = func.attr  # receiver may be unresolvable (subscripts)
            elif isinstance(func, ast.Name):
                last = func.id
            if last == _CACHE_ACCESSOR:
                return _CACHE
            if last in _SHARED_ACCESSORS:
                return _SHARED
            # cache.get(key) / cache.setdefault(...) reads a shared value
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr in ("get", "setdefault")
                and isinstance(value.func.value, ast.Name)
                and self._name_class(value.func.value.id) == _CACHE
            ):
                return _SHARED
        if isinstance(value, ast.Attribute) and value.attr in _SHARED_ACCESSORS:
            return _SHARED
        if isinstance(value, ast.Subscript):
            base = value.value
            # cache[key] reads a shared value; shared[a:b] is a view.
            if isinstance(base, ast.Name) and self._name_class(base.id) in (
                _CACHE,
                _SHARED,
            ):
                if self._name_class(base.id) == _CACHE:
                    return _SHARED
                if isinstance(value.slice, ast.Slice):
                    return _SHARED  # slicing views the same memory
                return _ARRAYISH  # fancy/scalar indexing copies
            if isinstance(base, ast.Attribute) and base.attr in _SHARED_ACCESSORS:
                if isinstance(value.slice, ast.Slice):
                    return _SHARED
                return _ARRAYISH
        if self._mentions_shared_or_numpy(value):
            return _ARRAYISH
        return _PLAIN

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, (ast.Tuple, ast.List)):
                self.tuple_bindings[target.id] = list(value.elts)
                self.klass[target.id] = (
                    _ARRAYISH
                    if any(self._classify_value(e) != _PLAIN for e in value.elts)
                    else _PLAIN
                )
            else:
                self.tuple_bindings.pop(target.id, None)
                self.klass[target.id] = self._classify_value(value)
            self.frozen.discard(target.id)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpack: a shared/tuple source distributes element-wise.
            source_class = self._classify_value(value)
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.klass[elt.id] = (
                        source_class if source_class in (_SHARED,) else _PLAIN
                    )
                    if source_class == _ARRAYISH:
                        self.klass[elt.id] = _ARRAYISH
                    self.frozen.discard(elt.id)

    # -- freeze bookkeeping --------------------------------------------------

    @staticmethod
    def _is_freeze_call(node: ast.expr) -> Optional[str]:
        """The receiver name of a ``<name>.setflags(write=False)`` call."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setflags"
            and isinstance(node.func.value, ast.Name)
        ):
            return None
        for kw in node.keywords:
            if kw.arg == "write" and isinstance(kw.value, ast.Constant):
                if kw.value.value is False:
                    return node.func.value.id
        return None

    def _note_freeze_loop(self, stmt: ast.For) -> bool:
        """``for v in (a, b, c): v.setflags(write=False)`` freezes a, b, c."""
        if not isinstance(stmt.target, ast.Name):
            return False
        if not isinstance(stmt.iter, (ast.Tuple, ast.List)):
            return False
        loop_var = stmt.target.id
        freezes = any(
            isinstance(s, ast.Expr)
            and self._is_freeze_call(s.value) == loop_var
            for s in stmt.body
        )
        if not freezes:
            return False
        for elt in stmt.iter.elts:
            if isinstance(elt, ast.Name):
                self.frozen.add(elt.id)
        return True

    # -- violation checks ----------------------------------------------------

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.diag(self.ctx, node, message))

    def _check_cache_store(self, node: ast.Subscript, value: ast.expr) -> None:
        """``cache[key] = value``: every stored array must be frozen."""
        stored: Sequence[ast.expr]
        if isinstance(value, ast.Name):
            name = value.id
            if name in self.tuple_bindings:
                stored = self.tuple_bindings[name]
            elif self.klass.get(name) == _ARRAYISH and name not in self.frozen:
                self._flag(
                    node,
                    f"array {name!r} is cached (shared across fleets/threads) "
                    "without being frozen; call "
                    f"{name}.setflags(write=False) before the cache store",
                )
                return
            else:
                return
        elif isinstance(value, (ast.Tuple, ast.List)):
            stored = value.elts
        else:
            if self._classify_value(value) == _ARRAYISH:
                self._flag(
                    node,
                    "a freshly built array is cached (shared across fleets/"
                    "threads) without being frozen; bind it to a name and "
                    "setflags(write=False) before the cache store",
                )
            return
        for elt in stored:
            if isinstance(elt, ast.Name):
                if (
                    self.klass.get(elt.id) == _ARRAYISH
                    and elt.id not in self.frozen
                ):
                    self._flag(
                        node,
                        f"cached tuple element {elt.id!r} is shared across "
                        "fleets/threads but not frozen; call "
                        f"{elt.id}.setflags(write=False) before the cache "
                        "store",
                    )
            elif self._classify_value(elt) == _ARRAYISH:
                self._flag(
                    node,
                    "cached tuple holds a freshly built array; bind it to a "
                    "name and setflags(write=False) before the cache store",
                )

    def _check_mutation_target(self, target: ast.expr, node: ast.AST) -> None:
        sub = target
        if isinstance(sub, ast.Subscript):
            sub = sub.value
        if not isinstance(sub, ast.Name):
            return
        if self._name_class(sub.id) != _SHARED:
            return
        self._flag(
            node,
            f"{sub.id!r} aliases a shared tile (sharing-boundary accessor); "
            "mutating it races every fleet/thread reading the same graph — "
            "route the write onto a per-fleet copy",
        )

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            if func.attr == "setflags":
                for kw in node.keywords:
                    if (
                        kw.arg == "write"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        self._flag(
                            node,
                            f"{receiver}.setflags(write=True) un-freezes an "
                            "array in engine scope; shared tiles are frozen "
                            "at creation and stay frozen",
                        )
            elif (
                func.attr in _MUTATING_METHODS
                and self._name_class(receiver) == _SHARED
            ):
                self._flag(
                    node,
                    f"{receiver}.{func.attr}() mutates a shared tile in "
                    "place; route the write onto a per-fleet copy",
                )
        # numpy ufunc out= aimed at a shared tile
        for kw in node.keywords:
            if (
                kw.arg == "out"
                and isinstance(kw.value, ast.Name)
                and self._name_class(kw.value.id) == _SHARED
            ):
                self._flag(
                    node,
                    f"out={kw.value.id} writes into a shared tile; route "
                    "the result onto a per-fleet array",
                )

    # -- statement walk (source order, flow-insensitive) ---------------------

    def scan(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested functions get their own scan
        if isinstance(stmt, ast.For) and self._note_freeze_loop(stmt):
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    base = target.value
                    if (
                        isinstance(base, ast.Name)
                        and self._name_class(base.id) == _CACHE
                    ):
                        self._check_cache_store(target, stmt.value)
                        continue
                    self._check_mutation_target(target, stmt)
                else:
                    self._bind(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._scan_expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target, stmt.value)
            elif isinstance(stmt.target, ast.Subscript):
                self._check_mutation_target(stmt.target, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Subscript):
                base = target.value
                if (
                    isinstance(base, ast.Name)
                    and self._name_class(base.id) == _CACHE
                ):
                    return
                self._check_mutation_target(target, stmt)
            elif isinstance(target, ast.Name):
                if self._name_class(target.id) == _SHARED:
                    self._flag(
                        stmt,
                        f"augmented assignment mutates {target.id!r}, which "
                        "aliases a shared tile; route the write onto a "
                        "per-fleet copy",
                    )
            return
        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value)
            return
        # Compound statements: recurse into bodies in source order.
        for field_name in ("test", "iter", "subject"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, ast.expr):
                self._scan_expr(value)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
        for field_name in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field_name, None)
            if isinstance(inner, list):
                self.scan([s for s in inner if isinstance(s, ast.stmt)])
        for handler in getattr(stmt, "handlers", []):
            self.scan(handler.body)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            for field_name in ("value", "exc"):
                value = getattr(stmt, field_name, None)
                if isinstance(value, ast.expr):
                    self._scan_expr(value)

    def _scan_expr(self, expr: ast.expr) -> None:
        frozen_name = self._is_freeze_call(expr)
        if frozen_name is not None:
            self.frozen.add(frozen_name)
            return
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                self._check_call(sub)


class SharedImmutabilityRule(Rule):
    id = "R6"
    name = "shared-immutability"
    rationale = (
        "shared graph tiles (CSR, incidence, packed tables) must be frozen "
        "at creation and never mutated through an alias — the free-threaded "
        "kernel reads them from every thread"
    )
    include = ("engine/", "walks/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        module_caches = self._module_level_dicts(ctx.tree)
        module_scan = _FunctionScan(self, ctx, module_caches)
        module_scan.scan(
            [
                s
                for s in ctx.tree.body
                if not isinstance(
                    s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
        )
        yield from module_scan.findings
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan = _FunctionScan(self, ctx, module_caches)
                scan.scan(node.body)
                yield from scan.findings

    @staticmethod
    def _module_level_dicts(tree: ast.Module) -> Set[str]:
        """Module-level ``NAME = {}`` registries (shared cache handles)."""
        caches: Set[str] = set()
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not isinstance(value, ast.Dict) or value.keys:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    caches.add(target.id)
        return caches
