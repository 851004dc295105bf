"""R8 pool-payload: classes crossing the worker pool stay tiny-pickle.

The sweep runner ships work to ``ProcessPoolExecutor`` workers as pickled
payloads: the per-worker ``_TrialSpec`` template (installed once via the
pool initializer) and the ``TrialOutcome`` results coming back.  The
PR 6 tiny-pickle invariant keeps those payloads structural — a
``Graph`` pickles as ``(n, edges, name)`` through its ``__reduce__``,
*never* dragging its scratch caches (CSR tiles, composition tables,
fleet tiles) across the process boundary.  A future attribute grown on
any payload class would silently balloon every worker dispatch; this
rule makes the sanction explicit and machine-checked.

Single-file cross-reference, in the R5 style, over each pool boundary
module: ``sim/runner.py``, which ships the trial specs, and
``sim/outcomes.py``, where the results it ships back are defined:

* every payload **shape** — a ``NamedTuple`` subclass or ``@dataclass``
  defined in the file — must define a structural ``__reduce__`` or be
  named in the module-level ``POOL_PAYLOAD_ALLOWLIST`` constant;
* every **repro class referenced by a shape's field annotations**
  (resolved through import aliases to a ``repro.*`` module; names inside
  ``Callable[...]`` signatures are skipped — callables cross by
  reference, their argument types don't ship) must be named in the
  allowlist, which is the reviewed assertion that the class defines a
  structural ``__reduce__`` where it lives;
* a stale allowlist entry (naming no shape and no referenced class) is
  an error — the allowlist must shrink when the boundary does;
* a file that uses ``ProcessPoolExecutor`` but declares no allowlist is
  an error: the boundary exists, so its contract must be stated.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import FileContext, Rule

__all__ = ["PoolPayloadRule"]

_ALLOWLIST = "POOL_PAYLOAD_ALLOWLIST"
_EXECUTOR = "ProcessPoolExecutor"


def _is_namedtuple_or_dataclass(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        dotted = dotted_name(base)
        if dotted is not None and dotted.split(".")[-1] == "NamedTuple":
            return True
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = dotted_name(target)
        if dotted is not None and dotted.split(".")[-1] == "dataclass":
            return True
    return False


def _annotation_class_refs(
    annotation: ast.expr, aliases: Dict[str, str]
) -> Iterator[Tuple[str, ast.expr]]:
    """Names in ``annotation`` resolving to repro classes, skipping
    ``Callable[...]`` signatures (argument types don't cross the pool)."""
    if isinstance(annotation, ast.Subscript):
        head = dotted_name(annotation.value)
        if head is not None and head.split(".")[-1] == "Callable":
            return
        yield from _annotation_class_refs(annotation.value, aliases)
        inner = annotation.slice
        parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        for part in parts:
            yield from _annotation_class_refs(part, aliases)
        return
    if isinstance(annotation, ast.Name):
        resolved = aliases.get(annotation.id, "")
        if resolved.startswith("repro."):
            yield resolved.split(".")[-1], annotation
        return
    for child in ast.iter_child_nodes(annotation):
        if isinstance(child, ast.expr):
            yield from _annotation_class_refs(child, aliases)


class PoolPayloadRule(Rule):
    id = "R8"
    name = "pool-payload"
    rationale = (
        "classes crossing the ProcessPoolExecutor boundary must define a "
        "structural __reduce__ or be sanctioned in POOL_PAYLOAD_ALLOWLIST "
        "(the tiny-pickle invariant)"
    )
    include = ("sim/runner.py", "sim/outcomes.py")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        allowlist, allow_node = self._allowlist(ctx.tree)
        uses_pool = any(
            isinstance(node, ast.Name) and node.id == _EXECUTOR
            for node in ast.walk(ctx.tree)
        ) or _EXECUTOR in ctx.aliases

        shapes = [
            node
            for node in ctx.tree.body
            if isinstance(node, ast.ClassDef)
            and _is_namedtuple_or_dataclass(node)
        ]
        if uses_pool and allow_node is None and shapes:
            yield self.diag(
                ctx,
                ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                f"module uses {_EXECUTOR} but declares no {_ALLOWLIST}; "
                "the pool-payload contract must be stated explicitly",
            )
            return

        referenced: Set[str] = set()
        for cls in shapes:
            has_reduce = any(
                isinstance(s, ast.FunctionDef) and s.name == "__reduce__"
                for s in cls.body
            )
            if not has_reduce and cls.name not in allowlist:
                yield self.diag(
                    ctx,
                    cls,
                    f"payload shape {cls.name!r} crosses the worker-pool "
                    "boundary without a structural __reduce__ and is not "
                    f"in {_ALLOWLIST}; a grown attribute would silently "
                    "balloon every worker pickle",
                )
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                for name, node in _annotation_class_refs(
                    stmt.annotation, ctx.aliases
                ):
                    referenced.add(name)
                    if name not in allowlist:
                        yield self.diag(
                            ctx,
                            node,
                            f"class {name!r} crosses the worker-pool "
                            f"boundary via {cls.name} but is not in "
                            f"{_ALLOWLIST}; allowlist it once it defines a "
                            "structural __reduce__ where it is defined",
                        )

        shape_names = {cls.name for cls in shapes}
        if allow_node is not None:
            for stale in sorted(allowlist - shape_names - referenced):
                yield self.diag(
                    ctx,
                    allow_node,
                    f"{_ALLOWLIST} names {stale!r}, which is neither a "
                    "payload shape in this module nor referenced by one; "
                    "drop the stale sanction",
                )

    @staticmethod
    def _allowlist(
        tree: ast.Module,
    ) -> Tuple[Set[str], Optional[ast.AST]]:
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not any(
                isinstance(t, ast.Name) and t.id == _ALLOWLIST for t in targets
            ):
                continue
            names: Set[str] = set()
            assert value is not None
            for sub in ast.walk(value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.add(sub.value)
            return names, stmt
        return set(), None
