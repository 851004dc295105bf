"""R5 spec-hash: every ``ExperimentSpec`` field carries a hash decision.

The experiment store keys results by a content hash over exactly the
result-determining spec fields; ``trials`` is deliberately excluded so
top-ups share buckets.  (How trials run — engine, workers, fleet size —
is not a spec field at all: it lives in
:class:`~repro.sim.policy.ExecutionPolicy`, whose type keeps it out of
``identity()``.)  The partition is load-bearing: a new field that silently stays *out* of
the hash aliases distinct experiments onto one bucket (wrong cached
results); one that silently goes *in* splits buckets that should share
(warm re-runs recompute everything).

The contract is machine-checkable because ``experiments/spec.py``
declares both sides explicitly: the dataclass field set, the literal dict
in ``identity()`` (the hashed payload) and the ``HASH_EXCLUDED_FIELDS``
constant.  This rule cross-references the three — a field in neither
list, a field in both, or a stale name in either is an error at the
field's own line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import FileContext, Rule

__all__ = ["SpecHashRule"]

_CLASS = "ExperimentSpec"
_CONSTANT = "HASH_EXCLUDED_FIELDS"


class SpecHashRule(Rule):
    id = "R5"
    name = "spec-hash"
    rationale = (
        "every ExperimentSpec field must be hashed by identity() or "
        "listed in HASH_EXCLUDED_FIELDS — never neither, never both"
    )
    include = ("experiments/spec.py",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        cls = next(
            (
                node
                for node in ctx.tree.body
                if isinstance(node, ast.ClassDef) and node.name == _CLASS
            ),
            None,
        )
        if cls is None:
            return  # nothing to cross-reference
        fields = self._dataclass_fields(cls)
        excluded, excluded_node = self._excluded(ctx.tree, cls)
        identity_keys, identity_node = self._identity_keys(cls)

        if excluded_node is None:
            yield self.diag(
                ctx,
                cls,
                f"{_CLASS} has no {_CONSTANT} declaration; the "
                "hash-excluded execution knobs must be named explicitly",
            )
            return
        if identity_node is None:
            yield self.diag(
                ctx,
                cls,
                f"{_CLASS}.identity() with a literal dict return not found; "
                "the hashed payload must stay statically auditable",
            )
            return

        field_names = set(fields)
        for name, node in fields.items():
            hashed = name in identity_keys
            if hashed and name in excluded:
                yield self.diag(
                    ctx,
                    node,
                    f"field {name!r} is hashed by identity() AND listed in "
                    f"{_CONSTANT}; pick one",
                )
            elif not hashed and name not in excluded:
                yield self.diag(
                    ctx,
                    node,
                    f"field {name!r} has no hash decision: add it to "
                    f"identity() (result-determining) or {_CONSTANT} "
                    "(execution knob)",
                )
        for name in sorted(excluded - field_names):
            yield self.diag(
                ctx,
                excluded_node,
                f"{_CONSTANT} names {name!r}, which is not an "
                f"{_CLASS} field",
            )
        for name, node in identity_keys.items():
            if name not in field_names:
                yield self.diag(
                    ctx,
                    node,
                    f"identity() hashes {name!r}, which is not an "
                    f"{_CLASS} field",
                )

    # -- extraction ----------------------------------------------------------

    @staticmethod
    def _dataclass_fields(cls: ast.ClassDef) -> Dict[str, ast.AST]:
        """Annotated field name -> its AnnAssign node (ClassVar excluded)."""
        fields: Dict[str, ast.AST] = {}
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            annotation = ast.dump(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            fields[stmt.target.id] = stmt
        return fields

    @staticmethod
    def _excluded(
        tree: ast.Module, cls: ast.ClassDef
    ) -> Tuple[Set[str], Optional[ast.AST]]:
        """The HASH_EXCLUDED_FIELDS string set (module- or class-level)."""
        candidates: List[ast.stmt] = list(tree.body) + list(cls.body)
        for stmt in candidates:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not any(
                isinstance(t, ast.Name) and t.id == _CONSTANT for t in targets
            ):
                continue
            names: Set[str] = set()
            assert value is not None
            for sub in ast.walk(value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.add(sub.value)
            return names, stmt
        return set(), None

    @staticmethod
    def _identity_keys(
        cls: ast.ClassDef,
    ) -> Tuple[Dict[str, ast.AST], Optional[ast.AST]]:
        """String keys of the dict literal ``identity()`` returns."""
        for stmt in cls.body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name != "identity":
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Return) and isinstance(
                    sub.value, ast.Dict
                ):
                    keys: Dict[str, ast.AST] = {}
                    for key in sub.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            keys[key.value] = key
                    return keys, stmt
            return {}, None
        return {}, None
