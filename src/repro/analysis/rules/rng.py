"""R1 rng-discipline: randomness flows only through the sanctioned layer.

The bit-identical replay contract holds because every engine draws its
randomness from the per-trial ``random.Random`` handed to it: directly,
batched through ``MTWordStream`` / ``_WordBank``, or — in the native
kernels — from the generator's own state, handed to C as its
``getstate()`` words and written back with ``setstate``.  A fleet lane
may also be the trial's child seed, standing for ``random.Random(seed)``:
the kernel writes that lane's state row from the seed itself (CPython's
``init_by_array``), and the numpy path gets the generator from
:func:`repro.sim.rng.as_generator`, so the seed tree stays the one place
that constructs seeded generators.  A single ``random.random()`` — the
*module-level* shared generator — or an ``os.urandom`` read inside
``engine/``, ``walks/`` or ``graphs/`` silently breaks replay: fleet,
array, oracle and native runs would stop sharing store buckets.

Flagged in scope:

* any call into the ``random`` module's shared generator
  (``random.random()``, ``random.randrange()``, ``random.choice()``, ...);
* ``random.Random()`` with **no** seed — ambient entropy — and, as a
  warning, ``random.Random(seed)`` outside the seed tree (prefer
  :func:`repro.sim.rng.spawn`);
* ``random.SystemRandom`` / ``secrets.*`` / ``os.urandom`` — OS entropy;
* ``numpy.random.*`` draws (``np.random.rand``, ``default_rng``, ...).
  ``np.random.MT19937(seed)`` *with* a seed is allowed: it is the inert
  state container the word-stream transplant is built on.

Calls inside the sanctioned wrapper classes themselves are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import enclosing_class, resolve_call_target
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import FileContext, Rule

__all__ = ["RngDisciplineRule"]

#: Class bodies allowed to touch numpy's generator machinery directly:
#: the word-stream layer every engine draws through.
SANCTIONED_WRAPPERS = frozenset({"MTWordStream", "_WordBank"})


class RngDisciplineRule(Rule):
    id = "R1"
    name = "rng-discipline"
    rationale = (
        "engines must draw randomness only through the sanctioned "
        "word-stream layer so replays stay bit-identical"
    )
    include = ("engine/", "walks/", "graphs/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, ctx.aliases)
            if target is None:
                continue
            verdict = self._classify(target, node)
            if verdict is None:
                continue
            cls = enclosing_class(node, ctx.parents)
            if cls is not None and cls.name in SANCTIONED_WRAPPERS:
                continue
            message, severity = verdict
            yield self.diag(ctx, node, message, severity)

    def _classify(self, target: str, node: ast.Call):
        """(message, severity) when the call breaks discipline, else None."""
        if target == "random.Random" or target.endswith("random.Random"):
            if not node.args and not node.keywords:
                return (
                    "unseeded random.Random() draws ambient entropy; take a "
                    "generator parameter (or repro.sim.rng.fresh_generator() "
                    "for an explicitly non-replayable default)",
                    Severity.ERROR,
                )
            return (
                "random.Random(seed) bypasses the experiment seed tree; "
                "prefer repro.sim.rng.spawn(root_seed, *labels)",
                Severity.WARNING,
            )
        if target.startswith("random.SystemRandom") or target.startswith("secrets."):
            return (
                f"{target} reads OS entropy; results would never replay",
                Severity.ERROR,
            )
        if target == "os.urandom":
            return (
                "os.urandom reads OS entropy; results would never replay",
                Severity.ERROR,
            )
        if target.startswith("random."):
            func = target.split(".", 1)[1]
            return (
                f"random.{func}() uses the module-level shared generator; "
                "draw from the trial's random.Random (or the word-stream "
                "layer) instead",
                Severity.ERROR,
            )
        if target.startswith("numpy.random."):
            func = target[len("numpy.random.") :]
            if func == "MT19937" and (node.args or node.keywords):
                return None  # seeded state container: the transplant idiom
            return (
                f"numpy.random.{func}() bypasses the sanctioned word-stream "
                "wrappers (MTWordStream/_WordBank); engines must "
                "consume the trial generator's exact draw sequence",
                Severity.ERROR,
            )
        return None
