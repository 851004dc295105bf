"""Blanket-time style measurements (eq. (4) machinery).

The paper bounds the E-process's edge cover via the Ding–Lee–Peres blanket
time [7]: once the SRW has visited every vertex ``v`` at least ``d(v)``
times, every edge is explored.  Two measurements are provided:

* :func:`time_to_visit_counts` — first step at which every vertex ``v`` has
  been visited at least ``threshold(v)`` times (the paper uses
  ``threshold = d(v)``, or a constant ``r`` on regular graphs);
* :func:`blanket_time` — the actual τ_bl(δ) of [7]: first step ``t`` at
  which every vertex's visit count is at least ``δ π_v t``.

Both drive a live walk and return the step count (or raise
:class:`~repro.errors.CoverTimeout`).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import CoverTimeout, ReproError
from repro.graphs.properties import stationary_distribution
from repro.walks.base import WalkProcess, default_step_budget

__all__ = ["time_to_visit_counts", "blanket_time"]


def time_to_visit_counts(
    walk: WalkProcess,
    threshold: Callable[[int], int],
    max_steps: Optional[int] = None,
) -> int:
    """Steps until every vertex ``v`` has ≥ ``threshold(v)`` visits.

    The walk must be fresh (``t = 0``); the time-0 position counts as one
    visit.  ``threshold`` must be ≥ 1 everywhere (otherwise the question is
    trivial / ill-posed for never-visited vertices).
    """
    if walk.steps != 0:
        raise ReproError("time_to_visit_counts needs a fresh walk (t = 0)")
    graph = walk.graph
    targets: List[int] = [threshold(v) for v in range(graph.n)]
    if any(t < 1 for t in targets):
        raise ReproError("thresholds must be >= 1 for every vertex")
    counts = [0] * graph.n
    counts[walk.start] = 1
    satisfied = sum(1 for v in range(graph.n) if counts[v] >= targets[v])
    budget = max_steps if max_steps is not None else 10 * default_step_budget(graph)
    while satisfied < graph.n:
        if walk.steps >= budget:
            raise CoverTimeout(
                f"visit-count target not reached within {budget} steps",
                steps=walk.steps,
                remaining=graph.n - satisfied,
            )
        v = walk.step()
        counts[v] += 1
        if counts[v] == targets[v]:
            satisfied += 1
    return walk.steps


def blanket_time(
    walk: WalkProcess,
    delta: float = 0.5,
    max_steps: Optional[int] = None,
) -> int:
    """τ_bl(δ): first step ``t ≥ 1`` with ``N_v(t) ≥ δ π_v t`` for every ``v``.

    ``N_v(t)`` counts visits in steps ``0..t`` (the time-0 position is one
    visit); at ``t = 0`` the condition holds vacuously, so the first
    meaningful instant is ``t = 1``.  δ must lie in (0, 1) as in [7].

    The check is incremental, and the returned ``t`` is *exact* — the
    first step at which the deficit set ``{v : N_v(t) < δ π_v t}`` is
    empty, not the first checkpoint at which an amortized scan notices:

    * a deficit vertex can only leave the set when the walk visits it
      (its count is frozen while ``δ π_v t`` grows), which is an O(1)
      update on the step;
    * a satisfied vertex ``v`` re-enters the set when ``δ π_v t``
      outgrows its count — at step ``e_v + 1``, where ``e_v`` is the
      last step with ``N_v ≥ δ π_v e_v`` at its current count.  Those
      re-entry instants sit in a heap, and each step pops only the
      vertices that are due, re-checking the exact inequality (the heap
      time is a hint; counts may have grown since it was pushed).

    Every comparison is the literal ``counts[v] >= delta * pi[v] * t``
    — the same float arithmetic as a brute-force per-step scan — so the
    result is bit-for-bit the brute-force answer at O(1) amortized work
    per step instead of O(n).
    """
    if not (0.0 < delta < 1.0):
        raise ReproError(f"delta must lie in (0,1), got {delta}")
    if walk.steps != 0:
        raise ReproError("blanket_time needs a fresh walk (t = 0)")
    graph = walk.graph
    pi = stationary_distribution(graph)
    counts = [0] * graph.n
    counts[walk.start] = 1
    rate = [delta * pi[v] for v in range(graph.n)]

    def expiry(v: int, t: int) -> int:
        """Largest step ``e >= t`` with ``counts[v] >= rate[v] * e``,
        under the exact float comparison (the division is only a hint;
        monotonicity of ``e -> rate[v] * e`` makes the adjustment exact).
        """
        c, r = counts[v], rate[v]
        e = max(int(c / r), t)
        while e > t and not c >= r * e:
            e -= 1
        while c >= r * (e + 1):
            e += 1
        return e

    # Satisfied vertices carry one (re-entry step, v) heap entry each;
    # deficit vertices carry none and a True flag instead.  A zero-rate
    # vertex (π_v = 0, e.g. isolated) is satisfied forever: no entry.
    due: List[Tuple[int, int]] = []
    in_deficit = [False] * graph.n
    deficit = 0
    for v in range(graph.n):
        if rate[v] > 0.0:
            due.append((expiry(v, 0) + 1, v))
    heapq.heapify(due)
    budget = max_steps if max_steps is not None else 10 * default_step_budget(graph)
    while walk.steps < budget:
        v = walk.step()
        counts[v] += 1
        t = walk.steps
        while due and due[0][0] <= t:
            _, u = heapq.heappop(due)
            if counts[u] >= rate[u] * t:
                # The hint predated later visits; still satisfied.
                heapq.heappush(due, (expiry(u, t) + 1, u))
            else:
                in_deficit[u] = True
                deficit += 1
        if in_deficit[v] and counts[v] >= rate[v] * t:
            in_deficit[v] = False
            deficit -= 1
            heapq.heappush(due, (expiry(v, t) + 1, v))
        if deficit == 0:
            return t
    raise CoverTimeout(
        f"blanket condition not reached within {budget} steps",
        steps=walk.steps,
        remaining=deficit,
    )
