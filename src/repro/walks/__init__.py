"""Walk processes: the shared framework and all baseline walks.

Names load their defining module on first use (:mod:`repro._lazy`); this
also lets the Greedy Random Walk subclass the E-process, whose module
imports :mod:`repro.walks.base`, without an import cycle.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("WalkProcess", "default_step_budget"),
        "srw": ("SimpleRandomWalk", "LazyRandomWalk", "WeightedRandomWalk"),
        "rotor": ("RotorRouterWalk",),
        "choice": ("RandomWalkWithChoice", "UnvisitedVertexWalk"),
        "fair": ("LeastUsedFirstWalk", "OldestFirstWalk"),
        "greedy": ("GreedyRandomWalk", "greedy_random_walk"),
    },
)
