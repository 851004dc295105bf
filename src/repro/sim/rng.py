"""Deterministic randomness plumbing.

All experiments derive their randomness from a single root seed through
:func:`spawn`, which hashes ``(root_seed, *labels)`` into a child seed.
Children are independent for distinct labels and stable across runs and
machines — re-running any benchmark with the same root seed replays the
exact trials.

The generators are Python's :class:`random.Random` (Mersenne Twister), the
same generator family the paper's experiments used.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Union

__all__ = [
    "DEFAULT_ROOT_SEED",
    "as_generator",
    "child_seed",
    "fresh_generator",
    "seed_sequence",
    "spawn",
]

DEFAULT_ROOT_SEED = 20120716  # PODC 2012 week, for flavour


def child_seed(root_seed: int, *labels: object) -> int:
    """A stable 64-bit child seed derived from the root and a label path."""
    payload = repr((int(root_seed),) + tuple(str(x) for x in labels)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def spawn(root_seed: int, *labels: object) -> random.Random:
    """A fresh Mersenne-Twister generator for the given label path."""
    return random.Random(child_seed(root_seed, *labels))


def as_generator(lane: Union[int, random.Random]) -> random.Random:
    """The generator a fleet lane stands for.

    An int lane is a seed — ``random.Random(seed)`` that nobody else holds,
    which the native kernel seeds straight into its state row — so it gets
    a fresh generator of its own; a generator lane is itself.
    """
    return random.Random(lane) if isinstance(lane, int) else lane


def seed_sequence(root_seed: int, count: int, *labels: object) -> List[int]:
    """``count`` distinct child seeds under a common label path."""
    return [child_seed(root_seed, *labels, i) for i in range(count)]


def fresh_generator() -> random.Random:
    """An OS-seeded generator for callers that explicitly opt out of replay.

    This is the **only** sanctioned source of ambient entropy: walk and
    engine constructors fall back to it when handed ``rng=None`` (ad-hoc
    interactive use).  Everything replayable must pass a generator from
    :func:`spawn` instead — the experiment runner always does.
    """
    return random.Random()
