"""PEP 562 lazy re-exports for the package roots.

A package root built with :func:`lazy_exports` imports none of its
submodules: each exported name loads its defining module the first time
it is read.  A command therefore loads only what it runs — ``repro
report``, ``repro store`` and a fully cached ``repro sweep`` never import
numpy or a walk engine — while ``from repro import EdgeProcess``,
``__all__`` and ``dir()`` behave as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each defining submodule (relative to ``package``) to
    the names it contributes, in ``__all__`` order.  A name read once is
    stored on the package, so later reads are plain attribute lookups.
    """
    owner = {name: f"{package}.{module}" for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
