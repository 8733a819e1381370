"""Lazy package exports (PEP 562).

A package lists the public names it re-exports from heavy submodules --
numpy-backed analysis, the vectorized engine -- and this helper resolves
each on first attribute access, so importing the package (or any module
below it) does not load those submodules.  ``from package import name``,
``package.name`` and ``from package import *`` all work as if the names
were imported eagerly, and a resolved name is stored in the package's
namespace, so later lookups cost nothing.

>>> import types
>>> package = types.ModuleType("demo")
>>> package.__getattr__, package.__dir__ = lazy_exports(
...     package.__dict__, {"math": ("sqrt",)}
... )
>>> package.sqrt(9.0)
3.0
>>> "sqrt" in vars(package)
True
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, object], exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``(__getattr__, __dir__)`` for ``namespace``.

    ``exports`` maps each module -- relative to the package (``".mixing"``)
    or absolute -- to the names it exports lazily, as a ``from module
    import (...)`` would list them.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r" % (package, name)) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
