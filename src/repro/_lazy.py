"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists its public names in one ``{name: submodule}`` table and
installs the hooks built here; nothing is imported until a name is first
read.  So a process that only scores — a pool worker — loads the scoring
modules and never the construction stack behind the other names.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``__getattr__`` resolves a name of ``exports`` from its submodule, or a
    submodule of the package itself (``import repro; repro.symbolic``), and
    caches it in the package namespace; anything else is an AttributeError.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name in exports:
            value = getattr(importlib.import_module("." + exports[name], package), name)
        elif importlib.util.find_spec(f"{package}.{name}") is not None:
            value = importlib.import_module("." + name, package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
