"""Lazy package exports (PEP 562).

A package ``__init__`` maps each of its submodules to the public names
that submodule defines, and :func:`lazy_exports` returns the
module-level ``__getattr__`` and ``__dir__`` that import a submodule
the first time one of its names is read.  So ``import
repro.core.bounds`` loads the bounds and what they import, not every
sibling module, while ``from repro.core import optimize_storage``,
``__all__`` and ``dir()`` work as if every name were bound eagerly.

A name that is also the name of its own submodule (``repro.loops``'s
``translate``) is bound at once: importing a submodule sets the package
attribute of that name to the module, so a later read would find the
module and never reach ``__getattr__``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    namespace: Dict[str, Any],
    exports: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose module globals
    are ``namespace``; ``exports`` maps submodule name → public names.
    A resolved name is stored in ``namespace``, so each name is
    resolved once.  ``__getattr__`` is also stored there at once."""
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    # installed before the eager imports below, so a submodule they load
    # may already read the package's lazy names
    namespace["__getattr__"] = __getattr__
    for name, module in owner.items():
        if name == module:
            __getattr__(name)
    return __getattr__, __dir__
