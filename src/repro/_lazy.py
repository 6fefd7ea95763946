"""PEP 562 lazy package exports.

A package ``__init__`` that only re-exports names lists them in a
``{name: submodule}`` table and binds the two hooks this helper
returns::

    _EXPORTS = {"CFG": "cfg", "Loop": "loops"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

Importing the package then loads none of its submodules.  The first
access to a name imports its submodule and caches the value in the
package namespace, so later accesses are plain attribute reads.  A
name that equals its submodule's name exports the submodule itself.
Any other submodule stays reachable as an attribute too, as it was
when the package imported everything up front.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable


def lazy_exports(
    package: str, namespace: dict, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks for ``package``."""

    def __getattr__(name: str) -> object:
        submodule = exports.get(name)
        if submodule is None:
            if name.startswith("__"):
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                )
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
