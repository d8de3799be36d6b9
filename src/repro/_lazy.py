"""Lazy package exports (PEP 562).

A package lists its public names once, per submodule::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        ".network": ("run_protocol", "SynchronousNetwork"),
        ".fuzz": ("fuzz",),
    })

and a submodule is imported the first time one of its names is read,
so ``from repro import convex_agreement`` does not load the chaos
harness.  A name must not equal one of the package's submodule names:
once that submodule is imported, the import system binds it to the
package under the same name, and the export can no longer be reached.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``namespace``.

    ``table`` maps a relative submodule name to the names it exports.
    A resolved name is stored in ``namespace``, so each is looked up
    once and module ``__getattr__`` is not consulted for it again.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return list(owner), __getattr__, __dir__
