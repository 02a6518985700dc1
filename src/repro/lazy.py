"""Package attributes that import their module on first access (PEP 562).

A package ``__init__`` that re-exports names with ``from ... import`` makes
every importer of any of its submodules pay for all of them.  With
:func:`lazy_exports` the package names them in a table instead, and a name's
module is imported the first time the attribute is read::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.core.pipeline": ("EnvelopeReport", "compare_orderings", "reorder"),
    })

``from package import name``, ``from package import *`` (over ``__all__``)
and ``dir(package)`` work as with eager imports.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` and ``__dir__`` that resolve *table*.

    *namespace* is the package's ``globals()``; *table* maps a module to the
    names the package re-exports from it.  A resolved name is stored in
    *namespace*, so later reads are plain attribute lookups.
    """
    modules = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in modules:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(modules[name]), name)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted({*namespace, *modules})

    return __getattr__, __dir__
