"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from heavy submodules
(the simulator, numpy) would make every ``import repro.<anything>``
pay for them.  :func:`lazy_exports` builds the module-level
``__getattr__``/``__dir__`` pair that imports a name's submodule on
first access instead, so each command loads only what it runs::

    __getattr__, __dir__ = lazy_exports(
        __name__, {"run_study": ".engine", "epoch": ".clock"}
    )

The resolved value is stored on the package, so later lookups are
plain attribute reads and ``pkg.name is submodule.name`` holds.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each public name to the submodule defining it,
    relative to ``package`` (``".engine"``).  A name outside the table
    raises :class:`AttributeError`, so ``hasattr`` stays honest.
    """

    def __getattr__(name: str) -> object:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
