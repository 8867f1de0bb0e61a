"""RPR006: optional-extra imports must be guarded.

``pyarrow`` (the ``[parquet]`` extra) is optional — the package
promises a stdlib-only core.  An unguarded import of it anywhere under
``repro.*`` turns every entry point that transitively imports that
module into a hard crash on the majority install, instead of the
documented :class:`~repro.exceptions.MissingDependencyError` degrade.
``uvicorn`` stays on the list although no extra ships it any more: the
decision service is stdlib-only, and an unguarded import of it must
not creep back in.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..findings import Finding
from ..registry import rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project import Project

#: Distributions that are optional extras (root module names).
OPTIONAL_MODULES = {"pyarrow", "uvicorn"}

#: Exception names an import guard may catch.
_GUARD_EXCEPTIONS = {"ImportError", "ModuleNotFoundError", "Exception"}


def _handler_catches_import_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for type_expr in types:
        name = (
            type_expr.id
            if isinstance(type_expr, ast.Name)
            else type_expr.attr
            if isinstance(type_expr, ast.Attribute)
            else None
        )
        if name in _GUARD_EXCEPTIONS:
            return True
    return False


def _optional_root(node: ast.stmt) -> str | None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            root = alias.name.partition(".")[0]
            if root in OPTIONAL_MODULES:
                return root
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        root = node.module.partition(".")[0]
        if root in OPTIONAL_MODULES:
            return root
    return None


@rule(
    "RPR006",
    "unguarded-optional-import",
    "optional dependencies (pyarrow, uvicorn) may only be imported inside "
    "try/except ImportError guards that degrade to "
    "MissingDependencyError",
)
def check_optional_imports(project: "Project") -> Iterator[Finding]:
    for module in project.modules:
        if module.tree is None or not module.name.startswith("repro."):
            continue
        guarded: set[ast.stmt] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            if not any(
                _handler_catches_import_error(h) for h in node.handlers
            ):
                continue
            for stmt in node.body:
                for child in ast.walk(stmt):
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        guarded.add(child)
        mentions_degrade = "MissingDependencyError" in module.source
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            root = _optional_root(node)
            if root is None:
                continue
            if node in guarded and mentions_degrade:
                continue
            if node in guarded:
                message = (
                    f"guarded {root} import, but this module never "
                    "raises MissingDependencyError; absent-dependency "
                    "callers get no actionable degrade path"
                )
            else:
                message = (
                    f"unguarded import of optional dependency {root!r}; "
                    "wrap it in try/except ImportError and degrade to "
                    "MissingDependencyError (see repro.logs.parquet)"
                )
            yield Finding(
                "RPR006",
                module.rel,
                node.lineno,
                node.col_offset + 1,
                message,
            )
