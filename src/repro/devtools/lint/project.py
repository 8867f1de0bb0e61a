"""Project model: parsed modules, import maps, and a definition index.

The linter works on a *project* — every ``.py`` file under the paths it
was pointed at — because the invariants it checks are cross-module: a
stage registered in ``repro.pipeline.stages`` reaches helpers defined
in ``repro.logs.preprocess``, and a column string in
``repro.pipeline.shard`` is validated against the registry declared
in ``repro.logs.schema``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from ...exceptions import LintConfigError

__all__ = ["Module", "FunctionDecl", "Project", "load_project"]

#: Directory names never descended into during file discovery.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".repro-cache",
    ".venv",
    "node_modules",
}


@dataclass(slots=True)
class FunctionDecl:
    """One function or method definition, addressable by qualname.

    ``qualname`` is ``module.fn`` for top-level functions and
    ``module.Class.fn`` for methods.  Functions nested inside other
    functions are indexed with a ``<locals>`` segment and flagged
    ``nested=True`` — they matter only as closure-stage evidence.
    """

    qualname: str
    module: "Module"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    nested: bool = False


@dataclass
class Module:
    """One parsed source file."""

    path: Path
    rel: str
    name: str
    source: str
    tree: ast.Module | None
    error: str | None = None
    lines: list[str] = field(default_factory=list)

    @cached_property
    def imports(self) -> dict[str, str]:
        """Local binding -> dotted target for every top-level-ish import.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        time`` maps ``time -> time.time``; relative imports are resolved
        against this module's dotted name (``from ..logs import io``
        inside ``repro.pipeline.stages`` maps ``io -> repro.logs.io``).
        Imports are collected from the whole tree, so guarded/function-
        local imports resolve too.
        """
        table: dict[str, str] = {}
        if self.tree is None:
            return table
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    table[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        return table

    def _resolve_from(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or ""
        # Relative import: chop ``level`` trailing segments off this
        # module's package path.  A package __init__ itself counts as
        # one level shallower than its submodules.
        parts = self.name.split(".")
        if not self.path.name == "__init__.py":
            parts = parts[:-1]
        cut = node.level - 1
        if cut > len(parts):
            return None
        base_parts = parts[: len(parts) - cut] if cut else parts
        if node.module:
            base_parts = [*base_parts, node.module]
        return ".".join(base_parts)

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted qualified name.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``; a
        bare name defined at this module's top level resolves to
        ``<module>.<name>``.  Returns None for anything dynamic.
        """
        parts: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        head = cursor.id
        parts.reverse()
        target = self.imports.get(head)
        if target is None:
            if head in self.top_level_defs:
                target = f"{self.name}.{head}"
            else:
                # Unknown bare name: resolve to itself so stdlib
                # patterns like a shadowing-free ``time.time`` still
                # match when ``import time`` lives in another branch.
                target = head
        return ".".join([target, *parts]) if parts else target

    @cached_property
    def top_level_defs(self) -> set[str]:
        """Names bound at module scope by def/class/assignment."""
        names: set[str] = set()
        if self.tree is None:
            return names
        for node in self.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    names.update(_target_names(target))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                names.update(_target_names(node.target))
        return names

    @cached_property
    def suppressions(self) -> dict[int, set[str] | None]:
        """line -> suppressed codes (None = every code) from inline
        ``# lint: ignore[RPR###]`` / ``# lint: ignore`` comments."""
        import re

        table: dict[int, set[str] | None] = {}
        pattern = re.compile(
            r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9,\s]+)\])?"
        )
        for lineno, line in enumerate(self.lines, start=1):
            match = pattern.search(line)
            if not match:
                continue
            codes = match.group(1)
            if codes is None:
                table[lineno] = None
            else:
                parsed = {c.strip().upper() for c in codes.split(",") if c.strip()}
                existing = table.get(lineno, set())
                if existing is None:
                    continue
                table[lineno] = existing | parsed
        return table


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names.update(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return set()


class Project:
    """Every parsed module plus lazily built cross-module indexes."""

    def __init__(self, root: Path, modules: list[Module]) -> None:
        self.root = root
        self.modules = modules

    @cached_property
    def by_name(self) -> dict[str, Module]:
        return {module.name: module for module in self.modules}

    @cached_property
    def functions(self) -> dict[str, FunctionDecl]:
        """qualname -> declaration for every function/method."""
        index: dict[str, FunctionDecl] = {}
        for module in self.modules:
            if module.tree is None:
                continue
            self._index_body(module, module.tree.body, module.name, index, False)
        return index

    @cached_property
    def classes(self) -> dict[str, set[str]]:
        """class qualname -> its method names."""
        index: dict[str, set[str]] = {}
        for module in self.modules:
            if module.tree is None:
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    methods = {
                        child.name
                        for child in node.body
                        if isinstance(
                            child, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                    }
                    index[f"{module.name}.{node.name}"] = methods
        return index

    @cached_property
    def callgraph(self):
        """Stage roots + reachability (see :mod:`.callgraph`)."""
        from .callgraph import build_callgraph

        return build_callgraph(self)

    def _index_body(
        self,
        module: Module,
        body: list[ast.stmt],
        prefix: str,
        index: dict[str, FunctionDecl],
        nested: bool,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                index[qualname] = FunctionDecl(qualname, module, node, nested)
                self._index_body(
                    module, node.body, f"{qualname}.<locals>", index, True
                )
            elif isinstance(node, ast.ClassDef):
                self._index_body(
                    module, node.body, f"{prefix}.{node.name}", index, nested
                )


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from ``__init__.py`` package markers.

    ``src/repro/logs/io.py`` -> ``repro.logs.io``; a file outside any
    package resolves to its bare stem.
    """
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def discover_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files pass through as-is)."""
    found: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if not path.exists():
            raise LintConfigError(f"no such file or directory: {path}")
        if path.is_file():
            candidates = [path]
        else:
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                found.append(candidate)
    return found


def load_project(paths: list[Path], root: Path | None = None) -> Project:
    """Parse every file under ``paths`` into a :class:`Project`.

    Files that fail to parse produce a module with ``tree=None`` and
    the syntax error recorded — the engine reports those as ``RPR000``
    findings rather than crashing the run.
    """
    root = (root or Path.cwd()).resolve()
    modules: list[Module] = []
    for path in discover_files(paths):
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            source = resolved.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            modules.append(
                Module(resolved, rel, module_name_for(resolved), "", None, str(exc))
            )
            continue
        try:
            tree = ast.parse(source, filename=str(path))
            error = None
        except SyntaxError as exc:
            tree = None
            error = f"syntax error: {exc.msg} (line {exc.lineno})"
        modules.append(
            Module(
                resolved,
                rel,
                module_name_for(resolved),
                source,
                tree,
                error,
                source.splitlines(),
            )
        )
    return Project(root, modules)
