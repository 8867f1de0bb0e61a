"""RPR003/RPR004: shard-mapped code must be parallel-safe.

``ShardStage`` workers run once per shard on a *process* executor (or
a ``queue`` worker on another host): mutating module-level state inside
one is invisible to the coordinator and to sibling shards, while the
``inline`` executor leaks it from one shard into the next, so sharded
== sequential parity quietly dies.  Lambdas and closures can't even get
that far — ``pickle`` refuses them, but only at ``--jobs 4`` runtime,
which is exactly when nobody is watching.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..findings import Finding
from ..registry import rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project import FunctionDecl, Project

#: Method names that mutate common containers in place.
MUTATING_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}


def _local_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally inside ``node`` (params + any assignment)."""
    args = node.args
    names = {
        a.arg
        for a in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
    }
    for child in ast.walk(node):
        if isinstance(child, (ast.Assign,)):
            for target in child.targets:
                names.update(_roots(target))
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign, ast.For)):
            target = child.target
            names.update(_bound_names(target))
        elif isinstance(child, ast.withitem) and child.optional_vars:
            names.update(_bound_names(child.optional_vars))
        elif isinstance(child, ast.comprehension):
            names.update(_bound_names(child.target))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child is not node:
                names.add(child.name)
    return names


def _bound_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for element in target.elts:
            out.update(_bound_names(element))
        return out
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return set()


def _roots(target: ast.expr) -> set[str]:
    """Like :func:`_bound_names` but only plain-Name targets: a
    subscript/attribute assignment does not *bind* a local."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for element in target.elts:
            out.update(_roots(element))
        return out
    if isinstance(target, ast.Starred):
        return _roots(target.value)
    return set()


def _root_name(expr: ast.expr) -> str | None:
    """The base Name of a subscript/attribute chain, if any."""
    cursor = expr
    while isinstance(cursor, (ast.Subscript, ast.Attribute)):
        cursor = cursor.value
    return cursor.id if isinstance(cursor, ast.Name) else None


def _mutations(decl: "FunctionDecl") -> Iterator[tuple[ast.AST, str]]:
    """(node, description) for each module-global mutation in ``decl``."""
    module = decl.module
    node = decl.node
    locals_ = _local_names(node)
    module_names = module.top_level_defs
    declared_global: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            declared_global.update(child.names)
            yield (
                child,
                f"'global {', '.join(child.names)}' declaration",
            )
    for child in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(child, ast.Assign):
            targets = list(child.targets)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                name = _root_name(target)
                if (
                    name
                    and name not in locals_
                    and name in module_names
                ):
                    yield child, f"assignment into module global {name!r}"
        if isinstance(child, ast.Call) and isinstance(
            child.func, ast.Attribute
        ):
            if child.func.attr not in MUTATING_METHODS:
                continue
            name = _root_name(child.func.value)
            if name and name not in locals_ and name in module_names:
                yield (
                    child,
                    f"{name}.{child.func.attr}(...) mutates a module global",
                )


@rule(
    "RPR003",
    "shard-global-mutation",
    "shard worker code must not mutate module-level state "
    "(invisible across processes; leaks between inline shards)",
)
def check_shard_mutation(project: "Project") -> Iterator[Finding]:
    graph = project.callgraph
    for qualname, reach in sorted(graph.shard_reachable.items()):
        decl = project.functions.get(qualname)
        if decl is None:
            continue
        stage = reach.root.stage_name or "<anonymous>"
        chain = " -> ".join(graph.chain(qualname, graph.shard_reachable))
        for node, description in _mutations(decl):
            yield Finding(
                "RPR003",
                decl.module.rel,
                node.lineno,
                node.col_offset + 1,
                f"{description} in shard-mapped code of stage {stage!r} "
                f"(via {chain}); per-shard state must flow through the "
                "worker's return value and the merge hook",
            )


@rule(
    "RPR004",
    "unpicklable-stage-callable",
    "stage callables must be module-level functions "
    "(lambdas/closures don't pickle under the process executor)",
)
def check_stage_callables(project: "Project") -> Iterator[Finding]:
    for root in project.callgraph.roots:
        if root.problem is None:
            continue
        stage = root.stage_name or "<anonymous>"
        kind = "lambda" if root.problem == "lambda" else "locally nested function"
        yield Finding(
            "RPR004",
            root.module.rel,
            root.node.lineno,
            root.node.col_offset + 1,
            f"stage {stage!r} registers a {kind} as its {root.role} "
            "callable; use a module-level function (picklable, and "
            "addressable by the artifact store's stage code tokens)",
        )
