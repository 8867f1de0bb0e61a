"""Stage call graph: which functions can run inside a pipeline stage.

The cache-determinism and parallel-safety rules need to know the set of
functions *reachable* from the callables registered as pipeline stages
(``FunctionStage``/``ShardStage`` constructions, e.g. in
``build_study_pipeline``).  This module discovers the registration
sites, resolves each registered callable — unwrapping
``functools.partial`` — and walks direct calls transitively, with one
level of indirection through ``partial`` and instance-method references
(``pre.run(...)`` resolves to ``Preprocessor.run`` when ``pre`` is
locally constructed or annotated as a ``Preprocessor``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .project import FunctionDecl, Module, Project

#: Constructor names whose call sites register a pipeline stage.
_STAGE_CLASSES = {"FunctionStage", "ShardStage"}


@dataclass(slots=True)
class StageRoot:
    """One callable registered as (part of) a pipeline stage."""

    stage_name: str | None
    role: str  # "stage" | "worker" | "merge"
    decl: "FunctionDecl | None"
    module: "Module"
    node: ast.AST  # the callable expression (or registration call)
    problem: str | None = None  # "lambda" | "closure" when unpicklable


@dataclass(slots=True)
class Reach:
    """Why a function is stage-reachable: discovery chain bookkeeping."""

    qualname: str
    root: StageRoot
    via: str | None  # qualname of the caller that discovered it


@dataclass
class CallGraph:
    roots: list[StageRoot] = field(default_factory=list)
    #: every stage-reachable function, by qualname
    reachable: dict[str, Reach] = field(default_factory=dict)
    #: the subset reachable from ShardStage *workers* (runs in
    #: subprocesses under the process executor)
    shard_reachable: dict[str, Reach] = field(default_factory=dict)
    #: functions reachable from the distributed worker/queue roots
    #: (``repro.distributed``).  Kept strictly separate from
    #: ``reachable``: lease/heartbeat code legitimately reads clocks,
    #: so the stage-determinism rules must never see it; only the
    #: spool-hygiene rule (RPR010) consumes this table.
    distributed_reachable: dict[str, Reach] = field(default_factory=dict)

    def chain(
        self, qualname: str, table: dict[str, Reach] | None = None
    ) -> list[str]:
        """Discovery path from the stage root down to ``qualname``.

        Pass ``table=graph.shard_reachable`` to reconstruct the path a
        shard worker discovered, which can differ from the first
        all-stages discovery path.
        """
        table = self.reachable if table is None else table
        links: list[str] = []
        cursor: str | None = qualname
        while cursor is not None:
            links.append(cursor)
            reach = table.get(cursor)
            cursor = reach.via if reach else None
        links.reverse()
        return links


#: Module prefix whose functions are distributed worker/queue roots.
_DISTRIBUTED_PACKAGE = "repro.distributed"


def build_callgraph(project: "Project") -> CallGraph:
    graph = CallGraph()
    for module in project.modules:
        if module.tree is None:
            continue
        _collect_roots(project, module, graph.roots)
    _walk_reachability(project, graph)
    _walk_distributed(project, graph)
    return graph


# -- root discovery ------------------------------------------------------


def _collect_roots(
    project: "Project", module: "Module", roots: list[StageRoot]
) -> None:
    for scope, node in _walk_with_scope(module.tree):
        if isinstance(node, ast.Call):
            resolved = module.resolve(node.func)
            tail = resolved.rsplit(".", 1)[-1] if resolved else None
            if tail not in _STAGE_CLASSES:
                continue
            stage_name = _literal_str(_argument(node, 0, "name"))
            if tail == "FunctionStage":
                spec = [(_argument(node, 1, "fn"), "stage")]
            else:
                spec = [
                    (_argument(node, 1, "worker"), "worker"),
                    (_argument(node, 2, "merge"), "merge"),
                ]
            for expr, role in spec:
                if expr is None:
                    continue
                roots.append(
                    _resolve_callable(
                        project, module, scope, expr, stage_name, role
                    )
                )


def _resolve_callable(
    project: "Project",
    module: "Module",
    scope: list[ast.AST],
    expr: ast.expr,
    stage_name: str | None,
    role: str,
) -> StageRoot:
    """Resolve a registered callable expression to its declaration."""
    # Unwrap (possibly nested) functools.partial.
    seen_partial = False
    while isinstance(expr, ast.Call):
        resolved = module.resolve(expr.func)
        if resolved and resolved.rsplit(".", 1)[-1] == "partial" and expr.args:
            expr = expr.args[0]
            seen_partial = True
            continue
        break
    del seen_partial
    if isinstance(expr, ast.Lambda):
        return StageRoot(stage_name, role, None, module, expr, problem="lambda")
    resolved = module.resolve(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else None
    if isinstance(expr, ast.Name):
        # A name bound to a function nested in the enclosing scope is a
        # closure: unpicklable under the process executor.
        for enclosing in reversed(scope):
            if isinstance(enclosing, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(enclosing):
                    if (
                        isinstance(
                            child, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                        and child is not enclosing
                        and child.name == expr.id
                    ):
                        return StageRoot(
                            stage_name, role, None, module, expr,
                            problem="closure",
                        )
                break
    decl = project.functions.get(resolved) if resolved else None
    return StageRoot(stage_name, role, decl, module, expr)


def _walk_with_scope(tree: ast.Module):
    """Yield ``(enclosing_scope_stack, node)`` pairs, depth-first."""
    stack: list[ast.AST] = []

    def visit(node: ast.AST):
        yield list(stack), node
        is_scope = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        if is_scope:
            stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if is_scope:
            stack.pop()

    for top in tree.body:
        yield from visit(top)


def _argument(call: ast.Call, index: int, keyword: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if index < len(call.args):
        return call.args[index]
    return None


def _literal_str(expr: ast.expr | None) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


# -- reachability --------------------------------------------------------


def _walk_reachability(project: "Project", graph: CallGraph) -> None:
    worklist: list[tuple[str, Reach, bool]] = []
    for root in graph.roots:
        if root.decl is None:
            continue
        reach = Reach(root.decl.qualname, root, via=None)
        worklist.append((root.decl.qualname, reach, root.role == "worker"))
    while worklist:
        qualname, reach, from_worker = worklist.pop()
        known = qualname in graph.reachable
        if not known:
            graph.reachable[qualname] = reach
        if from_worker and qualname not in graph.shard_reachable:
            graph.shard_reachable[qualname] = reach
        elif known:
            continue
        decl = project.functions.get(qualname)
        if decl is None:
            continue
        for callee in _callees(project, decl):
            if callee == qualname:
                continue
            worklist.append(
                (callee, Reach(callee, reach.root, via=qualname), from_worker)
            )


def _walk_distributed(project: "Project", graph: CallGraph) -> None:
    """Populate ``distributed_reachable`` from the worker/queue roots.

    Every function and method defined under :data:`_DISTRIBUTED_PACKAGE`
    is a root (workers are spawned from several entry points: the
    coordinator's local pool, the ``repro-study worker`` CLI, tests),
    and the walk follows the same call-resolution rules as the stage
    walk — but into a separate table, so the determinism rules keep
    ignoring lease/heartbeat clock use.
    """
    worklist: list[tuple[str, Reach]] = []
    for qualname, decl in sorted(project.functions.items()):
        name = decl.module.name
        if name == _DISTRIBUTED_PACKAGE or name.startswith(
            _DISTRIBUTED_PACKAGE + "."
        ):
            root = StageRoot(
                stage_name=None,
                role="distributed",
                decl=decl,
                module=decl.module,
                node=decl.node,
            )
            worklist.append((qualname, Reach(qualname, root, via=None)))
    while worklist:
        qualname, reach = worklist.pop()
        if qualname in graph.distributed_reachable:
            continue
        graph.distributed_reachable[qualname] = reach
        decl = project.functions.get(qualname)
        if decl is None:
            continue
        for callee in _callees(project, decl):
            if callee == qualname:
                continue
            worklist.append((callee, Reach(callee, reach.root, via=qualname)))


def _callees(project: "Project", decl: "FunctionDecl") -> set[str]:
    """Qualnames of project functions referenced from ``decl``'s body."""
    module = decl.module
    callees: set[str] = set()
    candidates = _instance_candidates(project, decl)
    for node in ast.walk(decl.node):
        expr: ast.expr | None = None
        if isinstance(node, ast.Call):
            expr = node.func
            # one level through functools.partial
            resolved = module.resolve(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else None
            if resolved and resolved.rsplit(".", 1)[-1] == "partial" and node.args:
                inner = node.args[0]
                if isinstance(inner, (ast.Name, ast.Attribute)):
                    inner_resolved = module.resolve(inner)
                    if inner_resolved in project.functions:
                        callees.add(inner_resolved)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            expr = node
        if expr is None:
            continue
        # instance-method references: var.method -> Class.method
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in candidates
        ):
            for class_qualname in candidates[expr.value.id]:
                if expr.attr in project.classes.get(class_qualname, ()):
                    callees.add(f"{class_qualname}.{expr.attr}")
        resolved = module.resolve(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else None
        if resolved is None:
            continue
        if resolved in project.functions:
            callees.add(resolved)
        elif resolved in project.classes:
            # Constructing a project class runs its __init__/__post_init__.
            for hook in ("__init__", "__post_init__"):
                if hook in project.classes[resolved]:
                    callees.add(f"{resolved}.{hook}")
    return callees


def _instance_candidates(
    project: "Project", decl: "FunctionDecl"
) -> dict[str, set[str]]:
    """variable name -> class qualnames it may hold.

    Evidence: ``var = SomeClass(...)`` assignments anywhere in the
    function (including ternaries) and parameter annotations that
    reference a project class.
    """
    module = decl.module
    candidates: dict[str, set[str]] = {}

    def classes_in(expr: ast.expr | None) -> set[str]:
        found: set[str] = set()
        if expr is None:
            return found
        for sub in ast.walk(expr):
            target: ast.expr | None = None
            if isinstance(sub, ast.Call):
                target = sub.func
            elif isinstance(sub, ast.Name):
                target = sub
            if target is None or not isinstance(target, (ast.Name, ast.Attribute)):
                continue
            resolved = module.resolve(target)
            if resolved in project.classes:
                found.add(resolved)
        return found

    args = decl.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        found = classes_in(arg.annotation)
        if found:
            candidates.setdefault(arg.arg, set()).update(found)
    for node in ast.walk(decl.node):
        if isinstance(node, ast.Assign):
            found = classes_in(node.value)
            if not found:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    candidates.setdefault(target.id, set()).update(found)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found = classes_in(node.value) | classes_in(node.annotation)
            if found:
                candidates.setdefault(node.target.id, set()).update(found)
    return candidates
