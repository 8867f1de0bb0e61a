"""In-memory span recorder and reversible function wrappers.

The benchmark times calls into each layer's public functions from the
outside: :class:`Patcher` swaps a function (or method, or registry
entry) for a wrapper that opens a span on a :class:`Tracer`, and puts
the original back on :meth:`Patcher.uninstall`.  Nothing under ``src/``
knows it is being traced.

A span is ``[key, start_ns, end_ns, parent, nbytes, child_ns, busy_ns]``.
``child_ns`` accumulates the time of spans (and generator steps) that ran
inside it on the same thread, so self time is ``duration - child_ns``.
A wrapped generator gets one span whose ``busy_ns`` is the time spent
inside its ``next()`` calls and whose ``nbytes`` counts the items it
yielded; that time is charged as child time to whichever span was open
when the consumer asked for the next item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable

KEY, START, END, PARENT, NBYTES, CHILD, BUSY = range(7)

#: Key of the spans that hold the tracer's own measuring work (pickling a
#: payload to count its bytes, walking a spool).  They are overhead, and
#: keeping them as spans stops them inflating the caller's self time.
BOOKKEEPING = "trace.bookkeeping"

_ABSENT = object()


class Tracer:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _add(self, span: list) -> int:
        """Append ``span``; its index, even with spans opening on other
        threads (the pipeline schedules stages on a thread pool)."""
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, key: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = self._add([key, self.clock(), 0, parent, 0, 0, None])
        stack.append(index)
        return index

    def end(self, index: int, nbytes: int = 0) -> None:
        now = self.clock()
        span = self.spans[index]
        span[END] = now
        span[NBYTES] += nbytes
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:  # an async span closed out of order
            stack.remove(index)
        parent = span[PARENT]
        if parent is not None:
            self.spans[parent][CHILD] += now - span[START]

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def bookkeeping(self, measure: Callable[[], object]) -> object:
        """Run ``measure`` inside a :data:`BOOKKEEPING` span."""
        index = self.begin(BOOKKEEPING)
        try:
            return measure()
        finally:
            self.end(index)

    def generator(self, key: str, items: Iterable) -> Iterable:
        """Re-yield ``items``, timing each step as described above."""
        span = [key, 0, 0, None, 0, 0, 0]
        index = self._add(span)
        iterator = iter(items)
        stack = self._stack()
        while True:
            started = self.clock()
            span[START] = span[START] or started
            outer = stack[-1] if stack else None
            stack.append(index)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                stack.remove(index)
                span[END] = self.clock()
                elapsed = span[END] - started
                span[BUSY] += elapsed
                if outer is not None:
                    self.spans[outer][CHILD] += elapsed
            span[NBYTES] += 1
            yield item

    def snapshot(self) -> dict:
        """JSON-ready ``[key, start, end, parent, nbytes, self_ns]`` rows
        for every closed span, plus the counters."""
        rows = []
        for key, start, end, parent, nbytes, child, busy in self.spans:
            if not end:
                continue
            duration = busy if busy is not None else end - start
            rows.append([key, start, end, parent, nbytes, duration - child])
        return {"spans": rows, "counters": dict(self.counters)}


def aggregate(
    rows: Iterable[list], window: tuple[int, int] | None = None
) -> dict[str, dict[str, float]]:
    """Per-key ``{"self_s", "calls", "bytes"}`` from snapshot rows.

    With ``window=(start_ns, end_ns)`` only spans that started inside it
    count; the decision server's spans are split by load phase this way.
    """
    totals: dict[str, dict[str, float]] = {}
    for key, start, _end, _parent, nbytes, self_ns in rows:
        if window is not None and not window[0] <= start < window[1]:
            continue
        entry = totals.setdefault(key, {"self_s": 0.0, "calls": 0, "bytes": 0})
        entry["self_s"] += self_ns / 1e9
        entry["calls"] += 1
        entry["bytes"] += nbytes
    return totals


def by_layer(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer, the key's first dotted component."""
    layers: dict[str, float] = defaultdict(float)
    for key, entry in totals.items():
        layers[key.split(".", 1)[0]] += entry["self_s"]
    return dict(layers)


# -- wrappers ----------------------------------------------------------------


def resolve(path: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patcher:
    """Installs wrappers and remembers every binding it replaced."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
            return
        own = vars(owner).get(attr, _ABSENT)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, value)

    def wrap(
        self,
        path: str,
        key: str | Callable[..., str],
        after: Callable[..., int | None] | None = None,
    ) -> None:
        """Wrap the function at ``path`` (``"module:qualname"``).

        ``key`` names the span, or computes the name from the call's
        arguments.  ``after(tracer, result, *args, **kwargs)`` runs once
        the call has returned, in a bookkeeping span, and may return a
        byte count for the call's span.  A module-level function is also
        replaced in every loaded ``repro`` module that imported it by
        name.
        """
        owner, attr = resolve(path)
        raw = inspect.getattr_static(owner, attr)
        method_kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if method_kind else raw
        wrapper = self._wrapper(function, key, after)
        self._set(owner, attr, method_kind(wrapper) if method_kind else wrapper)
        if inspect.ismodule(owner):
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is function:
                        self._set(module, alias, wrapper)

    def wrap_entries(self, registry: dict, key: Callable[[str], str]) -> None:
        """Wrap every callable value of a registry dict in place."""
        for name, function in list(registry.items()):
            self._set(registry, name, self._wrapper(function, key(name), None))

    def _wrapper(self, function, key, after):
        tracer = self.tracer

        def name_of(*args, **kwargs) -> str:
            return key(*args, **kwargs) if callable(key) else key

        def close(index, result, args, kwargs):
            tracer.end(index)
            if after is not None:
                nbytes = tracer.bookkeeping(
                    lambda: after(tracer, result, *args, **kwargs)
                )
                tracer.spans[index][NBYTES] += nbytes or 0

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                index = tracer.begin(name_of(*args, **kwargs))
                try:
                    result = await function(*args, **kwargs)
                except BaseException:
                    tracer.end(index)
                    raise
                close(index, result, args, kwargs)
                return result

            return traced_async

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                yield from tracer.generator(
                    name_of(*args, **kwargs), function(*args, **kwargs)
                )

            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.begin(name_of(*args, **kwargs))
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            close(index, result, args, kwargs)
            return result

        return traced

    def uninstall(self) -> None:
        """Restore every replaced binding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def bindings(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every replaced binding."""
        return list(self._undo)
