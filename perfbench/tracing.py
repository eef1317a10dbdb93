"""Wrap-and-restore call timing for the benchmark's traced run.

The traced run measures layers from outside the program: each target
function is replaced, in the namespace where its caller looks it up, by
a wrapper that adds the call's wall time, its call count and its row
count to a named layer total. Leaving the :class:`Tracer` context puts
every original back, so an untraced run after a traced one executes the
unmodified program.

Plain functions, generator functions (timed from the first item to
exhaustion, which includes the caller's loop body) and coroutine
functions are supported. Totals are guarded by a lock because serving
kernels run on their own thread.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

__all__ = ["Tracer"]

#: ``fn(args, kwargs) -> number`` extracting a row count from one call.
RowCount = Callable[[tuple, dict], float]

#: ``fn(args, kwargs, result) -> number`` deriving work from one call
#: (``result`` is None for generator and coroutine functions).
Formula = Callable[[tuple, dict, Any], float]


class Tracer:
    """Named per-layer totals of seconds, calls, rows and computed work."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, float] = defaultdict(float)
        #: Quantities derived from call arguments (flops, wire bytes),
        #: not measured: reported with a ``-computed`` unit.
        self.computed: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[Any, str, Any]] = []

    def record(self, name: str, seconds: float, rows: float = 0.0) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1
            self.rows[name] += rows

    def add_computed(self, name: str, amount: float) -> None:
        with self._lock:
            self.computed[name] += amount

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        rows: RowCount | None = None,
        computed: dict[str, Formula] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``name`` until restore.

        ``owner`` is a module (for functions imported by name into the
        caller's module) or a class (for methods). ``rows`` counts the
        rows of one call; ``computed`` maps extra total names to
        per-call formulas evaluated from the arguments and the result.
        """
        raw = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(raw):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        formulas = dict(computed or {})

        def done(args: tuple, kwargs: dict, started: float, result: Any) -> None:
            elapsed = time.perf_counter() - started
            self.record(name, elapsed, rows(args, kwargs) if rows else 0.0)
            for total, formula in formulas.items():
                self.add_computed(total, formula(args, kwargs, result))

        if inspect.iscoroutinefunction(raw):

            @functools.wraps(raw)
            async def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return await raw(*args, **kwargs)
                finally:
                    done(args, kwargs, started, None)

        elif inspect.isgeneratorfunction(raw):

            @functools.wraps(raw)
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    yield from raw(*args, **kwargs)
                finally:
                    done(args, kwargs, started, None)

        else:

            @functools.wraps(raw)
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                result = None
                try:
                    result = raw(*args, **kwargs)
                    return result
                finally:
                    done(args, kwargs, started, result)

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped original back (last wrapped, first restored)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
