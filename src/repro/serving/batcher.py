"""Async request coalescer: many small queries, one blocked kernel call.

:class:`MicroBatcher` is the serving half of the engine's batching
thesis (LAF wins by amortizing work across grouped queries): concurrent
``predict(x)`` awaiters are accumulated until either ``max_batch_rows``
rows are pending or the oldest request has waited ``max_wait_ms``, then
the whole batch runs as **one** ``ClusterModel.predict`` call on a
dedicated single worker thread and the label rows are demultiplexed back
to per-request futures.

Concurrency model:

- all queue state is touched only from the owning event loop (the loop
  of the first ``submit`` call), so no locks are needed;
- the kernel runs on a per-batcher one-thread executor, so kernels for
  one model serialize (``ClusterModel`` instances are not re-entrant)
  while the event loop stays free to admit and time out requests;
- admission is bounded by ``max_queue_rows`` — when the queue is full
  the batcher sheds load immediately with
  :class:`~repro.exceptions.ServerOverloadedError` instead of growing
  without bound.

Deadlines are best-effort cancellation points: an expired request is
dropped at batch-assembly time, and a request whose deadline fires while
queued fails with :class:`~repro.exceptions.DeadlineExceededError`
without poisoning the rest of its batch.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serving.stats import ServingStats


class _Request:
    __slots__ = ("rows", "future", "t_submit", "t_assembled", "deadline")

    def __init__(
        self,
        rows: np.ndarray,
        future: asyncio.Future,
        t_submit: float,
        deadline: float | None,
    ) -> None:
        self.rows = rows
        self.future = future
        self.t_submit = t_submit
        self.t_assembled = t_submit
        self.deadline = deadline


class MicroBatcher:
    """Coalesce concurrent small queries into blocked kernel calls.

    Parameters
    ----------
    predict_fn:
        The per-batch kernel: takes a C-contiguous ``(rows, dim)``
        float64 matrix, returns one int64 label per row. Called on a
        dedicated worker thread, never on the event loop.
    max_batch_rows:
        Flush as soon as this many rows are pending. A single request
        larger than this still runs as one batch (requests are never
        split across kernel calls).
    max_wait_ms:
        Flush at latest this many milliseconds after the oldest pending
        request arrived, even if the batch is not full.
    max_queue_rows:
        Admission bound: a request that would push the pending-row count
        past this is rejected with ``ServerOverloadedError`` (unless the
        queue is empty, so oversized single requests are still servable).
    n_features:
        Expected query dimensionality; mismatching requests are rejected
        at submit time so they cannot poison a shared batch.
    validate_fn:
        Optional per-request validator (e.g. ``metric.validate``) run at
        submit time; its exceptions reject only the offending request.
    """

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        *,
        max_batch_rows: int = 256,
        max_wait_ms: float = 2.0,
        max_queue_rows: int = 8192,
        n_features: int | None = None,
        validate_fn: Callable[[np.ndarray], Any] | None = None,
        stats: ServingStats | None = None,
        name: str = "model",
    ) -> None:
        if max_batch_rows < 1:
            raise InvalidParameterError(
                f"max_batch_rows must be >= 1; got {max_batch_rows}"
            )
        if max_wait_ms < 0.0:
            raise InvalidParameterError(f"max_wait_ms must be >= 0; got {max_wait_ms}")
        if max_queue_rows < 1:
            raise InvalidParameterError(
                f"max_queue_rows must be >= 1; got {max_queue_rows}"
            )
        self._predict_fn = predict_fn
        self._max_batch_rows = int(max_batch_rows)
        self._max_wait_s = float(max_wait_ms) / 1e3
        self._max_queue_rows = int(max_queue_rows)
        self._n_features = n_features
        self._validate_fn = validate_fn
        self.stats = stats if stats is not None else ServingStats()
        self.name = name
        self._pending: deque[_Request] = deque()
        self._pending_rows = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._flush_task: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serving-{name}"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # submission path (event-loop thread)

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif loop is not self._loop:
            raise InvalidParameterError(
                f"MicroBatcher {self.name!r} is bound to a different event loop; "
                "one batcher serves one loop"
            )
        return loop

    def _coerce(self, X: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(X, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise InvalidParameterError(
                f"queries must be one vector or a 2-d row matrix; got shape "
                f"{np.shape(X)}"
            )
        if self._n_features is not None and rows.shape[1] != self._n_features:
            raise InvalidParameterError(
                f"queries must have dimension {self._n_features}; "
                f"got shape {rows.shape}"
            )
        if self._validate_fn is not None and rows.shape[0]:
            self._validate_fn(rows)
        return rows

    async def submit(self, X: np.ndarray, *, timeout_s: float | None = None):
        """Labels for ``X`` (same contract as ``ClusterModel.predict``).

        Returns a 1-d int64 array with one label per query row (a 1-d
        input is one query). Raises ``ServerClosedError`` after
        :meth:`aclose`, ``ServerOverloadedError`` when the admission
        queue is full, and ``DeadlineExceededError`` when ``timeout_s``
        elapses before the result is delivered.
        """
        loop = self._bind_loop()
        if self._closed:
            raise ServerClosedError(f"batcher {self.name!r} is closed")
        rows = self._coerce(X)
        n = rows.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self._pending_rows and self._pending_rows + n > self._max_queue_rows:
            self.stats.count("rejected_overload")
            raise ServerOverloadedError(
                f"admission queue for {self.name!r} is full "
                f"({self._pending_rows} rows pending, cap {self._max_queue_rows}); "
                "back off and retry"
            )
        t_submit = time.monotonic()
        deadline = t_submit + timeout_s if timeout_s is not None else None
        fut: asyncio.Future = loop.create_future()
        req = _Request(rows, fut, t_submit, deadline)
        self._pending.append(req)
        self._pending_rows += n
        self.stats.record_admitted(n)
        if self._pending_rows >= self._max_batch_rows:
            self._schedule_flush()
        elif self._timer is None:
            self._timer = loop.call_later(self._max_wait_s, self._on_timer)
        if timeout_s is None:
            return await fut
        try:
            return await asyncio.wait_for(asyncio.shield(fut), timeout_s)
        except asyncio.CancelledError:
            fut.cancel()
            raise
        except asyncio.TimeoutError:
            if not fut.done():
                self.stats.count("deadline_missed")
                fut.set_exception(
                    DeadlineExceededError(
                        f"request to {self.name!r} missed its "
                        f"{timeout_s * 1e3:.1f} ms deadline"
                    )
                )
            if fut.cancelled():
                raise DeadlineExceededError(
                    f"request to {self.name!r} was cancelled at its deadline"
                ) from None
            exc = fut.exception()
            if exc is not None:
                raise exc from None
            return fut.result()

    # ------------------------------------------------------------------
    # flush path (event-loop thread + worker thread for the kernel)

    def _on_timer(self) -> None:
        self._timer = None
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._flush_task is None or self._flush_task.done():
            assert self._loop is not None
            self._flush_task = self._loop.create_task(self._drain())

    def _take_batch(self) -> list[_Request]:
        """Pop live requests up to ``max_batch_rows`` (never splitting one)."""
        batch: list[_Request] = []
        taken = 0
        now = time.monotonic()
        while self._pending:
            req = self._pending[0]
            n = req.rows.shape[0]
            if batch and taken + n > self._max_batch_rows:
                break
            self._pending.popleft()
            self._pending_rows -= n
            if req.future.done():
                # Cancelled by the caller (or already failed) while
                # queued; deadline expiries were counted when they fired.
                if req.future.cancelled():
                    self.stats.count("cancelled")
                continue
            if req.deadline is not None and now >= req.deadline:
                self.stats.count("deadline_missed")
                req.future.set_exception(
                    DeadlineExceededError(
                        f"request to {self.name!r} expired before batch assembly"
                    )
                )
                continue
            req.t_assembled = now
            batch.append(req)
            taken += n
        return batch

    async def _drain(self) -> None:
        while self._pending:
            batch = self._take_batch()
            if batch:
                await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Request]) -> None:
        assert self._loop is not None
        t0 = batch[0].t_assembled
        X = (
            batch[0].rows
            if len(batch) == 1
            else np.concatenate([req.rows for req in batch], axis=0)
        )
        n_rows = X.shape[0]
        t1 = time.monotonic()
        try:
            labels = await self._loop.run_in_executor(
                self._executor, self._predict_fn, X
            )
        except Exception as exc:
            self.stats.count("errors", len(batch))
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        t2 = time.monotonic()
        self.stats.record_batch(n_rows, assembly_s=t1 - t0, kernel_s=t2 - t1)
        offset = 0
        for req in batch:
            n = req.rows.shape[0]
            if not req.future.done():
                req.future.set_result(labels[offset : offset + n])
                self.stats.record_request(
                    queue_wait_s=req.t_assembled - req.t_submit,
                    e2e_s=t2 - req.t_submit,
                )
            offset += n

    # ------------------------------------------------------------------
    # shutdown

    async def aclose(self) -> None:
        """Stop admissions, drain pending requests, release the worker."""
        if self._closed:
            self._executor.shutdown(wait=True)
            return
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._pending:
            self._schedule_flush()
        if self._flush_task is not None and not self._flush_task.done():
            await self._flush_task
        self._executor.shutdown(wait=True)

    def run_on_worker(self, fn: Callable[[], Any]) -> "asyncio.Future[Any]":
        """Queue ``fn`` behind every kernel already submitted.

        The server's reload path uses this to close a swapped-out model
        only after any kernel that may still reference it has finished
        (the one-thread executor runs jobs FIFO).
        """
        loop = self._loop if self._loop is not None else asyncio.get_running_loop()
        return loop.run_in_executor(self._executor, fn)
