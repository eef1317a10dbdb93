"""Stdlib TCP front door for :class:`~repro.serving.server.ModelServer`.

One wire idiom for the whole repo: frames are the length-prefixed
JSON-header + raw-array format of :mod:`repro.remote.protocol`, so the
serving front door and the remote worker pool speak the same protocol
(a serving client is a pool client with different ops).

Threading model: the asyncio event loop that owns the
:class:`ModelServer` runs on one background thread; the shared
:class:`~repro.remote.protocol.FrameServer` (the pool worker's server
loop) accepts connections and gives each a thread that parses frames
and bridges into the loop with ``asyncio.run_coroutine_threadsafe`` —
so slow clients never stall the batcher, and a dead client costs one
thread, not the server.

Ops (``header["op"]``):

- ``ping``     -> ``{"ok", "role": "serving", "models"}``
- ``predict``  -> header ``{"model", "timeout_ms"?}``, arrays
  ``{"X"}``; replies arrays ``{"labels"}`` (int64, one per query row)
- ``stats``    -> ``{"ok", "stats": {model: snapshot}}``
- ``reload``   -> header ``{"model", "path"}``
- ``shutdown`` -> drains and stops the front door

Server-side failures come back as ``{"error": {"type", "message"}}``
and are re-raised typed by :class:`~repro.serving.client.ServingClient`.
"""

from __future__ import annotations

import argparse
import asyncio
import threading
from typing import Any

import numpy as np

from repro.exceptions import InvalidParameterError, RemoteProtocolError
from repro.remote.protocol import FrameServer
from repro.serving.server import ModelServer

_CALL_TIMEOUT_GRACE_S = 30.0


class ServingFrontend:
    """Bind, accept, and serve a :class:`ModelServer` over TCP.

    ``start()`` returns the bound ``(host, port)`` (``port=0`` binds an
    ephemeral port); ``wait()`` blocks until a ``shutdown`` op or
    :meth:`close`; :meth:`close` drains the server gracefully and
    releases every socket and thread. Usable as a context manager.
    """

    def __init__(
        self, server: ModelServer, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._server = server
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._frames: FrameServer | None = None
        self._closed = False
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> tuple[str, int]:
        if self._loop is not None:
            raise InvalidParameterError("frontend is already started")
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serving-loop", daemon=True
        )
        self._loop_thread.start()
        self._frames = FrameServer(self._handle, self._host, self._port)
        self.address = self._frames.start()
        return self.address

    def wait(self, timeout: float | None = None) -> bool:
        """Block until shutdown is requested; True if it was."""
        return self._frames is not None and self._frames.stopped.wait(timeout)

    def close(self) -> None:
        """Graceful drain: stop accepting, flush batches, release sockets."""
        if self._closed:
            return
        self._closed = True
        if self._frames is not None:
            self._frames.stop()
        try:
            if self._loop is not None:
                # Drain in-flight batches before cutting connections, so
                # requests admitted before close still get their replies.
                asyncio.run_coroutine_threadsafe(
                    self._server.aclose(), self._loop
                ).result(timeout=_CALL_TIMEOUT_GRACE_S)
        finally:
            if self._frames is not None:
                self._frames.close()
            if self._loop is not None:
                self._loop.call_soon_threadsafe(self._loop.stop)
                if self._loop_thread is not None:
                    self._loop_thread.join(timeout=5.0)
                self._loop.close()

    def __enter__(self) -> "ServingFrontend":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # op dispatch (connection threads -> event loop)

    def _submit(self, coro: Any, timeout_s: float | None) -> Any:
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        grace = None if timeout_s is None else timeout_s + _CALL_TIMEOUT_GRACE_S
        return future.result(timeout=grace)

    def _handle(self, header: dict, arrays: dict) -> tuple[dict, dict, bool]:
        op = header.get("op")
        if op == "ping":
            return (
                {
                    "ok": True,
                    "role": "serving",
                    "models": self._server.model_names(),
                },
                {},
                True,
            )
        if op == "predict":
            X = arrays.get("X")
            if X is None:
                raise RemoteProtocolError("predict frame is missing the X array")
            timeout_ms = header.get("timeout_ms")
            timeout_s = None if timeout_ms is None else float(timeout_ms) / 1e3
            labels = self._submit(
                self._server.submit(
                    str(header.get("model")), X, timeout_s=timeout_s
                ),
                timeout_s,
            )
            labels = np.asarray(labels, dtype=np.int64)
            return {"ok": True, "n": int(labels.shape[0])}, {"labels": labels}, True
        if op == "stats":
            return {"ok": True, "stats": self._server.stats()}, {}, True
        if op == "reload":
            self._submit(
                self._server.reload(
                    str(header.get("model")), str(header.get("path"))
                ),
                None,
            )
            return {"ok": True}, {}, True
        if op == "shutdown":
            return {"ok": True}, {}, False
        raise RemoteProtocolError(f"unknown serving op {op!r}")


def parse_model_specs(specs: list[str]) -> dict[str, str]:
    """``name=path`` pairs (bare paths name themselves by directory)."""
    models: dict[str, str] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = spec.rstrip("/").rsplit("/", 1)[-1], spec
        if not name or not path:
            raise InvalidParameterError(
                f"bad model spec {spec!r}; expected name=path or a path"
            )
        if name in models:
            raise InvalidParameterError(f"duplicate model name {name!r}")
        models[name] = path
    return models


def serve(
    models: dict[str, str],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_batch_rows: int = 256,
    max_wait_ms: float = 2.0,
    max_queue_rows: int = 8192,
    default_timeout_s: float | None = None,
    log_interval_s: float = 60.0,
    on_bound: Any = None,
) -> None:
    """Load ``models`` (name -> artifact path), serve until shutdown."""
    server = ModelServer(
        max_batch_rows=max_batch_rows,
        max_wait_ms=max_wait_ms,
        max_queue_rows=max_queue_rows,
        default_timeout_s=default_timeout_s,
        log_interval_s=log_interval_s,
    )
    for name, path in models.items():
        server.add_model(name, path)
    frontend = ServingFrontend(server, host=host, port=port)
    try:
        bound = frontend.start()
        if on_bound is not None:
            on_bound(*bound)
        frontend.wait()
    finally:
        frontend.close()


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared flag set for ``repro serve`` and ``python -m repro.serving``."""
    parser.add_argument(
        "--model",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="model artifact to serve (repeatable; bare paths name themselves)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--max-batch-rows",
        type=int,
        default=256,
        help="flush a batch at this many pending rows (default 256)",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="flush at latest this long after the oldest request (default 2)",
    )
    parser.add_argument(
        "--max-queue-rows",
        type=int,
        default=8192,
        help="admission bound before backpressure (default 8192)",
    )
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="default per-request deadline (default: none)",
    )
    parser.add_argument(
        "--log-interval-s",
        type=float,
        default=60.0,
        help="period of the structured stats log line (0 disables)",
    )


def run_serve_args(args: argparse.Namespace) -> int:
    models = parse_model_specs(args.model)

    def announce(host: str, port: int) -> None:
        print(f"repro serving {sorted(models)} on {host}:{port}", flush=True)

    serve(
        models,
        args.host,
        args.port,
        max_batch_rows=args.max_batch_rows,
        max_wait_ms=args.max_wait_ms,
        max_queue_rows=args.max_queue_rows,
        default_timeout_s=(
            None if args.timeout_ms is None else args.timeout_ms / 1e3
        ),
        log_interval_s=args.log_interval_s,
        on_bound=announce,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.serving --model NAME=PATH``."""
    parser = argparse.ArgumentParser(
        prog="repro-serving",
        description=(
            "Serve ClusterModel artifacts over TCP with micro-batched "
            "multi-tenant prediction."
        ),
    )
    add_serve_arguments(parser)
    return run_serve_args(parser.parse_args(argv))
