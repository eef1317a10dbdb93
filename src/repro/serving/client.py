"""Blocking TCP client for the serving front door.

Speaks the :mod:`repro.remote.protocol` frame format against a
:class:`~repro.serving.frontend.ServingFrontend`. Server-side failures
arrive as ``{"error": {"type", "message"}}`` replies and are re-raised
as the named :mod:`repro.exceptions` class when one exists (so a caller
can catch :class:`~repro.exceptions.ServerOverloadedError` and back
off), falling back to :class:`~repro.exceptions.ServingError`.

Thread-safe: one lock serializes round-trips on the single connection;
open one client per thread for concurrent load.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from repro import exceptions
from repro.exceptions import (
    ReproError,
    ServingError,
    WorkerUnavailableError,
)
from repro.remote.protocol import recv_msg, send_msg


def _raise_remote(error: dict) -> None:
    """Re-raise a server-reported error as its typed local class."""
    name = str(error.get("type"))
    message = str(error.get("message"))
    exc_type = getattr(exceptions, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        raise exc_type(message)
    raise ServingError(f"server reported {name}: {message}")


class ServingClient:
    """Round-trip client: ``predict`` / ``stats`` / ``reload`` / ``shutdown``.

    Connects lazily on first call; context-manager use closes the
    socket. ``timeout_s`` bounds each socket operation (connect, send,
    recv) — the per-request *deadline* is separate and travels in the
    predict frame as ``timeout_ms``.
    """

    def __init__(
        self, host: str, port: int, *, timeout_s: float | None = 60.0
    ) -> None:
        self.address = (host, port)
        self._timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def _call(self, header: dict, arrays: dict | None = None) -> tuple[dict, dict]:
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        self.address, timeout=self._timeout_s
                    )
                    self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                send_msg(self._sock, header, arrays)
                reply = recv_msg(self._sock)
            except OSError as exc:
                self.close()
                raise WorkerUnavailableError(
                    f"cannot reach serving front door at {self.address}: {exc}"
                ) from exc
            if reply is None:
                self.close()
                raise WorkerUnavailableError(
                    f"serving front door at {self.address} closed the connection"
                )
        header_out, arrays_out = reply
        error = header_out.get("error")
        if error:
            _raise_remote(error)
        return header_out, arrays_out

    def ping(self) -> dict:
        header, _ = self._call({"op": "ping"})
        return header

    def predict(
        self,
        model: str,
        X: np.ndarray,
        *,
        timeout_ms: float | None = None,
    ) -> np.ndarray:
        """Labels for ``X`` (``ClusterModel.predict`` contract, remote)."""
        header = {"op": "predict", "model": model, "timeout_ms": timeout_ms}
        _, arrays = self._call(header, {"X": np.asarray(X, dtype=np.float64)})
        return np.asarray(arrays["labels"], dtype=np.int64)

    def stats(self) -> dict:
        header, _ = self._call({"op": "stats"})
        return header["stats"]

    def reload(self, model: str, path: str) -> None:
        self._call({"op": "reload", "model": model, "path": str(path)})

    def shutdown(self) -> None:
        self._call({"op": "shutdown"})

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
