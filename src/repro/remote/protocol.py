"""Length-prefixed socket wire protocol of the remote worker pool.

One message is one frame::

    MAGIC (4 bytes) | header length (uint32 BE) | header JSON | payloads

The header is a small JSON object carrying the operation and its scalar
arguments plus an ``arrays`` manifest — ``[{name, dtype, shape}, ...]``
describing the binary ndarray payloads concatenated after it, in order.
Query matrices travel to workers and CSR result triples travel back as
raw C-contiguous buffers: no pickling, nothing version-fragile on the
wire, and a reader can size every read exactly before issuing it.

Failure mapping: a peer that closes the connection *between* frames is
reported as ``None`` from :func:`recv_msg` (a clean goodbye); one that
dies *mid-frame* raises :class:`~repro.exceptions.WorkerUnavailableError`
(retryable — the peer is gone, not malformed); bad magic, oversized or
malformed headers raise :class:`~repro.exceptions.RemoteProtocolError`
(not retryable — the endpoint is not speaking this protocol).

:class:`FrameServer` is the one server loop both frame-speaking
endpoints (pool workers and the serving front door) run: they supply
only a ``handler(header, arrays) -> (reply, reply_arrays, keep)``.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from collections.abc import Callable

import numpy as np

from repro.exceptions import RemoteProtocolError, ReproError, WorkerUnavailableError

__all__ = ["MAGIC", "FrameServer", "recv_msg", "send_msg"]

#: Frame magic: "repro pool, format 1". Bump on incompatible changes so
#: version skew fails as a protocol error, not silent corruption.
MAGIC = b"RPP1"

#: Sanity cap on the JSON header (the bulk data travels as payloads).
_MAX_HEADER = 1 << 20

_LEN = struct.Struct(">I")

#: How often the accept loop wakes to notice a stop request (seconds).
_ACCEPT_POLL_S = 0.2

#: A request handler: ``(header, arrays) -> (reply, reply_arrays, keep)``;
#: ``keep=False`` stops the server after the reply is sent.
Handler = Callable[[dict, dict], tuple[dict, dict, bool]]


def send_msg(sock: socket.socket, header: dict, arrays: dict | None = None) -> None:
    """Send one frame: ``header`` plus the ``arrays`` payloads."""
    arrays = arrays or {}
    manifest = []
    payloads = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        manifest.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
        )
        payloads.append(array)
    header = dict(header)
    header["arrays"] = manifest
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > _MAX_HEADER:
        raise RemoteProtocolError(
            f"message header of {len(header_bytes)} bytes exceeds the "
            f"{_MAX_HEADER}-byte cap; move bulk data into array payloads"
        )
    try:
        sock.sendall(MAGIC + _LEN.pack(len(header_bytes)) + header_bytes)
        for array in payloads:
            sock.sendall(array)
    except (BrokenPipeError, ConnectionError) as exc:
        raise WorkerUnavailableError(
            f"peer went away while sending a frame: {exc}"
        ) from exc


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes | None:
    """Read exactly ``n`` bytes, or None on a clean EOF at a frame boundary."""
    chunks = []
    received = 0
    while received < n:
        try:
            chunk = sock.recv(min(n - received, 1 << 20))
        except ConnectionError as exc:
            raise WorkerUnavailableError(
                f"peer reset the connection mid-frame: {exc}"
            ) from exc
        if not chunk:
            if at_boundary and received == 0:
                return None
            raise WorkerUnavailableError(
                f"peer closed the connection mid-frame "
                f"({received} of {n} bytes received)"
            )
        chunks.append(chunk)
        received += len(chunk)
        at_boundary = False
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> tuple[dict, dict] | None:
    """Receive one frame as ``(header, arrays)``; None on clean EOF."""
    magic = _recv_exact(sock, len(MAGIC) + _LEN.size, at_boundary=True)
    if magic is None:
        return None
    if magic[: len(MAGIC)] != MAGIC:
        raise RemoteProtocolError(
            f"bad frame magic {magic[: len(MAGIC)]!r}: the peer is not a "
            "repro pool endpoint (or speaks an incompatible version)"
        )
    (header_len,) = _LEN.unpack(magic[len(MAGIC) :])
    if header_len > _MAX_HEADER:
        raise RemoteProtocolError(
            f"frame announces a {header_len}-byte header "
            f"(cap {_MAX_HEADER}): refusing"
        )
    header_bytes = _recv_exact(sock, header_len, at_boundary=False)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RemoteProtocolError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise RemoteProtocolError("frame header must be an object with 'arrays'")
    arrays: dict[str, np.ndarray] = {}
    for entry in header.pop("arrays"):
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RemoteProtocolError(f"malformed array manifest entry: {exc}") from exc
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        if nbytes < 0:
            raise RemoteProtocolError(f"negative payload size for array {name!r}")
        payload = _recv_exact(sock, nbytes, at_boundary=False) if nbytes else b""
        arrays[name] = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return header, arrays


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


class FrameServer:
    """Bind, accept, and answer frames with a thread per connection.

    Each request frame goes to ``handler``; a :class:`ReproError` it
    raises is sent back as ``{"error": {"type", "message"}}`` and the
    connection stays open. A peer that dies mid-frame or speaks garbage
    loses its connection, never the server. A reply with ``keep=False``
    sets :attr:`stopped`, after which the accept loop exits and closes
    the listener. Accepted sockets run with ``TCP_NODELAY``: a frame is
    several writes, and delayed ACK would otherwise hold back small
    replies by tens of milliseconds.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0):
        self._handler = handler
        self.stopped = threading.Event()
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
            self._listener.settimeout(_ACCEPT_POLL_S)
        except OSError:
            self._listener.close()
            raise
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    def serve_forever(self) -> None:
        """Accept connections until :attr:`stopped` is set."""
        try:
            while not self.stopped.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                conn.settimeout(None)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                with self._lock:
                    self._conns[conn] = thread
                thread.start()
        finally:
            _close_quietly(self._listener)

    def start(self) -> tuple[str, int]:
        """Run :meth:`serve_forever` on a background thread."""
        self._accept_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        """Stop accepting; open connections keep being served."""
        self.stopped.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        else:
            _close_quietly(self._listener)

    def close(self) -> None:
        """Stop, then hang up every open connection and join its thread."""
        self.stop()
        with self._lock:
            conns = list(self._conns.items())
        for conn, _ in conns:
            try:
                # Wakes the connection thread's blocking recv with EOF;
                # the thread then closes its own socket.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for _, thread in conns:
            thread.join(timeout=5.0)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                msg = recv_msg(conn)
                if msg is None:
                    return  # client hung up cleanly
                try:
                    reply, out, keep = self._handler(*msg)
                except ReproError as exc:
                    error = {"type": type(exc).__name__, "message": str(exc)}
                    reply, out, keep = {"error": error}, {}, True
                send_msg(conn, reply, out)
                if not keep:
                    self.stopped.set()
                    return
        except (ReproError, OSError):
            return  # dead or garbled peer: drop this connection only
        finally:
            with self._lock:
                self._conns.pop(conn, None)
            _close_quietly(conn)
