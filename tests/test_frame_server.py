"""The shared framed-TCP server loop of workers and the front door.

:class:`~repro.remote.protocol.FrameServer` owns everything both
endpoints used to hand-roll: binding, the accept loop, a thread per
connection, typed error replies, stop-on-``keep=False`` and teardown.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, RemoteExecutorError
from repro.remote.pool import _WorkerClient
from repro.remote.protocol import FrameServer, recv_msg, send_msg


def _handler(header, arrays):
    op = header.get("op")
    if op == "echo":
        return {"ok": True}, {"X": arrays["X"] * 2}, True
    if op == "stop":
        return {"ok": True}, {}, False
    raise InvalidParameterError("bad request")


@pytest.fixture()
def server():
    frames = FrameServer(_handler)
    frames.start()
    yield frames
    frames.close()


def _connect(server) -> socket.socket:
    return socket.create_connection(server.address, timeout=10.0)


def test_echo_round_trip(server):
    with _connect(server) as sock:
        send_msg(sock, {"op": "echo"}, {"X": np.arange(3.0)})
        header, arrays = recv_msg(sock)
    assert header == {"ok": True}
    assert np.array_equal(arrays["X"], [0.0, 2.0, 4.0])


def test_typed_error_reply_keeps_the_connection(server):
    with _connect(server) as sock:
        send_msg(sock, {"op": "bad"})
        header, _ = recv_msg(sock)
        assert header["error"] == {
            "type": "InvalidParameterError",
            "message": "bad request",
        }
        send_msg(sock, {"op": "echo"}, {"X": np.ones(1)})
        assert recv_msg(sock)[0] == {"ok": True}


def test_accepted_sockets_disable_nagle(server):
    with _connect(server) as sock:
        send_msg(sock, {"op": "echo"}, {"X": np.ones(1)})
        recv_msg(sock)
        (conn,) = list(server._conns)
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_worker_client_disables_nagle(server):
    client = _WorkerClient("%s:%d" % server.address, 10.0, 10.0)
    try:
        with pytest.raises(RemoteExecutorError, match="InvalidParameterError"):
            client.call({"op": "bad"})
        assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        client.close()


def test_keep_false_stops_the_server(server):
    with _connect(server) as sock:
        send_msg(sock, {"op": "stop"})
        assert recv_msg(sock)[0] == {"ok": True}
    assert server.stopped.wait(5.0)


def test_close_hangs_up_idle_connections(server):
    sock = _connect(server)
    try:
        send_msg(sock, {"op": "echo"}, {"X": np.ones(1)})
        recv_msg(sock)
        server.close()
        assert recv_msg(sock) is None  # clean EOF from the server side
        assert not server._conns
    finally:
        sock.close()
