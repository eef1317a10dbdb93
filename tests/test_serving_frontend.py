"""TCP front door round-trips: the wire must be as invisible as the batch.

Covers the :class:`~repro.serving.frontend.ServingFrontend` /
:class:`~repro.serving.client.ServingClient` pair end to end: labels
over TCP are bit-identical to local ``ClusterModel.predict``, server-side
failures come back as the same typed exceptions a local caller would
see, and shutdown releases every socket and thread (the sanitizer leg
fails the suite otherwise).
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import numpy as np
import pytest

import repro
from repro.exceptions import (
    DataValidationError,
    DeadlineExceededError,
    InvalidParameterError,
    RemoteProtocolError,
    WorkerUnavailableError,
)
from repro.remote.protocol import recv_msg, send_msg
from repro.serving import ModelServer, ServingClient, ServingFrontend
from repro.serving.frontend import parse_model_specs, serve
from repro.testing import make_blobs_on_sphere

EPS = 0.45
TAU = 4


@pytest.fixture(scope="module")
def corpus():
    """Training blobs plus wider-spread queries drawn on the same centers."""
    X, _ = make_blobs_on_sphere(100, 4, 16, seed=3)
    Q, _ = make_blobs_on_sphere(40, 4, 16, seed=3, spread=0.3)
    return X, Q


@pytest.fixture(scope="module")
def artifacts(corpus, tmp_path_factory):
    X, Q = corpus
    root = tmp_path_factory.mktemp("serving-artifacts")
    paths: dict[str, object] = {}
    expect: dict[str, np.ndarray] = {}
    for name, eps in (("loose", EPS), ("strict", 0.05)):
        with repro.fit_model(X, "dbscan", eps=eps, tau=TAU) as m:
            m.save(root / name)
            expect[name] = m.predict(Q)
        paths[name] = root / name
    assert not np.array_equal(expect["loose"], expect["strict"])
    return paths, expect


@pytest.fixture()
def frontend(artifacts):
    paths, _ = artifacts
    server = ModelServer(max_batch_rows=32, max_wait_ms=1.0)
    server.add_model("m", paths["loose"])
    with ServingFrontend(server) as fe:
        yield fe


class TestRoundTrips:
    def test_ping_reports_role_and_models(self, frontend):
        host, port = frontend.address
        with ServingClient(host, port) as client:
            reply = client.ping()
        assert reply["ok"] is True
        assert reply["role"] == "serving"
        assert reply["models"] == ["m"]

    def test_predict_bit_identical_over_tcp(self, frontend, corpus, artifacts):
        _, Q = corpus
        _, expect = artifacts
        host, port = frontend.address
        with ServingClient(host, port) as client:
            one = client.predict("m", Q[0])
            batch = client.predict("m", Q)
        assert one.dtype == np.int64 and batch.dtype == np.int64
        assert np.array_equal(one, expect["loose"][:1])
        assert np.array_equal(batch, expect["loose"])

    def test_concurrent_clients_bit_identical(self, frontend, corpus, artifacts):
        """Many clients hammering one front door still get exact labels."""
        _, Q = corpus
        _, expect = artifacts
        host, port = frontend.address
        results: list[np.ndarray | Exception] = [None] * 8  # type: ignore[list-item]

        def hammer(i: int) -> None:
            try:
                with ServingClient(host, port) as client:
                    got = [client.predict("m", Q) for _ in range(3)]
                results[i] = got[-1] if all(
                    np.array_equal(g, expect["loose"]) for g in got
                ) else AssertionError(f"client {i} saw a label mismatch")
            except Exception as exc:  # propagated to the main thread below
                results[i] = exc

        threads = [
            threading.Thread(target=hammer, args=(i,), daemon=True)
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        for got in results:
            if isinstance(got, Exception):
                raise got
            assert np.array_equal(got, expect["loose"])

    def test_stats_op_round_trips(self, frontend, corpus):
        _, Q = corpus
        host, port = frontend.address
        with ServingClient(host, port) as client:
            client.predict("m", Q)
            snap = client.stats()
        assert snap["m"]["counters"]["requests"] >= 1
        assert snap["m"]["counters"]["rows"] >= Q.shape[0]
        assert snap["m"]["e2e_ms"]["count"] >= 1

    def test_reload_op_swaps_model(self, frontend, corpus, artifacts):
        _, Q = corpus
        paths, expect = artifacts
        host, port = frontend.address
        with ServingClient(host, port) as client:
            before = client.predict("m", Q)
            client.reload("m", str(paths["strict"]))
            after = client.predict("m", Q)
        assert np.array_equal(before, expect["loose"])
        assert np.array_equal(after, expect["strict"])


class TestSmallFrameLatency:
    """A frame is several writes; without TCP_NODELAY delayed ACK holds
    back each small request/reply by tens of milliseconds."""

    def test_client_socket_disables_nagle(self, frontend):
        host, port = frontend.address
        with ServingClient(host, port) as client:
            client.ping()
            assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_small_predict_round_trip_is_fast(self, frontend, corpus):
        _, Q = corpus
        host, port = frontend.address
        with ServingClient(host, port) as client:
            client.predict("m", Q[:4])  # warm the connection and batcher
            rtts = []
            for _ in range(20):
                start = time.perf_counter()
                client.predict("m", Q[:4])
                rtts.append(time.perf_counter() - start)
        assert statistics.median(rtts) < 0.040


class TestTypedErrors:
    def test_unknown_model_is_invalid_parameter(self, frontend, corpus):
        _, Q = corpus
        host, port = frontend.address
        with ServingClient(host, port) as client:
            with pytest.raises(InvalidParameterError, match="unknown model"):
                client.predict("nope", Q[:2])
            # The connection survives a typed error.
            assert client.ping()["ok"] is True

    def test_validation_error_crosses_the_wire(self, frontend, corpus):
        _, Q = corpus
        host, port = frontend.address
        bad = Q[:3].copy()
        bad[1] *= 7.0  # not unit-norm => cosine validation rejects it
        with ServingClient(host, port) as client:
            with pytest.raises(DataValidationError):
                client.predict("m", bad)
            assert np.array_equal(
                client.predict("m", Q[:3]), client.predict("m", Q[:3])
            )

    def test_deadline_crosses_the_wire(self, artifacts, corpus):
        paths, _ = artifacts
        _, Q = corpus
        # A flush horizon far beyond the deadline makes the miss
        # deterministic: the request times out while still queued.
        server = ModelServer(max_batch_rows=4096, max_wait_ms=500.0)
        server.add_model("m", paths["loose"])
        with ServingFrontend(server) as fe:
            host, port = fe.address
            with ServingClient(host, port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.predict("m", Q, timeout_ms=1.0)

    def test_unknown_op_is_protocol_error(self, frontend):
        host, port = frontend.address
        with socket.create_connection((host, port), timeout=10.0) as conn:
            send_msg(conn, {"op": "make-coffee"})
            reply = recv_msg(conn)
        assert reply is not None
        header, _ = reply
        assert header["error"]["type"] == "RemoteProtocolError"
        with ServingClient(host, port) as client:
            with pytest.raises(RemoteProtocolError, match="unknown serving op"):
                client._call({"op": "make-coffee"})

    def test_predict_without_x_is_protocol_error(self, frontend):
        host, port = frontend.address
        with ServingClient(host, port) as client:
            with pytest.raises(RemoteProtocolError, match="missing the X"):
                client._call({"op": "predict", "model": "m"})

    def test_unreachable_front_door(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with ServingClient("127.0.0.1", free_port, timeout_s=2.0) as client:
            with pytest.raises(WorkerUnavailableError):
                client.ping()


class TestLifecycle:
    def test_shutdown_op_releases_the_front_door(self, artifacts, corpus):
        paths, expect = artifacts
        _, Q = corpus
        server = ModelServer(max_wait_ms=1.0)
        server.add_model("m", paths["loose"])
        fe = ServingFrontend(server)
        host, port = fe.start()
        try:
            with ServingClient(host, port) as client:
                assert np.array_equal(client.predict("m", Q), expect["loose"])
                client.shutdown()
            assert fe.wait(timeout=10.0)
        finally:
            fe.close()
        with ServingClient(host, port, timeout_s=2.0) as client:
            with pytest.raises(WorkerUnavailableError):
                client.ping()

    def test_close_is_idempotent_and_double_start_rejected(self, artifacts):
        paths, _ = artifacts
        server = ModelServer()
        server.add_model("m", paths["loose"])
        fe = ServingFrontend(server)
        fe.start()
        with pytest.raises(InvalidParameterError, match="already started"):
            fe.start()
        fe.close()
        fe.close()

    def test_serve_helper_runs_until_shutdown(self, artifacts, corpus):
        """The ``python -m repro.serving`` body: serve() in a thread."""
        paths, expect = artifacts
        _, Q = corpus
        bound: list[tuple[str, int]] = []
        ready = threading.Event()

        def on_bound(host: str, port: int) -> None:
            bound.append((host, port))
            ready.set()

        runner = threading.Thread(
            target=serve,
            args=({"m": str(paths["loose"])},),
            kwargs={"max_wait_ms": 1.0, "log_interval_s": 0.0, "on_bound": on_bound},
            daemon=True,
        )
        runner.start()
        assert ready.wait(timeout=30.0)
        host, port = bound[0]
        with ServingClient(host, port) as client:
            assert np.array_equal(client.predict("m", Q), expect["loose"])
            client.shutdown()
        runner.join(timeout=30.0)
        assert not runner.is_alive()


class TestCliSurface:
    def test_parse_model_specs(self):
        specs = parse_model_specs(
            ["prod=/tmp/a", "/artifacts/churn-model", "trail=/tmp/c/"]
        )
        assert specs == {
            "prod": "/tmp/a",
            "churn-model": "/artifacts/churn-model",
            "trail": "/tmp/c/",
        }
        with pytest.raises(InvalidParameterError, match="duplicate"):
            parse_model_specs(["m=/tmp/a", "m=/tmp/b"])
        with pytest.raises(InvalidParameterError, match="bad model spec"):
            parse_model_specs(["=/tmp/a"])

    def test_cli_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--model",
                "prod=/tmp/a",
                "--model",
                "/tmp/b",
                "--port",
                "9009",
                "--max-batch-rows",
                "128",
                "--max-wait-ms",
                "5",
                "--timeout-ms",
                "250",
            ]
        )
        assert args.command == "serve"
        assert args.model == ["prod=/tmp/a", "/tmp/b"]
        assert args.port == 9009
        assert args.max_batch_rows == 128
        assert args.max_wait_ms == 5.0
        assert args.timeout_ms == 250.0
