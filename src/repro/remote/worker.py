"""The pool worker: a warm shard holder behind a TCP socket.

One worker process serves many client connections (one thread each,
via the shared :class:`~repro.remote.protocol.FrameServer`) and
holds every shard index it has ever built or reattached in an in-memory
cache keyed by ``(dataset, inner spec, rows)`` — so a second fit (or a
different clusterer, or a new eps under an eps-independent inner
backend) against the same pool attaches to the cached index and pays
zero inner builds. Datasets arrive once per worker (content-addressed
by sha256 fingerprint) or never (persisted shard artifacts are loaded
from a shared filesystem via
:func:`repro.persistence.load_shard_index`).

Requests (see :mod:`repro.remote.protocol` for the framing):

``ping``
    Liveness + identity: ``{"ok", "pid"}``.
``ensure_dataset``
    ``{"fingerprint"}`` → ``{"have": bool}`` — lets the client skip the
    bulk upload when the worker already holds the matrix.
``put_dataset``
    ``{"fingerprint"}`` + array ``X`` → stores it content-addressed.
``attach``
    A shard spec (``shard``, see :func:`_shard_key`) → builds, loads,
    or cache-hits the shard index; ``{"built": bool}``.
``query``
    ``{"qop": range|count, "arg": eps, "shard": spec}`` + array ``Q``
    → runs the shard op (auto-attaching if needed — after a rebalance
    the new owner sees the shard for the first time mid-fit) and returns
    the range CSR arrays or the counts, plus ``{"built": bool}``.
``stats``
    Worker-global counters: ``{"inner_builds", "datasets", "indexes"}``.
``shutdown``
    Acknowledges, then stops the whole worker process.

Worker-side exceptions are caught per request and returned as
``{"error": {"type", "message"}}`` — a misbehaving request must not
take down a warm shard holder.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import threading
import warnings
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from repro.exceptions import InvalidParameterError, RemoteProtocolError
from repro.index import sharded as _sharded
from repro.remote.protocol import FrameServer

__all__ = ["ShardHolder", "serve", "worker_main"]


def dataset_fingerprint(X: np.ndarray) -> str:
    """Content address of a dataset: sha256 over bytes, shape and dtype."""
    import hashlib

    X = np.ascontiguousarray(X)
    digest = hashlib.sha256()
    digest.update(repr((X.shape, X.dtype.str)).encode())
    digest.update(X.data)
    return digest.hexdigest()


def _shard_key(shard: dict) -> tuple:
    """Cache key of one shard spec: dataset, inner spec, row range.

    ``shard`` carries either a ``dataset`` fingerprint (lazy-build mode)
    or an ``artifact`` path (persisted-shard mode), plus the inner
    backend name/kwargs, the shard id and its ``[lo, hi)`` rows.
    """
    source = (
        ("artifact", str(shard["artifact"]))
        if shard.get("artifact")
        else ("dataset", str(shard["dataset"]))
    )
    return (
        source,
        str(shard["inner"]),
        json.dumps(shard.get("inner_kwargs") or {}, sort_keys=True),
        int(shard["shard_id"]),
        int(shard["lo"]),
        int(shard["hi"]),
    )


def _close_indexes(indexes: list[object]) -> None:
    """Release evicted indexes outside the holder lock."""
    for index in indexes:
        closer = getattr(index, "close", None)
        if closer is not None:
            closer()


def _index_nbytes(index: object) -> int:
    """Cheap size estimate of a cached shard index: its point matrices.

    That is the float64 rows plus, for a cosine brute-force index, their
    float32 copy. A grid's cell tables are a small fraction of its
    point matrix, so the bytes cap is enforced against the dominant
    terms only.
    """
    matrices = (getattr(index, name, None) for name in ("_points", "_points32"))
    return sum(int(m.nbytes) for m in matrices if isinstance(m, np.ndarray))


class ShardHolder:
    """The worker's warm cache: datasets and built shard indexes.

    ``max_cached_shards`` / ``max_cached_bytes`` bound the shard-index
    cache with LRU eviction so a long-lived warm worker serving many
    datasets cannot grow without bound. Entries pinned by an in-flight
    query (:meth:`acquire`) are never evicted — the cache may overshoot
    its cap transiently while every resident entry is in use — and an
    evicted shard is simply rebuilt (and counted) on its next attach.
    """

    def __init__(
        self,
        max_cached_shards: int | None = None,
        max_cached_bytes: int | None = None,
    ) -> None:
        if max_cached_shards is not None and max_cached_shards < 1:
            raise InvalidParameterError(
                f"max_cached_shards must be >= 1; got {max_cached_shards}"
            )
        if max_cached_bytes is not None and max_cached_bytes < 1:
            raise InvalidParameterError(
                f"max_cached_bytes must be >= 1; got {max_cached_bytes}"
            )
        self.max_cached_shards = max_cached_shards
        self.max_cached_bytes = max_cached_bytes
        self._datasets: dict[str, np.ndarray] = {}
        self._indexes: OrderedDict[tuple, object] = OrderedDict()
        self._in_use: dict[tuple, int] = {}
        self._cached_bytes = 0
        self._lock = threading.Lock()
        self.n_builds = 0
        self.n_evictions = 0

    def has_dataset(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._datasets

    def put_dataset(self, fingerprint: str, X: np.ndarray) -> None:
        with self._lock:
            self._datasets.setdefault(fingerprint, X)

    def attach(self, shard: dict, *, pin: bool = False) -> tuple[object, bool]:
        """The shard's index, building or loading it on first sight.

        Returns ``(index, built)``; ``built`` is True only when this
        call constructed (or loaded) the index — the client sums these
        to counter-prove warm reuse. ``pin=True`` additionally marks the
        entry in use (ineligible for eviction) until the matching
        :meth:`release`; use :meth:`acquire` for the paired form.
        """
        key = _shard_key(shard)
        with self._lock:
            index = self._indexes.get(key)
            if index is not None:
                self._indexes.move_to_end(key)
                if pin:
                    self._in_use[key] = self._in_use.get(key, 0) + 1
                return index, False
        # Build outside the lock: shard builds are the expensive part
        # and two different shards must not serialize on each other.
        if shard.get("artifact"):
            from repro.persistence import load_shard_index

            index = load_shard_index(shard["artifact"], int(shard["shard_id"]))
        else:
            fingerprint = str(shard["dataset"])
            with self._lock:
                X = self._datasets.get(fingerprint)
            if X is None:
                raise RemoteProtocolError(
                    f"worker holds no dataset {fingerprint[:12]}…; the "
                    "client must put_dataset before attaching shards to it"
                )
            lo, hi = int(shard["lo"]), int(shard["hi"])
            index = _sharded.make_inner_backend(
                str(shard["inner"]), dict(shard.get("inner_kwargs") or {})
            ).build(np.ascontiguousarray(X[lo:hi]))
        with self._lock:
            winner = self._indexes.setdefault(key, index)
            built = winner is index
            self._indexes.move_to_end(key)
            if built:
                self.n_builds += 1
                self._cached_bytes += _index_nbytes(index)
            if pin:
                self._in_use[key] = self._in_use.get(key, 0) + 1
            evicted = self._evict_locked()
        _close_indexes(evicted)
        return winner, built

    def release(self, shard: dict) -> None:
        """Unpin one :meth:`attach(pin=True) <attach>` hold on the shard."""
        key = _shard_key(shard)
        with self._lock:
            count = self._in_use.get(key, 0) - 1
            if count > 0:
                self._in_use[key] = count
            else:
                self._in_use.pop(key, None)
            evicted = self._evict_locked()
        _close_indexes(evicted)

    @contextmanager
    def acquire(self, shard: dict):
        """Context-managed pinned attach: ``(index, built)``, auto-released."""
        result = self.attach(shard, pin=True)
        try:
            yield result
        finally:
            self.release(shard)

    def _evict_locked(self) -> list[object]:
        """Evict LRU non-pinned entries until both caps hold (lock held)."""
        evicted: list[object] = []
        while self._over_capacity_locked():
            victim = next(
                (k for k in self._indexes if k not in self._in_use), None
            )
            if victim is None:
                break  # everything resident is pinned: transient overshoot
            index = self._indexes.pop(victim)
            self._cached_bytes -= _index_nbytes(index)
            self.n_evictions += 1
            evicted.append(index)
        return evicted

    def _over_capacity_locked(self) -> bool:
        if (
            self.max_cached_shards is not None
            and len(self._indexes) > self.max_cached_shards
        ):
            return True
        return (
            self.max_cached_bytes is not None
            and self._cached_bytes > self.max_cached_bytes
        )

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "inner_builds": self.n_builds,
                "datasets": len(self._datasets),
                "indexes": len(self._indexes),
                "evictions": self.n_evictions,
                "cached_bytes": self._cached_bytes,
            }


def _handle_request(holder: ShardHolder, header: dict, arrays: dict):
    """One request → ``(reply_header, reply_arrays, keep_serving)``."""
    op = header.get("op")
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}, {}, True
    if op == "ensure_dataset":
        return {"have": holder.has_dataset(str(header["fingerprint"]))}, {}, True
    if op == "put_dataset":
        X = np.asarray(arrays["X"], dtype=np.float64)
        holder.put_dataset(str(header["fingerprint"]), X)
        return {"ok": True}, {}, True
    if op == "attach":
        _, built = holder.attach(header["shard"])
        return {"built": built}, {}, True
    if op == "query":
        qop = str(header["qop"])
        fn = _sharded._SHARD_OPS.get(qop)
        if fn is None:
            raise RemoteProtocolError(f"unknown shard query op {qop!r}")
        Q = np.asarray(arrays["Q"], dtype=np.float64)
        eps = float(header["arg"])
        # Pinned attach: an LRU-bounded holder must not evict the index
        # out from under the query another connection is running.
        with holder.acquire(header["shard"]) as (index, built):
            result = fn(index, Q, eps)
        if qop == "count":
            out = {"counts": result}
        else:
            out = {"indptr": result[0], "flat": result[1]}
        return {"built": built}, out, True
    if op == "stats":
        return holder.stats(), {}, True
    if op == "shutdown":
        return {"ok": True}, {}, False
    raise RemoteProtocolError(f"unknown pool request op {op!r}")


def _pin_blas_single_thread():
    """Limit BLAS pools in this process to one thread; returns the limiter.

    One BLAS thread per worker: the pool's parallelism budget is spent
    on workers, and oversubscription (workers x BLAS threads) is the
    classic way a worker pool ends up slower than serial. Returns
    ``None`` when threadpoolctl is unavailable — the worker still runs,
    just at risk of oversubscription.
    """
    try:
        import threadpoolctl
    except ImportError:
        return None
    try:
        return threadpoolctl.threadpool_limits(limits=1)
    except Exception as exc:
        warnings.warn(
            f"could not pin BLAS threads to 1: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    on_bound=None,
    holder: ShardHolder | None = None,
) -> None:
    """Run one worker: bind, announce, serve until told to shut down.

    ``port=0`` binds an ephemeral port; ``on_bound(host, port)`` is
    called once listening (the CLI prints it, spawn helpers report it to
    the parent). Blocks until a ``shutdown`` request arrives.
    """
    _pin_blas_single_thread()
    holder = holder or ShardHolder()
    server = FrameServer(functools.partial(_handle_request, holder), host, port)
    try:
        if on_bound is not None:
            on_bound(*server.address)
        server.serve_forever()
    finally:
        server.close()


def worker_main(argv=None) -> int:
    """CLI entry point: ``python -m repro.remote.worker --port N``."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Serve one repro pool worker: holds its pinned shard "
            "indexes warm across fits for remote sharded clustering."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--max-cached-shards",
        type=int,
        default=None,
        help="LRU bound on warm shard indexes (default: unbounded)",
    )
    parser.add_argument(
        "--max-cached-bytes",
        type=int,
        default=None,
        help="LRU bytes cap on warm shard indexes (default: unbounded)",
    )
    args = parser.parse_args(argv)

    def announce(host, port):
        print(f"repro pool worker listening on {host}:{port}", flush=True)

    holder = ShardHolder(
        max_cached_shards=args.max_cached_shards,
        max_cached_bytes=args.max_cached_bytes,
    )
    serve(args.host, args.port, on_bound=announce, holder=holder)
    return 0


if __name__ == "__main__":
    raise SystemExit(worker_main())
