"""The pool worker: a warm shard holder behind a TCP socket.

One worker process serves many client connections (one thread each,
via the shared :class:`~repro.remote.protocol.FrameServer`) and
holds every shard index it has ever built in an in-memory cache keyed
by ``(dataset, metric, rows)`` — so a second fit (or a different
clusterer, or a new eps: brute-force shards do not depend on eps)
against the same pool attaches to the cached index and pays zero inner
builds. Datasets arrive once per worker, content-addressed by sha256
fingerprint.

Requests (see :mod:`repro.remote.protocol` for the framing):

``ping``
    Liveness + identity: ``{"ok", "pid", "blas_threads"}``.
    ``blas_threads`` is the OpenBLAS thread count read back after the
    worker pinned it to 1 (:func:`_pin_blas_single_thread`), or ``null``
    when the process has no OpenBLAS thread control.
``ensure_dataset``
    ``{"fingerprint"}`` → ``{"have": bool}`` — lets the client skip the
    bulk upload when the worker already holds the matrix.
``put_dataset``
    ``{"fingerprint"}`` + array ``X`` → stores it content-addressed.
``query``
    ``{"arg": eps, "shard": spec}`` plus exactly one query array
    (``spec`` as in :func:`_shard_key`): ``rows``, 1-d integer ids of
    rows of the shard's held dataset (a fit's row-id queries), or
    ``Q``, a float64 matrix of new vectors (predict and serving). Builds
    or cache-hits the shard index (after a rebalance the new owner sees
    the shard for the first time mid-fit), runs the range query and
    returns its CSR arrays ``indptr`` and ``flat`` (shard-local int64
    ids), plus ``{"built": bool}``.
``pairs``
    ``{"arg": eps, "shard": spec}`` plus, for a join over a row subset,
    ``rows``: strictly ascending integer ids of the held dataset; the
    self-join sends no array. The shard's part of a
    :meth:`~repro.index.sharded.ShardedIndex.range_pairs` join: the join
    loop of :meth:`~repro.index.brute_force.BruteForceIndex.range_pairs`
    over the shard's columns (every row below the shard is read from the
    held dataset). Returns CSR over the join's rows: ``indptr`` and each
    row's ascending global int32 ``cols``, plus ``{"built": bool}``.
    Rows are validated as a ``query``'s, and must also be strictly
    ascending.
``shutdown``
    Acknowledges, then stops the whole worker process.

Worker-side exceptions are caught per request and returned as
``{"error": {"type", "message"}}`` — a misbehaving request must not
take down a warm shard holder.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import threading
import warnings

import numpy as np

from repro.exceptions import RemoteProtocolError
from repro.index import sharded as _sharded
from repro.index.brute_force import BruteForceIndex
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
    """Cache key of one shard spec: dataset, metric, row range.

    ``shard`` carries the ``dataset`` fingerprint, the metric of its
    brute-force index, the shard id and its ``[lo, hi)`` rows.
    """
    return (
        str(shard["dataset"]),
        str(shard["metric"]),
        int(shard["shard_id"]),
        int(shard["lo"]),
        int(shard["hi"]),
    )


class ShardHolder:
    """The worker's warm cache: datasets and built shard indexes.

    Everything it receives stays until the worker exits: each dataset,
    and each shard index built over it (a cosine shard adds its float32
    copy; its float64 rows are a view of the held dataset).
    """

    def __init__(self) -> None:
        self._datasets: dict[str, np.ndarray] = {}
        self._indexes: dict[tuple, BruteForceIndex] = {}
        self._lock = threading.Lock()

    def has_dataset(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._datasets

    def put_dataset(self, fingerprint: str, X: np.ndarray) -> None:
        with self._lock:
            self._datasets.setdefault(fingerprint, X)

    def dataset(self, fingerprint: str) -> np.ndarray:
        """The held dataset ``fingerprint``; a protocol error when absent."""
        with self._lock:
            X = self._datasets.get(fingerprint)
        if X is None:
            raise RemoteProtocolError(
                f"worker holds no dataset {fingerprint[:12]}…; the "
                "client must put_dataset before attaching shards to it"
            )
        return X

    def attach(self, shard: dict) -> tuple[BruteForceIndex, bool]:
        """The shard's index, building it on first sight.

        Returns ``(index, built)``; ``built`` is True only when this
        call constructed the index — the client sums these to
        counter-prove warm reuse.
        """
        key = _shard_key(shard)
        with self._lock:
            index = self._indexes.get(key)
        if index is not None:
            return index, False
        # Build outside the lock: shard builds are the expensive part
        # and two different shards must not serialize on each other.
        X = self.dataset(str(shard["dataset"]))
        lo, hi = int(shard["lo"]), int(shard["hi"])
        index = BruteForceIndex(metric=str(shard["metric"])).build(
            np.ascontiguousarray(X[lo:hi])
        )
        with self._lock:
            winner = self._indexes.setdefault(key, index)
        return winner, winner is index


def _query_rows(rows: np.ndarray, n_points: int) -> np.ndarray:
    """Validated row ids of a request: 1-d integers in ``[0, n_points)``."""
    if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
        raise RemoteProtocolError(
            "query rows must be a 1-d integer array; got "
            f"{rows.ndim}-d {rows.dtype}"
        )
    if rows.size and (rows.min() < 0 or rows.max() >= n_points):
        raise RemoteProtocolError(
            f"query rows must lie in [0, {n_points}); got "
            f"[{rows.min()}, {rows.max()}]"
        )
    return rows


def _join_rows(arrays: dict, n_points: int) -> np.ndarray | None:
    """The rows of a ``pairs`` join: none (the self-join), or ``rows``
    valid as a query's and strictly ascending."""
    if not set(arrays) <= {"rows"}:
        raise RemoteProtocolError(
            f"a pairs request carries at most the array 'rows'; got {sorted(arrays)}"
        )
    if "rows" not in arrays:
        return None
    rows = _query_rows(arrays["rows"], n_points).astype(np.int64)
    if np.any(rows[1:] <= rows[:-1]):
        raise RemoteProtocolError(
            "query rows of a pairs join must be strictly ascending"
        )
    return rows


def _query_matrix(holder: ShardHolder, shard: dict, arrays: dict) -> np.ndarray:
    """The query vectors of a ``query``: held rows by id, or ``Q`` as sent."""
    if ("rows" in arrays) == ("Q" in arrays):
        raise RemoteProtocolError(
            "a query carries exactly one of the arrays 'rows' and 'Q'; "
            f"got {sorted(arrays)}"
        )
    if "Q" in arrays:
        return np.asarray(arrays["Q"], dtype=np.float64)
    X = holder.dataset(str(shard["dataset"]))
    return X[_query_rows(arrays["rows"], X.shape[0])]


def _handle_request(
    holder: ShardHolder,
    header: dict,
    arrays: dict,
    *,
    blas_threads: int | None = None,
):
    """One request → ``(reply_header, reply_arrays, keep_serving)``."""
    op = header.get("op")
    if op == "ping":
        reply = {"ok": True, "pid": os.getpid(), "blas_threads": blas_threads}
        return reply, {}, True
    if op == "ensure_dataset":
        return {"have": holder.has_dataset(str(header["fingerprint"]))}, {}, True
    if op == "put_dataset":
        X = np.asarray(arrays["X"], dtype=np.float64)
        holder.put_dataset(str(header["fingerprint"]), X)
        return {"ok": True}, {}, True
    if op == "query":
        shard = header["shard"]
        Q = _query_matrix(holder, shard, arrays)
        eps = float(header["arg"])
        index, built = holder.attach(shard)
        indptr, flat = _sharded._op_range(index, Q, eps)
        return {"built": built}, {"indptr": indptr, "flat": flat}, True
    if op == "pairs":
        shard = header["shard"]
        X = holder.dataset(str(shard["dataset"]))
        rows = _join_rows(arrays, X.shape[0])
        eps = float(header["arg"])
        index, built = holder.attach(shard)
        indptr, cols = _sharded._op_pairs(index, X, eps, rows, int(shard["lo"]))
        return {"built": built}, {"indptr": indptr, "cols": cols}, True
    if op == "shutdown":
        return {"ok": True}, {}, False
    raise RemoteProtocolError(f"unknown pool request op {op!r}")


#: ``(set, get)`` thread-count symbol pairs an OpenBLAS build may
#: export: plain, and as renamed by the scipy-openblas wheels numpy and
#: scipy bundle (``64_`` marks the ILP64 build).
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (
        f"{prefix}openblas_set_num_threads{suffix}",
        f"{prefix}openblas_get_num_threads{suffix}",
    )
    for prefix in ("", "scipy_")
    for suffix in ("", "64_")
)


def _loaded_openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process.

    Read from ``/proc/self/maps``; empty where that does not exist.
    """
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    fields = (line.split(maxsplit=5) for line in lines)
    paths = {parts[5] for parts in fields if len(parts) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _blas_thread_controls() -> list[tuple[object, object]]:
    """``(set_num_threads, get_num_threads)`` of every loaded OpenBLAS."""
    controls = []
    for path in _loaded_openblas_paths():
        lib = ctypes.CDLL(path)
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


def _pin_blas_single_thread() -> int | None:
    """Limit every loaded OpenBLAS to one thread; the count read back.

    One BLAS thread per worker: the pool's parallelism budget is spent
    on workers, and oversubscription (workers x BLAS threads) is the
    classic way a worker pool ends up slower than serial. Each OpenBLAS
    the process has loaded (numpy's and scipy's are separate libraries)
    is set through its exported ``*_set_num_threads*`` symbol via
    :mod:`ctypes`, then read back through the matching getter. Returns
    the largest count read back (1 once pinned), or ``None`` without a
    warning when no OpenBLAS thread control is found — the worker
    still runs, just at risk of oversubscription. A control that fails
    is a ``RuntimeWarning`` and ``None``.
    """
    try:
        controls = _blas_thread_controls()
        for setter, _ in controls:
            setter(1)
        counts = [getter() for _, getter in controls]
    except Exception as exc:
        warnings.warn(
            f"could not pin BLAS threads to 1: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return max(counts, default=None)


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    on_bound=None,
) -> None:
    """Run one worker: bind, announce, serve until told to shut down.

    ``port=0`` binds an ephemeral port; ``on_bound(host, port)`` is
    called once listening (the CLI prints it, spawn helpers report it to
    the parent). Blocks until a ``shutdown`` request arrives.
    """
    blas_threads = _pin_blas_single_thread()
    handler = functools.partial(
        _handle_request, ShardHolder(), blas_threads=blas_threads
    )
    server = FrameServer(handler, host, port)
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
    args = parser.parse_args(argv)

    def announce(host, port):
        print(f"repro pool worker listening on {host}:{port}", flush=True)

    serve(args.host, args.port, on_bound=announce)
    return 0


if __name__ == "__main__":
    raise SystemExit(worker_main())
