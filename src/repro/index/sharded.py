"""Sharded execution backend for the batched range-query engine.

:class:`ShardedIndex` partitions the dataset into contiguous row shards,
fits one inner index per shard (any registered backend: brute force,
cover tree, k-means tree, grid), and answers the batched query API by
fanning query blocks across the shards through one of three executors:

* ``serial``  — one shard after another in the calling process (the
  reference executor every other one is differentially tested against);
* ``thread``  — a thread pool; NumPy releases the GIL inside BLAS, so
  shard GEMMs genuinely overlap on multi-core machines;
* ``remote``  — a fleet of :mod:`repro.remote` worker processes reached
  over a length-prefixed socket protocol. Each live shard is pinned to
  one worker (stable shard→worker affinity), which builds its inner
  index on first use and keeps it *warm across fits*: a second fit on
  the same pool attaches to the cached indexes and pays zero inner
  builds. A dead worker's shards are rebalanced across the survivors
  and the failed calls retried; timeouts get bounded retry.

The three executors are a fixed set, :data:`EXECUTORS`. A
:class:`ExecutorSpec` names one (``name`` + JSON-safe ``options``);
plain strings coerce (``executor="thread"`` is
``ExecutorSpec("thread")``), and unknown names raise listing the three.

Build lifecycle: an inner index is a build-once, query-many artifact.
The serial/thread executors build all live shards eagerly in
:meth:`ShardedIndex.build`; the remote executor builds them lazily in
the owning worker. Either way :meth:`ShardedIndex.stats` reports the
instrumented ``shard_inner_builds`` counter so hosts can prove the
build-once property per fit. :func:`resolve_engine_index` is the
shard-before-build seam: handed an *unbuilt* backend it constructs the
per-shard indexes directly, so no whole-dataset index is ever built just
to be thrown away.

Per-shard results arrive as CSR triples in *shard-local* row numbering;
the merge kernels below (:func:`concat_shard_rows`, :func:`merge_knn_rows`)
re-index them into global row ids and reassemble per-query rows that are
sorted and bit-identical to the single-index answer. Shards are
contiguous and disjoint, so re-indexing is one offset add per shard and
a range row is a plain concatenation. :func:`merge_shard_rows` is the
general sort-and-deduplicate kernel for arbitrary (even overlapping)
splits; the property-based tests check the fast path against it.

The module also hosts :class:`ShardingConfig`, the declarative sharding
spec that :class:`~repro.engine_config.ExecutionConfig` embeds and
threads explicitly into :class:`~repro.index.engine.NeighborhoodCache` /
:func:`resolve_engine_index` — the *only* way to shard a fit; there
is no ambient sharding state.

Exactness: range queries and counts are exact for exact inner backends
(a point's eps-neighborhood is the disjoint union of its per-shard
neighborhoods). KNN is a per-shard candidate merge: the returned
*distances* are exact for exact inner backends, and the returned ids
follow the deterministic (distance, global index) order — under exactly
tied distances (duplicated points) the id sequence may therefore differ
from a single brute-force index, whose tie order is argpartition-
arbitrary. Approximate inner backends (k-means tree below
``checks_ratio=1.0``) prune per shard and may surface different
candidates than one big tree — same contract as any partitioned ANN
index.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index.base import NeighborIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.cover_tree import CoverTree
from repro.index.grid import GridIndex
from repro.index.kmeans_tree import KMeansTree

__all__ = [
    "EXECUTORS",
    "INNER_BACKENDS",
    "ExecutorSpec",
    "ShardedIndex",
    "ShardingConfig",
    "backend_spec_of",
    "concat_shard_rows",
    "csr_to_rows",
    "make_inner_backend",
    "merge_knn_rows",
    "merge_shard_rows",
    "resolve_engine_index",
    "rows_to_csr",
    "shard_offsets",
]

#: Default number of query rows fanned out per executor round.
DEFAULT_QUERY_BLOCK = 2048

#: Registered inner backends, constructible by name in worker processes.
INNER_BACKENDS = {
    "brute_force": BruteForceIndex,
    "cover_tree": CoverTree,
    "grid": GridIndex,
    "kmeans_tree": KMeansTree,
}


def make_inner_backend(name: str, kwargs: dict | None = None):
    """Construct a registered inner backend from its picklable spec."""
    cls = INNER_BACKENDS.get(name)
    if cls is None:
        raise InvalidParameterError(
            f"unknown inner backend {name!r}; "
            f"available: {', '.join(sorted(INNER_BACKENDS))}"
        )
    return cls(**(kwargs or {}))


def backend_spec_of(index) -> tuple[str, dict] | None:
    """The ``(name, kwargs)`` spec reconstructing ``index``'s configuration.

    Returns None for index types (or states, e.g. a k-means tree seeded
    with a live Generator) that cannot be rebuilt from a picklable spec —
    callers leave such indexes unsharded rather than guessing.
    """
    if isinstance(index, BruteForceIndex):
        return "brute_force", {
            "block_size": index.block_size,
            "metric": index.metric.name,
        }
    if isinstance(index, CoverTree):
        return "cover_tree", {"base": index.base}
    if isinstance(index, KMeansTree):
        seed = getattr(index, "seed", None)
        if not (seed is None or isinstance(seed, int)):
            return None
        return "kmeans_tree", {
            "branching": index.branching,
            "checks_ratio": index.checks_ratio,
            "leaf_size": index.leaf_size,
            "seed": seed,
        }
    if isinstance(index, GridIndex):
        return "grid", {"eps": index.eps, "rho": index.rho}
    return None


# ----------------------------------------------------------------------
# Executor specs
# ----------------------------------------------------------------------

#: The shard executors, by name.
EXECUTORS = ("remote", "serial", "thread")


def _normalize_remote_options(options: dict) -> dict:
    allowed = {"addresses", "timeout_s", "retries", "connect_timeout_s"}
    unknown = set(options) - allowed
    if unknown:
        raise InvalidParameterError(
            f"unknown 'remote' executor options: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    addresses = options.get("addresses")
    if isinstance(addresses, str) or not isinstance(addresses, Sequence):
        raise InvalidParameterError(
            "the 'remote' executor requires an 'addresses' option: a "
            "sequence of 'host:port' worker endpoints "
            "(see `repro-cli pool serve`)"
        )
    normalized: list[str] = []
    for address in addresses:
        address = str(address)
        host, sep, port = address.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise InvalidParameterError(
                f"remote worker address must look like 'host:port'; "
                f"got {address!r}"
            )
        normalized.append(address)
    if not normalized:
        raise InvalidParameterError(
            "the 'remote' executor needs at least one worker address"
        )
    out: dict[str, object] = {"addresses": tuple(normalized)}
    for key in ("timeout_s", "connect_timeout_s"):
        if key in options:
            value = float(options[key])
            if not value > 0:
                raise InvalidParameterError(f"{key} must be > 0; got {value}")
            out[key] = value
    if "retries" in options:
        retries = int(options["retries"])
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0; got {retries}")
        out["retries"] = retries
    return out


def _json_safe_option(value):
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class ExecutorSpec:
    """One of :data:`EXECUTORS` by name, plus its JSON-safe options.

    Anywhere that accepts ``executor="thread"`` also accepts an
    ``ExecutorSpec`` (plain strings coerce, and wire dicts round-trip
    through :meth:`to_dict` / :meth:`from_dict`). Unknown names raise
    listing the executors; options are validated and canonicalized at
    construction (only ``remote`` takes any), so a spec that exists is a
    spec that can run.
    """

    name: str
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InvalidParameterError(
                f"executor name must be a string; got {type(self.name).__name__}"
            )
        if self.name not in EXECUTORS:
            raise InvalidParameterError(
                f"unknown executor {self.name!r}; executors: {', '.join(EXECUTORS)}"
            )
        if not isinstance(self.options, Mapping):
            raise InvalidParameterError(
                f"executor options must be a mapping; "
                f"got {type(self.options).__name__}"
            )
        options = dict(self.options)
        if self.name == "remote":
            options = _normalize_remote_options(options)
        elif options:
            raise InvalidParameterError(
                f"the {self.name!r} executor accepts no options; got {sorted(options)}"
            )
        object.__setattr__(self, "options", options)

    # options is a dict, which the generated __hash__ would choke on;
    # hash the canonical sorted item view instead (values are hashable
    # after normalization: scalars and tuples only).
    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.options.items()))))

    @classmethod
    def coerce(cls, value) -> "ExecutorSpec":
        """Accept a spec, a bare name string, or a wire dict."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise InvalidParameterError(
            "executor must be an ExecutorSpec, an executor name, "
            f"or a wire dict; got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        """JSON-safe wire form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "options": {k: _json_safe_option(v) for k, v in self.options.items()},
        }

    def wire_value(self) -> "str | dict":
        """The compact wire spelling :meth:`coerce` round-trips.

        Option-free specs serialize as their bare name — byte-identical
        to the pre-spec string wire format — optioned specs as the
        strict :meth:`to_dict` dict.
        """
        return self.name if not self.options else self.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutorSpec":
        """Strict reconstruction from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise InvalidParameterError(
                f"ExecutorSpec.from_dict needs a mapping; got {type(data).__name__}"
            )
        unknown = set(data) - {"name", "options"}
        if unknown:
            raise InvalidParameterError(
                f"unknown ExecutorSpec keys: {sorted(unknown)}"
            )
        if "name" not in data:
            raise InvalidParameterError("ExecutorSpec dict requires a 'name' key")
        return cls(data["name"], data.get("options") or {})


# ----------------------------------------------------------------------
# Partitioning and CSR merge kernels
# ----------------------------------------------------------------------


def shard_offsets(n_points: int, n_shards: int) -> np.ndarray:
    """Balanced contiguous row partition: offsets of length ``n_shards + 1``.

    Shard ``s`` owns rows ``[offsets[s], offsets[s + 1])``; the first
    ``n_points % n_shards`` shards get one extra row. With
    ``n_shards > n_points`` the trailing shards are empty — legal, they
    simply contribute nothing.
    """
    if n_shards < 1:
        raise InvalidParameterError(f"n_shards must be >= 1; got {n_shards}")
    if n_points < 0:
        raise InvalidParameterError(f"n_points must be >= 0; got {n_points}")
    base, extra = divmod(n_points, n_shards)
    sizes = np.full(n_shards, base, dtype=np.int64)
    sizes[:extra] += 1
    offsets = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def rows_to_csr(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged per-query rows into ``(indptr, flat)`` CSR arrays.

    The compact wire format shard workers return: two flat arrays pickle
    an order of magnitude cheaper than a list of small ndarrays.
    """
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        indptr[i + 1] = indptr[i] + len(row)
    if indptr[-1] == 0:
        return indptr, np.empty(0, dtype=np.int64)
    flat = np.concatenate([np.asarray(row, dtype=np.int64) for row in rows])
    return indptr, flat


def csr_to_rows(indptr: np.ndarray, flat: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`rows_to_csr`: slice flat storage back into rows."""
    return [flat[indptr[i] : indptr[i + 1]] for i in range(len(indptr) - 1)]


def merge_shard_rows(
    per_shard_rows: Sequence[Sequence[np.ndarray]],
    shard_starts: Sequence[int],
    n_queries: int | None = None,
) -> list[np.ndarray]:
    """Merge shard-local hit rows into global, sorted, deduplicated rows.

    ``per_shard_rows[s][q]`` holds query ``q``'s hits within shard ``s``
    in shard-local numbering; ``shard_starts[s]`` is the shard's first
    global row. Row ``q`` of the result is the sorted union of
    ``per_shard_rows[s][q] + shard_starts[s]`` over all shards. For the
    disjoint contiguous shards :class:`ShardedIndex` produces, the union
    is a plain concatenation — but the kernel deduplicates regardless,
    so it is correct for arbitrary overlapping splits too.
    """
    if n_queries is None:
        n_queries = len(per_shard_rows[0]) if per_shard_rows else 0
    starts = [np.int64(s) for s in shard_starts]
    merged: list[np.ndarray] = []
    for q in range(n_queries):
        parts = [
            np.asarray(rows[q], dtype=np.int64) + start
            for rows, start in zip(per_shard_rows, starts)
            if len(rows[q])
        ]
        if not parts:
            merged.append(np.empty(0, dtype=np.int64))
        elif len(parts) == 1:
            merged.append(np.unique(parts[0]))
        else:
            merged.append(np.unique(np.concatenate(parts)))
    return merged


def concat_shard_rows(
    per_shard_rows: Sequence[Sequence[np.ndarray]],
    shard_starts: Sequence[int],
    n_queries: int,
) -> list[np.ndarray]:
    """Fast-path merge for disjoint ascending shards with sorted rows.

    When shard ``s`` owns the contiguous global range starting at
    ``shard_starts[s]``, the starts ascend, and every per-shard row is
    sorted (true for all registered inner backends), the global row is a
    plain offset-add concatenation — already sorted and duplicate-free,
    no per-row sort needed. :func:`merge_shard_rows` is the general
    kernel the property tests prove for arbitrary (even overlapping)
    splits; this one skips its ``np.unique`` on the hot path.
    """
    starts = [np.int64(s) for s in shard_starts]
    merged: list[np.ndarray] = []
    for q in range(n_queries):
        parts = [
            np.asarray(rows[q], dtype=np.int64) + start
            for rows, start in zip(per_shard_rows, starts)
            if len(rows[q])
        ]
        if not parts:
            merged.append(np.empty(0, dtype=np.int64))
        elif len(parts) == 1:
            merged.append(parts[0])
        else:
            merged.append(np.concatenate(parts))
    return merged


def merge_knn_rows(
    per_shard_idx: Sequence[Sequence[np.ndarray]],
    per_shard_dist: Sequence[Sequence[np.ndarray]],
    shard_starts: Sequence[int],
    k: int,
    n_queries: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Merge per-shard KNN candidates into global top-``k`` rows.

    Every shard contributes its local top-``min(k, shard_size)``; the
    global answer is the ``k`` best candidates overall, ordered by
    ascending distance with ties broken by ascending global index (a
    deterministic order regardless of how candidates were split across
    shards).
    """
    if n_queries is None:
        n_queries = len(per_shard_idx[0]) if per_shard_idx else 0
    starts = [np.int64(s) for s in shard_starts]
    idx_rows: list[np.ndarray] = []
    dist_rows: list[np.ndarray] = []
    for q in range(n_queries):
        idx_parts = [
            np.asarray(rows[q], dtype=np.int64) + start
            for rows, start in zip(per_shard_idx, starts)
            if len(rows[q])
        ]
        if not idx_parts:
            idx_rows.append(np.empty(0, dtype=np.int64))
            dist_rows.append(np.empty(0))
            continue
        idx = np.concatenate(idx_parts)
        dist = np.concatenate(
            [
                np.asarray(rows[q], dtype=np.float64)
                for rows in per_shard_dist
                if len(rows[q])
            ]
        )
        order = np.lexsort((idx, dist))[:k]
        idx_rows.append(idx[order])
        dist_rows.append(dist[order])
    return idx_rows, dist_rows


# ----------------------------------------------------------------------
# Shard query operations (shared with the remote worker)
# ----------------------------------------------------------------------


def _op_range(index, Q: np.ndarray, eps: float):
    rows = index.batch_range_query(Q, eps)
    return rows_to_csr(rows)


def _op_count(index, Q: np.ndarray, eps: float):
    return np.asarray(index.batch_range_count(Q, eps), dtype=np.int64)


def _op_knn(index, Q: np.ndarray, k: int):
    query = getattr(index, "batch_knn_query", None)
    if query is None:
        raise InvalidParameterError(
            f"inner backend {type(index).__name__} does not support KNN queries"
        )
    idx_rows, dist_rows = query(Q, k)
    indptr, flat_idx = rows_to_csr(idx_rows)
    flat_dist = (
        np.concatenate([np.asarray(r, dtype=np.float64) for r in dist_rows])
        if indptr[-1]
        else np.empty(0)
    )
    return indptr, flat_idx, flat_dist


_SHARD_OPS = {"range": _op_range, "count": _op_count, "knn": _op_knn}


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class _SerialExecutor:
    """Runs shard calls one after another in the calling process."""

    def __init__(self, indexes: dict[int, object]) -> None:
        self._indexes = indexes

    def run(self, op: str, calls: list[tuple[int, tuple]]) -> list:
        fn = _SHARD_OPS[op]
        return [fn(self._indexes[shard_id], *args) for shard_id, args in calls]

    def close(self) -> None:
        pass


class _ThreadExecutor:
    """Runs shard calls on a thread pool (BLAS releases the GIL)."""

    def __init__(self, indexes: dict[int, object], n_workers: int) -> None:
        self._indexes = indexes
        self._pool = ThreadPoolExecutor(max_workers=n_workers)

    def run(self, op: str, calls: list[tuple[int, tuple]]) -> list:
        fn = _SHARD_OPS[op]
        futures = [
            self._pool.submit(fn, self._indexes[shard_id], *args)
            for shard_id, args in calls
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown()


# ----------------------------------------------------------------------
# The sharded index
# ----------------------------------------------------------------------


class ShardedIndex(NeighborIndex):
    """Row-sharded composite index behind the batched query API.

    Parameters
    ----------
    inner:
        Name of the registered inner backend fitted per shard
        (``"brute_force"``, ``"cover_tree"``, ``"kmeans_tree"``,
        ``"grid"``).
    inner_kwargs:
        Constructor arguments for the named inner backend (e.g. the
        grid's ``eps`` / ``rho``).
    n_shards:
        Number of contiguous row shards (>= 1). Empty shards (when
        ``n_shards > n_points``) are skipped.
    executor:
        An :class:`ExecutorSpec`, an executor name (``"serial"``,
        ``"thread"``, ``"remote"``), or a spec wire dict. Stored
        coerced: ``self.executor`` is always an :class:`ExecutorSpec`.
    n_workers:
        Pool width for the thread executor; defaults to
        ``min(n_live_shards, cpu_count)``. The remote executor's width
        is its address list.
    query_block:
        Query rows fanned out per executor round; bounds both the
        per-call payload size and peak memory of the merge.
    """

    def __init__(
        self,
        inner: str = "brute_force",
        inner_kwargs: dict | None = None,
        n_shards: int = 4,
        executor: "ExecutorSpec | str" = "serial",
        n_workers: int | None = None,
        query_block: int = DEFAULT_QUERY_BLOCK,
    ) -> None:
        if n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1; got {n_shards}")
        executor = ExecutorSpec.coerce(executor)
        if n_workers is not None and n_workers < 1:
            raise InvalidParameterError(f"n_workers must be >= 1; got {n_workers}")
        if query_block < 1:
            raise InvalidParameterError(f"query_block must be >= 1; got {query_block}")
        if inner not in INNER_BACKENDS:
            raise InvalidParameterError(
                f"unknown inner backend {inner!r}; "
                f"available: {', '.join(sorted(INNER_BACKENDS))}"
            )
        self.inner = inner
        self.inner_kwargs = dict(inner_kwargs or {})
        self.n_shards = int(n_shards)
        self.executor = executor
        self.n_workers = n_workers
        self.query_block = int(query_block)
        self._points: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._live: list[tuple[int, int, int]] = []  # (shard_id, lo, hi)
        self._executor_obj = None
        self._parent_builds = 0
        self._stats_snapshot: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, X: np.ndarray) -> "ShardedIndex":
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2:
            raise InvalidParameterError(f"X must be 2-d; got shape {X.shape}")
        self.close()
        self._points = X
        self._parent_builds = 0
        self._stats_snapshot = {}
        self._offsets = shard_offsets(X.shape[0], self.n_shards)
        self._live = [
            (s, int(self._offsets[s]), int(self._offsets[s + 1]))
            for s in range(self.n_shards)
            if self._offsets[s + 1] > self._offsets[s]
        ]
        if self.executor.name == "remote":
            self._start_executor()
        else:
            indexes = {
                s: make_inner_backend(self.inner, self.inner_kwargs).build(X[lo:hi])
                for s, lo, hi in self._live
            }
            self._parent_builds = len(indexes)
            self._start_executor(indexes)
        return self

    def _start_executor(self, indexes=None, artifact_path=None) -> None:
        """Start the executor over the live shards.

        ``serial`` and ``thread`` query ``indexes``, the built per-shard
        indexes keyed by live shard id. ``remote`` workers build their
        pinned shards themselves, or load them from ``artifact_path``.
        With no live shard (an empty dataset) there is nothing to run,
        so every executor degenerates to the task-free serial one.
        """
        name = self.executor.name
        indexes = dict(indexes or {})
        if name == "remote" and self._live:
            # Imported lazily: the remote package pulls in the socket
            # client and is only needed once a remote spec starts.
            from repro.remote.pool import RemoteExecutor

            self._executor_obj = RemoteExecutor(
                X=np.asarray(self._points, dtype=np.float64),
                shards={s: (lo, hi) for s, lo, hi in self._live},
                inner_name=self.inner,
                inner_kwargs=self.inner_kwargs,
                options=self.executor.options,
                artifact_path=artifact_path,
            )
        elif name == "thread" and self._live:
            n_workers = self.n_workers or min(len(self._live), os.cpu_count() or 1)
            self._executor_obj = _ThreadExecutor(indexes, n_workers)
        else:
            self._executor_obj = _SerialExecutor(indexes)

    def close(self) -> None:
        """Release executor resources (pools, connections). Idempotent.

        The final build accounting is snapshotted first, so
        :meth:`stats` keeps answering after the pools are gone.
        """
        if self._executor_obj is not None:
            self._stats_snapshot = self._collect_stats()
            self._executor_obj.close()
            self._executor_obj = None

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def n_live_shards(self) -> int:
        """Number of non-empty shards after :meth:`build`."""
        self._require_built()
        return len(self._live)

    def _collect_stats(self) -> dict[str, int]:
        stats = {
            "shard_live_shards": len(self._live),
            "shard_inner_builds": self._parent_builds,
            "shard_rebalances": 0,
        }
        # The remote executor builds in its workers and reports its own
        # counters through collect_stats().
        collect = getattr(self._executor_obj, "collect_stats", None)
        if collect is not None:
            snapshot = collect()
            stats["shard_inner_builds"] = snapshot["inner_builds"]
            stats["shard_rebalances"] = snapshot["n_rebalances"]
        return stats

    def stats(self) -> dict[str, int]:
        """Instrumented build accounting of the current fit.

        ``shard_inner_builds`` counts inner-index constructions since
        :meth:`build`: eager per-shard builds for the serial/thread
        executors, lazy in-worker builds for the remote executor. The
        build-once contract is
        ``shard_inner_builds == shard_live_shards`` once every shard has
        served a query — never ``n_workers × n_shards``.
        ``shard_rebalances`` counts worker-death rebalancing events.
        After :meth:`close` the snapshot taken at close time is returned.
        """
        self._require_built()
        if self._executor_obj is not None:
            self._stats_snapshot = self._collect_stats()
        return dict(self._stats_snapshot)

    def _require_executor(self):
        self._require_built()
        if self._executor_obj is None:
            raise NotFittedError(
                "ShardedIndex has been closed; call build() again to reopen"
            )
        return self._executor_obj

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def shard_indexes(self) -> dict[int, object]:
        """The built per-shard inner indexes, keyed by live shard id.

        Only the local (serial/thread) executors hold their indexes in
        this process; the remote executor's live in worker memory, so
        they cannot be handed out from the parent.
        (:func:`repro.persistence.save_index` no longer needs them — it
        rebuilds per-shard indexes parent-side when serializing a
        worker-held executor.)
        """
        executor = self._require_executor()
        indexes = getattr(executor, "_indexes", None)
        if indexes is None:
            from repro.exceptions import PersistenceError

            raise PersistenceError(
                f"a {self.executor.name!r}-sharded index keeps its shard "
                "indexes in worker memory; they cannot be handed out from "
                "the parent process"
            )
        return dict(indexes)

    def _attach_loaded(
        self, points, offsets, live, indexes, artifact_path=None
    ) -> "ShardedIndex":
        """Adopt reloaded per-shard state (repro.persistence's seam).

        ``points`` is typically a read-only memory map and is adopted
        as-is — reattaching never copies the matrix. A remote spec
        reattaches through the
        pool: ``artifact_path`` travels to the workers, which
        :func:`~repro.persistence.load_index` their pinned shards from
        the shared filesystem (``indexes`` may then be None — nothing is
        deserialized parent-side).
        """
        self.close()
        self._points = points
        self._parent_builds = 0
        self._stats_snapshot = {}
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._live = [(int(s), int(lo), int(hi)) for s, lo, hi in live]
        self._start_executor(indexes, artifact_path)
        return self

    # ------------------------------------------------------------------
    # Batched queries (the native forms; scalars route through them)
    # ------------------------------------------------------------------

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        executor = self._require_executor()
        Q = self._as_query_matrix(Q)
        n_queries = Q.shape[0]
        out: list[np.ndarray] = []
        starts = [lo for _, lo, _ in self._live]
        for block_lo in range(0, n_queries, self.query_block):
            Qb = Q[block_lo : block_lo + self.query_block]
            if not self._live:
                out.extend(np.empty(0, dtype=np.int64) for _ in range(Qb.shape[0]))
                continue
            calls = [(shard_id, (Qb, eps)) for shard_id, _, _ in self._live]
            results = executor.run("range", calls)
            per_shard = [csr_to_rows(indptr, flat) for indptr, flat in results]
            # Registered backends return sorted rows over disjoint
            # ascending shards: concatenation is the merged answer.
            out.extend(concat_shard_rows(per_shard, starts, Qb.shape[0]))
        return out

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        executor = self._require_executor()
        Q = self._as_query_matrix(Q)
        n_queries = Q.shape[0]
        counts = np.zeros(n_queries, dtype=np.int64)
        for block_lo in range(0, n_queries, self.query_block):
            block_hi = min(block_lo + self.query_block, n_queries)
            Qb = Q[block_lo:block_hi]
            if not self._live:
                continue
            calls = [(shard_id, (Qb, eps)) for shard_id, _, _ in self._live]
            for shard_counts in executor.run("count", calls):
                counts[block_lo:block_hi] += shard_counts
        return counts

    def batch_knn_query(
        self, Q: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        executor = self._require_executor()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive; got {k}")
        Q = self._as_query_matrix(Q)
        n_queries = Q.shape[0]
        idx_out: list[np.ndarray] = []
        dist_out: list[np.ndarray] = []
        starts = [lo for _, lo, _ in self._live]
        for block_lo in range(0, n_queries, self.query_block):
            Qb = Q[block_lo : block_lo + self.query_block]
            if not self._live:
                idx_out.extend(np.empty(0, dtype=np.int64) for _ in range(Qb.shape[0]))
                dist_out.extend(np.empty(0) for _ in range(Qb.shape[0]))
                continue
            calls = [
                (shard_id, (Qb, min(k, hi - lo))) for shard_id, lo, hi in self._live
            ]
            results = executor.run("knn", calls)
            per_shard_idx = [
                csr_to_rows(indptr, flat_idx) for indptr, flat_idx, _ in results
            ]
            per_shard_dist = [
                csr_to_rows(indptr, flat_dist) for indptr, _, flat_dist in results
            ]
            idx_rows, dist_rows = merge_knn_rows(
                per_shard_idx, per_shard_dist, starts, k, n_queries=Qb.shape[0]
            )
            idx_out.extend(idx_rows)
            dist_out.extend(dist_rows)
        return idx_out, dist_out

    # ------------------------------------------------------------------
    # Scalar queries (single-row batches)
    # ------------------------------------------------------------------

    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        (row,) = self.batch_range_query(np.asarray(q, dtype=np.float64)[None, :], eps)
        return row

    def range_count(self, q: np.ndarray, eps: float) -> int:
        (count,) = self.batch_range_count(np.asarray(q, dtype=np.float64)[None, :], eps)
        return int(count)

    def knn_query(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        idx_rows, dist_rows = self.batch_knn_query(
            np.asarray(q, dtype=np.float64)[None, :], k
        )
        return idx_rows[0], dist_rows[0]


# ----------------------------------------------------------------------
# Engine-level sharding configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardingConfig:
    """How :class:`~repro.index.engine.NeighborhoodCache` shards queries.

    ``executor`` accepts an :class:`ExecutorSpec`, an executor name
    string, or a spec wire dict, and is stored coerced to an
    :class:`ExecutorSpec` — so configs compare, hash, and serialize on
    the canonical form regardless of how they were spelled.
    """

    n_shards: int = 4
    executor: "ExecutorSpec | str" = "serial"
    n_workers: int | None = None
    query_block: int = DEFAULT_QUERY_BLOCK

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1; got {self.n_shards}")
        object.__setattr__(self, "executor", ExecutorSpec.coerce(self.executor))
        if self.n_workers is not None and self.n_workers < 1:
            raise InvalidParameterError(f"n_workers must be >= 1; got {self.n_workers}")
        if self.query_block < 1:
            raise InvalidParameterError(
                f"query_block must be >= 1; got {self.query_block}"
            )

    def make_index(self, inner: str, inner_kwargs: dict) -> "ShardedIndex":
        """An unbuilt :class:`ShardedIndex` configured per this config."""
        return ShardedIndex(
            inner=inner,
            inner_kwargs=inner_kwargs,
            n_shards=self.n_shards,
            executor=self.executor,
            n_workers=self.n_workers,
            query_block=self.query_block,
        )


def resolve_engine_index(index, X: np.ndarray, config: ShardingConfig | None = None):
    """Resolve the engine's query index, building shard-first when possible.

    The shard-before-build seam of the batched engine
    (:class:`~repro.index.engine.NeighborhoodCache`): hosts hand over the
    *unbuilt* backend they would have fitted themselves, and

    * with ``config`` set and a registered backend spec, the per-shard
      indexes are built directly over ``X`` — the whole-dataset index is
      never constructed, so a sharded fit pays exactly ``n_live_shards``
      inner builds;
    * with ``config`` set but no rebuild spec (a k-means tree seeded
      with a live Generator), the index is used unsharded, with a
      :class:`RuntimeWarning`;
    * with ``config`` None, the index is built over ``X`` exactly as the
      host would have done.

    A *fitted* index (ρ-approximate DBSCAN's grid, which the algorithm
    also queries directly) is used as-is when unsharded; under a config
    its shard copies are re-fit over ``X``, which it must already index
    for neighbour ids to line up with the caller's rows.

    Returns ``(resolved_index, owned)``. ``owned`` means the resolver
    *built* the result — including the in-place build of an unbuilt
    object the host handed over — and the host should treat it as the
    engine's to ``close()``; only a fitted index passed through
    untouched stays the caller's (``owned`` False).
    """
    spec = None
    if config is not None and not isinstance(index, ShardedIndex):
        spec = backend_spec_of(index)
        if spec is None:
            warnings.warn(
                f"sharding is active but {type(index).__name__} has no "
                "registered rebuild spec: querying it unsharded",
                RuntimeWarning,
                stacklevel=2,
            )
    if spec is None:
        return (index, False) if index.is_built else (index.build(X), True)
    name, kwargs = spec
    return config.make_index(name, kwargs).build(X), True
