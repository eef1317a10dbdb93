"""Sharded execution backend for the batched range-query engine.

:class:`ShardedIndex` partitions the dataset into contiguous row shards,
fits one :class:`~repro.index.brute_force.BruteForceIndex` per shard (the
inner index), and answers the batched query API by
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

Build lifecycle: an inner index is built once and queried many times.
The serial/thread executors build all live shards eagerly in
:meth:`ShardedIndex.build`; the remote executor builds them lazily in
the owning worker. Either way :meth:`ShardedIndex.stats` reports the
instrumented ``shard_inner_builds`` counter so hosts can prove the
build-once property per fit. :func:`resolve_engine_index` is the
shard-before-build seam: under a sharding config it builds the per-shard
indexes directly over the dataset, so no whole-dataset index is ever
built just to be thrown away.

A fit queries rows of its own dataset, by id
(:meth:`ShardedIndex.batch_range_query_rows` /
:meth:`~ShardedIndex.batch_range_count_rows`): the ids go to the
executor, the serial and thread executors slice the parent's ``X``, and
the remote one sends the ids for each worker to slice the copy it
holds. New vectors (predict, serving) travel as the query matrix.

Per-shard range results arrive as CSR pairs in *shard-local* row
numbering; :func:`concat_shard_rows` re-indexes them into global row ids
and reassembles per-query rows that are sorted and bit-identical to the
single-index answer. Shards are contiguous and disjoint, so re-indexing
is one offset add per shard and a range row is a plain concatenation.
:func:`merge_shard_rows` is the general sort-and-deduplicate kernel for
arbitrary (even overlapping) splits; the property-based tests check the
fast path against it.

The module also hosts :class:`ShardingConfig`, the declarative sharding
spec that :class:`~repro.engine_config.ExecutionConfig` embeds and
threads explicitly into :func:`resolve_engine_index` — the *only* way
to shard a fit; there is no ambient sharding state.

Exactness: range queries and counts are exact (the brute-force inner
index is, and a point's eps-neighborhood is the disjoint union of its
per-shard neighborhoods).
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.distances.matrix import DEFAULT_BLOCK_SIZE
from repro.distances.metric import COSINE, Metric, get_metric
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index.base import NeighborIndex, check_positive_int
from repro.index.brute_force import BruteForceIndex

__all__ = [
    "EXECUTORS",
    "ExecutorSpec",
    "ShardedIndex",
    "ShardingConfig",
    "concat_shard_rows",
    "csr_to_rows",
    "merge_shard_rows",
    "resolve_engine_index",
    "rows_to_csr",
    "shard_offsets",
]

#: Default number of query rows fanned out per executor round.
DEFAULT_QUERY_BLOCK = 2048

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
            value = options[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidParameterError(
                    f"{key} must be a number; got {type(value).__name__}"
                )
            if not value > 0:
                raise InvalidParameterError(f"{key} must be > 0; got {value}")
            out[key] = float(value)
    if "retries" in options:
        retries = options["retries"]
        if isinstance(retries, bool) or not isinstance(retries, int):
            raise InvalidParameterError(
                f"retries must be an int; got {type(retries).__name__}"
            )
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
    sorted (true for the brute-force inner index), the global row is a
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


# ----------------------------------------------------------------------
# Shard query operations (shared with the remote worker)
# ----------------------------------------------------------------------


def _op_range(index, Q: np.ndarray, eps: float):
    rows = index.batch_range_query(Q, eps)
    return rows_to_csr(rows)


def _op_count(index, Q: np.ndarray, eps: float):
    return np.asarray(index.batch_range_count(Q, eps), dtype=np.int64)


_SHARD_OPS = {"range": _op_range, "count": _op_count}


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


def _local_calls(points: np.ndarray, calls: list, rows: bool) -> list:
    """Shard calls with row-id queries sliced from the parent's dataset.

    Every call of one round shares its query block, so a block is
    sliced once, not once per shard.
    """
    if not rows:
        return calls
    resolved, last_ids, Q = [], None, None
    for shard_id, (ids, arg) in calls:
        if ids is not last_ids:
            last_ids, Q = ids, points[ids]
        resolved.append((shard_id, (Q, arg)))
    return resolved


class _SerialExecutor:
    """Runs shard calls one after another in the calling process."""

    def __init__(self, indexes: dict[int, object], points: np.ndarray) -> None:
        self._indexes = indexes
        self._points = points

    def run(self, op: str, calls: list[tuple[int, tuple]], rows: bool = False) -> list:
        fn = _SHARD_OPS[op]
        return [
            fn(self._indexes[shard_id], *args)
            for shard_id, args in _local_calls(self._points, calls, rows)
        ]

    def close(self) -> None:
        pass


class _ThreadExecutor:
    """Runs shard calls on a thread pool (BLAS releases the GIL)."""

    def __init__(
        self, indexes: dict[int, object], points: np.ndarray, n_workers: int
    ) -> None:
        self._indexes = indexes
        self._points = points
        self._pool = ThreadPoolExecutor(max_workers=n_workers)

    def run(self, op: str, calls: list[tuple[int, tuple]], rows: bool = False) -> list:
        fn = _SHARD_OPS[op]
        futures = [
            self._pool.submit(fn, self._indexes[shard_id], *args)
            for shard_id, args in _local_calls(self._points, calls, rows)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown()


# ----------------------------------------------------------------------
# The sharded index
# ----------------------------------------------------------------------


def _check_shard_fields(n_shards, n_workers, query_block) -> None:
    """Strict checks shared by :class:`ShardedIndex` and :class:`ShardingConfig`.

    Each field is an ``int`` (never a bool, never coerced: ``2.5`` is
    not a shard count) of at least 1; ``n_workers`` may also be None.
    """
    check_positive_int("n_shards", n_shards)
    check_positive_int("query_block", query_block)
    if n_workers is not None:
        check_positive_int("n_workers", n_workers)


class ShardedIndex(NeighborIndex):
    """Row-sharded composite index behind the batched query API.

    Parameters
    ----------
    metric:
        Metric of the :class:`~repro.index.brute_force.BruteForceIndex`
        fitted per shard (the fit's metric).
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
        metric: str | Metric = COSINE,
        n_shards: int = 4,
        executor: "ExecutorSpec | str" = "serial",
        n_workers: int | None = None,
        query_block: int = DEFAULT_QUERY_BLOCK,
    ) -> None:
        _check_shard_fields(n_shards, n_workers, query_block)
        self.metric = get_metric(metric)
        self.n_shards = n_shards
        self.executor = ExecutorSpec.coerce(executor)
        self.n_workers = n_workers
        self.query_block = query_block
        self._points: np.ndarray | None = None
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
        offsets = shard_offsets(X.shape[0], self.n_shards)
        self._live = [
            (s, int(offsets[s]), int(offsets[s + 1]))
            for s in range(self.n_shards)
            if offsets[s + 1] > offsets[s]
        ]
        if self.executor.name == "remote":
            self._start_executor()
        else:
            indexes = {
                s: BruteForceIndex(metric=self.metric).build(X[lo:hi])
                for s, lo, hi in self._live
            }
            self._parent_builds = len(indexes)
            self._start_executor(indexes)
        return self

    def _start_executor(self, indexes=None) -> None:
        """Start the executor over the live shards.

        ``serial`` and ``thread`` query ``indexes``, the built per-shard
        indexes keyed by live shard id. ``remote`` workers build their
        pinned shards themselves from the dataset the executor pushes.
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
                metric=self.metric.name,
                options=self.executor.options,
            )
        elif name == "thread" and self._live:
            n_workers = self.n_workers or min(len(self._live), os.cpu_count() or 1)
            self._executor_obj = _ThreadExecutor(indexes, self._points, n_workers)
        else:
            self._executor_obj = _SerialExecutor(indexes, self._points)

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
    # Batched queries
    # ------------------------------------------------------------------

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        return self._range_blocks(self._as_query_matrix(Q), eps, rows=False)

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        return self._count_blocks(self._as_query_matrix(Q), eps, rows=False)

    def batch_range_query_rows(self, ids: np.ndarray, eps: float) -> list[np.ndarray]:
        """Row-id queries go to the executor as ids: a remote worker slices
        the dataset it already holds instead of receiving the vectors."""
        return self._range_blocks(np.asarray(ids, dtype=np.int64), eps, rows=True)

    def batch_range_count_rows(self, ids: np.ndarray, eps: float) -> np.ndarray:
        return self._count_blocks(np.asarray(ids, dtype=np.int64), eps, rows=True)

    def _range_blocks(self, queries: np.ndarray, eps: float, *, rows: bool):
        """Fan ``queries`` (vectors, or row ids when ``rows``) out per block."""
        executor = self._require_executor()
        out: list[np.ndarray] = []
        starts = [lo for _, lo, _ in self._live]
        for block_lo in range(0, len(queries), self.query_block):
            block = queries[block_lo : block_lo + self.query_block]
            if not self._live:
                out.extend(np.empty(0, dtype=np.int64) for _ in range(len(block)))
                continue
            calls = [(shard_id, (block, eps)) for shard_id, _, _ in self._live]
            results = executor.run("range", calls, rows)
            per_shard = [csr_to_rows(indptr, flat) for indptr, flat in results]
            # Brute force returns sorted rows over disjoint ascending
            # shards: concatenation is the merged answer.
            out.extend(concat_shard_rows(per_shard, starts, len(block)))
        return out

    def _count_blocks(self, queries: np.ndarray, eps: float, *, rows: bool):
        executor = self._require_executor()
        counts = np.zeros(len(queries), dtype=np.int64)
        if not self._live:
            return counts
        for block_lo in range(0, len(queries), self.query_block):
            block = queries[block_lo : block_lo + self.query_block]
            calls = [(shard_id, (block, eps)) for shard_id, _, _ in self._live]
            for shard_counts in executor.run("count", calls, rows):
                counts[block_lo : block_lo + len(block)] += shard_counts
        return counts


# ----------------------------------------------------------------------
# Engine-level sharding configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardingConfig:
    """How :func:`resolve_engine_index` shards a fit's or a model's queries.

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
        _check_shard_fields(self.n_shards, self.n_workers, self.query_block)
        object.__setattr__(self, "executor", ExecutorSpec.coerce(self.executor))

    def make_index(self, metric: str | Metric) -> "ShardedIndex":
        """An unbuilt :class:`ShardedIndex` configured per this config."""
        return ShardedIndex(
            metric=metric,
            n_shards=self.n_shards,
            executor=self.executor,
            n_workers=self.n_workers,
            query_block=self.query_block,
        )


def resolve_engine_index(
    X: np.ndarray,
    metric: str | Metric = COSINE,
    config: ShardingConfig | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> NeighborIndex:
    """Build the query index over ``X``, shard-first when sharded.

    The shard-before-build seam of every fit
    (:meth:`~repro.clustering.base.Clusterer._engine`) and of
    :class:`~repro.persistence.ClusterModel` predict: with ``config``
    None a :class:`~repro.index.brute_force.BruteForceIndex` in
    ``metric`` with kernel blocks of ``block_size`` rows; with a config
    a :class:`ShardedIndex` of brute-force shards built directly over
    ``X`` (its rounds are ``config.query_block`` rows), so the
    whole-dataset index is never built and a sharded fit pays exactly
    ``n_live_shards`` inner builds. The caller owns the result and
    closes it.
    """
    if config is None:
        return BruteForceIndex(block_size=block_size, metric=metric).build(X)
    return config.make_index(metric).build(X)
