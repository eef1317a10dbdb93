"""Sharded execution backend for the batched range-query engine.

:class:`ShardedIndex` partitions the dataset into contiguous row shards
and answers the batched query API by fanning query blocks across them on
a fleet of :mod:`repro.remote` worker processes, reached over a
length-prefixed socket protocol and named by an :class:`ExecutorSpec`.
Each live shard is pinned to one worker (stable shard→worker affinity),
which builds a :class:`~repro.index.brute_force.BruteForceIndex` over it
(the inner index) on first use and keeps it *warm across fits*: a second
fit on the same pool attaches to the cached indexes and pays zero inner
builds. A dead worker's shards are rebalanced across the survivors and
the failed calls retried; timeouts get bounded retry.

Sharding is a two-state choice: a fit runs on one in-process index, or
on remote shards. Shards never run inside the calling process: there
they only added fan-out and merge work to the same GEMMs (on 10,740
768-d rows one index answered the row queries in 1.88 s, 4 shards one
after another in 2.28 s), and the one index's GEMM working set is
already bounded by its kernel block (``ExecutionConfig.query_block``).

Build lifecycle: an inner index is built once, in the owning worker, and
queried many times. The executor reports the builds it triggered
through ``collect_stats()``, and :meth:`ShardedIndex.stats` exposes them
as the ``shard_inner_builds`` counter so hosts can prove the build-once
property per fit. :func:`resolve_engine_index` is the shard-before-build
seam: under a sharding config no whole-dataset index is ever built just
to be thrown away. An empty dataset has no live shard, so it starts no
executor and reaches no worker.

A fit's join (:meth:`ShardedIndex.range_pairs`) is one executor round:
one ``pairs`` request per live shard, naming its rows by id (a row
subset sends them, the self-join sends no array at all). Each worker
runs the join loop of
:meth:`~repro.index.brute_force.BruteForceIndex.range_pairs` over its
shard's columns, reading the query rows from the copy of the
dataset it holds, and replies with the shard's int32 pairs as CSR over
the join's rows. Other row-id queries
(:meth:`ShardedIndex.batch_range_query_rows`) send the ids per round;
new vectors (:meth:`ShardedIndex.batch_range_query`) travel as the query
matrix. ``ClusterModel.predict`` asks no shard: it runs on the parent.

Per-shard answers arrive as CSR arrays over the same queries;
:func:`concat_shard_rows` merges them into one CSR in one vectorized
scatter per shard, re-indexing shard-local ids to global ones where a
reply holds them (a range query's). Shards are contiguous, disjoint and
ascending and every per-shard row is sorted, so a merged row is a plain
concatenation: sorted and bit-identical to the single-index answer. The
property-based tests check it against a general sort-and-deduplicate
merge.

The module also hosts :class:`ShardingConfig`, the declarative sharding
spec that :class:`~repro.engine_config.ExecutionConfig` embeds and
threads explicitly into :func:`resolve_engine_index` — the *only* way
to shard a fit; there is no ambient sharding state.

Exactness: range queries are exact (the brute-force inner index is,
and a point's eps-neighborhood is the disjoint union of its per-shard
neighborhoods).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.distances.matrix import DEFAULT_BLOCK_SIZE
from repro.distances.metric import COSINE, Metric, get_metric
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index.base import NeighborIndex, check_plan_rows, check_positive_int
from repro.index.brute_force import BruteForceIndex

__all__ = [
    "DEFAULT_CONNECT_TIMEOUT_S",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT_S",
    "ExecutorSpec",
    "ShardedIndex",
    "ShardingConfig",
    "concat_shard_rows",
    "csr_to_rows",
    "resolve_engine_index",
    "rows_to_csr",
    "shard_offsets",
]

#: Default number of query rows fanned out per executor round of a
#: batched query (a join is one round).
DEFAULT_QUERY_BLOCK = 2048

# ----------------------------------------------------------------------
# The remote pool spec
# ----------------------------------------------------------------------

#: Per-call socket timeout (seconds) unless the spec says otherwise. A
#: join's call is a shard's whole join, so it bounds the join's size: see
#: :class:`ExecutorSpec`.
DEFAULT_TIMEOUT_S = 120.0

#: Retries per call after a timeout, unless the spec says otherwise.
DEFAULT_RETRIES = 2

#: Connection-establishment timeout — kept short so a dead worker is
#: detected (and rebalanced around) quickly instead of after a full
#: call timeout.
DEFAULT_CONNECT_TIMEOUT_S = 5.0

#: The executor name in a spec's wire form (part of the saved-model
#: format).
_REMOTE = "remote"

_HOST_PORT = re.compile(r".+:\d+")


def _check_seconds(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(
            f"{name} must be a number; got {type(value).__name__}"
        )
    if not value > 0:
        raise InvalidParameterError(f"{name} must be > 0; got {value}")
    return float(value)


@dataclass(frozen=True)
class ExecutorSpec:
    """Where a sharded index runs: a fleet of remote pool workers.

    ``addresses`` lists the workers as ``host:port`` strings (see
    :meth:`~repro.remote.pool.WorkerPool.executor_spec`); each call runs
    under a ``timeout_s`` socket timeout with ``retries`` retries, and
    connecting waits at most ``connect_timeout_s``. Fields are validated
    and canonicalized at construction (``addresses`` to a tuple, the
    timeouts to floats), so a spec that exists is a spec that can run.
    Its wire form is :meth:`to_dict` / :meth:`from_dict`.

    A :meth:`ShardedIndex.range_pairs` join is one call per shard, so each
    shard's whole join must finish within ``timeout_s``; its work grows as
    n² / ``n_shards``, and a retry after a timeout repeats all of it. A
    join that does not finish in time fails with
    :class:`~repro.exceptions.RetryExhaustedError`. On 768-d data with one
    BLAS thread per worker, the heaviest of 4 shards joined 10,740 rows in
    0.455 s, so the 120 s default is reached near 170,000 rows; larger
    fits need a larger ``timeout_s`` or more shards.
    """

    addresses: tuple[str, ...]
    timeout_s: float = DEFAULT_TIMEOUT_S
    retries: int = DEFAULT_RETRIES
    connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S

    def __post_init__(self) -> None:
        addresses = self.addresses
        if isinstance(addresses, str) or not isinstance(addresses, Sequence):
            raise InvalidParameterError(
                "addresses must be a sequence of 'host:port' worker endpoints "
                "(see `repro-cli pool serve`)"
            )
        for address in addresses:
            if not (isinstance(address, str) and _HOST_PORT.fullmatch(address)):
                raise InvalidParameterError(
                    f"remote worker address must look like 'host:port'; "
                    f"got {address!r}"
                )
        if not addresses:
            raise InvalidParameterError("a worker pool needs at least one address")
        retries = self.retries
        if isinstance(retries, bool) or not isinstance(retries, int):
            raise InvalidParameterError(
                f"retries must be an int; got {type(retries).__name__}"
            )
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0; got {retries}")
        object.__setattr__(self, "addresses", tuple(addresses))
        for name in ("timeout_s", "connect_timeout_s"):
            object.__setattr__(self, name, _check_seconds(name, getattr(self, name)))

    def to_dict(self) -> dict:
        """JSON-safe wire form; inverse of :meth:`from_dict`.

        ``{"name": "remote", "options": {...}}`` with the addresses and
        every other field that differs from its default.
        """
        options: dict[str, object] = {"addresses": list(self.addresses)}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "addresses" and value != f.default:
                options[f.name] = value
        return {"name": _REMOTE, "options": options}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutorSpec":
        """Strict reconstruction from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise InvalidParameterError(
                f"an executor wire form must be a mapping; got {type(data).__name__}"
            )
        unknown = set(data) - {"name", "options"}
        if unknown:
            raise InvalidParameterError(
                f"unknown ExecutorSpec keys: {sorted(unknown)}"
            )
        if data.get("name") != _REMOTE:
            raise InvalidParameterError(
                f"unknown executor {data.get('name')!r}; the one executor "
                f"is {_REMOTE!r}"
            )
        options = data.get("options")
        if not isinstance(options, Mapping) or "addresses" not in options:
            raise InvalidParameterError(
                "the 'remote' executor requires an 'addresses' option: a "
                "sequence of 'host:port' worker endpoints"
            )
        allowed = {f.name for f in fields(cls)}
        unknown = set(options) - allowed
        if unknown:
            raise InvalidParameterError(
                f"unknown 'remote' executor options: {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        return cls(**options)


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
    np.cumsum(
        np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows)),
        out=indptr[1:],
    )
    if indptr[-1] == 0:
        return indptr, np.empty(0, dtype=np.int64)
    flat = np.concatenate([np.asarray(row, dtype=np.int64) for row in rows])
    return indptr, flat


def csr_to_rows(indptr: np.ndarray, flat: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`rows_to_csr`: slice flat storage back into rows."""
    return [flat[indptr[i] : indptr[i + 1]] for i in range(len(indptr) - 1)]


def concat_shard_rows(
    per_shard: Sequence[tuple[np.ndarray, np.ndarray]],
    n_queries: int,
    starts: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge the shards' CSR answers to the same queries into one CSR.

    ``per_shard[s]`` is shard ``s``'s ``(indptr, cols)`` over the
    ``n_queries`` queries, its ids offset by ``starts[s]`` (shard-local
    ids made global) or, with ``starts`` None, already global. Row ``q``
    of the result is the concatenation of the shards' rows ``q`` in shard
    order, written in one vectorized scatter per shard. When shard ``s``
    owns the contiguous global range starting at ``starts[s]``, the
    starts ascend and every per-shard row is sorted (true for the
    brute-force inner index), that is the sorted global row, with no
    per-row sort.
    """
    indptr = np.zeros(n_queries + 1, dtype=np.int64)
    if not per_shard:
        return indptr, np.empty(0, dtype=np.int64)
    sizes = [np.diff(shard_indptr) for shard_indptr, _ in per_shard]
    np.cumsum(np.sum(sizes, axis=0), out=indptr[1:])
    flat = np.empty(indptr[-1], dtype=np.result_type(*(c for _, c in per_shard)))
    free = indptr[:-1].copy()  # the next free slot of each merged row
    for s, ((shard_indptr, cols), size) in enumerate(zip(per_shard, sizes)):
        slots = np.repeat(free - shard_indptr[:-1], size) + np.arange(cols.size)
        flat[slots] = cols if starts is None else cols + starts[s]
        free += size
    return indptr, flat


# ----------------------------------------------------------------------
# The shard operations (run by the remote worker)
# ----------------------------------------------------------------------


def _op_range(index, Q: np.ndarray, eps: float):
    rows = index.batch_range_query(Q, eps)
    return rows_to_csr(rows)


def _op_pairs(index, X: np.ndarray, eps: float, rows: np.ndarray | None, lo: int):
    """The shard's part of a :meth:`~ShardedIndex.range_pairs` join: the
    :meth:`~repro.index.brute_force.BruteForceIndex.column_join` of the
    query rows ``rows`` of ``X`` (every row when None) against the shard's
    columns from ``lo``, as CSR over the query rows: ``indptr`` and each
    row's global int32 columns, ascending."""
    positions, cols = index.column_join(X, eps, rows, lo)
    n_rows = X.shape[0] if rows is None else rows.size
    if rows is not None and np.any((np.diff(cols) < 0) & (np.diff(positions) == 0)):
        # The join gathered its planned columns before the rest (a plan of
        # more than one kernel block): sort each row's columns.
        key = positions.astype(np.int64) * X.shape[0] + cols
        key.sort()
        cols = (key % X.shape[0]).astype(np.int32)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(positions, minlength=n_rows), out=indptr[1:])
    return indptr, cols


# ----------------------------------------------------------------------
# The sharded index
# ----------------------------------------------------------------------


def _check_shard_fields(n_shards, executor, query_block) -> None:
    """Strict checks shared by :class:`ShardedIndex` and :class:`ShardingConfig`.

    Each count is an ``int`` (never a bool, never coerced: ``2.5`` is
    not a shard count) of at least 1, and ``executor`` is an
    :class:`ExecutorSpec`.
    """
    check_positive_int("n_shards", n_shards)
    if not isinstance(executor, ExecutorSpec):
        raise InvalidParameterError(
            "sharding runs on a worker pool: pass "
            "executor=WorkerPool.executor_spec() (see `repro-cli pool serve`), "
            f"or leave the fit unsharded; got executor={executor!r}"
        )
    check_positive_int("query_block", query_block)


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
        The :class:`ExecutorSpec` of the worker pool the shards run on
        (required; its width is its address list).
    query_block:
        Query rows fanned out per executor round of a batched query
        (:meth:`batch_range_query`, :meth:`batch_range_query_rows`:
        BLOCK-DBSCAN, ρ-approximate DBSCAN's borders); bounds their
        per-call payload size and merge memory. A :meth:`range_pairs`
        join is one round whatever its size, and predict and serving
        ask no shard.
    """

    def __init__(
        self,
        metric: str | Metric = COSINE,
        n_shards: int = 4,
        executor: ExecutorSpec | None = None,
        query_block: int = DEFAULT_QUERY_BLOCK,
    ) -> None:
        _check_shard_fields(n_shards, executor, query_block)
        self.metric = get_metric(metric)
        self.n_shards = n_shards
        self.executor = executor
        self.query_block = query_block
        self._points: np.ndarray | None = None
        self._live: list[tuple[int, int, int]] = []  # (shard_id, lo, hi)
        self._executor_obj = None
        self._open = False
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
        offsets = shard_offsets(X.shape[0], self.n_shards)
        self._live = [
            (s, int(offsets[s]), int(offsets[s + 1]))
            for s in range(self.n_shards)
            if offsets[s + 1] > offsets[s]
        ]
        self._stats_snapshot = self._shard_stats(0, 0)
        self._open = True
        # With no live shard (an empty dataset) there is nothing to run
        # and no worker to reach: queries answer empty rows.
        if self._live:
            # Imported lazily: the remote package pulls in the socket
            # client and is only needed once a live shard needs it.
            from repro.remote.pool import RemoteExecutor

            self._executor_obj = RemoteExecutor(
                X=X,
                shards={s: (lo, hi) for s, lo, hi in self._live},
                metric=self.metric.name,
                spec=self.executor,
            )
        return self

    def close(self) -> None:
        """Release the worker connections. Idempotent.

        The final build accounting is snapshotted first, so
        :meth:`stats` keeps answering after the connections are gone.
        """
        self._open = False
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

    def _shard_stats(self, inner_builds: int, rebalances: int) -> dict[str, int]:
        return {
            "shard_live_shards": len(self._live),
            "shard_inner_builds": inner_builds,
            "shard_rebalances": rebalances,
        }

    def _collect_stats(self) -> dict[str, int]:
        snapshot = self._executor_obj.collect_stats()
        return self._shard_stats(snapshot["inner_builds"], snapshot["n_rebalances"])

    def stats(self) -> dict[str, int]:
        """Instrumented build accounting of the current fit.

        ``shard_inner_builds`` counts the in-worker inner-index
        constructions this index triggered since :meth:`build` (zero
        for shards a warm pool already held). The build-once
        contract is ``shard_inner_builds == shard_live_shards`` once
        every shard has served a query — never workers × shards.
        ``shard_rebalances`` counts worker-death rebalancing events.
        After :meth:`close` the snapshot taken at close time is returned.
        """
        self._require_built()
        if self._executor_obj is not None:
            self._stats_snapshot = self._collect_stats()
        return dict(self._stats_snapshot)

    def _require_open(self) -> None:
        self._require_built()
        if not self._open:
            raise NotFittedError(
                "ShardedIndex has been closed; call build() again to reopen"
            )

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        return self._range_blocks(self._as_query_matrix(Q), eps, rows=False)

    def batch_range_query_rows(self, ids: np.ndarray, eps: float) -> list[np.ndarray]:
        """Row-id queries go to the executor as ids: a remote worker slices
        the dataset it already holds instead of receiving the vectors."""
        return self._range_blocks(np.asarray(ids, dtype=np.int64), eps, rows=True)

    def range_pairs(
        self, eps: float, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`NeighborIndex.range_pairs` in one executor round: each live
        shard's worker runs the join loop of
        :meth:`BruteForceIndex.range_pairs` over the shard's columns
        (:meth:`~repro.index.brute_force.BruteForceIndex.column_join`) and
        replies with CSR pairs over the join's rows, which are merged per
        row. The self-join sends no array, a row subset sends ``rows``.
        Each row's columns come out ascending: the self-join equals one
        index's arrays, a subset join its pairs."""
        self._require_open()
        n = self.n_points
        ids = np.arange(n) if rows is None else check_plan_rows(rows, n)
        if not self._live:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
        arrays = {} if rows is None else {"rows": ids}
        calls = [(shard_id, eps, arrays) for shard_id, _, _ in self._live]
        results = self._executor_obj.run("pairs", calls)
        indptr, cols = concat_shard_rows(
            [(reply["indptr"], reply["cols"]) for reply in results], ids.size
        )
        return np.repeat(ids.astype(np.int32), np.diff(indptr)), cols

    def _range_blocks(self, queries: np.ndarray, eps: float, *, rows: bool):
        """Fan ``queries`` (vectors, or row ids when ``rows``) out per block."""
        self._require_open()
        if not self._live:
            return [np.empty(0, dtype=np.int64) for _ in range(len(queries))]
        starts = [lo for _, lo, _ in self._live]
        out: list[np.ndarray] = []
        for block_lo in range(0, len(queries), self.query_block):
            block = queries[block_lo : block_lo + self.query_block]
            arrays = {"rows" if rows else "Q": block}
            calls = [(shard_id, eps, arrays) for shard_id, _, _ in self._live]
            results = self._executor_obj.run("query", calls)
            # Brute force returns sorted rows over disjoint ascending
            # shards: concatenation is the merged answer.
            indptr, flat = concat_shard_rows(
                [(reply["indptr"], reply["flat"]) for reply in results],
                len(block),
                starts,
            )
            out.extend(csr_to_rows(indptr, flat))
        return out


# ----------------------------------------------------------------------
# Engine-level sharding configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardingConfig:
    """How :func:`resolve_engine_index` shards a fit's or a model's queries.

    ``executor`` is required: the :class:`ExecutorSpec` of the worker
    pool the shards run on (:meth:`~repro.remote.pool.WorkerPool.executor_spec`).
    ``query_block`` is the rows per round of a batched query (see
    :class:`ShardedIndex`); it does not split a join, whose per-shard call
    must finish within the executor's ``timeout_s`` (see
    :class:`ExecutorSpec`), and it does not bound predict or serving,
    which run on the parent without the pool.
    """

    n_shards: int = 4
    executor: ExecutorSpec | None = None
    query_block: int = DEFAULT_QUERY_BLOCK

    def __post_init__(self) -> None:
        _check_shard_fields(self.n_shards, self.executor, self.query_block)

    def make_index(self, metric: str | Metric) -> "ShardedIndex":
        """An unbuilt :class:`ShardedIndex` configured per this config."""
        return ShardedIndex(
            metric=metric,
            n_shards=self.n_shards,
            executor=self.executor,
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
    (:meth:`~repro.clustering.base.Clusterer._engine`): with ``config``
    None a :class:`~repro.index.brute_force.BruteForceIndex` in
    ``metric`` with kernel blocks of ``block_size`` rows; with a config
    a :class:`ShardedIndex` of brute-force shards built directly over
    ``X`` (its batched queries' rounds are ``config.query_block`` rows),
    so the
    whole-dataset index is never built and a sharded fit pays exactly
    ``n_live_shards`` inner builds. The caller owns the result and
    closes it.
    """
    if config is None:
        return BruteForceIndex(block_size=block_size, metric=metric).build(X)
    return config.make_index(metric).build(X)
