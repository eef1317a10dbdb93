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

A fit queries rows of its own dataset, by id
(:meth:`ShardedIndex.batch_range_query_rows`, and the
:meth:`~ShardedIndex.range_pairs` joins built on it): the executor
sends the ids for each worker to slice the copy of the dataset it
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
from repro.index.base import NeighborIndex, check_positive_int, upper_pairs
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
    "merge_shard_rows",
    "resolve_engine_index",
    "rows_to_csr",
    "shard_offsets",
]

#: Default number of query rows fanned out per executor round.
DEFAULT_QUERY_BLOCK = 2048

# ----------------------------------------------------------------------
# The remote pool spec
# ----------------------------------------------------------------------

#: Per-call socket timeout (seconds) unless the spec says otherwise.
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
# The shard query operation (run by the remote worker)
# ----------------------------------------------------------------------


def _op_range(index, Q: np.ndarray, eps: float):
    rows = index.batch_range_query(Q, eps)
    return rows_to_csr(rows)


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
        Query rows fanned out per executor round; bounds both the
        per-call payload size and peak memory of the merge.
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
        """:meth:`NeighborIndex.range_pairs`. The self-join (``rows`` None)
        runs in the rounds of a row-id query of every row; a block skips
        the shards that end at or before its first row, which hold none of
        its pairs (the upper triangle at shard grain). A row subset is
        the base class's derivation from one row-id query of ``rows``."""
        if rows is not None:
            return super().range_pairs(eps, rows)
        ids = np.arange(self.n_points)
        return upper_pairs(self._range_blocks(ids, eps, rows=True, upper=True))

    def _range_blocks(
        self, queries: np.ndarray, eps: float, *, rows: bool, upper: bool = False
    ):
        """Fan ``queries`` (vectors, or row ids when ``rows``) out per block;
        ``upper`` (ascending row ids) leaves out the shards below a block."""
        self._require_open()
        if not self._live:
            return [np.empty(0, dtype=np.int64) for _ in range(len(queries))]
        out: list[np.ndarray] = []
        for block_lo in range(0, len(queries), self.query_block):
            block = queries[block_lo : block_lo + self.query_block]
            live = [shard for shard in self._live if not upper or shard[2] > block[0]]
            calls = [(shard_id, (block, eps)) for shard_id, _, _ in live]
            results = self._executor_obj.run(calls, rows)
            per_shard = [csr_to_rows(indptr, flat) for indptr, flat in results]
            # Brute force returns sorted rows over disjoint ascending
            # shards: concatenation is the merged answer.
            starts = [lo for _, lo, _ in live]
            out.extend(concat_shard_rows(per_shard, starts, len(block)))
        return out


# ----------------------------------------------------------------------
# Engine-level sharding configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardingConfig:
    """How :func:`resolve_engine_index` shards a fit's or a model's queries.

    ``executor`` is required: the :class:`ExecutorSpec` of the worker
    pool the shards run on (:meth:`~repro.remote.pool.WorkerPool.executor_spec`).
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
