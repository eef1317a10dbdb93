"""First-class execution configuration for the clustering engine.

Execution policy — which range-query backend answers the queries, how
they batch and whether they shard — is two small declarative objects:

* :class:`IndexSpec` — a picklable description of one of the registered
  range-query backends (``name`` + constructor ``kwargs``);
* :class:`ExecutionConfig` — the complete execution policy of one fit:
  the index spec, an optional
  :class:`~repro.index.sharded.ShardingConfig`, the batched-vs-per-point
  switch and the engine block size.

Every clusterer accepts ``execution=ExecutionConfig(...)`` and resolves
its engine through one shared helper
(:meth:`repro.clustering.base.Clusterer._engine`), so two concurrent
fits with different configurations can never interfere: nothing about
execution lives in module state.

Both objects are value types (frozen dataclasses) and JSON-serializable
through :meth:`ExecutionConfig.to_dict` / :meth:`ExecutionConfig.from_dict`,
which is the wire format a remote worker pool needs to reconstruct the
same execution policy elsewhere.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.exceptions import InvalidParameterError
from repro.index.engine import DEFAULT_QUERY_BLOCK
from repro.index.sharded import INNER_BACKENDS, ShardingConfig, make_inner_backend

__all__ = [
    "DEFAULT_ENGINE_BLOCK",
    "ExecutionConfig",
    "IndexSpec",
]

#: Default number of queries per batched engine call — by construction
#: the :class:`~repro.index.engine.NeighborhoodCache` block-size default.
DEFAULT_ENGINE_BLOCK = DEFAULT_QUERY_BLOCK


@dataclasses.dataclass(frozen=True)
class IndexSpec:
    """Declarative description of a range-query backend.

    Parameters
    ----------
    name:
        A registered backend name (``"brute_force"``, ``"cover_tree"``,
        ``"kmeans_tree"``, ``"grid"``) — the same registry worker
        processes rebuild shard indexes from, so a named spec is always
        picklable and shard-compatible.
    kwargs:
        Constructor arguments for the named backend (JSON-safe values:
        the grid's ``eps``/``rho``, the cover tree's ``base``, ...).
    """

    name: str
    kwargs: Mapping[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwargs", dict(self.kwargs))
        if self.name not in INNER_BACKENDS:
            raise InvalidParameterError(
                f"unknown index backend {self.name!r}; "
                f"available: {', '.join(sorted(INNER_BACKENDS))}"
            )

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the kwargs
        # dict (a plain dict keeps the spec picklable); hash the sorted
        # items instead so equal specs hash equal and the spec works as
        # a dict key / set member like any value type.
        return hash((self.name, tuple(sorted(self.kwargs.items()))))

    def make(self) -> object:
        """Construct the (unbuilt) backend this spec describes."""
        return make_inner_backend(self.name, dict(self.kwargs))

    def to_dict(self) -> dict:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {"name": self.name, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "IndexSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        data = _checked_mapping(data, {"name", "kwargs"}, "IndexSpec")
        if "name" not in data:
            raise InvalidParameterError("IndexSpec dict is missing 'name'")
        kwargs = data.get("kwargs", {})
        if not isinstance(kwargs, Mapping):
            raise InvalidParameterError(
                f"IndexSpec 'kwargs' must be a mapping; got {type(kwargs).__name__}"
            )
        return cls(name=str(data["name"]), kwargs=dict(kwargs))


#: The JSON-visible fields of ShardingConfig (kept in lockstep with the
#: dataclass; a mismatch fails the round-trip tests).
_SHARDING_FIELDS = ("n_shards", "executor", "n_workers", "query_block")


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """The complete execution policy of one clusterer fit.

    Parameters
    ----------
    index:
        Range-query backend spec, or None for the clusterer's default
        substrate (brute force for DBSCAN and the sampling variants, the
        cover tree for BLOCK-DBSCAN; ρ-approximate DBSCAN is defined on
        its grid and always uses it).
    sharding:
        Optional :class:`~repro.index.sharded.ShardingConfig`: fan range
        queries across row shards (serial, thread or remote executor).
        Threaded explicitly into the engine — no global
        state — so concurrent fits with different sharding cannot
        interfere. ``None`` (the default) means unsharded execution.
    batch_queries:
        True (default) routes neighborhood computation through the
        batched engine; False keeps the per-point reference loop the
        differential tests diff against. Identical output either way.
    query_block:
        Maximum queries per batched engine call (the
        :class:`~repro.index.engine.NeighborhoodCache` block size).

    Field types are checked strictly, never coerced, whether the config
    is built directly or through :meth:`from_dict`: ``"false"`` is not a
    bool (``bool("false")`` is True, which would silently run the
    batched path) and ``2.5`` is not a block size.
    """

    index: IndexSpec | None = None
    sharding: ShardingConfig | None = None
    batch_queries: bool = True
    query_block: int = DEFAULT_ENGINE_BLOCK

    def __post_init__(self) -> None:
        if self.index is not None and not isinstance(self.index, IndexSpec):
            raise InvalidParameterError(
                f"index must be an IndexSpec or None; got {type(self.index).__name__}"
            )
        if not (self.sharding is None or isinstance(self.sharding, ShardingConfig)):
            raise InvalidParameterError(
                f"sharding must be a ShardingConfig or None; got {self.sharding!r}"
            )
        if not isinstance(self.batch_queries, bool):
            raise InvalidParameterError(
                f"batch_queries must be a bool; got {type(self.batch_queries).__name__}"
            )
        if isinstance(self.query_block, bool) or not isinstance(self.query_block, int):
            raise InvalidParameterError(
                f"query_block must be an int; got {type(self.query_block).__name__}"
            )
        if self.query_block < 1:
            raise InvalidParameterError(
                f"query_block must be >= 1; got {self.query_block}"
            )
        if self.sharding is not None and not self.batch_queries:
            # Sharding fans *batched* query blocks across shards; the
            # per-point reference path has no batches to fan out. Running
            # it unsharded anyway would silently drop the parallelism the
            # caller explicitly asked for.
            raise InvalidParameterError(
                "sharding requires the batched engine: "
                "batch_queries=False cannot fan queries across shards"
            )

    def to_dict(self) -> dict:
        """JSON-safe representation (the remote-worker wire format)."""
        sharding: dict | None = None
        if self.sharding is not None:
            sharding = {f: getattr(self.sharding, f) for f in _SHARDING_FIELDS}
            sharding["executor"] = self.sharding.executor.wire_value()
        return {
            "index": None if self.index is None else self.index.to_dict(),
            "sharding": sharding,
            "batch_queries": self.batch_queries,
            "query_block": self.query_block,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExecutionConfig":
        """Inverse of :meth:`to_dict`; unknown keys (at every level) raise."""
        data = _checked_mapping(
            data,
            {"index", "sharding", "batch_queries", "query_block"},
            "ExecutionConfig",
        )
        index = data.get("index")
        if index is not None:
            index = IndexSpec.from_dict(index)
        sharding = data.get("sharding")
        if sharding is not None:
            sharding = ShardingConfig(
                **_checked_mapping(sharding, set(_SHARDING_FIELDS), "ShardingConfig")
            )
        return cls(
            index=index,
            sharding=sharding,
            batch_queries=data.get("batch_queries", True),
            query_block=data.get("query_block", DEFAULT_ENGINE_BLOCK),
        )


def _checked_mapping(data: object, allowed: set[str], owner: str) -> dict:
    """Validate a from_dict payload: a mapping with no unknown keys."""
    if not isinstance(data, Mapping):
        raise InvalidParameterError(
            f"{owner} payload must be a mapping; got {type(data).__name__}"
        )
    unknown = set(data) - allowed
    if unknown:
        raise InvalidParameterError(
            f"unknown {owner} keys: {', '.join(sorted(map(str, unknown)))}"
        )
    return dict(data)
