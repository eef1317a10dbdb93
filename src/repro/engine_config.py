"""First-class execution configuration for the clustering engine.

Execution policy — which range-query backend answers the queries, how
they batch, whether they shard, how cached neighborhoods are evicted —
used to be scattered across per-clusterer ``index_factory`` /
``batch_queries`` constructor kwargs and a process-wide mutable sharding
global. This module replaces all of it with two small declarative
objects:

* :class:`IndexSpec` — a picklable, registry-resolved description of a
  range-query backend (``name`` + constructor ``kwargs``), with an
  escape hatch (:meth:`IndexSpec.custom`) for arbitrary user factories;
* :class:`ExecutionConfig` — the complete execution policy of one fit:
  the index spec, an optional
  :class:`~repro.index.sharded.ShardingConfig`, the batched-vs-per-point
  switch, the engine block size and the cache eviction policy.

Every clusterer accepts ``execution=ExecutionConfig(...)`` and resolves
its engine through one shared helper
(:meth:`repro.clustering.base.Clusterer._engine`), so two concurrent
fits with different configurations can never interfere: nothing about
execution lives in module state anymore.

Both objects are value types (frozen dataclasses) and — apart from the
custom-factory escape hatch — JSON-serializable through
:meth:`ExecutionConfig.to_dict` / :meth:`ExecutionConfig.from_dict`,
which is the wire format a remote worker pool needs to reconstruct the
same execution policy elsewhere.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping

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

#: Name under which custom factory-backed specs appear (never registered,
#: so it can't collide with a real backend).
_CUSTOM = "custom"

#: Cache eviction policies: "serve" releases each neighborhood as soon as
#: it is served (every clusterer here fetches each point at most once, so
#: this bounds resident memory to the prefetched-but-unserved tail);
#: "keep" retains every computed neighborhood for the fit's lifetime.
EVICTION_POLICIES = ("serve", "keep")


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
    factory:
        Escape hatch for custom backends: a zero-argument callable
        returning an unbuilt index. Factory specs resolve and fit like
        any other but are not serializable and (lacking a registered
        rebuild spec) run unsharded. Build one with
        :meth:`IndexSpec.custom` rather than by hand.
    """

    name: str
    kwargs: Mapping[str, object] = dataclasses.field(default_factory=dict)
    factory: Callable[[], object] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwargs", dict(self.kwargs))
        if self.factory is not None:
            if not callable(self.factory):
                raise InvalidParameterError(
                    f"factory must be callable; got {type(self.factory).__name__}"
                )
        elif self.name not in INNER_BACKENDS:
            raise InvalidParameterError(
                f"unknown index backend {self.name!r}; "
                f"available: {', '.join(sorted(INNER_BACKENDS))} "
                "(or IndexSpec.custom(factory) for a custom backend)"
            )

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the kwargs
        # dict (a plain dict keeps the spec picklable); hash the sorted
        # items instead so equal specs hash equal and the spec works as
        # a dict key / set member like any value type.
        return hash((self.name, tuple(sorted(self.kwargs.items())), self.factory))

    @classmethod
    def custom(cls, factory: Callable[[], object]) -> "IndexSpec":
        """A spec wrapping a zero-argument factory for a custom backend."""
        return cls(name=_CUSTOM, factory=factory)

    @property
    def is_custom(self) -> bool:
        """Whether this spec resolves through a user factory."""
        return self.factory is not None

    def make(self) -> object:
        """Construct the (unbuilt) backend this spec describes."""
        if self.factory is not None:
            return self.factory()
        return make_inner_backend(self.name, dict(self.kwargs))

    def to_dict(self) -> dict:
        """JSON-safe representation; rejects custom factory specs."""
        if self.factory is not None:
            raise InvalidParameterError(
                "custom IndexSpec factories are not serializable; use a "
                "registered backend name to cross a process boundary"
            )
        return {"name": self.name, "kwargs": dict(self.kwargs)}

    def wire_dict(self) -> dict:
        """Like :meth:`to_dict`, but records custom specs as a marker.

        A saved artifact must record *that* a fit used a custom factory
        even though the factory itself cannot cross a process boundary;
        the persistence loader turns the marker into an actionable
        error instead of silently substituting a default backend.
        """
        if self.factory is not None:
            return {"name": _CUSTOM}
        return self.to_dict()

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
        queries across row shards (any registered executor — serial,
        thread, remote). Threaded explicitly into the engine — no global
        state — so concurrent fits with different sharding cannot
        interfere. ``None`` (the default) means unsharded execution.
    batch_queries:
        True (default) routes neighborhood computation through the
        batched engine; False keeps the per-point reference loop the
        differential tests diff against. Identical output either way.
    query_block:
        Maximum queries per batched engine call (the
        :class:`~repro.index.engine.NeighborhoodCache` block size).
    cache_eviction:
        ``"serve"`` (default) releases each neighborhood as soon as it
        is served — safe for every clusterer here, which fetches each
        point at most once — while ``"keep"`` retains all computed
        neighborhoods for the fit's lifetime.
    """

    index: IndexSpec | None = None
    sharding: ShardingConfig | None = None
    batch_queries: bool = True
    query_block: int = DEFAULT_ENGINE_BLOCK
    cache_eviction: str = "serve"

    def __post_init__(self) -> None:
        if self.index is not None and not isinstance(self.index, IndexSpec):
            raise InvalidParameterError(
                f"index must be an IndexSpec or None; got {type(self.index).__name__}"
            )
        if not (self.sharding is None or isinstance(self.sharding, ShardingConfig)):
            raise InvalidParameterError(
                f"sharding must be a ShardingConfig or None; got {self.sharding!r}"
            )
        if self.query_block < 1:
            raise InvalidParameterError(
                f"query_block must be >= 1; got {self.query_block}"
            )
        if self.cache_eviction not in EVICTION_POLICIES:
            raise InvalidParameterError(
                f"cache_eviction must be one of {EVICTION_POLICIES}; "
                f"got {self.cache_eviction!r}"
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

    @property
    def evict_on_fetch(self) -> bool:
        """The engine-level boolean form of :attr:`cache_eviction`."""
        return self.cache_eviction == "serve"

    def to_dict(self) -> dict:
        """JSON-safe representation (the remote-worker wire format)."""
        sharding: dict | None = None
        if self.sharding is not None:
            sharding = {f: getattr(self.sharding, f) for f in _SHARDING_FIELDS}
            sharding["executor"] = self.sharding.executor.wire_value()
        return {
            "index": None if self.index is None else self.index.to_dict(),
            "sharding": sharding,
            "batch_queries": bool(self.batch_queries),
            "query_block": int(self.query_block),
            "cache_eviction": self.cache_eviction,
        }

    def wire_dict(self) -> dict:
        """Like :meth:`to_dict`, but custom index specs become markers.

        Used by the persistence layer, which must faithfully record an
        execution policy that contained a non-serializable custom
        factory (so load can fail with an actionable message rather
        than misreport the policy the model was fit under).
        """
        payload = dataclasses.replace(self, index=None).to_dict()
        payload["index"] = None if self.index is None else self.index.wire_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExecutionConfig":
        """Inverse of :meth:`to_dict`; unknown keys (at every level) raise."""
        data = _checked_mapping(
            data,
            {"index", "sharding", "batch_queries", "query_block", "cache_eviction"},
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
        # Strict, not coercing: a wire payload saying "false" (a string)
        # must fail loudly, not silently run the batched path.
        batch_queries = data.get("batch_queries", True)
        if not isinstance(batch_queries, bool):
            raise InvalidParameterError(
                f"batch_queries must be a bool; got {type(batch_queries).__name__}"
            )
        query_block = data.get("query_block", DEFAULT_ENGINE_BLOCK)
        if isinstance(query_block, bool) or not isinstance(query_block, int):
            raise InvalidParameterError(
                f"query_block must be an int; got {type(query_block).__name__}"
            )
        cache_eviction = data.get("cache_eviction", "serve")
        if not isinstance(cache_eviction, str):
            raise InvalidParameterError(
                f"cache_eviction must be a string; got {type(cache_eviction).__name__}"
            )
        return cls(
            index=index,
            sharding=sharding,
            batch_queries=batch_queries,
            query_block=query_block,
            cache_eviction=cache_eviction,
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
