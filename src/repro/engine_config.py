"""First-class execution configuration for the clustering engine.

Range queries always run on the exact brute-force index
(:class:`~repro.index.brute_force.BruteForceIndex`), batched; execution
policy is only the block size and whether they shard. :class:`ExecutionConfig`
holds the complete policy of one fit: an optional
:class:`~repro.index.sharded.ShardingConfig` and the kernel block size.

Every clusterer accepts ``execution=ExecutionConfig(...)`` and resolves
its engine through one shared helper
(:meth:`repro.clustering.base.Clusterer._engine`), so two concurrent
fits with different configurations can never interfere: nothing about
execution lives in module state.

The config is a value type (a frozen dataclass) and JSON-serializable
through :meth:`ExecutionConfig.to_dict` / :meth:`ExecutionConfig.from_dict`,
which is the wire format a remote worker pool needs to reconstruct the
same execution policy elsewhere.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.distances.matrix import DEFAULT_BLOCK_SIZE
from repro.exceptions import InvalidParameterError
from repro.index.base import check_positive_int
from repro.index.sharded import ExecutorSpec, ShardingConfig

__all__ = [
    "DEFAULT_ENGINE_BLOCK",
    "ExecutionConfig",
]

#: Default query rows per kernel block — by construction the
#: :class:`~repro.index.brute_force.BruteForceIndex` block-size default.
DEFAULT_ENGINE_BLOCK = DEFAULT_BLOCK_SIZE


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """The complete execution policy of one clusterer fit.

    Parameters
    ----------
    sharding:
        Optional :class:`~repro.index.sharded.ShardingConfig`: fan range
        queries across row shards on a remote worker pool.
        Threaded explicitly into the engine — no global
        state — so concurrent fits with different sharding cannot
        interfere. ``None`` (the default) means unsharded execution.
    query_block:
        Query rows per kernel block: the ``block_size`` of the
        unsharded :class:`~repro.index.brute_force.BruteForceIndex` a
        fit builds, and the block of
        :meth:`~repro.persistence.ClusterModel.predict`. On shards, a
        batched query's rounds are ``sharding.query_block`` rows instead,
        and a join is one round.

    Field types are checked strictly, never coerced, whether the config
    is built directly or through :meth:`from_dict`: ``2.5`` is not a
    block size.
    """

    sharding: ShardingConfig | None = None
    query_block: int = DEFAULT_ENGINE_BLOCK

    def __post_init__(self) -> None:
        if not (self.sharding is None or isinstance(self.sharding, ShardingConfig)):
            raise InvalidParameterError(
                f"sharding must be a ShardingConfig or None; got {self.sharding!r}"
            )
        check_positive_int("query_block", self.query_block)

    def to_dict(self) -> dict:
        """JSON-safe representation (the remote-worker wire format)."""
        sharding: dict | None = None
        if self.sharding is not None:
            sharding = dataclasses.asdict(self.sharding)
            sharding["executor"] = self.sharding.executor.to_dict()
        return {"sharding": sharding, "query_block": self.query_block}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExecutionConfig":
        """Inverse of :meth:`to_dict`; unknown keys (at every level) raise."""
        data = _checked_mapping(data, {"sharding", "query_block"}, "ExecutionConfig")
        sharding = data.get("sharding")
        if sharding is not None:
            fields = {f.name for f in dataclasses.fields(ShardingConfig)}
            sharding = _checked_mapping(sharding, fields, "ShardingConfig")
            if "executor" in sharding:
                sharding["executor"] = ExecutorSpec.from_dict(sharding["executor"])
            sharding = ShardingConfig(**sharding)
        return cls(
            sharding=sharding,
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
