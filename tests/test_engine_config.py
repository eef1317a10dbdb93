"""Tests for ExecutionConfig: validation and serialization.

The serialization contract matters beyond tidiness: ``to_dict`` /
``from_dict`` is the wire format the distributed follow-on needs to
ship an execution policy to a remote worker, so the round-trip must be
JSON-safe, lossless, and strict about unknown keys.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.engine_config import DEFAULT_ENGINE_BLOCK, ExecutionConfig
from repro.exceptions import InvalidParameterError
from repro.index.sharded import ShardingConfig


class TestExecutionConfigValueType:
    def test_configs_are_hashable_value_types(self):
        a = ExecutionConfig(sharding=ShardingConfig(n_shards=2), query_block=64)
        b = ExecutionConfig(sharding=ShardingConfig(n_shards=2), query_block=64)
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert len({a, b}) == 1

    def test_configs_pickle(self):
        import pickle

        cfg = ExecutionConfig(sharding=ShardingConfig(n_shards=2), query_block=64)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestExecutionConfigValidation:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.sharding is None
        assert cfg.query_block == DEFAULT_ENGINE_BLOCK

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "sharding",
            "query_block",
        ]

    def test_sharding_fields(self):
        assert [f.name for f in dataclasses.fields(ShardingConfig)] == [
            "n_shards",
            "executor",
            "query_block",
        ]

    def test_rejects_bad_query_block(self):
        with pytest.raises(InvalidParameterError, match="query_block"):
            ExecutionConfig(query_block=0)

    def test_rejects_non_config_sharding(self):
        with pytest.raises(InvalidParameterError, match="ShardingConfig"):
            ExecutionConfig(sharding=4)


class TestExecutionConfigSerialization:
    def full_config(self) -> ExecutionConfig:
        return ExecutionConfig(
            sharding=ShardingConfig(n_shards=4, executor="serial", query_block=512),
            query_block=256,
        )

    def test_round_trip_is_lossless(self):
        cfg = self.full_config()
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_of_defaults(self):
        cfg = ExecutionConfig()
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_is_json_safe(self):
        cfg = self.full_config()
        payload = json.dumps(cfg.to_dict())
        assert ExecutionConfig.from_dict(json.loads(payload)) == cfg

    def test_from_dict_rejects_unknown_top_level_keys(self):
        with pytest.raises(InvalidParameterError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"query_block": 8, "gpu": True})

    def test_from_dict_rejects_unknown_sharding_keys(self):
        payload = self.full_config().to_dict()
        payload["sharding"]["replication"] = 2
        with pytest.raises(InvalidParameterError, match="unknown ShardingConfig"):
            ExecutionConfig.from_dict(payload)

    def test_from_dict_rejects_retired_n_workers(self):
        # Only the retired thread executor read a worker count; saved
        # models drop it in the persistence loader, the wire rejects it.
        payload = self.full_config().to_dict()
        payload["sharding"]["n_workers"] = 2
        with pytest.raises(InvalidParameterError, match="unknown ShardingConfig"):
            ExecutionConfig.from_dict(payload)

    def test_from_dict_rejects_retired_index(self):
        # Old artifacts' execution.index is checked and dropped by the
        # persistence loader; the wire format itself has no such key.
        with pytest.raises(InvalidParameterError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"index": None})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(InvalidParameterError, match="mapping"):
            ExecutionConfig.from_dict([("query_block", 8)])

    def test_from_dict_validates_reconstructed_values(self):
        payload = self.full_config().to_dict()
        payload["sharding"]["executor"] = "gpu"
        with pytest.raises(InvalidParameterError):
            ExecutionConfig.from_dict(payload)

    @pytest.mark.parametrize("build", ["constructor", "from_dict"])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("query_block", "abc"),
            ("query_block", True),
            ("query_block", 2.5),
            ("sharding.n_shards", "2"),
            ("sharding.n_shards", None),
            ("sharding.n_shards", [2]),
            ("sharding.n_shards", 2.5),
            ("sharding.n_shards", True),
            ("sharding.query_block", "8"),
            ("sharding.query_block", 2.5),
            ("sharding.query_block", None),
            ("sharding.query_block", True),
            ("sharding.query_block", [8]),
            ("sharding.executor", 3),
            ("sharding.executor", None),
            ("query_block", None),
            ("query_block", [8]),
        ],
    )
    def test_is_strict_about_field_types(self, build, field, value):
        # A mistyped value must fail loudly, never coerce: 2.5 would be
        # written back as 2, and True would run one-row blocks.
        owner, _, name = field.rpartition(".")
        with pytest.raises(InvalidParameterError, match=name):
            if build == "constructor" and owner:
                ExecutionConfig(sharding=ShardingConfig(**{name: value}))
            elif build == "constructor":
                ExecutionConfig(**{name: value})
            else:
                payload = {name: value}
                ExecutionConfig.from_dict({owner: payload} if owner else payload)

    def test_from_dict_rejects_retired_cache_eviction(self):
        # Old artifacts' cache_eviction is dropped by the persistence
        # loader; the wire format itself has no such key.
        with pytest.raises(InvalidParameterError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"cache_eviction": "serve"})

    @pytest.mark.parametrize("value", [True, False])
    def test_from_dict_rejects_retired_batch_queries(self, value):
        # Every fit runs on the batched engine. Old artifacts'
        # batch_queries is dropped by the persistence loader; the wire
        # format itself has no such key, and writers never emit it.
        with pytest.raises(InvalidParameterError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"batch_queries": value})
        assert "batch_queries" not in ExecutionConfig().to_dict()

    def test_sharding_false_is_not_a_state(self):
        # Two states only: a ShardingConfig or None. The old explicit
        # opt-out is read back by the persistence loader, not here.
        with pytest.raises(InvalidParameterError, match="ShardingConfig"):
            ExecutionConfig.from_dict({"sharding": False})
        assert ExecutionConfig().to_dict()["sharding"] is None

    def test_deserialized_config_drives_a_fit(self):
        """The wire format reconstructs a config a clusterer can run."""
        from repro.clustering import DBSCAN
        from repro.testing import make_blobs_on_sphere

        X, _ = make_blobs_on_sphere(20, 3, 8, spread=0.2, seed=0)
        cfg = ExecutionConfig(sharding=ShardingConfig(n_shards=2), query_block=16)
        wired = ExecutionConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        baseline = DBSCAN(eps=0.5, tau=4).fit(X)
        result = DBSCAN(eps=0.5, tau=4, execution=wired).fit(X)
        assert np.array_equal(baseline.labels, result.labels)
        assert result.stats["shard_live_shards"] == 2
