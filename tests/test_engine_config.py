"""Tests for IndexSpec / ExecutionConfig: validation and serialization.

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

from repro.engine_config import DEFAULT_ENGINE_BLOCK, ExecutionConfig, IndexSpec
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex, CoverTree, GridIndex, KMeansTree
from repro.index.sharded import ShardingConfig


class TestIndexSpec:
    @pytest.mark.parametrize(
        "name,kwargs,cls",
        [
            ("brute_force", {}, BruteForceIndex),
            ("cover_tree", {"base": 1.7}, CoverTree),
            ("kmeans_tree", {"checks_ratio": 1.0, "seed": 0}, KMeansTree),
            ("grid", {"eps": 0.5, "rho": 1.0}, GridIndex),
        ],
    )
    def test_make_resolves_registered_backends(self, name, kwargs, cls):
        index = IndexSpec(name, kwargs).make()
        assert isinstance(index, cls)
        assert not index.is_built

    def test_kwargs_reach_the_constructor(self):
        tree = IndexSpec("cover_tree", {"base": 1.7}).make()
        assert tree.base == 1.7

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown index backend"):
            IndexSpec("faiss")

    def test_fields_are_name_and_kwargs(self):
        assert [f.name for f in dataclasses.fields(IndexSpec)] == ["name", "kwargs"]

    def test_round_trip(self):
        spec = IndexSpec("cover_tree", {"base": 1.7})
        assert IndexSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError, match="unknown IndexSpec keys"):
            IndexSpec.from_dict({"name": "brute_force", "block": 64})

    def test_from_dict_requires_name(self):
        with pytest.raises(InvalidParameterError, match="missing 'name'"):
            IndexSpec.from_dict({"kwargs": {}})

    def test_equality_is_by_value(self):
        assert IndexSpec("grid", {"eps": 0.5}) == IndexSpec("grid", {"eps": 0.5})
        assert IndexSpec("grid", {"eps": 0.5}) != IndexSpec("grid", {"eps": 0.6})

    def test_specs_are_hashable_value_types(self):
        # Equal specs hash equal (usable as dict keys / set members)
        # even though kwargs is a dict internally.
        a = IndexSpec("cover_tree", {"base": 1.8})
        b = IndexSpec("cover_tree", {"base": 1.8})
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert len({a, b}) == 1
        cfg = ExecutionConfig(index=a, sharding=ShardingConfig(n_shards=2))
        assert cfg in {ExecutionConfig(index=b, sharding=ShardingConfig(n_shards=2))}

    def test_specs_pickle(self):
        import pickle

        cfg = ExecutionConfig(
            index=IndexSpec("cover_tree", {"base": 1.8}),
            sharding=ShardingConfig(n_shards=2),
        )
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestExecutionConfigValidation:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.index is None
        assert cfg.sharding is None
        assert cfg.batch_queries is True
        assert cfg.query_block == DEFAULT_ENGINE_BLOCK

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "index",
            "sharding",
            "batch_queries",
            "query_block",
        ]

    def test_rejects_bad_query_block(self):
        with pytest.raises(InvalidParameterError, match="query_block"):
            ExecutionConfig(query_block=0)

    def test_rejects_non_spec_index(self):
        with pytest.raises(InvalidParameterError, match="IndexSpec"):
            ExecutionConfig(index="brute_force")

    def test_rejects_non_config_sharding(self):
        with pytest.raises(InvalidParameterError, match="ShardingConfig"):
            ExecutionConfig(sharding=4)


class TestExecutionConfigSerialization:
    def full_config(self) -> ExecutionConfig:
        return ExecutionConfig(
            index=IndexSpec("kmeans_tree", {"checks_ratio": 1.0, "seed": 3}),
            sharding=ShardingConfig(
                n_shards=4, executor="thread", n_workers=2, query_block=512
            ),
            query_block=256,
        )

    def test_round_trip_is_lossless(self):
        cfg = self.full_config()
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_of_defaults(self):
        cfg = ExecutionConfig()
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_of_per_point_config(self):
        cfg = ExecutionConfig(batch_queries=False)
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_is_json_safe(self):
        cfg = self.full_config()
        payload = json.dumps(cfg.to_dict())
        assert ExecutionConfig.from_dict(json.loads(payload)) == cfg

    def test_from_dict_rejects_unknown_top_level_keys(self):
        with pytest.raises(InvalidParameterError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"batch_queries": True, "gpu": True})

    def test_from_dict_rejects_unknown_sharding_keys(self):
        payload = self.full_config().to_dict()
        payload["sharding"]["replication"] = 2
        with pytest.raises(InvalidParameterError, match="unknown ShardingConfig"):
            ExecutionConfig.from_dict(payload)

    def test_from_dict_rejects_unknown_index_keys(self):
        payload = self.full_config().to_dict()
        payload["index"]["metric"] = "cosine"
        with pytest.raises(InvalidParameterError, match="unknown IndexSpec"):
            ExecutionConfig.from_dict(payload)

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(InvalidParameterError, match="mapping"):
            ExecutionConfig.from_dict([("batch_queries", True)])

    def test_from_dict_validates_reconstructed_values(self):
        payload = self.full_config().to_dict()
        payload["sharding"]["executor"] = "gpu"
        with pytest.raises(InvalidParameterError):
            ExecutionConfig.from_dict(payload)

    @pytest.mark.parametrize("build", ["constructor", "from_dict"])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_queries", "false"),
            ("batch_queries", 1),
            ("query_block", "abc"),
            ("query_block", True),
            ("query_block", 2.5),
        ],
    )
    def test_is_strict_about_field_types(self, build, field, value):
        # A mistyped value must fail loudly, never coerce: bool("false")
        # is True, which would silently run the batched path, and 2.5
        # would be written back as 2.
        with pytest.raises(InvalidParameterError, match=field):
            if build == "constructor":
                ExecutionConfig(**{field: value})
            else:
                ExecutionConfig.from_dict({field: value})

    def test_from_dict_rejects_retired_cache_eviction(self):
        # Old artifacts' cache_eviction is dropped by the persistence
        # loader; the wire format itself has no such key.
        with pytest.raises(InvalidParameterError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"cache_eviction": "serve"})

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
        cfg = ExecutionConfig(
            index=IndexSpec("cover_tree", {"base": 1.6}),
            sharding=ShardingConfig(n_shards=2),
        )
        wired = ExecutionConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        baseline = DBSCAN(eps=0.5, tau=4).fit(X)
        result = DBSCAN(eps=0.5, tau=4, execution=wired).fit(X)
        assert np.array_equal(baseline.labels, result.labels)
        assert result.stats["shard_live_shards"] == 2
