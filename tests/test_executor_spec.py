"""Tests for the :class:`ExecutorSpec` value type.

The spec is the one remote pool spec: worker ``addresses`` plus typed
call timeouts and retries. Contracts:

* validation runs at construction: a spec that exists is a spec that
  can run, and mistyped fields fail typed instead of being coerced;
* ``from_dict`` is strict and accepts only the ``{"name": "remote",
  "options": {...}}`` wire form, which round-trips;
* specs are hashable value objects;
* sharding needs a spec: there is no executor name to fall back on.
"""

from __future__ import annotations

import json

import pytest

import repro.index
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError
from repro.index.sharded import (
    DEFAULT_CONNECT_TIMEOUT_S,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    ExecutorSpec,
    ShardedIndex,
    ShardingConfig,
)


class TestValidation:
    def test_defaults(self):
        spec = ExecutorSpec(("h:1",))
        assert spec.timeout_s == DEFAULT_TIMEOUT_S
        assert spec.retries == DEFAULT_RETRIES
        assert spec.connect_timeout_s == DEFAULT_CONNECT_TIMEOUT_S

    def test_addresses_are_required(self):
        with pytest.raises(InvalidParameterError, match="address"):
            ExecutorSpec([])
        with pytest.raises(InvalidParameterError, match="address"):
            ExecutorSpec("h:1")  # a string, not a sequence of them

    def test_addresses_normalize_to_tuple(self):
        assert ExecutorSpec(["a:1", "b:2"]).addresses == ("a:1", "b:2")

    @pytest.mark.parametrize("address", ["no-port", ":1", "h:", "h:x", 8080])
    def test_malformed_address_raises(self, address):
        with pytest.raises(InvalidParameterError, match="host:port"):
            ExecutorSpec(["a:1", address])

    def test_numeric_fields_are_validated(self):
        with pytest.raises(InvalidParameterError, match="timeout_s"):
            ExecutorSpec(["h:1"], timeout_s=0)
        with pytest.raises(InvalidParameterError, match="retries"):
            ExecutorSpec(["h:1"], retries=-1)
        spec = ExecutorSpec(["h:1"], timeout_s=5, retries=0)
        assert spec.timeout_s == 5.0 and isinstance(spec.timeout_s, float)
        assert spec.retries == 0

    @pytest.mark.parametrize(
        "key,value",
        [
            ("timeout_s", "x"),
            ("timeout_s", True),
            ("timeout_s", None),
            ("connect_timeout_s", "5"),
            ("connect_timeout_s", [5.0]),
            ("retries", "two"),
            ("retries", 2.7),
            ("retries", True),
            ("retries", 2.0),
        ],
    )
    def test_mistyped_numeric_fields_fail_typed(self, key, value):
        # Never coerced: float("x") would escape as a bare ValueError,
        # int(2.7) would silently run 2 retries and True would run 1.
        with pytest.raises(InvalidParameterError, match=key):
            ExecutorSpec(["h:1"], **{key: value})

    def test_specs_are_hashable_value_objects(self):
        a = ExecutorSpec(["h:1"], retries=1)
        b = ExecutorSpec(("h:1",), retries=1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, ExecutorSpec(["h:1"])}) == 2

    def test_no_registry_is_exported(self):
        for name in ("EXECUTORS", "register_executor", "registered_executors"):
            assert not hasattr(repro.index, name)
            assert name not in repro.index.__all__


class TestWireFormat:
    def test_wire_form_lists_addresses_and_changed_fields(self):
        assert ExecutorSpec(["h:1"]).to_dict() == {
            "name": "remote",
            "options": {"addresses": ["h:1"]},
        }
        wire = ExecutorSpec(["a:1", "b:2"], timeout_s=5, retries=0).to_dict()
        assert wire == {
            "name": "remote",
            "options": {"addresses": ["a:1", "b:2"], "timeout_s": 5.0, "retries": 0},
        }
        json.dumps(wire)  # JSON-safe all the way down

    @pytest.mark.parametrize(
        "spec",
        [
            ExecutorSpec(["a:1"]),
            ExecutorSpec(["a:1", "b:2"], retries=1),
            ExecutorSpec(["a:1"], timeout_s=1.5, retries=0, connect_timeout_s=0.5),
        ],
    )
    def test_round_trip(self, spec):
        assert ExecutorSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize(
        "data",
        [
            {"options": {"addresses": ["h:1"]}},  # name missing
            {"name": "serial", "options": {}},
            {"name": "remote", "options": {"addresses": ["h:1"]}, "extra": 1},
            {"name": "remote"},  # options missing
            {"name": "remote", "options": {"timeout_s": 1.0}},  # no addresses
            {"name": "remote", "options": {"addresses": ["h:1"], "zstd": 1}},
            {"name": "remote", "options": {"addresses": ["h:1"], "retries": "2"}},
            "remote",
            None,
        ],
    )
    def test_from_dict_is_strict(self, data):
        with pytest.raises(InvalidParameterError):
            ExecutorSpec.from_dict(data)


class TestConfigIntegration:
    def test_sharding_needs_a_pool_spec(self):
        with pytest.raises(InvalidParameterError, match=r"WorkerPool\.executor_spec"):
            ShardingConfig(n_shards=4)
        with pytest.raises(InvalidParameterError, match=r"WorkerPool\.executor_spec"):
            ShardedIndex(n_shards=4)

    @pytest.mark.parametrize(
        "executor",
        ["serial", "remote", {"name": "remote", "options": {"addresses": ["h:1"]}}],
    )
    def test_sharding_takes_no_other_spelling(self, executor):
        with pytest.raises(InvalidParameterError, match="executor"):
            ShardingConfig(n_shards=2, executor=executor)
        with pytest.raises(InvalidParameterError, match="executor"):
            ShardedIndex(n_shards=2, executor=executor)

    def test_sharding_config_keeps_the_spec(self):
        spec = ExecutorSpec(["h:1"])
        assert ShardingConfig(n_shards=2, executor=spec).executor is spec

    def test_execution_config_wire_round_trips_the_spec(self):
        spec = ExecutorSpec(["a:1", "b:2"], timeout_s=30.0)
        cfg = ExecutionConfig(sharding=ShardingConfig(n_shards=3, executor=spec))
        data = cfg.to_dict()
        assert data["sharding"]["executor"] == spec.to_dict()
        restored = ExecutionConfig.from_dict(json.loads(json.dumps(data)))
        assert restored == cfg
        assert hash(restored) == hash(cfg)
