"""Tests for the :class:`ExecutorSpec` value type.

The spec names one of the fixed :data:`EXECUTORS` plus validated,
canonicalized, JSON-safe options. Contracts:

* coercion accepts a spec, a bare name, or a wire dict — and nothing
  else;
* unknown names raise listing the executors;
* option-free specs serialize as their bare name (old wire format stays
  byte-identical), optioned specs as a strict ``{"name", "options"}``
  dict that round-trips;
* per-executor option validation runs at construction: a spec that
  exists is a spec that can run.
"""

from __future__ import annotations

import json

import pytest

from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError
import repro.index
from repro.index.sharded import EXECUTORS, ExecutorSpec, ShardingConfig


class TestExecutorSet:
    def test_the_executors_are_a_fixed_set(self):
        assert EXECUTORS == ("remote", "serial")

    def test_no_registry_is_exported(self):
        for name in ("register_executor", "registered_executors"):
            assert not hasattr(repro.index, name)
            assert name not in repro.index.__all__

    @pytest.mark.parametrize("name", ["process", "thread"])
    def test_removed_executors_are_rejected(self, name):
        with pytest.raises(InvalidParameterError, match="executors: remote, serial$"):
            ShardingConfig(executor=name)


class TestCoercion:
    def test_string_coerces_to_option_free_spec(self):
        spec = ExecutorSpec.coerce("serial")
        assert spec == ExecutorSpec("serial")
        assert spec.options == {}

    def test_spec_passes_through_unchanged(self):
        spec = ExecutorSpec("serial")
        assert ExecutorSpec.coerce(spec) is spec

    def test_wire_dict_coerces(self):
        spec = ExecutorSpec.coerce(
            {"name": "remote", "options": {"addresses": ["h:1"]}}
        )
        assert spec.name == "remote"
        assert spec.options["addresses"] == ("h:1",)

    def test_unknown_name_lists_the_executors(self):
        with pytest.raises(InvalidParameterError, match="executors: remote, serial"):
            ExecutorSpec("gpu")
        with pytest.raises(InvalidParameterError, match="serial"):
            ExecutorSpec.coerce("gpu")

    def test_garbage_input_raises(self):
        with pytest.raises(InvalidParameterError, match="ExecutorSpec"):
            ExecutorSpec.coerce(42)

    def test_serial_executor_rejects_options(self):
        with pytest.raises(InvalidParameterError):
            ExecutorSpec("serial", {"addresses": ["h:1"]})


class TestRemoteOptions:
    def test_addresses_are_required(self):
        with pytest.raises(InvalidParameterError, match="address"):
            ExecutorSpec("remote")
        with pytest.raises(InvalidParameterError, match="address"):
            ExecutorSpec("remote", {"addresses": []})

    def test_addresses_normalize_to_tuple(self):
        spec = ExecutorSpec("remote", {"addresses": ["a:1", "b:2"]})
        assert spec.options["addresses"] == ("a:1", "b:2")

    def test_malformed_address_raises(self):
        with pytest.raises(InvalidParameterError):
            ExecutorSpec("remote", {"addresses": ["no-port"]})

    def test_unknown_option_raises(self):
        with pytest.raises(InvalidParameterError):
            ExecutorSpec("remote", {"addresses": ["h:1"], "compression": "zstd"})

    def test_numeric_options_are_validated(self):
        with pytest.raises(InvalidParameterError):
            ExecutorSpec("remote", {"addresses": ["h:1"], "timeout_s": 0})
        with pytest.raises(InvalidParameterError):
            ExecutorSpec("remote", {"addresses": ["h:1"], "retries": -1})
        spec = ExecutorSpec(
            "remote", {"addresses": ["h:1"], "timeout_s": 5.0, "retries": 0}
        )
        assert spec.options["timeout_s"] == 5.0
        assert spec.options["retries"] == 0

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
    def test_mistyped_numeric_options_fail_typed(self, key, value):
        # Never coerced: float("x") would escape as a bare ValueError,
        # int(2.7) would silently run 2 retries and True would run 1.
        with pytest.raises(InvalidParameterError, match=key):
            ExecutorSpec("remote", {"addresses": ["h:1"], key: value})


class TestWireFormat:
    def test_option_free_wire_value_is_the_bare_name(self):
        # The pre-spec wire format wrote bare strings; option-free specs
        # must keep old artifacts and configs byte-identical.
        assert ExecutorSpec("serial").wire_value() == "serial"

    def test_optioned_wire_value_is_the_strict_dict(self):
        spec = ExecutorSpec("remote", {"addresses": ["h:1"]})
        wire = spec.wire_value()
        assert wire == {"name": "remote", "options": {"addresses": ["h:1"]}}
        json.dumps(wire)  # JSON-safe all the way down

    def test_round_trip_through_coerce(self):
        for spec in (
            ExecutorSpec("serial"),
            ExecutorSpec("remote", {"addresses": ["a:1", "b:2"], "retries": 1}),
        ):
            assert ExecutorSpec.coerce(spec.wire_value()) == spec

    def test_from_dict_is_strict(self):
        with pytest.raises(InvalidParameterError):
            ExecutorSpec.from_dict({"options": {}})  # name missing
        with pytest.raises(InvalidParameterError):
            ExecutorSpec.from_dict({"name": "serial", "extra": 1})

    def test_specs_are_hashable_value_objects(self):
        a = ExecutorSpec("remote", {"addresses": ["h:1"], "retries": 1})
        b = ExecutorSpec("remote", {"retries": 1, "addresses": ("h:1",)})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestConfigIntegration:
    def test_sharding_config_coerces_strings(self):
        cfg = ShardingConfig(n_shards=2, executor="serial")
        assert cfg.executor == ExecutorSpec("serial")

    def test_sharding_config_accepts_specs(self):
        spec = ExecutorSpec("remote", {"addresses": ["h:1"]})
        assert ShardingConfig(n_shards=2, executor=spec).executor is spec

    def test_execution_config_wire_round_trips_remote_spec(self):
        spec = ExecutorSpec("remote", {"addresses": ["a:1", "b:2"]})
        cfg = ExecutionConfig(sharding=ShardingConfig(n_shards=3, executor=spec))
        data = cfg.to_dict()
        json.dumps(data)
        restored = ExecutionConfig.from_dict(data)
        assert restored.sharding.executor == spec
        assert restored.sharding.n_shards == 3

    def test_execution_config_wire_keeps_bare_names(self):
        cfg = ExecutionConfig(sharding=ShardingConfig(n_shards=3, executor="serial"))
        assert cfg.to_dict()["sharding"]["executor"] == "serial"
