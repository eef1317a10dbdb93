"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, execution_from_args, main
from repro.experiments.workloads import clear_cache
from repro.index.sharded import ExecutorSpec


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


FAST = ["--scale", "0.003", "--epochs", "3"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quality_defaults(self):
        args = build_parser().parse_args(["quality"])
        assert args.command == "quality"
        assert args.eps == 0.55
        assert args.tau == 5
        assert args.datasets == ["MS-50k", "MS-100k", "MS-150k"]

    def test_missed_alpha_override(self):
        args = build_parser().parse_args(["missed", "--alpha", "2.5"])
        assert args.alpha == 2.5

    def test_sharding_flags(self):
        args = build_parser().parse_args(
            [
                "timing",
                "--shards",
                "4",
                "--shard-query-block",
                "512",
            ]
        )
        assert args.shards == 4
        assert args.shard_query_block == 512
        sharding = execution_from_args(args).sharding
        assert sharding.n_shards == 4
        assert sharding.query_block == 512
        assert sharding.executor == ExecutorSpec("serial")

    def test_pool_address_selects_the_remote_executor(self):
        args = build_parser().parse_args(
            ["timing", "--shards", "2", "--pool-address", "127.0.0.1:9"]
        )
        executor = execution_from_args(args).sharding.executor
        assert executor == ExecutorSpec("remote", {"addresses": ["127.0.0.1:9"]})

    def test_repeated_pool_address_lists_the_fleet_in_order(self):
        args = build_parser().parse_args(
            ["timing", "--shards", "4", "--shard-query-block", "32"]
            + ["--pool-address", "10.0.0.2:7000", "--pool-address", "10.0.0.1:7000"]
        )
        sharding = execution_from_args(args).sharding
        assert sharding.n_shards == 4
        assert sharding.query_block == 32
        assert sharding.executor == ExecutorSpec(
            "remote", {"addresses": ["10.0.0.2:7000", "10.0.0.1:7000"]}
        )

    @pytest.mark.parametrize(
        "flag,value", [("--shard-executor", "serial"), ("--shard-workers", "2")]
    )
    def test_retired_executor_flags_are_usage_errors(self, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["timing", "--shards", "2", flag, value])
        assert excinfo.value.code == 2

    def test_shard_query_block_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["timing", "--shard-query-block", "0"])

    @pytest.mark.parametrize("flag", ["--shards", "--engine-block"])
    def test_positive_count_flags_validated(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["timing", flag, "0"])
        assert excinfo.value.code == 2

    def test_sharding_defaults_off(self):
        args = build_parser().parse_args(["timing"])
        assert args.shards is None
        assert args.pool_address is None
        assert execution_from_args(args).sharding is None

    def test_flag_contradiction_is_a_usage_error(self, capsys):
        # The flags map into one ExecutionConfig; a contradiction is a
        # clean usage error (exit 2), not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["timing", "--pool-address", "127.0.0.1:9"])
        assert excinfo.value.code == 2
        assert "needs --shards" in capsys.readouterr().err

    def test_per_point_flag_is_gone(self):
        # Every fit runs on the batched engine.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["timing", "--per-point"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize"])


class TestCommands:
    def test_grid(self, capsys):
        code = main(
            ["grid", "--datasets", "MS-50k", *FAST, "--eps-values", "0.5"]
            + ["--tau-values", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(noise ratio, #clusters)" in out
        assert "(0.5, 3)" in out

    def test_quality_with_json(self, capsys, tmp_path):
        path = str(tmp_path / "rows.json")
        code = main(["quality", "--datasets", "MS-50k", *FAST, "--json", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "ARI @" in out and "AMI @" in out
        with open(path) as f:
            rows = json.load(f)
        assert {r["method"] for r in rows} == {
            "KNN-BLOCK", "BLOCK-DBSCAN", "DBSCAN++", "LAF-DBSCAN", "LAF-DBSCAN++",
        }

    def test_timing(self, capsys):
        code = main(["timing", "--datasets", "MS-50k", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "time (s)" in out
        assert "speedups:" in out

    def test_tradeoff(self, capsys):
        code = main(["tradeoff", "--dataset", "MS-50k", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "trade-off on MS-50k" in out
        assert "LAF-DBSCAN" in out

    def test_missed(self, capsys):
        code = main(["missed", "--dataset", "MS-50k", *FAST, "--alpha", "1.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MC/TC" in out

    def test_grid_with_engine_sharding(self, capsys):
        code = main(
            ["grid", "--datasets", "MS-50k", *FAST]
            + ["--eps-values", "0.5", "--tau-values", "3"]
            + ["--shards", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(noise ratio, #clusters)" in out
