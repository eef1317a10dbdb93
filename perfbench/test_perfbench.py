"""Tests of the benchmark itself, at tiny scale.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench

bench.bootstrap()

import reference  # noqa: E402
import workloads  # noqa: E402
from repro import ClusterModel, DBSCAN  # noqa: E402
from repro.data import load_dataset  # noqa: E402
from repro.index.brute_force import BruteForceIndex  # noqa: E402

TINY = {
    "dataset": "MS-50k",
    "scale": 0.02,
    "setup_repeats": 1,
    "epochs": 2,
    "train_queries": 40,
    "hidden_layers": (8,),
    "request_pool": 16,
    "light_rps": 50.0,
    "heavy_rps": 100.0,
    "max_rps_steps": (100.0, 200.0),
    "burst": 8,
    "step_s": 0.2,
    "ari_floor": 0.0,  # a 2-epoch estimator on 215 points has no quality
}
SECONDS = 0.4
CONFIG = bench.load_config()


def tiny_run(name: str, trace: bool, seed: int = 1):
    spec = dataclasses.replace(workloads.SPECS[name], **TINY)
    return workloads.run_workload(spec, seed, SECONDS, trace)


def wrapped_targets():
    """Every (owner, attribute) the traced run replaces, and its original."""
    tracer = workloads.Tracer()
    workloads.install_layer_wrappers(tracer)
    targets = [(owner, attr, raw) for owner, attr, raw in tracer._saved]
    tracer.restore()
    return targets


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_tiny_smoke_run(name, trace):
    result = bench.report(tiny_run(name, trace), CONFIG)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in CONFIG[kind]}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)  # JSON-safe


def test_accelerated_ari_below_the_floor_is_incorrect():
    spec = dataclasses.replace(
        workloads.SPECS["fit-ms50k"], **{**TINY, "ari_floor": 1.01}
    )
    result = bench.report(workloads.run_workload(spec, 1, SECONDS, False), CONFIG)
    assert result["correct"] is False
    assert result["failed"] == 0


def test_corrupted_fit_label_counts_as_failed(monkeypatch):
    original = DBSCAN.fit
    calls = []

    def corrupting_fit(self, X):
        result = original(self, X)
        calls.append(1)
        if len(calls) > 1:
            result.labels[0] += 1
        return result

    monkeypatch.setattr(DBSCAN, "fit", corrupting_fit)
    result = bench.report(tiny_run("fit-ms50k", trace=False), CONFIG)
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_corrupted_served_label_counts_as_failed(monkeypatch):
    original = ClusterModel.predict

    def corrupting_predict(self, X_new):
        labels = original(self, X_new)
        if len(labels) <= TINY["request_pool"]:  # served batches, not all rows
            labels = labels.copy()
            labels[-1] += 1
        return labels

    monkeypatch.setattr(ClusterModel, "predict", corrupting_predict)
    result = bench.report(tiny_run("serve-ms50k", trace=False), CONFIG)
    assert result["failed"] >= 1
    assert result["correct"] is False


@pytest.mark.parametrize("name", ["fit-ms50k", "serve-ms50k", "remote-ms50k"])
def test_wrong_neighbourhoods_count_as_failed(name, monkeypatch):
    """The exact outputs are checked against a reference that does not use
    the program's distance kernel, so a kernel that drops a neighbour fails."""
    original = BruteForceIndex.batch_range_query

    def dropping(self, Q, eps):
        return [row[:-1] for row in original(self, Q, eps)]

    monkeypatch.setattr(BruteForceIndex, "batch_range_query", dropping)
    result = bench.report(tiny_run(name, trace=False), CONFIG)
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_reference_matches_the_program():
    data = load_dataset("MS-150k", scale=0.05, seed=0)
    X_train, X = data.split(seed=3)
    model = DBSCAN(eps=0.5, tau=3).fit_model(X)
    assert np.array_equal(reference.dbscan_labels(X, 0.5, 3), model.labels)
    cores = model.points[model.core_mask]
    core_labels = model.labels[model.core_mask]
    got = reference.predict_labels(cores, core_labels, X_train, 0.5)
    assert np.array_equal(got, model.predict(X_train))


def test_an_operation_fails_at_most_once():
    run = workloads.Run(workloads.SPECS["fit-ms50k"], 0, SECONDS, False)
    run.op(lambda: 1, verify=lambda result: "wrong output")
    run.op(lambda: 1 / 0, verify=lambda result: "never checked")
    run.op(lambda: 1, verify=lambda result: None)
    assert (run.attempted, run.failed, run.incorrect) == (3, 2, 1)


def test_traced_run_restores_every_wrapped_function():
    targets = wrapped_targets()
    assert len(targets) >= 15
    tiny_run("sampling-ms150k", trace=True)
    for owner, attr, raw in targets:
        assert inspect.getattr_static(owner, attr) is raw, f"{owner}.{attr}"


def test_tracer_restores_after_an_exception():
    targets = wrapped_targets()
    with pytest.raises(RuntimeError):
        with workloads.Tracer() as tracer:
            workloads.install_layer_wrappers(tracer)
            raise RuntimeError("boom")
    for owner, attr, raw in targets:
        assert inspect.getattr_static(owner, attr) is raw


def test_tracer_times_plain_generator_and_async_functions():
    import asyncio
    import types

    module = types.SimpleNamespace()

    def plain(x):
        return x + 1

    def gen(n):
        yield from range(n)

    async def coro(x):
        return x * 2

    module.plain, module.gen, module.coro = plain, gen, coro
    with workloads.Tracer() as tracer:
        for attr in ("plain", "gen", "coro"):
            tracer.wrap(module, attr, attr, rows=lambda a, k: a[0])
        assert module.plain(2) == 3
        assert list(module.gen(3)) == [0, 1, 2]
        assert asyncio.run(module.coro(4)) == 8
    assert (module.plain, module.gen, module.coro) == (plain, gen, coro)
    assert dict(tracer.calls) == {"plain": 1, "gen": 1, "coro": 1}
    assert dict(tracer.rows) == {"plain": 2, "gen": 3, "coro": 4}


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.SPECS)
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in CONFIG["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-ms50k", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert proc.stdout.strip() == ""
