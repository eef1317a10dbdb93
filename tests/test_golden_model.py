"""Golden-file format stability: yesterday's bytes must keep loading.

``tests/golden/model`` is a tiny fitted DBSCAN model committed to the
repository (see ``tests/golden/regenerate.py``). Loading it — with
checksum verification on — and reproducing the committed predictions
proves the on-disk format is still readable, across every Python and
numpy version CI runs. Any change that breaks these tests breaks every
artifact users have already saved; it needs a format-version bump and a
migration path, not a test edit.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.persistence import FORMAT_NAME, FORMAT_VERSION, MANIFEST_FILENAME

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def model():
    loaded = repro.load_model(GOLDEN / "model")  # verify=True: full checksum pass
    yield loaded
    loaded.close()


def test_manifest_is_current_format():
    manifest = json.loads((GOLDEN / "model" / MANIFEST_FILENAME).read_text())
    assert manifest["format"] == FORMAT_NAME
    # If this fails, FORMAT_VERSION was bumped without regenerating the
    # golden artifact — old-version artifacts must still load, so add a
    # second golden model for the old version instead of replacing this one.
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["kind"] == "cluster_model"


def test_golden_model_loads_with_expected_shape(model):
    assert model.algo == "dbscan"
    assert model.params["eps"] == 0.4
    assert model.params["tau"] == 3  # min cluster cardinality incl. self
    assert model.n_points == 24
    assert model.n_clusters == 3
    assert model.n_cores == 24


def test_golden_model_predicts_committed_labels(model):
    queries = np.load(GOLDEN / "queries.npy")
    expected = np.load(GOLDEN / "expected_predict.npy")
    assert np.array_equal(model.predict(queries), expected)


def test_golden_model_training_set_roundtrip(model):
    predicted = model.predict(np.asarray(model.points))
    cores = model.core_mask
    assert np.array_equal(predicted[cores], model.labels[cores])


def _golden_copy_with_execution(tmp_path, execution: dict) -> Path:
    """The golden model with a hand-edited execution spec in its manifest."""
    copy = tmp_path / "model"
    shutil.copytree(GOLDEN / "model", copy)
    manifest_path = copy / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    manifest["spec"]["execution"].update(execution)
    manifest_path.write_text(json.dumps(manifest))
    return copy


def _retired_executor(name: str, **n_workers) -> dict:
    return {
        "sharding": {
            "n_shards": 2,
            "executor": name,
            **n_workers,
            "query_block": 64,
        },
    }


@pytest.mark.parametrize(
    "edit",
    [
        {"sharding": False},
        _retired_executor("process", n_workers=2),
        _retired_executor("thread", n_workers=2),
        _retired_executor("thread"),
        _retired_executor("serial", n_workers=4),
        {"cache_eviction": "keep"},
    ],
    ids=[
        "sharding-false",
        "process-executor",
        "thread-executor",
        "thread-executor-without-workers",
        "serial-executor-with-workers",
        "cache-eviction-keep",
    ],
)
def test_older_execution_spellings_still_load(tmp_path, edit):
    """``"sharding": false`` reads as None, and so does a sharding on a
    retired in-process executor ("process", "thread" or "serial",
    whatever ``n_workers`` it recorded): labels never depended on the
    executor. The retired ``cache_eviction`` key is dropped."""
    path = _golden_copy_with_execution(tmp_path, edit)
    with repro.load_model(path) as loaded:
        assert loaded.execution.sharding is None
        queries = np.load(GOLDEN / "queries.npy")
        expected = np.load(GOLDEN / "expected_predict.npy")
        assert np.array_equal(loaded.predict(queries), expected)
        # New writes emit none of the old spellings.
        loaded.save(tmp_path / "resaved")
    resaved = json.loads((tmp_path / "resaved" / MANIFEST_FILENAME).read_text())
    assert "cache_eviction" not in resaved["spec"]["execution"]
    assert resaved["spec"]["execution"]["sharding"] is None


@pytest.mark.parametrize(
    "options",
    [
        {"addresses": ["127.0.0.1:9", "127.0.0.1:10"]},
        {
            "addresses": ["127.0.0.1:9"],
            "connect_timeout_s": 0.5,
            "retries": 0,
            "timeout_s": 30.0,
        },
    ],
    ids=["addresses", "every-option"],
)
def test_remote_sharding_manifest_round_trips_byte_for_byte(tmp_path, options):
    """A remote sharding keeps the ``{"name": "remote", "options": ...}``
    spelling earlier releases wrote (these manifests are, byte for byte,
    what they wrote for the golden model fitted on such a pool), so
    loading and saving again reproduces the manifest exactly. Loading
    reaches no worker: the addresses need not be live."""
    copy = tmp_path / "model"
    shutil.copytree(GOLDEN / "model", copy)
    manifest = json.loads((copy / MANIFEST_FILENAME).read_text())
    manifest["spec"]["execution"] = {
        "query_block": 1024,
        "sharding": {
            "n_shards": 2,
            "executor": {"name": "remote", "options": options},
            "query_block": 64,
        },
    }
    written = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (copy / MANIFEST_FILENAME).write_text(written)
    with repro.load_model(copy) as loaded:
        executor = loaded.execution.sharding.executor
        assert executor.addresses == tuple(options["addresses"])
        assert executor.retries == options.get("retries", 2)
        loaded.save(tmp_path / "resaved")
    assert (tmp_path / "resaved" / MANIFEST_FILENAME).read_text() == written
