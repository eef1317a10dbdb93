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


@pytest.mark.parametrize(
    "edit",
    [
        {"sharding": False},
        {
            "sharding": {
                "n_shards": 2,
                "executor": "process",
                "n_workers": 2,
                "query_block": 64,
            },
        },
        {"cache_eviction": "keep"},
    ],
    ids=["sharding-false", "process-executor", "cache-eviction-keep"],
)
def test_older_execution_spellings_still_load(tmp_path, edit):
    """``"sharding": false`` reads as None, executor "process" as
    "thread", and the retired ``cache_eviction`` key is dropped."""
    path = _golden_copy_with_execution(tmp_path, edit)
    with repro.load_model(path) as loaded:
        if edit.get("sharding"):
            assert loaded.execution.sharding.executor.name == "thread"
        else:
            assert loaded.execution.sharding is None
        queries = np.load(GOLDEN / "queries.npy")
        expected = np.load(GOLDEN / "expected_predict.npy")
        assert np.array_equal(loaded.predict(queries), expected)
        # New writes emit none of the old spellings.
        loaded.save(tmp_path / "resaved")
    resaved = json.loads((tmp_path / "resaved" / MANIFEST_FILENAME).read_text())
    assert "cache_eviction" not in resaved["spec"]["execution"]
    assert resaved["spec"]["execution"]["sharding"] in (
        None,
        {"n_shards": 2, "executor": "thread", "n_workers": 2, "query_block": 64},
    )
