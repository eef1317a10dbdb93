"""Negative-path tests: every corrupt artifact fails with a typed error.

The load path promises a :class:`~repro.exceptions.PersistenceError` —
never a bare numpy/json traceback — for each damage class: truncated
array files, checksum mismatches, unknown or newer format versions,
manifest/dtype drift, missing files, mistyped execution configs,
artifacts of a kind that no longer loads (the version-1 index kinds),
and models that name a removed range backend (the trees, the grid and
the ``"custom"`` index marker).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig
from repro.exceptions import PersistenceError
from repro.index.sharded import ShardingConfig
from repro.persistence import (
    FORMAT_VERSION,
    MANIFEST_FILENAME,
    load_model,
    read_manifest,
)


@pytest.fixture()
def data() -> np.ndarray:
    return normalize_rows(np.random.default_rng(0).normal(size=(40, 8)))


@pytest.fixture()
def artifact(data, tmp_path):
    path = tmp_path / "model"
    with repro.fit_model(data, "dbscan", eps=0.4, tau=3) as model:
        model.save(path)
    return path


def edit_manifest(path, mutate) -> None:
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    mutate(manifest)
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))


class TestManifestValidation:
    def test_missing_artifact_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="no artifact"):
            load_model(tmp_path / "nowhere")

    def test_file_instead_of_directory(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("hello")
        with pytest.raises(PersistenceError, match="no artifact"):
            load_model(target)

    def test_missing_manifest(self, artifact):
        (artifact / MANIFEST_FILENAME).unlink()
        with pytest.raises(PersistenceError, match="no artifact"):
            load_model(artifact)

    def test_malformed_json(self, artifact):
        (artifact / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(PersistenceError, match="unreadable manifest"):
            load_model(artifact)

    def test_wrong_format_tag(self, artifact):
        edit_manifest(artifact, lambda m: m.update(format="other-format"))
        with pytest.raises(PersistenceError, match="not a repro-artifact"):
            load_model(artifact)

    def test_newer_format_version(self, artifact):
        edit_manifest(artifact, lambda m: m.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(PersistenceError, match="newer than"):
            load_model(artifact)

    def test_invalid_format_version(self, artifact):
        edit_manifest(artifact, lambda m: m.update(format_version="two"))
        with pytest.raises(PersistenceError, match="invalid format_version"):
            load_model(artifact)

    def test_missing_required_key(self, artifact):
        edit_manifest(artifact, lambda m: m.pop("arrays"))
        with pytest.raises(PersistenceError, match="missing 'arrays'"):
            load_model(artifact)

    def test_kind_mismatch(self, artifact):
        with pytest.raises(PersistenceError, match="kind"):
            read_manifest(artifact, expected_kind="sharded_index")

    @pytest.mark.parametrize("kind", ["index", "index_shard", "sharded_index"])
    def test_model_loader_rejects_index_artifact(self, artifact, kind):
        # Version-1 index artifacts no longer load; the error names the kind.
        edit_manifest(artifact, lambda m: m.update(kind=kind))
        with pytest.raises(PersistenceError, match=f"kind '{kind}'"):
            load_model(artifact)


class TestArrayValidation:
    def test_truncated_array_file(self, artifact):
        target = artifact / "points.npy"
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(PersistenceError, match="truncated"):
            load_model(artifact)

    def test_checksum_mismatch(self, artifact):
        target = artifact / "points.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF  # flip bits, keep the size
        target.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="checksum mismatch"):
            load_model(artifact)

    def test_checksum_skippable_for_hot_reattach(self, artifact):
        target = artifact / "points.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        # verify=False skips the hash pass; structural checks still run.
        loaded = load_model(artifact, verify=False)
        assert loaded.n_points == 40

    def test_missing_array_file(self, artifact):
        (artifact / "points.npy").unlink()
        with pytest.raises(PersistenceError, match="missing"):
            load_model(artifact)

    def test_dtype_drift(self, artifact):
        edit_manifest(
            artifact,
            lambda m: m["arrays"]["points"].update(dtype="<f4"),
        )
        # Size check trips first only if nbytes disagrees; align it so the
        # dtype comparison is what fires.
        with pytest.raises(PersistenceError, match="truncated|drifted"):
            load_model(artifact)

    def test_shape_drift(self, artifact, data):
        # Replace the array file with a differently-shaped valid .npy of
        # identical byte size, then fix the manifest hash so only the
        # shape check can object.
        import hashlib

        target = artifact / "points.npy"
        np.save(target, np.ascontiguousarray(data.reshape(8, 40)))
        digest = hashlib.sha256(target.read_bytes()).hexdigest()

        def mutate(m):
            m["arrays"]["points"]["sha256"] = digest
            m["arrays"]["points"]["nbytes"] = target.stat().st_size

        edit_manifest(artifact, mutate)
        with pytest.raises(PersistenceError, match="drifted"):
            load_model(artifact)


def _remote(**options) -> dict:
    return {"name": "remote", "options": {"addresses": ["h:1"], **options}}


class TestExecutionValidation:
    """A mistyped saved execution config fails typed, never coerced."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_shards", "2"),
            ("n_shards", None),
            ("n_shards", [2]),
            ("n_shards", 2.5),
            ("query_block", True),
            ("executor", _remote(timeout_s="x")),
            ("executor", _remote(retries="two")),
            ("n_shards", True),
            ("query_block", "8"),
            ("query_block", 2.5),
            ("executor", "gpu"),
            ("executor", 3),
        ],
    )
    def test_mistyped_sharding_field(self, data, tmp_path, field, value):
        path = tmp_path / "model"
        execution = ExecutionConfig(sharding=ShardingConfig(n_shards=2))
        with repro.fit_model(data, eps=0.4, tau=3, execution=execution) as model:
            model.save(path)
        edit_manifest(
            path, lambda m: m["spec"]["execution"]["sharding"].update({field: value})
        )
        with pytest.raises(PersistenceError, match="execution config"):
            load_model(path)


#: Range backends this library no longer ships ("custom" marked a fit
#: under a custom index factory). Version-1 models that name one in
#: ``execution.index`` fail on the backend name.
REMOVED_BACKENDS = {
    "cover_tree": {"base": 2.0},
    "custom": {},
    "grid": {"eps": 0.5, "rho": 1.0},
    "kmeans_tree": {"seed": 0},
}


class TestRemovedBackends:
    """A v1 model naming a removed backend loads as a typed error."""

    @pytest.mark.parametrize("backend", sorted(REMOVED_BACKENDS))
    def test_model_execution_index(self, data, tmp_path, backend):
        model = repro.fit_model(data, "dbscan", eps=0.4, tau=3)
        with model:
            model.save(tmp_path / "model")

        def mutate(m):
            assert m["format_version"] == 1
            m["spec"]["execution"]["index"] = {
                "name": backend,
                "kwargs": REMOVED_BACKENDS[backend],
            }

        edit_manifest(tmp_path / "model", mutate)
        with pytest.raises(PersistenceError, match=backend):
            repro.load_model(tmp_path / "model")

    def test_model_brute_force_execution_index_loads(self, tmp_path):
        """A v1 model naming brute force in ``execution.index`` still serves."""
        golden = Path(__file__).resolve().parent / "golden"
        path = tmp_path / "model"
        shutil.copytree(golden / "model", path)

        def mutate(m):
            assert m["format_version"] == 1
            m["spec"]["execution"]["index"] = {
                "name": "brute_force",
                "kwargs": {"block_size": 512},
            }

        edit_manifest(path, mutate)
        with repro.load_model(path) as model:
            predicted = model.predict(np.load(golden / "queries.npy"))
        assert np.array_equal(predicted, np.load(golden / "expected_predict.npy"))


class TestModelValidation:

    def test_unknown_estimator_type(self, data, tmp_path):
        model = repro.fit_model(data, "dbscan", eps=0.4, tau=3)
        with model:
            model.save(tmp_path / "model")

        def mutate(m):
            m["metadata"]["estimator"] = {"type": "MysteryEstimator", "file": "x.npz"}

        edit_manifest(tmp_path / "model", mutate)
        with pytest.raises(PersistenceError, match="unknown estimator"):
            repro.load_model(tmp_path / "model")

    def test_core_maskless_clusterer_cannot_freeze(self, data):
        from repro.clustering.base import Clusterer, ClusteringResult

        class NoCores(Clusterer):
            def fit(self, X):
                return ClusteringResult(labels=np.zeros(X.shape[0], dtype=np.int64))

        with pytest.raises(PersistenceError, match="core status"):
            NoCores(eps=0.4, tau=3).fit_model(data)
