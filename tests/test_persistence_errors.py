"""Negative-path tests: every corrupt artifact fails with a typed error.

The load path promises a :class:`~repro.exceptions.PersistenceError` —
never a bare numpy/json traceback — for each damage class: truncated
array files, checksum mismatches, unknown or newer format versions,
manifest/dtype drift, malformed shard metadata, missing files, and
artifacts whose execution policy cannot be reconstructed (the
``"custom"`` index marker, and the removed tree range backends).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.distances import normalize_rows
from repro.exceptions import PersistenceError
from repro.index import BruteForceIndex, GridIndex
from repro.index.sharded import ExecutorSpec, ShardedIndex
from repro.persistence import (
    FORMAT_VERSION,
    MANIFEST_FILENAME,
    load_index,
    load_model,
    load_shard_index,
    read_manifest,
    save_index,
)


@pytest.fixture()
def data() -> np.ndarray:
    return normalize_rows(np.random.default_rng(0).normal(size=(40, 8)))


@pytest.fixture()
def artifact(data, tmp_path):
    path = tmp_path / "index"
    save_index(GridIndex(eps=0.5).build(data), path)
    return path


def edit_manifest(path, mutate) -> None:
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    mutate(manifest)
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))


class TestManifestValidation:
    def test_missing_artifact_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="no artifact"):
            load_index(tmp_path / "nowhere")

    def test_file_instead_of_directory(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("hello")
        with pytest.raises(PersistenceError, match="no artifact"):
            load_index(target)

    def test_missing_manifest(self, artifact):
        (artifact / MANIFEST_FILENAME).unlink()
        with pytest.raises(PersistenceError, match="no artifact"):
            load_index(artifact)

    def test_malformed_json(self, artifact):
        (artifact / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(PersistenceError, match="unreadable manifest"):
            load_index(artifact)

    def test_wrong_format_tag(self, artifact):
        edit_manifest(artifact, lambda m: m.update(format="other-format"))
        with pytest.raises(PersistenceError, match="not a repro-artifact"):
            load_index(artifact)

    def test_newer_format_version(self, artifact):
        edit_manifest(artifact, lambda m: m.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(PersistenceError, match="newer than"):
            load_index(artifact)

    def test_invalid_format_version(self, artifact):
        edit_manifest(artifact, lambda m: m.update(format_version="two"))
        with pytest.raises(PersistenceError, match="invalid format_version"):
            load_index(artifact)

    def test_missing_required_key(self, artifact):
        edit_manifest(artifact, lambda m: m.pop("arrays"))
        with pytest.raises(PersistenceError, match="missing 'arrays'"):
            load_index(artifact)

    def test_kind_mismatch(self, artifact):
        with pytest.raises(PersistenceError, match="kind"):
            read_manifest(artifact, expected_kind="cluster_model")

    def test_model_loader_rejects_index_artifact(self, artifact):
        with pytest.raises(PersistenceError, match="kind"):
            load_model(artifact)


class TestArrayValidation:
    def test_truncated_array_file(self, artifact):
        target = artifact / "points.npy"
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(PersistenceError, match="truncated"):
            load_index(artifact)

    def test_checksum_mismatch(self, artifact):
        target = artifact / "points.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF  # flip bits, keep the size
        target.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="checksum mismatch"):
            load_index(artifact)

    def test_checksum_skippable_for_hot_reattach(self, artifact):
        target = artifact / "points.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        # verify=False skips the hash pass; structural checks still run.
        loaded = load_index(artifact, verify=False)
        assert loaded.n_points == 40

    def test_missing_array_file(self, artifact):
        (artifact / "cell_of_point.npy").unlink()
        with pytest.raises(PersistenceError, match="missing"):
            load_index(artifact)

    def test_dtype_drift(self, artifact):
        edit_manifest(
            artifact,
            lambda m: m["arrays"]["cell_of_point"].update(dtype="<i4"),
        )
        # Size check trips first only if nbytes disagrees; align it so the
        # dtype comparison is what fires.
        with pytest.raises(PersistenceError, match="truncated|drifted"):
            load_index(artifact)

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
            load_index(artifact)


class TestSpecValidation:
    def test_unknown_backend_name(self, artifact):
        edit_manifest(artifact, lambda m: m["spec"].update(backend="btree"))
        with pytest.raises(PersistenceError, match="cannot reconstruct"):
            load_index(artifact)

    def test_unknown_backend_kwarg(self, artifact):
        edit_manifest(artifact, lambda m: m["spec"]["kwargs"].update(depth=3))
        with pytest.raises(PersistenceError, match="cannot reconstruct"):
            load_index(artifact)

    def test_unregistered_index_type_refuses_to_save(self, data, tmp_path):
        class CustomIndex(BruteForceIndex):
            pass

        with pytest.raises(PersistenceError, match="no registered rebuild spec"):
            save_index(CustomIndex().build(data), tmp_path / "custom")

    def test_kmeans_tree_refuses_to_save(self, data, tmp_path):
        # The k-means tree is KNN-BLOCK's KNN substrate, not a range
        # backend, so it has no artifact form.
        from repro.index import KMeansTree

        tree = KMeansTree(seed=0).build(data)
        with pytest.raises(PersistenceError, match="no registered rebuild spec"):
            save_index(tree, tmp_path / "tree")

    def test_legacy_process_sharded_index_reattaches_on_thread(self, data, tmp_path):
        # Artifacts written while the shared-memory "process" executor
        # existed record it by name; they load on the thread executor.
        index = ShardedIndex(n_shards=2, executor="thread", n_workers=2).build(data)
        try:
            save_index(index, tmp_path / "sharded")
            expected = index.batch_range_query(data[:5], 0.6)
        finally:
            index.close()
        manifest_path = tmp_path / "sharded" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["executor"] = "process"
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_index(tmp_path / "sharded")
        try:
            assert loaded.executor.name == "thread"
            got = loaded.batch_range_query(data[:5], 0.6)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        finally:
            loaded.close()


def _short_live_entry(live):
    live[0] = live[0][:2]


def _hi_past_rows(live):
    live[0][2] = 400


def _empty_shard_range(live):
    live[0][1] = live[0][2]


def _negative_lo(live):
    live[0][1] = -1


def _float_bound(live):
    live[0][2] = float(live[0][2])


LOADERS = {
    "load_index": load_index,
    "load_index_remote": lambda path: load_index(
        path, executor=ExecutorSpec("remote", {"addresses": ["127.0.0.1:9"]})
    ),
    "load_shard_index": lambda path: load_shard_index(path, 0),
}


class TestShardMetadataValidation:
    """The manifest metadata is not checksummed: a damaged ``live`` table
    must fail typed before any shard slice is taken, in every loader."""

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize(
        "damage",
        [
            _short_live_entry,
            _hi_past_rows,
            _empty_shard_range,
            _negative_lo,
            _float_bound,
        ],
        ids=["short-entry", "hi-past-rows", "lo-ge-hi", "negative-lo", "float-hi"],
    )
    def test_malformed_live_entry(self, data, tmp_path, loader, damage):
        path = tmp_path / "sharded"
        with ShardedIndex(n_shards=2).build(data) as index:
            save_index(index, path)
        edit_manifest(path, lambda m: damage(m["metadata"]["live"]))
        with pytest.raises(PersistenceError, match="malformed live shard"):
            LOADERS[loader](path)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize(
        "damage",
        [
            lambda meta: meta.pop("live"),
            lambda meta: meta.update(live=3),
            lambda meta: meta["live"].__setitem__(0, 7),
        ],
        ids=["missing-live", "live-not-a-list", "scalar-entry"],
    )
    def test_unreadable_live_table(self, data, tmp_path, loader, damage):
        path = tmp_path / "sharded"
        with ShardedIndex(n_shards=2).build(data) as index:
            save_index(index, path)
        edit_manifest(path, lambda m: damage(m["metadata"]))
        with pytest.raises(PersistenceError, match="malformed shard metadata"):
            LOADERS[loader](path)


#: Range backends this library no longer ships. Version-1 artifacts that
#: name one keep the version-1 layout, so they fail on the backend name.
REMOVED_BACKENDS = {"cover_tree": {"base": 2.0}, "kmeans_tree": {"seed": 0}}


class TestRemovedBackends:
    """A v1 manifest naming a removed backend loads as a typed error."""

    @pytest.mark.parametrize("backend", sorted(REMOVED_BACKENDS))
    def test_plain_index(self, data, tmp_path, backend):
        path = tmp_path / "index"
        save_index(BruteForceIndex().build(data), path)

        def mutate(m):
            assert m["format_version"] == 1
            m["spec"] = {"backend": backend, "kwargs": REMOVED_BACKENDS[backend]}

        edit_manifest(path, mutate)
        with pytest.raises(PersistenceError, match=backend):
            load_index(path)

    @pytest.mark.parametrize("loader", ["load_index", "load_shard_index"])
    @pytest.mark.parametrize("backend", sorted(REMOVED_BACKENDS))
    def test_sharded_inner_spec(self, data, tmp_path, backend, loader):
        path = tmp_path / "sharded"
        with ShardedIndex(n_shards=2).build(data) as index:
            save_index(index, path)
        kwargs = REMOVED_BACKENDS[backend]

        def mutate(m):
            assert m["format_version"] == 1
            m["spec"].update(inner=backend, inner_kwargs=kwargs)

        def mutate_shard(m):
            m["spec"] = {"backend": backend, "kwargs": kwargs}

        edit_manifest(path, mutate)
        for shard in sorted((path / "shards").iterdir()):
            edit_manifest(shard, mutate_shard)
        with pytest.raises(PersistenceError, match=backend):
            LOADERS[loader](path)

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


class TestModelValidation:
    def test_custom_index_spec_fails_actionably(self, data, tmp_path):
        # Artifacts saved under a custom index factory record the
        # "custom" marker; loading one names the cause and the fix.
        model = repro.fit_model(data, "dbscan", eps=0.4, tau=3)
        with model:
            model.save(tmp_path / "model")
        edit_manifest(
            tmp_path / "model",
            lambda m: m["spec"]["execution"].update(index={"name": "custom"}),
        )
        with pytest.raises(PersistenceError, match="custom index factory.*refit"):
            repro.load_model(tmp_path / "model")

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
