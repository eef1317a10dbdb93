"""Versioned on-disk persistence for fitted clusterers.

Everything else in this library is fit-and-forget; this module is the
fit-once/query-forever half. :class:`ClusterModel` freezes a fitted
clustering — labels, core mask, core distances, the LAF estimator's
fitted parameters — and serves :meth:`ClusterModel.predict` through the
same batched/sharded engine substrate the fit used. It is the one thing
that saves and loads. A model artifact is a *directory* holding one
``manifest.json`` plus one ``.npy`` file per array:

* the manifest is strict JSON carrying the format version, the artifact
  kind, the reconstruction spec (algorithm, hyperparameters, metric and
  the :class:`~repro.engine_config.ExecutionConfig` wire format), and
  per-array dtype/shape/size/sha256 — every load verifies all of it
  and raises a typed :class:`~repro.exceptions.PersistenceError` (never
  a bare numpy traceback) on truncation, checksum mismatch, unknown or
  newer format versions, and manifest drift;
* the arrays are plain ``.npy`` files loaded back with
  ``np.load(mmap_mode="r")``, so loading a model never copies its
  training points into RAM.

Version-1 index artifacts (kinds ``index``, ``sharded_index`` and
``index_shard``) are no longer read: a built brute-force index is the
data matrix plus a float32 copy, and building it again from the matrix
is as fast as loading it. :func:`load_model` rejects them by kind.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import numpy as np

from repro.distances.matrix import _max_row_norm, nearest_candidates
from repro.distances.metric import Metric, get_metric
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError, PersistenceError

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "ClusterModel",
    "load_model",
    "read_manifest",
]

#: Tag every manifest starts with; anything else is not ours.
FORMAT_NAME = "repro-artifact"

#: Version of the on-disk layout this library writes and understands.
#: Backwards-compatible readers bump this only when the layout changes;
#: the golden-file test under ``tests/golden/`` pins version 1.
FORMAT_VERSION = 1

MANIFEST_FILENAME = "manifest.json"

#: The one artifact kind.
KIND_CLUSTER_MODEL = "cluster_model"

_HASH_CHUNK = 1 << 20


#: Retired in-process executors; a model that recorded one runs unsharded.
_RETIRED_EXECUTORS = ("process", "serial", "thread")


def _upgrade_execution(payload: Any) -> Any:
    """Read older spellings of a saved execution config.

    ``"sharding": false`` (the former explicit opt-out) reads as None,
    so does a sharding on a retired in-process executor (``serial``,
    ``thread`` or ``process``: labels never depended on the executor),
    and the retired ``cache_eviction`` and ``batch_queries`` keys and
    the sharding's ``n_workers`` are dropped whatever they held (the
    engine always releases a neighborhood once served, every fit and
    predict runs batched, and only the retired thread pool read a worker
    count). The retired
    ``index`` key is dropped when it is null or names brute force, the
    only range backend; any other name raises. Writers emit none of
    these; this runs only at the load boundary.
    """
    if not isinstance(payload, Mapping):
        return payload
    payload = dict(payload)
    payload.pop("cache_eviction", None)
    payload.pop("batch_queries", None)
    index = payload.pop("index", None)
    name = index.get("name") if isinstance(index, Mapping) else index
    if name not in (None, "brute_force"):
        raise InvalidParameterError(
            f"index backend {name!r} was removed; only 'brute_force' loads"
        )
    sharding = payload.get("sharding")
    if sharding is False:
        payload["sharding"] = None
    elif isinstance(sharding, Mapping):
        sharding = dict(sharding)
        sharding.pop("n_workers", None)
        retired = sharding.get("executor") in _RETIRED_EXECUTORS
        payload["sharding"] = None if retired else sharding
    return payload


# ----------------------------------------------------------------------
# Manifest + array I/O core
# ----------------------------------------------------------------------


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_HASH_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def write_artifact(
    path: str | Path,
    kind: str,
    arrays: Mapping[str, np.ndarray],
    spec: Mapping | None = None,
    metadata: Mapping | None = None,
) -> Path:
    """Write one artifact directory: arrays first, manifest last.

    The manifest is the commit point — a directory without one is never
    a valid artifact, so a crash mid-write cannot leave something that
    loads. Each array is stored C-contiguous with its dtype, shape,
    on-disk byte size and sha256 recorded in the manifest.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries: dict[str, dict] = {}
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr))
        filename = f"{name}.npy"
        target = path / filename
        np.save(target, arr, allow_pickle=False)
        entries[name] = {
            "file": filename,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "nbytes": target.stat().st_size,
            "sha256": _sha256_of(target),
        }
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "spec": dict(spec or {}),
        "arrays": entries,
        "metadata": dict(metadata or {}),
    }
    (path / MANIFEST_FILENAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return path


def read_manifest(path: str | Path, expected_kind: str | None = None) -> dict:
    """Read and validate an artifact manifest; every failure is typed.

    Checks, in order: the directory and ``manifest.json`` exist, the
    JSON parses into a mapping, the format tag matches, the version is
    one this library understands (a *newer* version raises with an
    upgrade hint rather than misreading the layout), the required keys
    are present, and — when ``expected_kind`` is given — the artifact
    kind is the one the caller asked for.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    if not path.is_dir() or not manifest_path.is_file():
        raise PersistenceError(
            f"no artifact at {path}: expected a directory containing "
            f"{MANIFEST_FILENAME}"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"unreadable manifest at {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise PersistenceError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest"
        )
    version = manifest.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise PersistenceError(
            f"invalid format_version {version!r} in {manifest_path}"
        )
    if version > FORMAT_VERSION:
        raise PersistenceError(
            f"artifact at {path} uses format version {version}, newer than "
            f"the highest this library understands ({FORMAT_VERSION}); "
            "upgrade the library to read it"
        )
    for key in ("kind", "spec", "arrays", "metadata"):
        if key not in manifest:
            raise PersistenceError(f"manifest at {manifest_path} is missing {key!r}")
    if not isinstance(manifest["arrays"], dict):
        raise PersistenceError(
            f"manifest at {manifest_path} has a malformed 'arrays' section"
        )
    if expected_kind is not None and manifest["kind"] != expected_kind:
        raise PersistenceError(
            f"artifact at {path} has kind {manifest['kind']!r}; "
            f"expected {expected_kind!r}"
        )
    return manifest


def load_arrays(
    path: str | Path,
    manifest: Mapping,
    *,
    mmap: bool = True,
    verify: bool = True,
) -> dict[str, np.ndarray]:
    """Load every manifest array, verified, memory-mapped by default.

    Per array, in order: the file exists, its byte size matches the
    manifest (truncation check), its sha256 matches (skippable with
    ``verify=False`` for hot reattach paths), it parses as ``.npy``,
    and its dtype/shape agree with the manifest (drift check). With
    ``mmap=True`` arrays come back as read-only maps — no copy.
    """
    path = Path(path)
    out: dict[str, np.ndarray] = {}
    for name, entry in manifest["arrays"].items():
        target = path / entry["file"]
        if not target.is_file():
            raise PersistenceError(f"array file {entry['file']} missing from {path}")
        size = target.stat().st_size
        if size != entry["nbytes"]:
            raise PersistenceError(
                f"array file {entry['file']} in {path} is truncated or "
                f"padded: {size} bytes on disk, manifest says {entry['nbytes']}"
            )
        if verify and _sha256_of(target) != entry["sha256"]:
            raise PersistenceError(
                f"checksum mismatch for {entry['file']} in {path}: "
                "the file was modified or corrupted after saving"
            )
        try:
            arr = np.load(target, mmap_mode="r" if mmap else None, allow_pickle=False)
        except Exception as exc:
            raise PersistenceError(
                f"could not parse array file {entry['file']} in {path}: {exc}"
            ) from exc
        if arr.dtype.str != entry["dtype"] or list(arr.shape) != list(entry["shape"]):
            raise PersistenceError(
                f"array {name!r} in {path} drifted from its manifest: "
                f"disk has dtype {arr.dtype.str} shape {tuple(arr.shape)}, "
                f"manifest says dtype {entry['dtype']} shape "
                f"{tuple(entry['shape'])}"
            )
        out[name] = arr
    return out


# ----------------------------------------------------------------------
# Fitted clusterer persistence + serving
# ----------------------------------------------------------------------


def _estimator_registry() -> dict[str, type]:
    """Estimator types with npz ``save``/``load`` (the LAF family's)."""
    from repro.estimators import MLPRegressor, RMICardinalityEstimator

    return {
        "RMICardinalityEstimator": RMICardinalityEstimator,
        "MLPRegressor": MLPRegressor,
    }


class ClusterModel:
    """A fitted clustering frozen for serving.

    Holds the training points, per-point labels and core mask of one
    fit, plus the metadata to reconstruct its serving path: algorithm
    name, JSON-safe hyperparameters, metric, and the
    :class:`~repro.engine_config.ExecutionConfig` of the fit — so
    :meth:`predict` shards across the same executor topology the fit
    used. Built by ``Clusterer.fit_model`` / :func:`repro.fit_model`,
    persisted with :meth:`save`, reattached with :func:`load_model`.

    Predict semantics (pinned by ``tests/test_predict_differential.py``
    and documented in ``docs/persistence.md``): a new point takes the
    label of its *nearest core point* within ``eps`` (strict ``<``,
    the paper's neighborhood predicate); exact distance ties go to the
    core point with the smallest training index; a point inside no
    core's eps-ball is noise (``-1``). Re-predicting the training set
    therefore reproduces the fit labels on every core point, while a
    border point sitting in two clusters' reach may legitimately flip
    to its nearest core's cluster — fit assigns borders in discovery
    order, predict by proximity.
    """

    def __init__(
        self,
        points: np.ndarray,
        labels: np.ndarray,
        core_mask: np.ndarray,
        *,
        algo: str,
        params: Mapping,
        metric: str | Metric = "cosine",
        execution: ExecutionConfig | None = None,
        estimator: Any = None,
    ) -> None:
        self.points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        self.labels = np.asarray(labels, dtype=np.int64)
        self.core_mask = np.asarray(core_mask, dtype=bool)
        if self.points.ndim != 2:
            raise InvalidParameterError(
                f"points must be 2-d; got shape {self.points.shape}"
            )
        n = self.points.shape[0]
        if self.labels.shape != (n,) or self.core_mask.shape != (n,):
            raise InvalidParameterError(
                "labels and core_mask must be 1-d with one entry per point; "
                f"got shapes {self.labels.shape} and {self.core_mask.shape} "
                f"for {n} points"
            )
        self.algo = str(algo)
        self.params = dict(params)
        if "eps" not in self.params:
            raise InvalidParameterError("model params must include 'eps'")
        self.eps = float(self.params["eps"])
        self.metric = get_metric(metric)
        if execution is None:
            execution = ExecutionConfig()
        self.execution = execution
        self.estimator = estimator
        self._core_global = np.flatnonzero(self.core_mask)
        self._core_points: np.ndarray | None = None
        self._float32_cores: tuple[np.ndarray, float] | None = None
        self._core_index: Any = None
        self._core_distances: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_cores(self) -> int:
        return int(self._core_global.size)

    @property
    def n_clusters(self) -> int:
        non_noise = self.labels[self.labels != -1]
        return int(np.unique(non_noise).size)

    @property
    def core_distances(self) -> np.ndarray:
        """Distance from each training point to its nearest core point.

        Zero for core points themselves; ``inf`` when the fit produced
        no cores. Computed lazily on first access (one blocked pass of
        points × cores) and stored in the artifact, so a loaded model
        serves it straight from the memory map.
        """
        if self._core_distances is None:
            from repro.distances.matrix import iter_distance_blocks, nearest_in_blocks

            if self.n_cores == 0:
                self._core_distances = np.full(self.n_points, np.inf)
            else:
                blocks = iter_distance_blocks(
                    self.points, self._cores(), metric=self.metric.name
                )
                self._core_distances = nearest_in_blocks(blocks, self.n_points)[1]
        return self._core_distances

    def _cores(self) -> np.ndarray:
        # The serving working set: the core rows gathered into a dense
        # matrix (indexes build over a matrix, not a row subset).
        if self._core_points is None:
            self._core_points = np.ascontiguousarray(self.points[self._core_global])
        return self._core_points

    def _cores32(self) -> tuple[np.ndarray | None, float | None]:
        # The cosine select's float32 copy of the cores and their
        # largest norm, set in one assignment so concurrent predicts
        # never see half of it; Euclidean models select in float64 only.
        if self.metric.name != "cosine":
            return None, None
        if self._float32_cores is None:
            cores = self._cores()
            self._float32_cores = (cores.astype(np.float32), _max_row_norm(cores))
        return self._float32_cores

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _ensure_core_index(self) -> Any:
        """The brute-force index over the core points, built once.

        Resolved through the same seam as a fit,
        :func:`repro.index.sharded.resolve_engine_index`, so a sharding
        config fans prediction across shards exactly like fitting.
        """
        if self._core_index is None:
            from repro.index.sharded import resolve_engine_index

            self._core_index = resolve_engine_index(
                self._cores(), self.metric, self.execution.sharding
            )
        return self._core_index

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        """Labels for new points against the frozen model.

        Per block of queries (block size ``execution.query_block``), one
        batched range query against the core points finds each query's
        candidates, and :func:`~repro.distances.matrix.nearest_candidates`
        picks the nearest of them (the rule in the class docstring). A
        1-d input is treated as a single query; the result is always 1-d
        with one label per query row, ``-1`` for noise.
        """
        Q = np.asarray(X_new, dtype=np.float64)
        if Q.ndim == 1:
            Q = Q[None, :]
        if Q.ndim != 2 or (Q.shape[0] and Q.shape[1] != self.points.shape[1]):
            raise InvalidParameterError(
                f"queries must have dimension {self.points.shape[1]}; "
                f"got shape {Q.shape}"
            )
        n_queries = Q.shape[0]
        out = np.full(n_queries, -1, dtype=np.int64)
        if n_queries == 0:
            return out
        Q = self.metric.validate(Q)
        if self.n_cores == 0:
            return out
        index = self._ensure_core_index()
        cores = self._cores()
        cores32, core_norm = self._cores32()
        core_labels = self.labels[self._core_global]
        block = int(self.execution.query_block)
        for lo in range(0, n_queries, block):
            q = Q[lo : lo + block]
            nearest = nearest_candidates(
                q,
                cores,
                index.batch_range_query(q, self.eps),
                self.metric.name,
                X32=cores32,
                x_norm=core_norm,
            )
            found = nearest >= 0
            out[lo : lo + q.shape[0]][found] = core_labels[nearest[found]]
        return out

    def close(self) -> None:
        """Release the serving index (pools, connections). Idempotent."""
        if self._core_index is not None:
            self._core_index.close()
        self._core_index = None

    def __enter__(self) -> "ClusterModel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the model as a versioned artifact directory.

        The LAF estimator's fitted parameters ride along as
        ``estimator.npz`` when its type supports npz persistence (the
        RMI and its MLP stages); other estimator types are recorded by
        name only — predict never needs them, they are fit-time
        machinery.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        estimator_entry = None
        if self.estimator is not None:
            type_name = type(self.estimator).__name__
            if type_name in _estimator_registry():
                self.estimator.save(str(path / "estimator.npz"))
                estimator_entry = {"type": type_name, "file": "estimator.npz"}
            else:
                estimator_entry = {"type": type_name, "file": None}
        return write_artifact(
            path,
            KIND_CLUSTER_MODEL,
            {
                "points": self.points,
                "labels": self.labels,
                "core_mask": self.core_mask,
                "core_distances": self.core_distances,
            },
            spec={
                "algo": self.algo,
                "params": self.params,
                "metric": self.metric.name,
                "execution": self.execution.to_dict(),
            },
            metadata={
                "n_points": self.n_points,
                "n_cores": self.n_cores,
                "n_clusters": self.n_clusters,
                "estimator": estimator_entry,
            },
        )


def load_model(
    path: str | Path, *, mmap: bool = True, verify: bool = True
) -> "ClusterModel":
    """Load a :class:`ClusterModel` saved with :meth:`ClusterModel.save`.

    Arrays reattach as read-only memory maps (``mmap=False`` to read
    into RAM; ``verify=False`` to skip the sha256 pass). An artifact
    whose ``execution.index`` names a removed range backend cannot
    reconstruct its serving path and raises :class:`PersistenceError`.
    """
    path = Path(path)
    manifest = read_manifest(path, expected_kind=KIND_CLUSTER_MODEL)
    spec = manifest["spec"]
    for key in ("algo", "params", "metric", "execution"):
        if key not in spec:
            raise PersistenceError(
                f"model artifact at {path} is missing spec key {key!r}"
            )
    try:
        execution = ExecutionConfig.from_dict(_upgrade_execution(spec["execution"]))
    except InvalidParameterError as exc:
        raise PersistenceError(
            f"cannot reconstruct the execution config of {path}: {exc}"
        ) from exc
    arrays = load_arrays(path, manifest, mmap=mmap, verify=verify)
    estimator = None
    entry = manifest["metadata"].get("estimator")
    if isinstance(entry, Mapping) and entry.get("file"):
        registry = _estimator_registry()
        est_cls = registry.get(str(entry.get("type")))
        if est_cls is None:
            raise PersistenceError(
                f"model artifact at {path} references unknown estimator "
                f"type {entry.get('type')!r}"
            )
        est_path = path / str(entry["file"])
        if not est_path.is_file():
            raise PersistenceError(
                f"estimator file {entry['file']} missing from {path}"
            )
        estimator = est_cls.load(str(est_path))
    try:
        model = ClusterModel(
            points=arrays["points"],
            labels=arrays["labels"],
            core_mask=arrays["core_mask"],
            algo=str(spec["algo"]),
            params=dict(spec["params"]),
            metric=str(spec["metric"]),
            execution=execution,
            estimator=estimator,
        )
    except KeyError as exc:
        raise PersistenceError(
            f"model artifact at {path} is missing array {exc.args[0]!r}"
        ) from exc
    except InvalidParameterError as exc:
        raise PersistenceError(
            f"model artifact at {path} is internally inconsistent: {exc}"
        ) from exc
    stored = arrays.get("core_distances")
    if stored is not None:
        model._core_distances = np.asarray(stored, dtype=np.float64)
    return model

