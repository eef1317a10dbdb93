"""Versioned on-disk persistence for built indexes and fitted clusterers.

Everything else in this library is fit-and-forget; this module is the
fit-once/query-forever half. An artifact is a *directory* holding one
``manifest.json`` plus one ``.npy`` file per array:

* the manifest is strict JSON carrying the format version, the artifact
  kind, the reconstruction spec (backend name + kwargs for indexes, the
  :class:`~repro.engine_config.ExecutionConfig` wire format for models),
  and per-array dtype/shape/size/sha256 — every load verifies all of it
  and raises a typed :class:`~repro.exceptions.PersistenceError` (never
  a bare numpy traceback) on truncation, checksum mismatch, unknown or
  newer format versions, and manifest drift;
* the arrays are plain ``.npy`` files loaded back with
  ``np.load(mmap_mode="r")``, so reattaching a saved index never copies
  the data matrix into RAM — the remote-worker reattach path
  ("build a shard index once, serialize it, memory-map it from a
  worker") in its local form.

:func:`save_index` / :func:`load_index` cover both registered
backends (brute force and grid) plus :class:`~repro.index.sharded.ShardedIndex` (a directory of
per-shard artifacts sharing one memory-mapped ``points.npy``);
:class:`ClusterModel` freezes a fitted clustering — labels, core mask,
core distances, the LAF estimator's fitted parameters — and serves
:meth:`ClusterModel.predict` through the same batched/sharded engine
substrate the fit used.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any, TypeVar

import numpy as np

from repro.distances.metric import Metric, get_metric
from repro.engine_config import ExecutionConfig
from repro.exceptions import (
    InvalidParameterError,
    NotFittedError,
    PersistenceError,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "ClusterModel",
    "load_index",
    "load_model",
    "load_shard_index",
    "read_manifest",
    "save_index",
]

#: Tag every manifest starts with; anything else is not ours.
FORMAT_NAME = "repro-artifact"

#: Version of the on-disk layout this library writes and understands.
#: Backwards-compatible readers bump this only when the layout changes;
#: the golden-file test under ``tests/golden/`` pins version 1.
FORMAT_VERSION = 1

MANIFEST_FILENAME = "manifest.json"

#: Artifact kinds.
KIND_INDEX = "index"
KIND_INDEX_SHARD = "index_shard"
KIND_SHARDED_INDEX = "sharded_index"
KIND_CLUSTER_MODEL = "cluster_model"

_HASH_CHUNK = 1 << 20

#: Index name older artifacts record for a fit under a custom index
#: factory, which cannot be rebuilt from disk.
_CUSTOM_SPEC = "custom"


def _upgrade_executor(executor: Any) -> Any:
    """Older artifacts may name the removed shared-memory ``process``
    executor; they reattach on ``thread``, as loading them always did."""
    return "thread" if executor == "process" else executor


def _upgrade_execution(payload: Any) -> Any:
    """Read older spellings of a saved execution config.

    ``"sharding": false`` (the former explicit opt-out) reads as None,
    a retired executor name as its replacement, and the retired
    ``cache_eviction`` key is dropped whatever it held (the engine
    always releases a neighborhood once served). Writers emit none of
    these; this runs only at the load boundary.
    """
    if not isinstance(payload, Mapping):
        return payload
    payload = dict(payload)
    payload.pop("cache_eviction", None)
    sharding = payload.get("sharding")
    if sharding is False:
        payload["sharding"] = None
    elif isinstance(sharding, Mapping) and "executor" in sharding:
        payload["sharding"] = {
            **sharding,
            "executor": _upgrade_executor(sharding["executor"]),
        }
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
# Index save/load
# ----------------------------------------------------------------------


def save_index(index: Any, path: str | Path) -> Path:
    """Persist a built index as a versioned artifact directory.

    Handles the registered backends (``brute_force``, ``grid``) and
    :class:`~repro.index.sharded.ShardedIndex` (saved as a directory of
    per-shard artifacts sharing one ``points.npy``). Any other type
    raises :class:`PersistenceError`; an unbuilt index raises
    :class:`~repro.exceptions.NotFittedError`.
    """
    from repro.index.sharded import INNER_BACKENDS, ShardedIndex, backend_spec_of

    if isinstance(index, ShardedIndex):
        return _save_sharded(index, path)
    spec = backend_spec_of(index)
    # backend_spec_of matches by isinstance; a subclass would save under
    # the base backend's name and load back as the wrong type.
    if spec is None or INNER_BACKENDS[spec[0]] is not type(index):
        raise PersistenceError(
            f"{type(index).__name__} has no registered rebuild spec and "
            "cannot be saved (custom index types are not reconstructible "
            "from disk); use a registered backend with JSON-safe "
            "constructor arguments"
        )
    if not index.is_built:
        raise NotFittedError(
            f"{type(index).__name__} has not been built; build() before save()"
        )
    name, kwargs = spec
    return write_artifact(
        path,
        KIND_INDEX,
        index.to_arrays(),
        spec={"backend": name, "kwargs": kwargs},
        metadata={"n_points": int(index.n_points)},
    )


def load_index(
    path: str | Path,
    *,
    mmap: bool = True,
    verify: bool = True,
    executor: Any = None,
) -> Any:
    """Load a saved index, reattaching arrays via ``np.load(mmap_mode="r")``.

    The inverse of :func:`save_index`: returns a query-ready backend of
    the saved type whose point matrix is a read-only memory map — a
    worker reattaching a shard artifact never copies the data. Pass
    ``verify=False`` to skip the sha256 pass (size/dtype/shape checks
    always run); ``mmap=False`` reads the arrays into RAM instead.

    ``executor`` (sharded artifacts only) overrides the executor spec
    recorded at save time — an :class:`~repro.index.sharded.ExecutorSpec`,
    an executor name, or a wire dict — so one artifact can reattach
    serially on a laptop or onto a worker pool without resaving.
    """
    manifest = read_manifest(path)
    kind = manifest["kind"]
    if kind == KIND_SHARDED_INDEX:
        return _load_sharded(
            Path(path), manifest, mmap=mmap, verify=verify, executor=executor
        )
    if executor is not None:
        raise PersistenceError(
            f"artifact at {path} is not sharded; the executor= override "
            "only applies to sharded artifacts"
        )
    if kind != KIND_INDEX:
        raise PersistenceError(
            f"artifact at {path} has kind {kind!r}; expected an index "
            f"({KIND_INDEX!r} or {KIND_SHARDED_INDEX!r})"
        )
    index = _make_backend(manifest["spec"], path)
    arrays = load_arrays(path, manifest, mmap=mmap, verify=verify)
    return _restore_backend(index, arrays, path)


def _make_backend(spec: Mapping, path: Path) -> Any:
    from repro.index.sharded import make_inner_backend

    backend = spec.get("backend")
    kwargs = spec.get("kwargs", {})
    if not isinstance(backend, str) or not isinstance(kwargs, Mapping):
        raise PersistenceError(
            f"artifact at {path} has a malformed backend spec: {dict(spec)!r}"
        )
    try:
        return make_inner_backend(backend, dict(kwargs))
    except (InvalidParameterError, TypeError) as exc:
        raise PersistenceError(
            f"cannot reconstruct backend {backend!r} from {path}: {exc}"
        ) from exc


def _restore_backend(index: Any, arrays: dict, path: Path) -> Any:
    try:
        return index.from_arrays(arrays)
    except KeyError as exc:
        raise PersistenceError(
            f"artifact at {path} is missing array {exc.args[0]!r} required "
            f"by {type(index).__name__}"
        ) from exc


def _shard_dir(path: Path, shard_id: int) -> Path:
    return path / "shards" / f"{shard_id:05d}"


def _save_sharded(index: Any, path: str | Path) -> Path:
    """ShardedIndex layout: top-level ``points.npy`` + per-shard artifacts.

    The full matrix is stored exactly once; each shard artifact holds
    only its backend's structural arrays, and the loader injects the
    mmap'd row slice ``points[lo:hi]`` back into each shard — so neither
    disk nor a reattaching process ever holds a second copy of the data.

    Works under *any* executor: the local (serial/thread) executors hand
    their built shard indexes over directly, while a worker-held
    executor (remote) keeps its indexes out of reach of the
    parent — those shards are rebuilt parent-side one at a time for
    serialization (deterministic: registered backends reconstruct
    bit-identically from the same rows and spec). The executor spec is
    recorded in the artifact, so loading reattaches under the saved
    topology by default — or any other via ``load_index(executor=...)``.
    """
    from repro.index.sharded import make_inner_backend

    index._require_built()
    local_indexes = getattr(index._require_executor(), "_indexes", None)
    points = index.points
    path = Path(path)
    live = [[int(s), int(lo), int(hi)] for s, lo, hi in index._live]
    for s, lo, hi in live:
        if local_indexes is not None:
            shard_index = local_indexes[s]
        else:
            # Worker-held executor: the parent rebuilds this one shard
            # from its rows (and drops it before the next — peak memory
            # is one shard index, not n_shards of them).
            shard_index = make_inner_backend(index.inner, index.inner_kwargs).build(
                np.ascontiguousarray(points[lo:hi])
            )
        inner_arrays = shard_index.to_arrays()
        inner_arrays.pop("points")  # stored once at the top level
        write_artifact(
            _shard_dir(path, s),
            KIND_INDEX_SHARD,
            inner_arrays,
            spec={"backend": index.inner, "kwargs": dict(index.inner_kwargs)},
            metadata={"shard_id": s, "lo": lo, "hi": hi},
        )
    return write_artifact(
        path,
        KIND_SHARDED_INDEX,
        {"points": points},
        spec={
            "inner": index.inner,
            "inner_kwargs": dict(index.inner_kwargs),
            "n_shards": index.n_shards,
            "executor": index.executor.wire_value(),
            "n_workers": index.n_workers,
            "query_block": index.query_block,
        },
        metadata={"offsets": index._offsets.tolist(), "live": live},
    )


def _open_sharded(
    path: Path,
    manifest: Mapping,
    *,
    mmap: bool,
    verify: bool,
    load: Iterable[int] | None = None,
) -> tuple[np.ndarray, list[tuple[int, int, int]], dict[int, Any]]:
    """``(points, live, indexes)`` of a sharded artifact.

    The manifest's ``metadata`` is not checksummed, so every ``live``
    entry must be three ints ``[shard_id, lo, hi]`` with
    ``0 <= lo < hi <= len(points)`` before any row slice is taken.
    ``load`` names the shard ids to restore into ``indexes`` (None:
    every live shard); each gets its inner backend over the shared
    ``points[lo:hi]`` slice.
    """
    arrays = load_arrays(path, manifest, mmap=mmap, verify=verify)
    try:
        points = arrays["points"]
    except KeyError:
        raise PersistenceError(
            f"sharded artifact at {path} is missing its 'points' array"
        ) from None
    try:
        live = [tuple(entry) for entry in manifest["metadata"]["live"]]
    except (KeyError, TypeError) as exc:
        raise PersistenceError(
            f"sharded artifact at {path} has malformed shard metadata: {exc}"
        ) from exc
    n_rows = points.shape[0]
    for entry in live:
        if not (
            len(entry) == 3
            and all(type(v) is int for v in entry)
            and 0 <= entry[1] < entry[2] <= n_rows
        ):
            raise PersistenceError(
                f"sharded artifact at {path} has a malformed live shard "
                f"{list(entry)!r}: expected [shard_id, lo, hi] ints with "
                f"0 <= lo < hi <= {n_rows}"
            )
    bounds = {s: (lo, hi) for s, lo, hi in live}
    indexes: dict[int, Any] = {}
    for s in bounds if load is None else load:
        if s not in bounds:
            raise PersistenceError(
                f"sharded artifact at {path} has no shard {s}; "
                f"live shards: {sorted(bounds)}"
            )
        lo, hi = bounds[s]
        shard_path = _shard_dir(path, s)
        shard_manifest = read_manifest(shard_path, expected_kind=KIND_INDEX_SHARD)
        shard_arrays = load_arrays(shard_path, shard_manifest, mmap=mmap, verify=verify)
        shard_arrays["points"] = points[lo:hi]
        inner = _make_backend(shard_manifest["spec"], shard_path)
        indexes[s] = _restore_backend(inner, shard_arrays, shard_path)
    return points, live, indexes


def _load_sharded(
    path: Path,
    manifest: Mapping,
    *,
    mmap: bool,
    verify: bool,
    executor: Any = None,
) -> Any:
    from repro.index.sharded import ExecutorSpec, ShardedIndex

    spec = manifest["spec"]
    for key in ("inner", "inner_kwargs", "n_shards", "executor", "query_block"):
        if key not in spec:
            raise PersistenceError(
                f"sharded artifact at {path} is missing spec key {key!r}"
            )
    try:
        executor_spec = ExecutorSpec.coerce(
            _upgrade_executor(spec["executor"]) if executor is None else executor
        )
        out = ShardedIndex(
            inner=str(spec["inner"]),
            inner_kwargs=dict(spec["inner_kwargs"]),
            n_shards=int(spec["n_shards"]),
            executor=executor_spec,
            n_workers=spec.get("n_workers"),
            query_block=int(spec["query_block"]),
        )
    except (InvalidParameterError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"cannot reconstruct the ShardedIndex spec of {path}: {exc}"
        ) from exc
    # Remote reattach never deserializes shard indexes parent-side: the
    # artifact path travels to the workers, which load their pinned
    # shards from the shared filesystem and keep them warm.
    remote = executor_spec.name == "remote"
    points, live, indexes = _open_sharded(
        path, manifest, mmap=mmap, verify=verify, load=() if remote else None
    )
    try:
        offsets = np.asarray(manifest["metadata"]["offsets"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"sharded artifact at {path} has malformed shard metadata: {exc}"
        ) from exc
    return out._attach_loaded(
        points, offsets, live, indexes, artifact_path=str(path) if remote else None
    )


def load_shard_index(
    path: str | Path, shard_id: int, *, mmap: bool = True, verify: bool = True
) -> Any:
    """Load one shard's built inner index from a sharded artifact.

    The worker-side reattach primitive of the remote pool: a worker
    pinned to shard ``shard_id`` loads only its own shard artifact plus
    a memory-mapped slice of the shared ``points.npy`` — never the
    sibling shards. Returns the query-ready inner backend.
    """
    path = Path(path)
    manifest = read_manifest(path, expected_kind=KIND_SHARDED_INDEX)
    _, _, indexes = _open_sharded(
        path, manifest, mmap=mmap, verify=verify, load=(shard_id,)
    )
    return indexes[shard_id]


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
        self._core_index: Any = None
        self._core_index_owned = False
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

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _ensure_core_index(self) -> Any:
        """The range-query index over the core points, built once.

        Resolved through the same seams as a fit: the execution
        config's index spec under the model's metric
        (:func:`repro.clustering.base.resolve_index_spec`), then
        :func:`repro.index.sharded.resolve_engine_index` so a sharding
        config fans prediction across shards exactly like fitting.
        """
        if self._core_index is None:
            from repro.clustering.base import resolve_index_spec
            from repro.index.sharded import resolve_engine_index

            unbuilt = resolve_index_spec(self.execution.index, self.metric)
            self._core_index, self._core_index_owned = resolve_engine_index(
                unbuilt, self._cores(), self.execution.sharding
            )
        return self._core_index

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        """Labels for new points against the frozen model.

        One batched range query (block size ``execution.query_block``)
        against the core points per block of queries, then the
        nearest-core rule described in the class docstring. A 1-d input
        is treated as a single query; the result is always 1-d with one
        label per query row, ``-1`` for noise.
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
        if n_queries == 0 or self._core_global.size == 0:
            return out
        Q = self.metric.validate(Q)
        index = self._ensure_core_index()
        cores = self._cores()
        core_labels = self.labels[self._core_global]
        block = int(self.execution.query_block)
        for lo in range(0, n_queries, block):
            hi = min(lo + block, n_queries)
            rows = index.batch_range_query(Q[lo:hi], self.eps)
            for offset, row in enumerate(rows):
                if row.size == 0:
                    continue
                d = self.metric.distance_to_many(Q[lo + offset], cores[row])
                # Nearest core wins; exact ties go to the smallest
                # training index (rows index the cores in ascending
                # global order, so min over the tied subset is it).
                chosen = int(row[d == d.min()].min())
                out[lo + offset] = core_labels[chosen]
        return out

    def close(self) -> None:
        """Release the serving index (pools, connections). Idempotent."""
        if self._core_index is not None and self._core_index_owned:
            closer = getattr(self._core_index, "close", None)
            if closer is not None:
                closer()
        self._core_index = None
        self._core_index_owned = False

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
    whose index is the ``"custom"`` marker (a fit under a custom index
    factory) cannot reconstruct its serving path and raises
    :class:`PersistenceError`.
    """
    path = Path(path)
    manifest = read_manifest(path, expected_kind=KIND_CLUSTER_MODEL)
    spec = manifest["spec"]
    for key in ("algo", "params", "metric", "execution"):
        if key not in spec:
            raise PersistenceError(
                f"model artifact at {path} is missing spec key {key!r}"
            )
    execution_payload = _upgrade_execution(spec["execution"])
    index_payload = (execution_payload or {}).get("index")
    if isinstance(index_payload, Mapping) and index_payload.get("name") == _CUSTOM_SPEC:
        raise PersistenceError(
            f"the model at {path} was fit with a custom index factory, "
            "which cannot be reconstructed from disk; refit with a "
            "registered backend (IndexSpec(name, kwargs)) to make the "
            "model loadable"
        )
    try:
        execution = ExecutionConfig.from_dict(execution_payload)
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


_IndexT = TypeVar("_IndexT")


def _check_loaded_type(index: Any, cls: type[_IndexT], path: Path) -> _IndexT:
    """Shared type guard for ``SomeIndex.load(path)`` classmethods."""
    if not isinstance(index, cls):
        raise PersistenceError(
            f"artifact at {path} holds a {type(index).__name__}, "
            f"not a {cls.__name__}"
        )
    return index
