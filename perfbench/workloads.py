"""The benchmark's workloads: set-up, measured loop, output checks, metrics.

Every workload reports the same four end-to-end metrics, each read in
the workload's own terms (see ``README.md`` in this directory):

* ``setup_s``   -- median wall time of the repeated set-up;
* ``accel_s``   -- the accelerated path: LAF-DBSCAN fit, LAF-DBSCAN++
  fit, per-request service time of a micro-batched burst, warm remote
  fit;
* ``plain_s``   -- the same job without that acceleration: DBSCAN fit,
  DBSCAN++ fit, median closed-loop round trip of one request through
  the TCP front door, cold remote fit;
* ``accel_ari`` -- ARI of the accelerated path's labels against the
  exact reference labels of :mod:`reference`.

A traced run (``trace=True``) alternates untraced and traced iterations
of the same loop: the untraced ones give the base times, the traced ones
the per-layer totals of :mod:`tracing`, per iteration.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import statistics
import sys
import time
import traceback
from collections import defaultdict
from collections.abc import Callable
from typing import Any

import numpy as np

import repro.clustering.dbscanpp
import repro.core.laf
import repro.core.laf_dbscanpp
import repro.index.sharded
import repro.remote.pool
from repro import (
    LAF,
    ClusterModel,
    ExecutionConfig,
    ReproError,
    ShardingConfig,
    adjusted_rand_index,
    make_clusterer,
)
from repro.data import load_dataset
from repro.estimators import CardinalityEstimator, RMICardinalityEstimator
from repro.experiments.methods import MethodContext
from repro.index.brute_force import BruteForceIndex
from repro.remote import RemoteExecutor, WorkerPool
from repro.serving import ModelServer, ServingClient, ServingFrontend
import reference
from tracing import Tracer

__all__ = ["SPECS", "Spec", "run_workload", "install_layer_wrappers"]


#: The corpus, its train/test split and the estimator's own seed are
#: fixed, like the paper's datasets, so that every seed does the same
#: work. The run's seed orders the test rows (DBSCAN's visit order) and
#: drives LAF's and DBSCAN++'s sampling and the served requests.
DATA_SEED = 0
DELTA = 0.2  # DBSCAN++ sample fraction rule p = DELTA + R_c
REQUEST_ROWS = 4
DEADLINE_S = 1.0  # per request, in the open and TCP loops
P99_LIMIT_MS = 100.0  # latency limit of serving.max_rps
N_WORKERS = 2
N_SHARDS = 4


@dataclasses.dataclass(frozen=True)
class Spec:
    """Sizes and parameters of one workload (the seed comes per run)."""

    name: str
    kind: str
    dataset: str
    scale: float
    eps: float
    tau: int
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 2
    #: Measured iterations per untraced run, at least; timings are their
    #: medians, so one slow iteration does not move them.
    min_iterations: int = 3
    #: Minimum ARI of the accelerated path against exact DBSCAN; below
    #: it the run's output counts as incorrect.
    ari_floor: float = 0.9
    # RMI estimator training (fit and sampling workloads). Half the 40
    # epochs of benchmarks/conftest.py, to keep the repeated set-up short.
    epochs: int = 20
    train_queries: int = 500
    hidden_layers: tuple[int, ...] = (64, 64, 32)
    # Serving.
    request_pool: int = 512
    burst: int = 128  # requests sent at once: 512 rows, two full batches
    light_rps: float = 100.0
    heavy_rps: float = 200.0
    max_rps_steps: tuple[float, ...] = (150, 200, 250, 300, 350, 400, 500, 600, 800)
    step_s: float = 1.0


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="fit-ms50k",
            kind="fit",
            dataset="MS-50k",
            scale=1.0,
            eps=0.55,
            tau=5,
        ),
        Spec(
            name="sampling-ms150k",
            kind="sampling",
            dataset="MS-150k",
            scale=0.2,
            eps=0.5,
            tau=3,
        ),
        Spec(
            name="serve-ms50k",
            kind="serve",
            dataset="MS-50k",
            scale=1.0,
            eps=0.55,
            tau=5,
        ),
        Spec(
            name="remote-ms50k",
            kind="remote",
            dataset="MS-50k",
            scale=1.0,
            eps=0.55,
            tau=5,
            min_iterations=2,  # a warm and a cold fit per iteration
        ),
    )
}

LAYER_TIMES = (
    "core.begin_run",
    "core.post_process",
    "index.range_query",
    "index.range_count",
    "clustering.components",
    "clustering.assign",
    "remote.run",
    "remote.merge",
)
"""Top-level layer calls of a fit; whatever else a fit spends is
``clustering.loop_s``. (The estimator runs inside ``core.begin_run``.)"""


def _rows(args: tuple, kwargs: dict) -> float:
    return float(len(args[1]))


def _gflop(args: tuple, kwargs: dict, result: Any) -> float:
    index, Q = args[0], args[1]
    n, d = index.points.shape
    return 2.0 * len(Q) * n * d / 1e9


def _payload_sent(args: tuple, kwargs: dict, result: Any) -> float:
    arrays = args[2] if len(args) > 2 else kwargs.get("arrays")
    return float(sum(np.asarray(a).nbytes for a in (arrays or {}).values()))


def _payload_recv(args: tuple, kwargs: dict, result: Any) -> float:
    return 0.0 if result is None else float(sum(a.nbytes for a in result[1].values()))


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every traced layer entry point where its caller looks it up."""
    gflop = {"index.gflop": _gflop}
    tracer.wrap(
        CardinalityEstimator, "estimate_many", "estimators.estimate", rows=_rows
    )
    tracer.wrap(LAF, "begin_run", "core.begin_run")
    tracer.wrap(repro.core.laf, "post_process", "core.post_process")
    for method in ("range_query", "range_count"):
        tracer.wrap(
            BruteForceIndex,
            f"batch_{method}",
            f"index.{method}",
            rows=_rows,
            computed=gflop,
        )
    for module in (repro.clustering.dbscanpp, repro.core.laf_dbscanpp):
        tracer.wrap(module, "connected_components_within", "clustering.components")
        tracer.wrap(module, "iter_distance_blocks", "clustering.assign")
    tracer.wrap(ClusterModel, "predict", "persistence.predict", rows=_rows)
    tracer.wrap(ModelServer, "submit", "serving.submit")
    tracer.wrap(RemoteExecutor, "run", "remote.run")
    tracer.wrap(RemoteExecutor, "_ensure_dataset", "remote.put_dataset")
    tracer.wrap(repro.index.sharded, "csr_to_rows", "remote.merge")
    tracer.wrap(repro.index.sharded, "concat_shard_rows", "remote.merge")
    pool = repro.remote.pool
    sent = {"remote.bytes_sent": _payload_sent}
    recv = {"remote.bytes_recv": _payload_recv}
    tracer.wrap(pool, "send_msg", "remote.send", computed=sent)
    tracer.wrap(pool, "recv_msg", "remote.recv", computed=recv)


class Run:
    """Operation counts, timing samples and metrics of one benchmark run."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.below_floor = False
        #: (expected, served) label arrays of every served request.
        self.served: list[tuple[np.ndarray, np.ndarray]] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer = Tracer()
        self.traced_iterations = 0
        self.layers: dict[str, float] = {}
        self.metrics: dict[str, float] = {}
        self.info: dict[str, float] = {}

    # -- operations and checks -------------------------------------------

    def op(
        self,
        fn: Callable[[], Any],
        verify: Callable[[Any], str | None] | None = None,
    ) -> Any:
        """Run one measured operation; it fails at most once.

        It fails when ``fn`` raises (the result is then None) or when
        ``verify(result)`` names what is wrong with the output.
        """
        self.attempted += 1
        try:
            result = fn()
        except Exception:  # the benchmark keeps running and reports it
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if verify is not None:
            self.check(verify(result))
        return result

    def check(self, problem: str | None) -> None:
        """Fail the current operation when its output has a ``problem``.

        Called once per attempted operation, after it returned.
        """
        if problem:
            self.failed += 1
            self.incorrect += 1
            print(f"perfbench: check failed: {problem}", file=sys.stderr)

    # -- set-up, loop and tracing ------------------------------------------

    def set_up(self, build: Callable[[Callable], Any], release=None) -> Any:
        """Run ``build(phase)`` ``setup_repeats`` times; keep the last state."""
        totals: list[float] = []
        phases: list[dict[str, float]] = []

        @contextlib.contextmanager
        def phase(name: str):
            started = time.perf_counter()
            yield
            phases[-1][name] = phases[-1].get(name, 0.0) + time.perf_counter() - started

        state = None
        for _ in range(self.spec.setup_repeats):
            if state is not None and release is not None:
                release(state)
            state = None
            phases.append({})
            started = time.perf_counter()
            state = build(phase)
            totals.append(time.perf_counter() - started)
        self.metrics["setup_s"] = statistics.median(totals)
        for name in ("generate", "train", "spawn"):
            self.layers[f"setup.{name}_s"] = statistics.median(
                repeat.get(name, 0.0) for repeat in phases
            )
        return state

    def reference(self, compute: Callable[[], Any]) -> Any:
        """The exact reference outputs, computed once after set-up.

        They are the benchmark's own check, not the program's set-up, so
        their time is ``check.reference_s`` and not part of ``setup_s``.
        """
        started = time.perf_counter()
        result = compute()
        self.layers["check.reference_s"] = time.perf_counter() - started
        return result

    @contextlib.contextmanager
    def tracing(self, enabled: bool, tracer: Tracer | None = None):
        """Install the layer wrappers (into ``self.tracer`` by default)."""
        if not enabled:
            yield
            return
        tracer = self.tracer if tracer is None else tracer
        with tracer:
            install_layer_wrappers(tracer)
            yield

    def iterations(self, seconds: float | None = None):
        """Yield ``traced`` per iteration until ``seconds`` (default: the
        run's) are spent.

        Yields at least ``min_iterations`` times; a traced run alternates
        untraced and traced iterations and yields at least one of each.
        """
        seconds = self.seconds if seconds is None else seconds
        minimum = 2 if self.trace else self.spec.min_iterations
        started = time.perf_counter()
        i = 0
        while i < minimum or time.perf_counter() - started < seconds:
            traced = self.trace and i % 2 == 1
            yield traced
            self.traced_iterations += int(traced)
            i += 1

    def timed_fit(
        self,
        key: str,
        traced: bool,
        fit: Callable[[], Any],
        verify: Callable[[Any], str | None],
        tracer: Tracer | None = None,
    ) -> Any:
        """Time one fit as an operation; ``verify`` checks its result."""

        def timed() -> Any:
            started = time.perf_counter()
            result = fit()
            elapsed = time.perf_counter() - started
            self.samples[key + (".traced" if traced else "")].append(elapsed)
            return result

        with self.tracing(traced, tracer):
            return self.op(timed, verify)

    # -- derived metrics -----------------------------------------------------

    def median(self, key: str) -> float:
        values = self.samples.get(key)
        return statistics.median(values) if values else 0.0

    def fit_layers(self, keys: tuple[str, ...]) -> None:
        """Per-iteration layer totals of the traced fits of ``keys``."""
        k = max(1, self.traced_iterations)
        t = self.tracer
        wall = sum(sum(self.samples.get(key + ".traced", [])) for key in keys) / k
        base = sum(self.median(key) for key in keys)
        self.layers["trace.wall_s"] = wall
        self.layers["trace.overhead_s"] = (
            sum(self.median(key + ".traced") for key in keys) - base
        )
        self.layers["clustering.loop_s"] = (
            wall - sum(t.seconds.get(name, 0.0) for name in LAYER_TIMES) / k
        )
        estimate = "estimators.estimate"
        self.layers["estimators.estimate_s"] = t.seconds.get(estimate, 0.0) / k
        self.layers["estimators.rows"] = t.rows.get(estimate, 0.0) / k
        for name in ("index.range_query", "index.range_count"):
            self.layers[f"{name}_s"] = t.seconds.get(name, 0.0) / k
            self.layers[f"{name}_rows"] = t.rows.get(name, 0.0) / k
        self.layers["index.engine_batches"] = (
            t.calls.get("index.range_query", 0) + t.calls.get("index.range_count", 0)
        ) / k
        self.layers["index.gflop"] = t.computed.get("index.gflop", 0.0) / k
        for name in (
            "core.begin_run",
            "core.post_process",
            "clustering.components",
            "clustering.assign",
            "remote.run",
            "remote.merge",
        ):
            self.layers[f"{name}_s"] = t.seconds.get(name, 0.0) / k
        self.layers["remote.rounds"] = t.calls.get("remote.run", 0) / k
        self.layers["remote.bytes_sent"] = t.computed.get("remote.bytes_sent", 0.0) / k
        self.layers["remote.bytes_recv"] = t.computed.get("remote.bytes_recv", 0.0) / k

    def laf_stats(self, stats: dict) -> None:
        skipped = int(stats.get("skipped_queries", 0))
        fn = int(stats.get("fn_detected", 0))
        self.layers["core.skipped_queries"] = skipped
        self.layers["core.fn_detected"] = fn
        self.layers["core.merges"] = int(stats.get("merges", 0))
        self.layers["core.skip_precision"] = 1.0 - fn / skipped if skipped else 0.0


# ----------------------------------------------------------------------
# Shared set-up steps
# ----------------------------------------------------------------------


def _generate(run: Run, phase) -> tuple[np.ndarray, np.ndarray, float]:
    spec = run.spec
    with phase("generate"):
        dataset = load_dataset(spec.dataset, scale=spec.scale, seed=DATA_SEED)
        X_train, X_test = dataset.split(seed=DATA_SEED)
        X_test = X_test[np.random.default_rng(run.seed).permutation(len(X_test))]
    return X_train, X_test, dataset.spec.alpha


def _train_rmi(run: Run, phase, X_train: np.ndarray) -> RMICardinalityEstimator:
    spec = run.spec
    with phase("train"):
        return RMICardinalityEstimator(
            hidden_layers=spec.hidden_layers,
            epochs=spec.epochs,
            n_train_queries=spec.train_queries,
            seed=DATA_SEED,
        ).fit(X_train)


def _same_labels(want: np.ndarray, what: str) -> Callable[[Any], str | None]:
    """A check that a fit's labels equal ``want`` bit for bit."""

    def verify(result: Any) -> str | None:
        return None if np.array_equal(result.labels, want) else f"{what}: labels differ"

    return verify


def _fit_pair(
    run: Run,
    X: np.ndarray,
    plain: Callable[[], Any],
    accel: Callable[[], Any],
    exact: np.ndarray,
    plain_is_exact: bool,
) -> None:
    """Time the plain and accelerated fits; check and score their labels.

    ``exact`` holds the reference DBSCAN labels. A plain fit that is
    exact DBSCAN (``plain_is_exact``) must equal them bit for bit. The
    other fits are approximate but deterministic for a seed, so every
    iteration must reproduce the first iteration's labels bit for bit;
    their quality is their ARI against ``exact``.
    """
    first: dict[str, np.ndarray] = {"plain": exact} if plain_is_exact else {}
    last_accel: dict = {}

    def verify(key: str) -> Callable[[Any], str | None]:
        def check(result: Any) -> str | None:
            want = first.setdefault(key, result.labels)
            what = "exact reference" if want is exact else "first iteration"
            return _same_labels(want, f"{key} fit vs {what}")(result)

        return check

    for traced in run.iterations():
        for key, factory in (("plain", plain), ("accel", accel)):
            clusterer = factory()
            fit = lambda: clusterer.fit(X)  # noqa: E731
            result = run.timed_fit(key, traced, fit, verify(key))
            if result is not None and key == "accel" and traced:
                last_accel.update(result.stats)
    ari = {
        key: adjusted_rand_index(exact, first[key]) if key in first else 0.0
        for key in ("plain", "accel")
    }
    run.metrics["accel_s"] = run.median("accel")
    run.metrics["plain_s"] = run.median("plain")
    run.metrics["accel_ari"] = ari["accel"]
    run.info["plain_ari"] = ari["plain"]
    run.below_floor = run.metrics["accel_ari"] < run.spec.ari_floor
    if run.trace:
        run.fit_layers(("plain", "accel"))
        run.laf_stats(last_accel)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _fit(run: Run) -> None:
    spec = run.spec

    def build(phase):
        X_train, X_test, alpha = _generate(run, phase)
        return X_test, _train_rmi(run, phase, X_train), alpha

    X, estimator, alpha = run.set_up(build)
    exact = run.reference(lambda: reference.dbscan_labels(X, spec.eps, spec.tau))
    _fit_pair(
        run,
        X,
        plain=lambda: make_clusterer("dbscan", eps=spec.eps, tau=spec.tau),
        accel=lambda: make_clusterer(
            "laf-dbscan",
            eps=spec.eps,
            tau=spec.tau,
            estimator=estimator,
            alpha=alpha,
            seed=run.seed,
        ),
        exact=exact,
        plain_is_exact=True,
    )
    run.info["laf_speedup"] = run.metrics["plain_s"] / run.metrics["accel_s"]


def _sampling(run: Run) -> None:
    spec = run.spec

    def build(phase):
        X_train, X_test, alpha = _generate(run, phase)
        estimator = _train_rmi(run, phase, X_train)
        with phase("train"):
            p = MethodContext(
                eps=spec.eps,
                tau=spec.tau,
                alpha=alpha,
                estimator=estimator,
                delta=DELTA,
            ).sample_fraction(X_test)
        return X_test, estimator, p

    X, estimator, p = run.set_up(build)
    exact = run.reference(lambda: reference.dbscan_labels(X, spec.eps, spec.tau))
    _fit_pair(
        run,
        X,
        plain=lambda: make_clusterer(
            "dbscan++", eps=spec.eps, tau=spec.tau, p=p, seed=run.seed
        ),
        accel=lambda: make_clusterer(
            "laf-dbscan++",
            eps=spec.eps,
            tau=spec.tau,
            estimator=estimator,
            p=p,
            alpha=1.0,
            seed=run.seed,
        ),
        exact=exact,
        plain_is_exact=False,
    )
    run.info["lafpp_speedup"] = run.metrics["plain_s"] / run.metrics["accel_s"]
    run.info["sample_fraction"] = p


def _remote_fits(run: Run, X: np.ndarray, pool: WorkerPool, exact) -> dict:
    """The local, cold and warm fits of ``remote-ms50k``; the last warm
    fit's stats and labels."""
    spec = run.spec
    cold_tracer = Tracer()
    warm: dict = {}

    def fit(on: WorkerPool | None) -> Callable[[], Any]:
        execution = None
        if on is not None:
            executor = on.executor_spec()
            sharding = ShardingConfig(n_shards=N_SHARDS, executor=executor)
            execution = ExecutionConfig(sharding=sharding)
        clusterer = make_clusterer(
            "dbscan", eps=spec.eps, tau=spec.tau, execution=execution
        )
        return lambda: clusterer.fit(X)

    cold_verify = _same_labels(exact, "cold remote fit vs exact reference")
    warm_labels = _same_labels(exact, "warm remote fit vs exact reference")

    def warm_verify(result: Any) -> str | None:
        builds = result.stats.get("shard_inner_builds")
        if builds != 0:
            return f"warm remote fit rebuilt {builds} shard indexes"
        return warm_labels(result)

    # The base time of remote_vs_local: one local fit of the same data.
    run.timed_fit("local", False, fit(None), _same_labels(exact, "local fit"))
    # The set-up pool's first fit is cold too: it pushes the dataset to
    # both workers and builds every shard index.
    run.timed_fit("plain", False, fit(pool), cold_verify)
    for traced in run.iterations():
        result = run.timed_fit("accel", traced, fit(pool), warm_verify)
        if result is not None:
            warm.update(result.stats, labels=result.labels)
        with WorkerPool.spawn_local(N_WORKERS) as fresh:
            run.timed_fit("plain", traced, fit(fresh), cold_verify, cold_tracer)
    if run.trace:
        put_s = cold_tracer.seconds.get("remote.put_dataset", 0.0)
        run.layers["remote.put_dataset_s"] = put_s / max(1, run.traced_iterations)
    return warm


def _remote(run: Run) -> None:
    spec = run.spec

    def build(phase):
        _, X_test, _ = _generate(run, phase)
        with phase("spawn"):
            pool = WorkerPool.spawn_local(N_WORKERS)
        return X_test, pool

    X, pool = run.set_up(build, release=lambda state: state[1].shutdown())
    with pool:
        exact = run.reference(lambda: reference.dbscan_labels(X, spec.eps, spec.tau))
        warm = _remote_fits(run, X, pool, exact)
    run.metrics["accel_s"] = run.median("accel")
    run.metrics["plain_s"] = run.median("plain")
    run.metrics["accel_ari"] = (
        adjusted_rand_index(exact, warm["labels"]) if "labels" in warm else 0.0
    )
    run.info["remote_vs_local"] = run.metrics["accel_s"] / run.median("local")
    run.info["base_local_s"] = run.median("local")
    if run.trace:
        run.fit_layers(("accel",))
        run.layers["remote.inner_builds"] = warm.get("shard_inner_builds", 0)
        run.layers["remote.rebalances"] = warm.get("shard_rebalances", 0)


# -- serving ---------------------------------------------------------------


async def _open_loop(
    run, server, tenant, requests, expected, rate, duration, deadline, first=0
):
    """Send requests on a fixed schedule; latency counts from the due time.

    ``rate=None`` sends ``duration`` requests at once (a burst). Requests
    are taken from the pool in order, starting at index ``first``.
    """
    n = int(duration) if rate is None else max(1, int(round(rate * duration)))
    latencies: list[float] = []
    late = 0.0

    async def one(i: int, due: float) -> None:
        k = (first + i) % len(requests)
        run.attempted += 1
        try:
            labels = await server.submit(tenant, requests[k], timeout_s=deadline)
        except ReproError as exc:  # rejected, deadline missed or errored
            run.failed += 1
            print(f"perfbench: request failed: {exc!r}", file=sys.stderr)
            return
        latencies.append(time.perf_counter() - due)
        run.served.append((expected[k], labels))
        run.check(_served_problem(labels, expected[k], "served"))

    tasks = []
    start = time.perf_counter()
    for i in range(n):
        due = start if rate is None else start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(late, time.perf_counter() - due)
        tasks.append(asyncio.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    return np.asarray(latencies), late


def _p99_s(latencies: np.ndarray) -> float:
    return float(np.percentile(latencies, 99)) if latencies.size else 0.0


async def _serve_phases(run: Run, model, requests, expected) -> None:
    spec = run.spec
    s = run.seconds
    server = ModelServer(max_batch_rows=256, max_wait_ms=2.0)
    try:
        # Bursts: the whole burst is due at once, so the batcher runs
        # full batches and the last answer's time over the burst size is
        # the service time per request. Unlike latency at a fixed rate,
        # it scales with the box's speed instead of jumping near the knee.
        server.add_model("burst", model)
        for i, traced in enumerate(run.iterations(0.5 * s)):
            with run.tracing(traced):
                latencies, _ = await _open_loop(
                    run, server, "burst", requests, expected, None, spec.burst, None,
                    first=i * spec.burst,
                )
            if latencies.size:
                key = "accel.traced" if traced else "accel"
                run.samples[key].append(float(latencies.max()) / spec.burst)
        run.metrics["accel_s"] = run.median("accel")
        if not run.trace:
            return
        for tenant in ("light", "heavy"):
            server.add_model(tenant, model)
        light, _ = await _open_loop(
            run, server, "light", requests, expected,
            spec.light_rps, 0.25 * s, DEADLINE_S,
        )
        heavy, late = await _open_loop(
            run, server, "heavy", requests, expected,
            spec.heavy_rps, 0.5 * s, DEADLINE_S,
        )
        stats = server.stats()["heavy"]
        k = max(1, run.traced_iterations)
        t = run.tracer
        predict_s = t.seconds.get("persistence.predict", 0.0) / k
        range_s = t.seconds.get("index.range_query", 0.0) / k
        run.layers.update(
            {
                "trace.overhead_s": run.median("accel.traced") - run.median("accel"),
                "persistence.predict_s": predict_s,
                "persistence.predict_rows": t.rows.get("persistence.predict", 0.0) / k,
                "persistence.predict_range_query_s": range_s,
                "persistence.predict_select_s": predict_s - range_s,
                "index.range_query_s": range_s,
                "index.range_query_rows": t.rows.get("index.range_query", 0.0) / k,
                "index.engine_batches": t.calls.get("index.range_query", 0) / k,
                "index.gflop": t.computed.get("index.gflop", 0.0) / k,
                "serving.p99_ms.lo": _p99_s(light) * 1e3,
                "serving.p99_ms.hi": _p99_s(heavy) * 1e3,
                "loadgen.late_ms.max": late * 1e3,
                "serving.queue_wait_ms.p99": stats["queue_wait_ms"]["p99"],
                "serving.assembly_ms.p99": stats["assembly_ms"]["p99"],
                "serving.kernel_ms.p50": stats["kernel_ms"]["p50"],
                "serving.kernel_ms.p99": stats["kernel_ms"]["p99"],
                "serving.batch_rows.mean": stats["batch_rows"]["mean"],
                "serving.rejected": stats["counters"]["rejected_overload"],
                "serving.deadline_missed": stats["counters"]["deadline_missed"],
            }
        )
        # Highest fixed rate whose p99 meets the limit (probe requests
        # carry no deadline, so an overloaded step is slow, not failed).
        best = 0.0
        for rate in spec.max_rps_steps:
            tenant = f"probe-{rate}"
            server.add_model(tenant, model)
            probe, _ = await _open_loop(
                run, server, tenant, requests, expected, rate, spec.step_s, None
            )
            if _p99_s(probe) * 1e3 > P99_LIMIT_MS:
                break
            best = float(rate)
        run.layers["serving.max_rps"] = best
    finally:
        await server.aclose()


def _served_problem(labels, expected, what: str) -> str | None:
    if np.array_equal(labels, expected):
        return None
    return f"{what} labels {labels.tolist()} != reference {expected.tolist()}"


def _tcp_closed_loop(run: Run, model, requests, expected, duration: float) -> None:
    """One client, one request at a time, through the TCP front door."""
    server = ModelServer(max_batch_rows=256, max_wait_ms=2.0)
    server.add_model("tcp", model)
    frontend = ServingFrontend(server)
    host, port = frontend.start()
    rtts: list[float] = []
    tracer = Tracer()
    try:
        with ServingClient(host, port, timeout_s=30.0) as client, run.tracing(
            run.trace, tracer
        ):
            stop = time.perf_counter() + duration
            i = 0
            while time.perf_counter() < stop:
                k = i % len(requests)
                started = time.perf_counter()
                labels = run.op(
                    lambda: client.predict(
                        "tcp", requests[k], timeout_ms=DEADLINE_S * 1e3
                    )
                )
                if labels is not None:
                    rtts.append(time.perf_counter() - started)
                    run.served.append((expected[k], labels))
                    run.check(_served_problem(labels, expected[k], "TCP"))
                i += 1
    finally:
        frontend.close()
    run.metrics["plain_s"] = statistics.median(rtts) if rtts else 0.0
    if run.trace:
        run.layers["serving.tcp_rtt_ms"] = run.metrics["plain_s"] * 1e3
        submits = tracer.calls.get("serving.submit", 0)
        if rtts and submits:
            server_s = tracer.seconds["serving.submit"] / submits
            run.layers["serving.wire_ms"] = (statistics.fmean(rtts) - server_s) * 1e3


def _serve(run: Run) -> None:
    spec = run.spec

    def build(phase):
        X_train, X_test, _ = _generate(run, phase)
        with phase("generate"):
            rng = np.random.default_rng(run.seed)
            n_rows = spec.request_pool * REQUEST_ROWS
            rows = X_train[rng.choice(X_train.shape[0], n_rows, replace=False)]
        with phase("train"):
            dbscan = make_clusterer("dbscan", eps=spec.eps, tau=spec.tau)
            model = dbscan.fit_model(X_test)
        return model, rows

    model, rows = run.set_up(build, release=lambda state: state[0].close())
    requests = rows.reshape(spec.request_pool, REQUEST_ROWS, -1)
    cores = model.points[model.core_mask]
    expected = run.reference(
        lambda: reference.predict_labels(
            cores, model.labels[model.core_mask], rows, spec.eps
        )
    ).reshape(spec.request_pool, -1)
    run.op(
        lambda: model.predict(rows).reshape(spec.request_pool, -1),
        lambda labels: _served_problem(labels, expected, "sequential predict"),
    )
    with model:
        asyncio.run(_serve_phases(run, model, requests, expected))
        _tcp_closed_loop(run, model, requests, expected, 0.25 * run.seconds)
    if run.served:
        want, got = (np.concatenate(part) for part in zip(*run.served))
        run.metrics["accel_ari"] = adjusted_rand_index(want, got)
    else:
        run.metrics["accel_ari"] = 0.0


_KINDS = {"fit": _fit, "sampling": _sampling, "serve": _serve, "remote": _remote}


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool) -> Run:
    """Set up, measure and check one workload; the filled-in :class:`Run`."""
    run = Run(spec, seed, seconds, trace)
    _KINDS[spec.kind](run)
    run.info.setdefault("base_accel_s", run.metrics.get("accel_s", 0.0))
    run.info.setdefault("base_plain_s", run.metrics.get("plain_s", 0.0))
    return run
