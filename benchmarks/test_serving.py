"""Benchmark: micro-batching is where the serving subsystem earns its keep.

64 concurrent clients each stream small predict requests at a
:class:`~repro.serving.server.ModelServer`. The per-request
configuration (``max_batch_rows=1``) pays one ``ClusterModel.predict``
call — kernel dispatch, nearest-core selection, Python overhead — per
tiny request; the micro-batched configuration coalesces concurrent
requests into large batches and amortizes that fixed cost across every
row. The tracked metric is ``microbatch_throughput_speedup`` (rows/s
micro-batched over rows/s per-request, same model, same requests, same
machine, same run).

Correctness is asserted before timing counts: every label served by
either configuration must be bit-identical to sequential
``ClusterModel.predict`` on the same rows — batching must never show
up in the answers, only in the clock.

Each row records ``usable_cpus`` so the regression gate skips the ratio
on smaller machines than the committed baseline. Results land in
``benchmarks/out/serving_n{N}.json``.

A second benchmark, ``predict_speedup``, times ``ClusterModel.predict``
on 256-row batches (the server's batch size) at d=768 with 4,000
cores against the range query and per-row float64 select it replaced,
after asserting equal labels. Only the replaced side runs a range
query: predict's one kernel finds each query's nearest core within eps
from a single float32 GEMM. Results land in
``benchmarks/out/serving_predict_n4000.json``.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
from conftest import out_path, usable_cpus

import repro
from repro.distances import normalize_rows
from repro.index import BruteForceIndex
from repro.serving import ModelServer
from repro.testing import make_blobs_on_sphere, write_benchmark_rows

N = int(os.environ.get("REPRO_SERVING_BENCH_N", "4096"))
DIM = 32
EPS = 0.45
TAU = 4
N_CLIENTS = 64
REQUESTS_PER_CLIENT = 32
ROWS_PER_REQUEST = 2


def _client_requests(queries: np.ndarray, seed: int) -> list[np.ndarray]:
    """One client's deterministic request stream (small random slices)."""
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(REQUESTS_PER_CLIENT):
        lo = int(rng.integers(0, queries.shape[0] - ROWS_PER_REQUEST))
        requests.append(queries[lo : lo + ROWS_PER_REQUEST])
    return requests


async def _drive(model, streams, *, max_batch_rows: int) -> tuple[float, list]:
    """Run every client stream; returns (seconds, per-client labels)."""
    async with ModelServer(
        max_batch_rows=max_batch_rows, max_wait_ms=2.0, max_queue_rows=1 << 20
    ) as server:
        server.add_model("m", model)

        async def client(requests):
            return [await server.submit("m", req) for req in requests]

        start = time.perf_counter()
        results = await asyncio.gather(*(client(s) for s in streams))
        elapsed = time.perf_counter() - start
    return elapsed, results


def test_microbatch_throughput():
    X, _ = make_blobs_on_sphere(N // 8, 8, DIM, spread=0.15, seed=0)
    queries, _ = make_blobs_on_sphere(N // 8, 8, DIM, spread=0.3, seed=0)
    streams = [_client_requests(queries, seed) for seed in range(N_CLIENTS)]
    total_rows = N_CLIENTS * REQUESTS_PER_CLIENT * ROWS_PER_REQUEST

    with repro.fit_model(X, "dbscan", eps=EPS, tau=TAU) as model:
        expected = [[model.predict(req) for req in s] for s in streams]

        t_single, got_single = asyncio.run(
            _drive(model, streams, max_batch_rows=1)
        )
        t_batched, got_batched = asyncio.run(
            _drive(model, streams, max_batch_rows=256)
        )

    for got in (got_single, got_batched):
        for client_got, client_exp in zip(got, expected):
            for labels, exp in zip(client_got, client_exp):
                assert np.array_equal(labels, exp)

    speedup = t_single / t_batched
    row = {
        "method": "microbatch_serving",
        "n": N,
        "dim": DIM,
        "eps": EPS,
        "n_clients": N_CLIENTS,
        "rows_served": total_rows,
        "per_request_s": t_single,
        "microbatched_s": t_batched,
        "per_request_rows_per_s": total_rows / t_single,
        "microbatched_rows_per_s": total_rows / t_batched,
        "microbatch_throughput_speedup": speedup,
        "usable_cpus": usable_cpus(),
    }
    print()
    print(
        f"serving ({N_CLIENTS} clients, {total_rows} rows): per-request "
        f"{t_single:.3f}s, micro-batched {t_batched:.3f}s -> {speedup:.2f}x"
    )
    write_benchmark_rows(out_path(f"serving_n{N}.json"), [row])

    # The headline claim: coalescing concurrent small requests must at
    # least double throughput over the per-request path.
    assert speedup >= 2.0, f"micro-batching speedup only {speedup:.2f}x"


PREDICT_CORES = 4000
PREDICT_DIM = 768
PREDICT_EPS = 0.5
PREDICT_BATCH = 256
PREDICT_REPEATS = 3


def _predict_per_row(
    index: BruteForceIndex, cores: np.ndarray, core_labels: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    """``predict`` before its blocked kernels: a range query, then a per-row select.

    One batched range query against the cores, then one float64
    matrix-vector product per query over its gathered candidate cores;
    exact ties go to the smallest core index.
    """
    out = np.full(Q.shape[0], -1, dtype=np.int64)
    for i, row in enumerate(index.batch_range_query(Q, PREDICT_EPS)):
        if row.size == 0:
            continue
        d = np.maximum(0.0, 1.0 - cores[row] @ Q[i])
        out[i] = core_labels[int(row[d == d.min()].min())]
    return out


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(PREDICT_REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_predict_speedup():
    # Ten blobs of 450 points: the first 4,000 are the training set (all
    # cores, each query has about 400 candidates, like serve-ms50k's
    # 377); the other 500 plus 12 noise rows are the queries.
    X, _ = make_blobs_on_sphere(450, 10, PREDICT_DIM, spread=0.3, seed=0)
    noise = np.random.default_rng(1).normal(size=(12, PREDICT_DIM))
    train = X[:PREDICT_CORES]
    queries = np.vstack([X[PREDICT_CORES:], normalize_rows(noise)])
    batches = [
        queries[lo : lo + PREDICT_BATCH]
        for lo in range(0, queries.shape[0], PREDICT_BATCH)
    ]

    with repro.fit_model(train, "dbscan", eps=PREDICT_EPS, tau=TAU) as model:
        cores = train[model.core_mask]
        core_labels = model.labels[model.core_mask]
        index = BruteForceIndex().build(cores)

        def per_row():
            return [_predict_per_row(index, cores, core_labels, b) for b in batches]

        def blocked():
            return [model.predict(b) for b in batches]

        expected = np.concatenate(per_row())
        assert np.array_equal(np.concatenate(blocked()), expected)
        assert (expected != -1).any() and (expected == -1).any()
        assert model.n_cores == PREDICT_CORES
        t_per_row = _best_of(per_row)
        t_blocked = _best_of(blocked)

    speedup = t_per_row / t_blocked
    row = {
        "method": "predict_select",
        "n": PREDICT_CORES,
        "dim": PREDICT_DIM,
        "eps": PREDICT_EPS,
        "batch_rows": PREDICT_BATCH,
        "query_rows": int(queries.shape[0]),
        "per_row_s": t_per_row,
        "blocked_s": t_blocked,
        "predict_speedup": speedup,
        "usable_cpus": usable_cpus(),
    }
    print()
    print(
        f"predict ({PREDICT_CORES} cores, d={PREDICT_DIM}, {PREDICT_BATCH}-row "
        f"batches): per-row select {t_per_row:.3f}s, blocked {t_blocked:.3f}s "
        f"-> {speedup:.2f}x"
    )
    write_benchmark_rows(out_path(f"serving_predict_n{PREDICT_CORES}.json"), [row])
