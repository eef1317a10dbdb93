"""Command-line interface: run the paper's experiments without pytest.

Usage (after ``pip install -e .``)::

    python -m repro quality   --datasets MS-50k MS-150k --eps 0.55 --tau 5
    python -m repro timing    --datasets MS-50k MS-150k --eps 0.55 --tau 5
    python -m repro grid      --datasets MS-50k MS-100k MS-150k
    python -m repro tradeoff  --dataset MS-150k --eps 0.5 --tau 3
    python -m repro missed    --dataset MS-150k --eps 0.55 --tau 5
    python -m repro pool serve --workers 2

Every subcommand prepares the paper's pipeline (generate -> 8:2 split ->
train RMI on the training split) at ``--scale`` and prints the
paper-shaped table; ``--json PATH`` additionally writes the rows.

Execution flags (``--index``, ``--per-point``, ``--engine-block``,
``--shards`` / ``--shard-executor`` / ``--shard-workers`` /
``--shard-query-block`` / ``--pool-address``) all map into one
:class:`~repro.engine_config.ExecutionConfig` threaded through the
experiment functions — no global state is installed.

``pool serve`` runs a fleet of local pool workers; any other invocation
on any machine that can reach them may then pass
``--shards N --pool-address host:port [--pool-address ...]`` to fan its
sharded range queries out to the fleet's warm shard indexes.
"""

from __future__ import annotations

import argparse

from repro.engine_config import DEFAULT_ENGINE_BLOCK, ExecutionConfig, IndexSpec
from repro.exceptions import InvalidParameterError, PersistenceError
from repro.experiments.efficiency import speedup_summary, timing_comparison
from repro.experiments.missed import missed_cluster_analysis
from repro.experiments.param_select import parameter_grid
from repro.experiments.quality import quality_comparison
from repro.experiments.reporting import format_table, pivot, save_json
from repro.experiments.runner import ground_truth
from repro.experiments.tradeoff import (
    sweep_dbscanpp,
    sweep_laf_alpha,
    sweep_laf_dbscanpp,
)
from repro.experiments.workloads import prepare_workloads
from repro.index.sharded import EXECUTORS, INNER_BACKENDS, ExecutorSpec, ShardingConfig
from repro.serving.frontend import add_serve_arguments, run_serve_args

__all__ = ["main", "build_parser", "execution_from_args"]


def _positive_int(text: str) -> int:
    """argparse type for flags that only accept >= 1 (shards, workers)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1; got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LAF-DBSCAN paper reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, multi_dataset: bool) -> None:
        if multi_dataset:
            p.add_argument(
                "--datasets", nargs="+", default=["MS-50k", "MS-100k", "MS-150k"]
            )
        else:
            p.add_argument("--dataset", default="MS-150k")
        p.add_argument("--scale", type=float, default=0.02)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=40)
        p.add_argument("--json", default=None, help="write rows as JSON here")
        p.add_argument(
            "--index",
            # The grid backend needs an eps at construction time and is
            # rho-approximate DBSCAN's own substrate anyway; the CLI
            # offers the backends constructible from their defaults.
            choices=sorted(set(INNER_BACKENDS) - {"grid"}),
            default=None,
            help="range-query backend for every engine-routed method "
            "(default: each method's own substrate)",
        )
        p.add_argument(
            "--per-point",
            action="store_true",
            help="disable the batched engine (per-point reference loops)",
        )
        p.add_argument(
            "--engine-block",
            type=_positive_int,
            default=None,
            help="queries per batched engine call "
            f"(default: {DEFAULT_ENGINE_BLOCK})",
        )
        p.add_argument(
            "--shards",
            type=_positive_int,
            default=None,
            help="shard the range-query engine across N row shards",
        )
        p.add_argument(
            "--shard-executor",
            choices=EXECUTORS,
            default=None,
            help="how shard queries execute (default: serial; 'remote' "
            "needs --pool-address)",
        )
        p.add_argument(
            "--shard-workers",
            type=_positive_int,
            default=None,
            help="pool width for the thread shard executor",
        )
        p.add_argument(
            "--shard-query-block",
            type=_positive_int,
            default=None,
            help="query rows fanned out per shard-executor round "
            "(bounds per-call payload size and merge memory)",
        )
        p.add_argument(
            "--pool-address",
            action="append",
            default=None,
            metavar="HOST:PORT",
            help="a pool worker from `repro pool serve` (repeat for a "
            "fleet; implies --shard-executor remote)",
        )

    p = sub.add_parser("quality", help="Table 3/5: ARI & AMI of all methods")
    common(p, multi_dataset=True)
    p.add_argument("--eps", type=float, default=0.55)
    p.add_argument("--tau", type=int, default=5)

    p = sub.add_parser("timing", help="Figure 1/4: clustering time of all methods")
    common(p, multi_dataset=True)
    p.add_argument("--eps", type=float, default=0.55)
    p.add_argument("--tau", type=int, default=5)

    p = sub.add_parser("grid", help="Table 2: (noise ratio, #clusters) grid")
    common(p, multi_dataset=True)
    p.add_argument("--eps-values", nargs="+", type=float, default=[0.5, 0.55, 0.6, 0.7])
    p.add_argument("--tau-values", nargs="+", type=int, default=[3, 5])

    p = sub.add_parser("tradeoff", help="Figure 2/3: speed-quality sweeps")
    common(p, multi_dataset=False)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--tau", type=int, default=3)

    p = sub.add_parser("missed", help="Table 6: fully-missed-cluster stats")
    common(p, multi_dataset=False)
    p.add_argument("--eps", type=float, default=0.55)
    p.add_argument("--tau", type=int, default=5)
    p.add_argument("--alpha", type=float, default=None, help="override Table 1 alpha")

    p = sub.add_parser(
        "fit", help="fit a clusterer and save a servable model artifact"
    )
    common(p, multi_dataset=False)
    p.add_argument("--algo", default="dbscan", help="registered clusterer name")
    p.add_argument("--eps", type=float, default=0.55)
    p.add_argument("--tau", type=int, default=5)
    p.add_argument(
        "--alpha", type=float, default=None, help="LAF gate alpha (default: Table 1)"
    )
    p.add_argument(
        "--save",
        required=True,
        metavar="DIR",
        help="artifact directory for the fitted model (see docs/persistence.md)",
    )

    p = sub.add_parser("pool", help="manage a remote shard-worker pool")
    pool_sub = p.add_subparsers(dest="pool_command", required=True)
    ps = pool_sub.add_parser(
        "serve",
        help="spawn local pool workers and serve until interrupted; "
        "fits connect with --shards N --pool-address HOST:PORT",
    )
    ps.add_argument(
        "--workers", type=_positive_int, default=2, help="worker processes"
    )
    ps.add_argument("--host", default="127.0.0.1", help="bind address")
    ps.add_argument(
        "--max-cached-shards",
        type=_positive_int,
        default=None,
        help="LRU bound on each worker's warm shard-index cache "
        "(default: unbounded)",
    )

    p = sub.add_parser(
        "serve",
        help="serve saved model artifacts over TCP with micro-batched "
        "multi-tenant prediction (see docs/serving.md)",
    )
    add_serve_arguments(p)

    p = sub.add_parser(
        "predict",
        help="classify a dataset's test split against a saved model "
        "(execution flags are ignored; the model carries its own policy)",
    )
    common(p, multi_dataset=False)
    p.add_argument(
        "--model",
        required=True,
        metavar="DIR",
        help="model artifact directory written by fit --save",
    )

    return parser


def execution_from_args(args) -> ExecutionConfig:
    """Fold every execution flag into one :class:`ExecutionConfig`.

    The single config threads through the experiment functions and into
    every clusterer of the run — index backend, batching, engine block
    size and sharding are one declarative object, not ambient state.
    """
    executor: ExecutorSpec | str | None = args.shard_executor
    addresses = args.pool_address or []
    if addresses:
        if executor not in (None, "remote"):
            raise InvalidParameterError(
                "--pool-address implies --shard-executor remote; it cannot "
                f"combine with --shard-executor {executor}"
            )
        if args.shards is None:
            raise InvalidParameterError(
                "--pool-address needs --shards N: remote execution fans "
                "sharded queries out to the pool"
            )
        executor = ExecutorSpec("remote", {"addresses": addresses})
    elif executor == "remote":
        raise InvalidParameterError(
            "--shard-executor remote needs at least one --pool-address "
            "HOST:PORT (start workers with `repro pool serve`)"
        )
    sharding = None
    if args.shards is not None:
        sharding_kwargs = dict(
            n_shards=args.shards,
            executor="serial" if executor is None else executor,
            n_workers=args.shard_workers,
        )
        if args.shard_query_block is not None:
            sharding_kwargs["query_block"] = args.shard_query_block
        sharding = ShardingConfig(**sharding_kwargs)
    return ExecutionConfig(
        index=None if args.index is None else IndexSpec(args.index),
        sharding=sharding,
        batch_queries=not args.per_point,
        query_block=(
            DEFAULT_ENGINE_BLOCK if args.engine_block is None else args.engine_block
        ),
    )


def _prepare(args, names) -> tuple[dict, dict, dict]:
    workloads = prepare_workloads(
        tuple(names), scale=args.scale, seed=args.seed, epochs=args.epochs
    )
    datasets = {n: w.X_test for n, w in workloads.items()}
    estimators = {n: w.estimator for n, w in workloads.items()}
    alphas = {n: w.alpha for n, w in workloads.items()}
    return datasets, estimators, alphas


def _cmd_quality(args, execution: ExecutionConfig) -> list[dict]:
    datasets, estimators, alphas = _prepare(args, args.datasets)
    records = quality_comparison(
        datasets, estimators, alphas, args.eps, args.tau, execution=execution
    )
    for metric in ("ARI", "AMI"):
        headers, rows = pivot(records, value=metric)
        print(
            format_table(
                headers, rows, title=f"{metric} @ eps={args.eps}, tau={args.tau}"
            )
        )
        print()
    return [r.as_row() for r in records]


def _cmd_timing(args, execution: ExecutionConfig) -> list[dict]:
    datasets, estimators, alphas = _prepare(args, args.datasets)
    records = timing_comparison(
        datasets, estimators, alphas, args.eps, args.tau, execution=execution
    )
    headers, rows = pivot(records, value="time_s")
    print(
        format_table(headers, rows, title=f"time (s) @ eps={args.eps}, tau={args.tau}")
    )
    print("speedups:", speedup_summary(records))
    return [r.as_row() for r in records]


def _cmd_grid(args, execution: ExecutionConfig) -> list[dict]:
    datasets, _, _ = _prepare(args, args.datasets)
    cells = parameter_grid(
        datasets,
        eps_values=args.eps_values,
        tau_values=args.tau_values,
        execution=execution,
    )
    by_pair: dict[tuple[float, int], dict[str, str]] = {}
    for cell in cells:
        by_pair.setdefault((cell.eps, cell.tau), {})[cell.dataset] = cell.as_pair()
    names = list(datasets)
    rows = [
        [f"({eps}, {tau})", *(by_pair[(eps, tau)].get(n, "-") for n in names)]
        for (eps, tau) in sorted(by_pair)
    ]
    print(format_table(["(eps,tau)", *names], rows, title="(noise ratio, #clusters)"))
    return [
        {
            "dataset": c.dataset,
            "eps": c.eps,
            "tau": c.tau,
            "noise_ratio": c.noise_ratio,
            "n_clusters": c.n_clusters,
        }
        for c in cells
    ]


def _cmd_tradeoff(args, execution: ExecutionConfig) -> list[dict]:
    datasets, estimators, _ = _prepare(args, [args.dataset])
    X = datasets[args.dataset]
    estimator = estimators[args.dataset]
    gt = ground_truth(X, args.eps, args.tau, execution=execution)
    points = []
    points += sweep_laf_alpha(
        X, gt.labels, estimator, args.eps, args.tau, execution=execution
    )
    points += sweep_dbscanpp(
        X, gt.labels, estimator, args.eps, args.tau, execution=execution
    )
    points += sweep_laf_dbscanpp(
        X, gt.labels, estimator, args.eps, args.tau, execution=execution
    )
    headers = ["method", "knob", "value", "time_s", "ARI", "AMI"]
    rows = [[p.as_row()[h] for h in headers] for p in points]
    print(format_table(headers, rows, title=f"trade-off on {args.dataset}"))
    return [p.as_row() for p in points]


def _cmd_missed(args, execution: ExecutionConfig) -> list[dict]:
    datasets, estimators, alphas = _prepare(args, [args.dataset])
    alpha = args.alpha if args.alpha is not None else alphas[args.dataset]
    stats, run_stats = missed_cluster_analysis(
        datasets[args.dataset],
        estimators[args.dataset],
        args.eps,
        args.tau,
        alpha,
        execution=execution,
    )
    row = stats.as_row()
    print(
        format_table(
            ["dataset", "MC/TC", "MP/TPC", "ASMC", "FN detected"],
            [
                [
                    args.dataset,
                    row["MC/TC"],
                    row["MP/TPC"],
                    row["ASMC"],
                    run_stats.get("fn_detected", 0),
                ]
            ],
            title=(
                f"fully missed clusters @ eps={args.eps}, "
                f"tau={args.tau}, alpha={alpha}"
            ),
        )
    )
    return [{**row, "dataset": args.dataset, "alpha": alpha}]


def _cmd_fit(args, execution: ExecutionConfig) -> list[dict]:
    from repro.api import fit_model

    algo = str(args.algo).strip().lower()
    params: dict = {"eps": args.eps, "tau": args.tau}
    if algo.startswith("laf"):
        # LAF methods need the trained estimator from the paper pipeline
        # (generate -> split -> train RMI on the training split).
        datasets, estimators, alphas = _prepare(args, [args.dataset])
        X = datasets[args.dataset]
        params["estimator"] = estimators[args.dataset]
        params["alpha"] = (
            args.alpha if args.alpha is not None else alphas[args.dataset]
        )
    else:
        from repro.data import load_dataset

        _, X = load_dataset(args.dataset, scale=args.scale, seed=args.seed).split()
    model = fit_model(X, algo, execution=execution, **params)
    try:
        model.save(args.save)
        row = {
            "algo": model.algo,
            "dataset": args.dataset,
            "n_points": model.n_points,
            "n_cores": model.n_cores,
            "n_clusters": model.n_clusters,
            "path": args.save,
        }
    finally:
        model.close()
    print(
        f"saved {row['algo']} model: {row['n_points']} points, "
        f"{row['n_clusters']} clusters, {row['n_cores']} cores -> {args.save}"
    )
    return [row]


def _cmd_predict(args, execution: ExecutionConfig) -> list[dict]:
    from repro.api import load_model
    from repro.data import load_dataset

    _, X = load_dataset(args.dataset, scale=args.scale, seed=args.seed).split()
    model = load_model(args.model)
    try:
        labels = model.predict(X)
    finally:
        model.close()
    import numpy as np

    n = int(labels.size)
    noise = int(np.count_nonzero(labels == -1))
    hit = np.unique(labels[labels != -1])
    counts = [
        [int(c), int(np.count_nonzero(labels == c))] for c in hit.tolist()
    ]
    print(
        format_table(
            ["cluster", "points"],
            [["noise", noise], *counts],
            title=(
                f"{model.algo} predictions on {args.dataset} "
                f"({n} queries, eps={model.eps})"
            ),
        )
    )
    return [
        {
            "model": args.model,
            "dataset": args.dataset,
            "n_queries": n,
            "n_noise": noise,
            "noise_ratio": noise / n if n else 0.0,
            "clusters_hit": len(counts),
        }
    ]


def _cmd_pool_serve(args) -> int:
    from repro.remote.pool import WorkerPool

    pool = WorkerPool.spawn_local(
        args.workers,
        host=args.host,
        max_cached_shards=args.max_cached_shards,
    )
    for address in pool.addresses:
        print(f"pool worker listening on {address}", flush=True)
    flags = " ".join(f"--pool-address {a}" for a in pool.addresses)
    print(f"connect fits with: --shards N {flags}", flush=True)
    try:
        # Serve until a worker exits (remote shutdown) or Ctrl-C.
        for proc in pool._processes:
            proc.join()
    except KeyboardInterrupt:
        print("\nshutting down pool workers", flush=True)
    finally:
        pool.shutdown()
    return 0


_COMMANDS = {
    "quality": _cmd_quality,
    "timing": _cmd_timing,
    "grid": _cmd_grid,
    "tradeoff": _cmd_tradeoff,
    "missed": _cmd_missed,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pool":
        # Pool management takes no execution flags: it *is* the fleet
        # that later fits point their execution config at.
        return _cmd_pool_serve(args)
    if args.command == "serve":
        # Serving takes no execution flags either: each model artifact
        # carries its own execution policy.
        try:
            return run_serve_args(args)
        except (InvalidParameterError, PersistenceError) as exc:
            parser.error(str(exc))
    try:
        execution = execution_from_args(args)
    except InvalidParameterError as exc:
        # e.g. --per-point with --shards: a config contradiction, shown
        # as a usage error instead of a traceback.
        parser.error(str(exc))
    try:
        rows = _COMMANDS[args.command](args, execution)
    except (InvalidParameterError, PersistenceError) as exc:
        # Unknown algo, unreadable artifact, ...: usage errors, not
        # tracebacks.
        parser.error(str(exc))
    if args.json:
        save_json(args.json, rows)
        print(f"\nwrote {args.json}")
    return 0
