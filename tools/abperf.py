"""A/B the benchmark: a parent revision against the change, in alternating pairs.

Usage, from the root of a checkout::

    python3 tools/abperf.py --parent HEAD~1 --workload fit-ms50k --seeds 1-10

The parent revision is unpacked with ``git archive`` into a temporary
directory, so no worktree metadata is left behind. The change is this
checkout's working tree, or ``--change REV`` unpacked the same way. For
every workload and seed the tool runs ``--pairs`` pairs of
``perfbench/run.py``, one run of each side per pair, alternating which
side runs first, and reads each run's last JSON line. Per metric it
prints the medians, the quartiles, the change's wins out of the pairs,
an exact two-sided sign-test p, a 95% bootstrap interval of the
change/parent median ratio and a verdict:

* ``gain met``: over at least ten pairs, the change is better in at
  least 9 of 10 and its median beats the parent's by more than the
  parent's quartile distance, and its runs have no more incorrect runs
  and no larger share of failed operations than the parent's;
* ``no gain: more failures``: the change would meet the gain rule but
  has more incorrect runs or a larger share of failed operations;
* ``beyond bound``: the change's median is worse than the parent's by
  more than the metric's ``bound`` in ``BENCHMARK.json``, a fraction of
  the parent's median (per-layer metrics have no bound);
* ``unresolved``: none of the above, but the parent's quartile distance
  is wider than the bound, so these runs cannot rule out a regression
  past it;
* ``within noise``: none of the above.

The bootstrap resamples the pairs, each pair's two runs together, with
a fixed seed, so a report repeats; it informs, and no verdict reads it.
Each side runs for its own ``BENCHMARK.json``'s ``run_seconds``. The
last line of output is one line to paste into ``CHANGES.md``. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fewest pairs on which a gain can be claimed.
MIN_PAIRS = 10

#: Resamples of the bootstrap interval, and the seed of its generator.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0

#: ``(checkout, workload, seed)`` -> the run's result object.
Runner = Callable[[str, str, int], dict]


@dataclass(frozen=True)
class Metric:
    name: str
    better: str  # "lower" or "higher"
    bound: float | None  # fraction of the parent's median; None: not gated


@dataclass(frozen=True)
class Comparison:
    metric: Metric
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int
    losses: int
    pairs: int
    p: float
    verdict: str
    ratio_ci: tuple[float, float] | None  # 95% bootstrap, change/parent median


def metrics_of(config: dict, trace: bool) -> list[Metric]:
    """The metrics a run reports, with direction and bound, from ``BENCHMARK.json``."""
    declared = config["per_layer"] if trace else config["end_to_end"]
    return [Metric(m["name"], m["better"], m.get("bound")) for m in declared]


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"3"`` or ``"1,4,7-9"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (linear interpolation)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2.0 * tail / 2**n)


def bootstrap_ratio_interval(
    parent: Sequence[float],
    change: Sequence[float],
) -> tuple[float, float] | None:
    """95% percentile-bootstrap interval of ``median(change) / median(parent)``.

    Each resample draws ``len(parent)`` pairs with replacement, a pair's two
    runs together. None when a resampled parent median is 0.
    """
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(parent)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        picks = [rng.randrange(n) for _ in range(n)]
        base = statistics.median(parent[i] for i in picks)
        if base == 0:
            return None
        ratios.append(statistics.median(change[i] for i in picks) / base)
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def compare(
    metric: Metric,
    parent: Sequence[float],
    change: Sequence[float],
    change_fails_more: bool = False,
) -> Comparison:
    """One metric's verdict over paired runs ``parent[k]``, ``change[k]``.

    ``change_fails_more``: the change's runs have more incorrect runs or a
    larger share of failed operations, so no gain counts.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])  # > 0: the change's median is better
    if metric.bound is not None and -gap > metric.bound * abs(pq[1]):
        verdict = "beyond bound"
    elif (
        len(gains) >= MIN_PAIRS
        and 10 * wins >= 9 * len(gains)
        and gap > pq[2] - pq[0]
    ):
        verdict = "no gain: more failures" if change_fails_more else "gain met"
    elif metric.bound is not None and pq[2] - pq[0] > metric.bound * abs(pq[1]):
        verdict = "unresolved"
    else:
        verdict = "within noise"
    p = sign_test_p(wins, losses)
    ci = bootstrap_ratio_interval(parent, change)
    return Comparison(metric, pq, cq, wins, losses, len(gains), p, verdict, ci)


def perfbench_runner(trace: bool) -> Runner:
    """Runs ``perfbench/run.py`` of a checkout in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def run(checkout: str, workload: str, seed: int) -> dict:
        command = [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            f"--workload={workload}",
            f"--seed={seed}",
            f"--trace={int(trace)}",
        ]
        done = subprocess.run(
            command, cwd=checkout, env=env, capture_output=True, text=True
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{' '.join(command)} in {checkout} exited {done.returncode}:\n"
                f"{done.stderr[-2000:]}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1])

    return run


def run_pairs(
    runner: Runner,
    parent: str,
    change: str,
    workload: str,
    seeds: Sequence[int],
    pairs: int,
) -> list[tuple[dict, dict]]:
    """``(parent, change)`` results of ``pairs`` pairs per seed.

    Pair ``k`` (counted over all seeds) runs the parent first when ``k``
    is even and the change first when it is odd.
    """
    results: list[tuple[dict, dict]] = []
    for seed in seeds:
        for _ in range(pairs):
            order = [("parent", parent), ("change", change)]
            if len(results) % 2:
                order.reverse()
            got = {side: runner(checkout, workload, seed) for side, checkout in order}
            results.append((got["parent"], got["change"]))
            print(f"{workload}: pair {len(results)} done", file=sys.stderr, flush=True)
    return results


def values(results: Sequence[dict], name: str) -> list[float]:
    return [float(r["metrics"][name]["value"]) for r in results]


def failures(results: Sequence[dict]) -> tuple[int, int, int]:
    """``(incorrect runs, failed operations, attempted operations)``."""
    incorrect = sum(not r["correct"] for r in results)
    failed = sum(int(r["failed"]) for r in results)
    attempted = sum(int(r["attempted"]) for r in results)
    return incorrect, failed, attempted


def fails_more(parent: Sequence[dict], change: Sequence[dict]) -> bool:
    """The change has more incorrect runs or a larger share of failed operations."""
    (p_incorrect, p_failed, p_attempted) = failures(parent)
    (c_incorrect, c_failed, c_attempted) = failures(change)
    p_share = p_failed / p_attempted if p_attempted else 0.0
    c_share = c_failed / c_attempted if c_attempted else 0.0
    return c_incorrect > p_incorrect or c_share > p_share


def compare_workload(
    metrics: Sequence[Metric], results: Sequence[tuple[dict, dict]]
) -> list[Comparison]:
    parent = [p for p, _ in results]
    change = [c for _, c in results]
    worse = fails_more(parent, change)
    return [
        compare(m, values(parent, m.name), values(change, m.name), worse)
        for m in metrics
    ]


def _spread(q: tuple[float, float, float]) -> str:
    """``median [q1, q3]``."""
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _relative(c: Comparison) -> str:
    base = c.parent[1]
    if base == 0:
        return "n/a"
    return f"{100.0 * (c.change[1] - base) / abs(base):+.1f}%"


def _interval(c: Comparison) -> str:
    """The ratio interval as ``[low, high]``."""
    if c.ratio_ci is None:
        return "n/a"
    return f"[{c.ratio_ci[0]:.3f}, {c.ratio_ci[1]:.3f}]"


def _runs(results: Sequence[tuple[dict, dict]]) -> str:
    """Correct runs and failed operations of each side."""
    notes = []
    for side, index in (("parent", 0), ("change", 1)):
        incorrect, failed, attempted = failures([r[index] for r in results])
        notes.append(
            f"{side} {len(results) - incorrect}/{len(results)} runs correct, "
            f"{failed}/{attempted} operations failed"
        )
    return "; ".join(notes)


def table(workload: str, comparisons: Sequence[Comparison], results) -> str:
    """A workload's report, one row per metric."""
    rows = [
        (
            "metric",
            "parent [q1, q3]",
            "change [q1, q3]",
            "Δ",
            "ratio 95% CI",
            "wins",
            "p",
            "",
        )
    ]
    for c in comparisons:
        rows.append(
            (
                c.metric.name,
                _spread(c.parent),
                _spread(c.change),
                _relative(c),
                _interval(c),
                f"{c.wins}/{c.pairs}",
                f"{c.p:.3g}",
                c.verdict,
            )
        )
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [f"{workload}: {len(results)} pairs"]
    for row in rows:
        lines.append("  " + "  ".join(f.ljust(w) for f, w in zip(row, widths)))
    lines.append(f"  {_runs(results)}")
    return "\n".join(lines)


def changes_line(
    header: str, report: Sequence[tuple[str, Sequence[Comparison], Sequence]]
) -> str:
    """One line for ``CHANGES.md``: every workload's metrics, parent → change."""
    parts = []
    for workload, comparisons, results in report:
        metrics = "; ".join(
            f"`{c.metric.name}` {_spread(c.parent)} → {_spread(c.change)}, "
            f"{_relative(c)}, {c.wins}/{c.pairs}, p {c.p:.3g}, {c.verdict}"
            for c in comparisons
        )
        intervals = ", ".join(
            f"`{c.metric.name}` {_interval(c)}" for c in comparisons
        )
        parts.append(
            f"`{workload}`: {metrics} ({_runs(results)}; 95% bootstrap "
            f"interval of the change/parent median ratio: {intervals})"
        )
    return f"{header}: " + ". ".join(parts) + "."


def unpack(rev: str, dest: str, repo: str = REPO_ROOT) -> None:
    """Extract the committed files of ``rev`` into ``dest`` (``git archive``)."""
    os.makedirs(dest)
    with subprocess.Popen(
        ["git", "-C", repo, "archive", "--format=tar", rev], stdout=subprocess.PIPE
    ) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:  # Python without extraction filters
                tar.extractall(dest)
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {rev} exited {proc.returncode}")


def describe(rev: str, repo: str = REPO_ROOT) -> str:
    """``rev`` as a short commit id (``rev`` itself when git cannot resolve it)."""
    done = subprocess.run(
        ["git", "-C", repo, "rev-parse", "--short", rev],
        capture_output=True,
        text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else rev


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument(
        "--change", default=None, help="change revision (default: the working tree)"
    )
    parser.add_argument(
        "--workload", action="append", required=True, help="repeat for several"
    )
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,3,5"')
    parser.add_argument("--pairs", type=int, default=1, help="pairs per seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(
    argv: Sequence[str] | None = None,
    *,
    make_runner: Callable[[bool], Runner] = perfbench_runner,
    unpack: Callable[[str, str], None] = unpack,
    describe: Callable[[str], str] = describe,
) -> int:
    args = _parser().parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="abperf-") as tmp:
        parent = os.path.join(tmp, "parent")
        unpack(args.parent, parent)
        change = REPO_ROOT
        if args.change is not None:
            change = os.path.join(tmp, "change")
            unpack(args.change, change)
        with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
            config = json.load(fh)
        runner = make_runner(bool(args.trace))
        report = []
        for workload in args.workload:
            results = run_pairs(runner, parent, change, workload, seeds, args.pairs)
            comparisons = compare_workload(metrics_of(config, args.trace), results)
            report.append((workload, comparisons, results))
            print(table(workload, comparisons, results), flush=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    change_name = "working tree" if args.change is None else describe(args.change)
    header = (
        f"A/B (`tools/abperf.py`, {describe(args.parent)} → {change_name}, "
        f"{len(seeds) * args.pairs} alternating pairs, "
        f"seeds {args.seeds} × {args.pairs}, "
        f"`run_seconds` {config['run_seconds']:g}, `--trace {args.trace}`, "
        f"{cpus} CPUs; "
        "median [quartiles], change better in wins/pairs, sign-test p)"
    )
    print(changes_line(header, report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
