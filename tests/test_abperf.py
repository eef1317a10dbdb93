"""tools/abperf.py: pairing, statistics and verdicts, on a fake runner."""

from __future__ import annotations

import json
import math
import os

import pytest

import abperf

CONFIG = {
    "run_seconds": 6,
    "end_to_end": [
        {"name": "plain_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "accel_ari", "unit": "ARI", "better": "higher", "bound": 0.05},
    ],
    "per_layer": [{"name": "index.gflop", "unit": "GFLOP", "better": "lower"}],
}
PLAIN, ARI = abperf.metrics_of(CONFIG, trace=False)


def result(plain_s: float, ari: float = 1.0, failed: int = 0) -> dict:
    metrics = {"plain_s": plain_s, "accel_ari": ari}
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }


class FakeRunner:
    """Records every call; answers from ``timings[side]`` in call order."""

    def __init__(self, timings: dict[str, list[float]]):
        self.timings = {side: list(values) for side, values in timings.items()}
        self.calls: list[tuple[str, str, int]] = []

    def __call__(self, checkout: str, workload: str, seed: int) -> dict:
        side = os.path.basename(checkout)
        self.calls.append((side, workload, seed))
        return result(self.timings[side].pop(0))


def test_metrics_carry_direction_and_bound():
    assert PLAIN == abperf.Metric("plain_s", "lower", 0.25)
    assert ARI == abperf.Metric("accel_ari", "higher", 0.05)
    assert abperf.metrics_of(CONFIG, trace=True) == [
        abperf.Metric("index.gflop", "lower", None)
    ]


@pytest.mark.parametrize(
    "text, seeds",
    [("3", [3]), ("1-4", [1, 2, 3, 4]), ("1,4,7-9", [1, 4, 7, 8, 9])],
)
def test_parse_seeds(text, seeds):
    assert abperf.parse_seeds(text) == seeds


def test_quartiles_interpolate():
    assert abperf.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert abperf.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert abperf.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize(
    "wins, losses, p",
    [
        (10, 0, 2 / 1024),
        (0, 10, 2 / 1024),
        (9, 1, 2 * 11 / 1024),
        (8, 2, 2 * 56 / 1024),
        (5, 5, 1.0),
        (0, 0, 1.0),
        (1, 0, 1.0),
    ],
)
def test_sign_test_p_is_exact(wins, losses, p):
    assert math.isclose(abperf.sign_test_p(wins, losses), p)


def test_run_pairs_alternates_which_side_runs_first():
    runner = FakeRunner({"parent": [1.0] * 6, "change": [0.9] * 6})
    results = abperf.run_pairs(runner, "/x/parent", "/x/change", "w", [1, 2, 3], 2)
    assert len(results) == 6
    firsts = [side for side, _, _ in runner.calls[::2]]
    assert firsts == ["parent", "change"] * 3
    # Both runs of a pair share a seed; every seed gets ``pairs`` pairs.
    seeds = [seed for _, _, seed in runner.calls]
    assert seeds == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
    assert all(p["metrics"]["plain_s"]["value"] == 1.0 for p, _ in results)
    assert all(c["metrics"]["plain_s"]["value"] == 0.9 for _, c in results)


def test_a_clear_gain_is_met():
    parent = [1.30, 1.34, 1.36, 1.33, 1.35, 1.31, 1.40, 1.32, 1.34, 1.38]
    change = [v * 0.83 for v in parent]
    c = abperf.compare(PLAIN, parent, change)
    assert (c.wins, c.losses, c.pairs) == (10, 0, 10)
    assert c.verdict == "gain met"
    assert math.isclose(c.p, 2 / 1024)


def test_eight_wins_of_ten_is_not_a_gain():
    parent = [1.3] * 10
    change = [1.0] * 8 + [1.4] * 2
    c = abperf.compare(PLAIN, parent, change)
    assert c.wins == 8 and c.verdict == "within noise"


def test_a_gap_inside_the_parents_spread_is_not_a_gain():
    parent = [1.0, 1.2, 1.4, 1.6, 1.8] * 2
    change = [v - 0.05 for v in parent]  # wins every pair, gap 0.05 < IQR 0.4
    c = abperf.compare(PLAIN, parent, change)
    assert c.wins == 10 and c.verdict == "within noise"


def test_fewer_than_ten_pairs_claim_no_gain():
    assert abperf.compare(PLAIN, [1.3] * 9, [1.0] * 9).verdict == "within noise"
    assert abperf.compare(PLAIN, [1.3] * 10, [1.0] * 10).verdict == "gain met"


def test_a_slowdown_past_the_bound_is_flagged():
    parent = [1.0] * 10
    assert abperf.compare(PLAIN, parent, [1.2] * 10).verdict == "within noise"
    assert abperf.compare(PLAIN, parent, [1.3] * 10).verdict == "beyond bound"


def test_higher_is_better_metrics_flip_the_direction():
    parent = [0.99] * 10
    c = abperf.compare(ARI, parent, [0.99] * 10)
    assert (c.wins, c.losses, c.verdict) == (0, 0, "within noise")
    assert abperf.compare(ARI, parent, [0.90] * 10).verdict == "beyond bound"
    assert abperf.compare(ARI, parent, [1.0] * 10).verdict == "gain met"


def test_unbounded_metrics_are_never_beyond_bound():
    (gflop,) = abperf.metrics_of(CONFIG, trace=True)
    assert abperf.compare(gflop, [1.0] * 4, [9.0] * 4).verdict == "within noise"


def test_report_counts_failures_per_side():
    results = [(result(1.0), result(0.8, failed=2)), (result(1.0), result(0.8))]
    comparisons = abperf.compare_workload([PLAIN, ARI], results)
    text = abperf.table("fit-ms50k", comparisons, results)
    assert "parent 2/2 runs correct, 0/20 operations failed" in text
    assert "change 1/2 runs correct, 2/20 operations failed" in text
    line = abperf.changes_line("A/B", [("fit-ms50k", comparisons, results)])
    assert "\n" not in line
    assert line.startswith(
        "A/B: `fit-ms50k`: `plain_s` 1 [1, 1] → 0.8 [0.8, 0.8], -20.0%, 2/2"
    )


def test_a_win_with_more_failures_is_not_a_gain():
    parent = [1.30, 1.34, 1.36, 1.33, 1.35, 1.31, 1.40, 1.32, 1.34, 1.38]
    clean = [(result(p), result(0.8 * p)) for p in parent]
    assert all(c.wins == 10 for c in abperf.compare_workload([PLAIN], clean))
    assert abperf.compare_workload([PLAIN], clean)[0].verdict == "gain met"
    failing = clean[:-1] + [(result(parent[-1]), result(0.8 * parent[-1], failed=1))]
    (c,) = abperf.compare_workload([PLAIN], failing)
    assert c.wins == 10 and c.verdict == "no gain: more failures"
    # A slowdown past the bound is still reported as such.
    slow = [(result(1.0), result(1.3, failed=1))] * 10
    assert abperf.compare_workload([PLAIN], slow)[0].verdict == "beyond bound"


def test_failures_compare_incorrect_runs_and_the_failed_share():
    def runs(failed, attempted=10, correct=True):
        return [{"correct": correct, "failed": failed, "attempted": attempted}]

    assert not abperf.fails_more(runs(0), runs(0))
    assert not abperf.fails_more(runs(2), runs(2))
    assert abperf.fails_more(runs(0), runs(1))
    assert abperf.fails_more(runs(0), runs(0, correct=False))
    assert not abperf.fails_more(runs(0, correct=False), runs(0))
    # A share, not a count: 2 of 40 is fewer than 1 of 10.
    assert not abperf.fails_more(runs(1, 10), runs(2, 40))
    assert abperf.fails_more(runs(1, 40), runs(1, 10))
    assert abperf.fails_more(runs(0, 0), runs(1, 10))


def test_perfbench_runner_leaves_the_run_length_to_the_benchmark(monkeypatch):
    calls = []

    def fake_run(command, cwd, env, capture_output, text):
        calls.append((command, cwd, env))
        out = 'info: {}\n{"correct": true}\n'
        return abperf.subprocess.CompletedProcess(command, 0, out, "")

    monkeypatch.setattr(abperf.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert abperf.perfbench_runner(True)("/x/parent", "fit-ms50k", 3) == {
        "correct": True
    }
    ((command, cwd, env),) = calls
    assert command[1:] == [
        os.path.join("perfbench", "run.py"),
        "--workload=fit-ms50k",
        "--seed=3",
        "--trace=1",
    ]
    assert cwd == "/x/parent" and "PYTHONPATH" not in env


def test_main_runs_every_workload_on_unpacked_checkouts(capsys):
    unpacked = []

    def fake_unpack(rev, dest):
        unpacked.append(rev)
        os.makedirs(dest)
        with open(os.path.join(dest, "BENCHMARK.json"), "w") as fh:
            json.dump(CONFIG, fh)

    runner = FakeRunner({"parent": [1.3] * 40, "change": [1.1] * 40})
    settings = []

    def make_runner(trace):
        settings.append(trace)
        return runner

    code = abperf.main(
        [
            "--parent=abc",
            "--change=def",
            "--workload=fit-ms50k",
            "--workload=remote-ms50k",
            "--seeds=1-10",
        ],
        make_runner=make_runner,
        unpack=fake_unpack,
        describe=lambda rev: rev.upper(),
    )
    assert code == 0
    assert unpacked == ["abc", "def"]
    assert settings == [False]
    workloads = [w for _, w, _ in runner.calls]
    assert workloads == ["fit-ms50k"] * 20 + ["remote-ms50k"] * 20
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("A/B (`tools/abperf.py`, ABC → DEF, 10 alternating")
    assert "`run_seconds` 6, `--trace 0`" in out[-1]  # the change's BENCHMARK.json
    assert "`fit-ms50k`: `plain_s` 1.3 [1.3, 1.3] → 1.1 [1.1, 1.1]" in out[-1]
    assert "`remote-ms50k`: " in out[-1] and "gain met" in out[-1]
