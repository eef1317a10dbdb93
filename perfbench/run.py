"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-ms50k --seed 0 --seconds 6 --trace 0

The same seed builds the same inputs. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics, from a
run that alternates untraced and traced iterations of the same workload.
The line before it (``info: {...}``) carries the informational ratios
with their base times; they are not gated.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bootstrap() -> None:
    """Put this checkout's ``src/`` and this directory first on the path."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def report(run, config: dict) -> dict:
    """The result object: every metric of the requested kind, with units."""
    if run.trace:
        declared = config["per_layer"]
        # ``info.*`` per-layer metrics are the run's informational values.
        values = {f"info.{key}": value for key, value in run.info.items()}
        values.update(run.layers)
    else:
        values = run.metrics
        declared = config["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": run.incorrect == 0 and not run.below_floor,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from workloads import SPECS, run_workload

    run = run_workload(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    samples = {k: [round(v, 4) for v in values] for k, values in run.samples.items()}
    print("info: " + json.dumps({**run.info, "samples": samples}, sort_keys=True))
    print(json.dumps(report(run, config)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
