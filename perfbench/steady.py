"""Steadiness command: each workload N times, each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workload W ...] [--runs 10]
        [--seed 0] [--seconds S] [--trace 0|1]

Run ``i`` of a workload uses seed ``--seed + i``.  For every metric it
prints the median, the quartiles of ``statistics.quantiles(n=4)``, the
spread (interquartile distance over the median) and, for end-to-end
metrics, the bound from ``BENCHMARK.json`` and whether the spread stays
below a third of it.  Seeds from 0 up are the ones used while building
the benchmark; seeds from :data:`HOLDOUT_SEED` up are kept for checking
a claimed gain on inputs it was not tuned on.

With ``--trace 1`` it runs the traced command instead and prints each
workload's per-layer table (on stderr, from ``run.py``) and the medians
of the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: First seed of the runs kept for checking claims.
HOLDOUT_SEED = 1000


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarise(workload: str, results, bounds: dict) -> bool:
    steady = True
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{workload}: {len(results)} runs, failed share {sorted(failed)}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"  {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>8}  verdict")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        share = spread(values) if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            ok = name == "setup_s" or share < bound / 3.0
            steady = steady and ok
            verdict = "ok" if ok else "WIDE (over a third of the bound)"
        print(f"  {name:<26}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{share:>9.4f}"
              f"{'' if bound is None else f'{bound:.2f}':>8}  {verdict}")
        print(f"    values: {[round(v, 5) for v in values]}")
    return steady


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {} if args.trace else {
        m["name"]: m["bound"] for m in spec["end_to_end"]
    }
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, args.seed + i, args.seconds, args.trace)
                   for i in range(args.runs)]
        steady = summarise(workload, results, bounds) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
