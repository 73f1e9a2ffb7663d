"""The benchmark: one workload, timed, checked, reported as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2-hash-r6 --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the
traced run: it alternates untraced and traced units, prints each
layer's table on stderr, and reports the per-layer metrics plus the
tracing overhead (median traced unit against median untraced unit).

The program runs from ``src/`` at its defaults: every ``REPRO_*``
variable is removed from the environment first.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def cpu_steal():
    """``(steal, total)`` jiffies of this machine, or ``None`` off Linux.

    Steal is time the hypervisor gave this VM's CPUs to someone else;
    the stderr summary reports its share during the timed phase.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


#: Units run before the timed phase.  The first unit in a process pays
#: one-time costs (the first GEMMs of a process run up to 3x slower);
#: it is checked and counted as attempted but not timed.
WARMUP_UNITS = 1

#: Every run prints every one of these, so each must mean something, and
#: never read 0, on every workload.  Request latencies exist only for
#: serving; they are per-layer metrics (``serve.request_*``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Program defaults, and ``src/`` on the import path of every process."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path[:0] = [src, str(HERE)]


def run(args) -> dict:
    import workloads
    from anchors import CheckFailed
    from tracer import (PER_LAYER, Tracer, add_program_layers, format_table,
                        layer_metrics, merge)

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}"
        )
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        # Each set-up and each unit starts from a collected heap, so the
        # peak memory is one unit's, not one unit's plus the garbage of
        # the unit before, and no collection pause lands inside a unit.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

        tracer = None
        min_units = workload.min_units
        if args.trace:
            tracer = Tracer()
            add_program_layers(tracer)
            workload.add_layers(tracer)
            min_units = max(min_units, 2)
        for _ in range(WARMUP_UNITS):
            gc.collect()
            workload.run_unit()
        workload.warmed_up()
        walls, traced_walls, traced_busy = [], [], 0.0
        steal_start = cpu_steal()
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < min_units or time.perf_counter() < deadline:
            gc.collect()
            traced = tracer is not None and index % 2 == 1
            if traced:
                workload.tracer = tracer
                workload.trace(True)
                tracer.install()
            start = time.perf_counter()
            busy = workload.run_unit()
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                workload.trace(False)
                workload.tracer = None
                traced_walls.append(wall)
                traced_busy += busy
            else:
                walls.append(wall)
            index += 1
        steal_end = cpu_steal()

        correct = True
        try:
            workload.check()
        except CheckFailed as exc:
            correct = False
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
        failed = workload.failed()
        measured = workload.layer_values()

        if tracer is None:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "run_s": statistics.median(walls),
            }
        else:
            totals = merge(tracer.totals(), workload.server_totals())
            overhead = (
                statistics.median(traced_walls) / statistics.median(walls) - 1.0
            ) * 100.0
            metrics = layer_metrics(totals, len(traced_walls), traced_busy,
                                    overhead, measured)
            print(format_table(args.workload, totals, len(traced_walls),
                               traced_busy, metrics), file=sys.stderr)
        steal = ""
        if steal_start and steal_end and steal_end[1] > steal_start[1]:
            share = (steal_end[0] - steal_start[0]) / (steal_end[1] - steal_start[1])
            steal = f", CPU steal {share:.1%}"
        print(f"{args.workload}: {index} timed units, unit walls "
              f"{[round(w, 3) for w in walls + traced_walls]}, set-ups "
              f"{[round(s, 3) for s in setup_times]}{steal}", file=sys.stderr)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if tracer is None:
        metrics["peak_rss_mb"] = workload.peak_rss_mb()
        units = END_TO_END_UNITS
    else:
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    return {
        "correct": correct,
        "attempted": (WARMUP_UNITS + index) * workload.ops_per_unit,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    prepare_environment()
    result = run(args)
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
