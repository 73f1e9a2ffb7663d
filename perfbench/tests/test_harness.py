"""The benchmark's own machinery: tail rule, tracer, declared metrics."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import stats
import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent.parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, expected", [
    (39, None), (40, 75.0), (199, 90.0), (400, 95.0), (999, 95.0), (1000, 99.0),
])
def test_tail_rule(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_rule_leaves_ten_beyond():
    for n in (40, 400, 1000):
        p = stats.tail_percentile(n)
        values = list(range(n))
        cut = stats.percentile(values, p)
        assert sum(1 for v in values if v > cut) >= 10


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    q1, q2, q3 = stats.quartiles(values)
    assert (q3 - q1) / q2 == stats.spread(values)
    assert q2 == sorted(values)[4] / 2 + sorted(values)[5] / 2


def _toy_module():
    module = types.SimpleNamespace()

    def leaf(n):
        return list(range(n))

    def outer(n):
        return module.leaf(n) + module.leaf(n)

    module.leaf, module.outer = leaf, outer
    return module


def test_tracer_self_time_and_restore():
    module = _toy_module()
    original = module.outer
    tracer = tracer_mod.Tracer()
    tracer.add(module, "outer", "outer")
    tracer.add(module, "leaf", "leaf", lambda args, result: len(result))
    tracer.install()
    assert module.outer(5) == list(range(5)) * 2
    tracer.uninstall()
    assert module.outer is original
    totals = tracer.totals()
    assert totals["calls"] == {"outer": 1, "leaf": 2}
    assert totals["counts"] == {"leaf": 10}
    assert totals["self"]["outer"] == pytest.approx(
        totals["inclusive"]["outer"] - totals["inclusive"]["leaf"]
    )
    assert totals["top_level_s"] == totals["inclusive"]["outer"]


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    totals = tracer_mod.Tracer().totals()
    metrics = tracer_mod.layer_metrics(totals, 1, 0.0, 0.0, {})
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: spec[0] for name, spec in tracer_mod.PER_LAYER.items()
    }


def test_declared_workloads_and_end_to_end_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only the benchmark's files: no result, non-zero exit."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2-hash-r6",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
