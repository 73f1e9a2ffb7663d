"""Layer timings taken from outside the program.

The benchmark never edits ``src/``: :class:`Tracer` swaps wrappers in
for public functions and methods of ``repro`` for the duration of a
traced unit and swaps the originals back afterwards.  A wrapper records
a span: wall time, call count, and the time its traced callees took,
kept on a per-thread stack so that a layer's *self* time (its span
minus the spans beneath it) is known.  Untraced units run the
unpatched program.

A module-level function is wrapped where its caller looks it up (the
scenario pipelines call the cipher kernels through
``repro.core.scenario``'s globals), a method on its class.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Per-layer span totals gathered by patched-in wrappers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._specs: List[Tuple[object, str, str, Optional[Callable]]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: time covered by spans with no traced caller, over all threads
        self.top_level_s = 0.0

    def add(self, owner, attr: str, layer: str,
            count: Optional[Callable] = None) -> None:
        """Trace ``owner.attr`` as ``layer``.

        ``count(args, result)`` returns the work one call did (rows,
        candidates), summed into :attr:`counts`.
        """
        self._specs.append((owner, attr, layer, count))

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, layer, count in self._specs:
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            setattr(owner, attr, self._wrap(original, layer, count))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def note(self, layer: str, seconds: float = 0.0, count: float = 0.0,
             top_level: bool = False) -> None:
        """Record a span measured by the benchmark itself."""
        with self._lock:
            self.inclusive[layer] += seconds
            self.self_s[layer] += seconds
            self.calls[layer] += 1
            self.counts[layer] += count
            if top_level:
                self.top_level_s += seconds

    def totals(self) -> dict:
        with self._lock:
            return {
                "inclusive": dict(self.inclusive),
                "self": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "top_level_s": self.top_level_s,
            }

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, layer: str, count: Optional[Callable]):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.inclusive[layer] += elapsed
                    tracer.self_s[layer] += elapsed - children
                    tracer.calls[layer] += 1
                    if not stack:
                        tracer.top_level_s += elapsed
            if count is not None:
                work = count(args, result)
                with tracer._lock:
                    tracer.counts[layer] += work
            return result

        return wrapper


def _rows(index: int):
    return lambda args, result: int(args[index].shape[0])


def add_program_layers(tracer: Tracer) -> None:
    """The spans of the benchmark's own process."""
    from repro.core import scenario
    from repro.core.distinguisher import MLDistinguisher
    from repro.core.oracle import RandomOracle
    from repro.nn.layers import Dense, ReLU, Softmax
    from repro.nn.losses import CategoricalCrossentropy
    from repro.nn.model import Sequential
    from repro.nn.optimizers import Adam
    from repro.search.oracle import BiasScoringOracle

    tracer.add(scenario, "absorb_final_block_batch", "ciphers.pipeline", _rows(0))
    tracer.add(scenario, "gimli_aead_reduced_c0_batch", "ciphers.pipeline", _rows(0))
    tracer.add(scenario.DifferentialScenario, "generate_dataset",
               "core.generate_dataset")
    tracer.add(RandomOracle, "query", "core.random_oracle", _rows(1))
    tracer.add(MLDistinguisher, "train", "core.distinguisher")
    tracer.add(MLDistinguisher, "test", "core.distinguisher")
    tracer.add(Sequential, "fit", "nn.fit")
    tracer.add(Sequential, "evaluate", "nn.evaluate")
    tracer.add(Sequential, "predict_proba", "nn.predict", _rows(1))
    tracer.add(Dense, "forward", "nn.dense_forward")
    tracer.add(Dense, "backward", "nn.dense_backward")
    for activation in (ReLU, Softmax):
        tracer.add(activation, "forward", "nn.activation")
        tracer.add(activation, "backward", "nn.activation")
    tracer.add(CategoricalCrossentropy, "value", "nn.loss")
    tracer.add(CategoricalCrossentropy, "__call__", "nn.loss")
    tracer.add(Adam, "update", "nn.optimizer")
    tracer.add(BiasScoringOracle, "score_batch", "search.score",
               lambda args, result: int(len(result)))


def add_server_layers(tracer: Tracer) -> None:
    """The spans of the serving process."""
    from repro.nn.model import Sequential
    from repro.serve.engine import MicroBatchEngine
    from repro.serve.http import ServeService
    from repro.serve.sessions import OnlineSession, SessionStore

    tracer.add(ServeService, "distinguish", "serve.handler")
    tracer.add(MicroBatchEngine, "classify", "serve.engine")
    tracer.add(Sequential, "predict_proba", "serve.predict", _rows(1))
    tracer.add(OnlineSession, "update", "serve.session")
    tracer.add(SessionStore, "create", "serve.session")


#: Per-layer metrics: name -> (unit, how it is read from the totals).
#: ``incl``/``self`` read a layer's time per traced unit; ``count`` its
#: work per unit.  Self time excludes the traced layers beneath it.
PER_LAYER = {
    "ciphers.pipeline_s": ("s", "incl", "ciphers.pipeline"),
    "ciphers.rows": ("count", "count", "ciphers.pipeline"),
    "core.generate_dataset_s": ("s", "self", "core.generate_dataset"),
    "core.random_oracle_s": ("s", "incl", "core.random_oracle"),
    "core.distinguisher_s": ("s", "self", "core.distinguisher"),
    "nn.fit_s": ("s", "incl", "nn.fit"),
    "nn.fit_other_s": ("s", "self", "nn.fit"),
    "nn.dense_forward_s": ("s", "incl", "nn.dense_forward"),
    "nn.dense_backward_s": ("s", "incl", "nn.dense_backward"),
    "nn.activation_s": ("s", "incl", "nn.activation"),
    "nn.loss_s": ("s", "incl", "nn.loss"),
    "nn.optimizer_s": ("s", "incl", "nn.optimizer"),
    "nn.evaluate_s": ("s", "incl", "nn.evaluate"),
    "nn.predict_s": ("s", "incl", "nn.predict"),
    "nn.predict_rows_per_s": ("1/s", "rate", "nn.predict"),
    "search.score_s": ("s", "incl", "search.score"),
    "search.evaluations": ("count", "count", "search.fresh"),
    "search.fresh_ratio": ("ratio", "ratio", ("search.fresh", "search.score")),
    "search.evolve_other_s": ("s", "self", "search.evolve"),
    "serve.client_s": ("s", "incl", "serve.client"),
    "serve.handler_s": ("s", "incl", "serve.handler"),
    "serve.engine_s": ("s", "incl", "serve.engine"),
    "serve.predict_s": ("s", "incl", "serve.predict"),
    "serve.session_s": ("s", "incl", "serve.session"),
    "serve.wire_s": ("s", "diff", ("serve.client", "serve.handler")),
    "serve.batch_rows_mean": ("rows", "ratio", ("serve.rows", "serve.batches")),
    "serve.request_p50_ms": ("ms", "workload", None),
    "serve.request_tail_ms": ("ms", "workload", None),
    "jobs.overhead_s": ("s", "self", "jobs.run_table2"),
    "unattributed_s": ("s", "unattributed", None),
    "trace.overhead_pct": ("%", "overhead", None),
}


def merge(totals: dict, other: dict) -> dict:
    """Add the span totals of another process (the server) into ``totals``."""
    merged = {key: dict(totals[key]) for key in ("inclusive", "self", "calls", "counts")}
    for key in merged:
        for layer, value in other.get(key, {}).items():
            merged[key][layer] = merged[key].get(layer, 0) + value
    merged["top_level_s"] = totals["top_level_s"]
    return merged


def layer_metrics(totals: dict, units: int, busy_s: float,
                  overhead_pct: float, measured: dict) -> Dict[str, float]:
    """Every per-layer metric, per traced unit.

    ``busy_s`` is the wall time of the traced units summed over the
    threads that ran them; what no top-level span covers is
    ``unattributed_s``.  ``measured`` holds the metrics the workload
    measured itself (0 where it has none).
    """
    units = max(units, 1)
    inclusive, self_s, counts = totals["inclusive"], totals["self"], totals["counts"]
    out = {}
    for name, (_, kind, source) in PER_LAYER.items():
        if kind == "incl":
            value = inclusive.get(source, 0.0) / units
        elif kind == "self":
            value = self_s.get(source, 0.0) / units
        elif kind == "count":
            value = counts.get(source, 0.0) / units
        elif kind == "rate":
            seconds = inclusive.get(source, 0.0)
            value = counts.get(source, 0.0) / seconds if seconds else 0.0
        elif kind == "ratio":
            num, den = source
            den_value = counts.get(den, 0.0)
            value = counts.get(num, 0.0) / den_value if den_value else 0.0
        elif kind == "diff":
            a, b = source
            value = (inclusive.get(a, 0.0) - inclusive.get(b, 0.0)) / units
        elif kind == "unattributed":
            value = (busy_s - totals["top_level_s"]) / units
        elif kind == "workload":
            value = measured.get(name, 0.0)
        else:
            value = overhead_pct
        out[name] = value
    return out


def format_table(workload: str, totals: dict, units: int, busy_s: float,
                 metrics: Dict[str, float]) -> str:
    """Human-readable per-span table plus the per-layer metrics."""
    units = max(units, 1)
    lines = [
        f"# {workload}: per traced unit ({units} traced units)",
        f"{'span':<24}{'calls':>10}{'incl_s':>12}{'self_s':>12}{'count':>14}",
    ]
    layers = sorted(totals["inclusive"], key=lambda k: -totals["self"].get(k, 0.0))
    for layer in layers:
        lines.append(
            f"{layer:<24}{totals['calls'].get(layer, 0) / units:>10.1f}"
            f"{totals['inclusive'][layer] / units:>12.4f}"
            f"{totals['self'].get(layer, 0.0) / units:>12.4f}"
            f"{totals['counts'].get(layer, 0.0) / units:>14.1f}"
        )
    lines.append(f"{'(unattributed)':<24}{'':>10}{'':>12}"
                 f"{metrics['unattributed_s']:>12.4f}")
    lines.append(f"{'(busy wall)':<24}{'':>10}{busy_s / units:>12.4f}")
    lines.append(f"trace overhead: {metrics['trace.overhead_pct']:+.2f}% "
                 "(median traced unit vs median untraced unit)")
    for name, value in metrics.items():
        lines.append(f"  {name:<26} {value:.6g} {PER_LAYER[name][0]}")
    return "\n".join(lines)
