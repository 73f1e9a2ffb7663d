"""The four workloads: the paper's work units at fixed sizes.

Each workload makes all of its inputs from the run's seed, repeats one
unit of work with those same inputs, and checks the outputs against the
anchors of :mod:`anchors` once the timed phase is over.  Set-up does as
little as each unit needs: a fresh interpreter importing the modules the
workload uses (the program's import cost, which a later change could
grow), plus, for the two online workloads, one small model fit.
"""

from __future__ import annotations

import http.client
import json
import math
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

import anchors
from stats import percentile, tail_percentile

#: The paper's section 4 Gimli-Hash target, 6 rounds, 15-byte block.
HASH_ROUNDS = 6

#: Set-up model for the online workloads: MLP II, 1 epoch, 20k rows.
SETUP_FIT_SAMPLES = 20_000
SETUP_FIT_EPOCHS = 1
SETUP_BATCH = 256

#: ``table2-hash-r6`` unit: one Table 2 cell.
TABLE2_OFFLINE = 20_000
TABLE2_EPOCHS = 4
TABLE2_ONLINE = 8192

#: ``online-bulk-r6`` unit: the online phase against both oracles.
BULK_ROWS = 1 << 15

#: ``search-gimli-cipher-r8`` unit: one evolutionary search.
SEARCH_ROUNDS = 8
SEARCH_POPULATION = 64
SEARCH_GENERATIONS = 10
SEARCH_TOP_K = 4

#: ``serve-online-r6`` unit: one round in which each of the two
#: connections opens a session and feeds it this many 512-row requests.
SERVE_ROWS = 512
SERVE_REQUESTS = 32
#: Timed rounds continue past the run length until this many batch
#: requests were sent, so the tail percentile is the same in every run.
SERVE_MIN_REQUESTS = 400
SERVE_MODEL = "gimli-hash-r6"

#: Rows of each workload's own cipher inputs compared with the spec.
ANCHOR_ROWS = 8


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def import_probe(modules) -> None:
    """Import ``modules`` in a fresh interpreter (inherits PYTHONPATH)."""
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)], check=True
    )


def check_designer_vector() -> None:
    from repro.ciphers.gimli import gimli_permute_batch

    state = np.array(anchors.DESIGNER_INPUT, dtype=np.uint32)
    anchors.check_designer_vector(gimli_permute_batch(state))


def check_hash_pipeline(scenario, seed: int) -> None:
    """The scenario's pipeline on this run's inputs matches the spec."""
    inputs = scenario.sample_base_inputs(ANCHOR_ROWS, _rng(seed, 99))
    rows = np.concatenate(
        [inputs] + [scenario.apply_difference(inputs, i)
                    for i in range(scenario.num_classes)]
    )
    anchors.check_rows(
        scenario.pipeline(rows),
        [anchors.hash_block_spec(r, scenario.block_len, scenario.rounds)
         for r in rows],
        f"Gimli-Hash {scenario.rounds}-round pipeline",
    )


def check_cipher_pipeline(scenario, seed: int) -> None:
    generator = _rng(seed, 99)
    inputs = scenario.sample_base_inputs(ANCHOR_ROWS, generator)
    keys = scenario.sample_context(ANCHOR_ROWS, generator)
    rows = np.concatenate(
        [inputs] + [scenario.apply_difference(inputs, i)
                    for i in range(scenario.num_classes)]
    )
    keys = np.concatenate([keys] * (1 + scenario.num_classes))
    anchors.check_rows(
        scenario.pipeline(rows, keys),
        [anchors.cipher_c0_spec(n, k, scenario.total_rounds)
         for n, k in zip(rows, keys)],
        f"Gimli-Cipher {scenario.total_rounds}-round pipeline",
    )


def fit_setup_model(scenario, seed: int):
    from repro.core.distinguisher import MLDistinguisher
    from repro.nn.architectures import mlp_ii

    distinguisher = MLDistinguisher(
        scenario, model=mlp_ii(), epochs=SETUP_FIT_EPOCHS,
        batch_size=SETUP_BATCH, rng=seed,
    )
    distinguisher.train(SETUP_FIT_SAMPLES, significance=0.05)
    return distinguisher


class Workload:
    """One workload; the runner calls setup, run_unit, check, close."""

    name = ""
    #: operations attempted by one unit
    ops_per_unit = 1
    #: units a run makes even when the run length has passed
    min_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        #: the run's tracer while a traced unit runs, else ``None``
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self) -> float:
        """Run one unit; returns its busy time summed over its threads."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def trace(self, on: bool) -> None:
        """Switch tracing in processes the workload started."""

    def server_totals(self) -> dict:
        """Span totals gathered in processes the workload started."""
        return {}

    def warmed_up(self) -> None:
        """Called once the warm-up units are done."""

    def failed(self) -> int:
        return 0

    def layer_values(self) -> dict:
        """Per-layer metrics the workload measures itself."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def add_layers(self, tracer) -> None:
        """Spans around the program entry points the workload calls."""

    def close(self) -> None:
        pass


class Table2Hash(Workload):
    """``run_table2`` for the Gimli-Hash 6-round cell with MLP II."""

    name = "table2-hash-r6"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rows: List[dict] = []

    def setup(self):
        import_probe(["repro.experiments.table2"])

    def add_layers(self, tracer):
        from repro.experiments import table2

        tracer.add(table2, "run_table2", "jobs.run_table2")

    def run_unit(self):
        from repro.experiments import table2

        start = time.perf_counter()
        result = table2.run_table2(
            rounds=(HASH_ROUNDS,), targets=("hash",),
            offline_samples=TABLE2_OFFLINE, online_samples=TABLE2_ONLINE,
            epochs=TABLE2_EPOCHS, rng=self.seed,
        )
        self.rows.append(result["rows"][0])
        return time.perf_counter() - start

    def check(self):
        from repro.core.scenario import GimliHashScenario

        check_designer_vector()
        check_hash_pipeline(GimliHashScenario(rounds=HASH_ROUNDS), self.seed)
        check_table2_rows(self.rows, TABLE2_OFFLINE)


def check_table2_rows(rows: List[dict], offline_samples: int) -> None:
    """Table 2 cell rows: accurate, right verdicts, identical per seed."""
    row = rows[0]
    anchors.require(not row["aborted"], "the Table 2 cell aborted")
    total = (offline_samples // 2) * 2
    n_validation = total - int(round(total * 0.9))
    anchors.check_table2_accuracy(row["measured"], n_validation)
    anchors.check_verdicts(row["cipher_verdict"], row["random_verdict"])
    anchors.check_random_accuracy(row["random_accuracy"], row["online_samples"], 2)
    anchors.require(all(other == row for other in rows),
                    "repeated units of one seed gave different Table 2 rows")


class OnlineBulk(Workload):
    """``MLDistinguisher.test`` at bulk scale against both oracles."""

    name = "online-bulk-r6"
    ops_per_unit = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.results = []

    def setup(self):
        from repro.core.scenario import GimliHashScenario

        import_probe(["repro.core.distinguisher", "repro.nn.architectures"])
        self.scenario = GimliHashScenario(rounds=HASH_ROUNDS)
        self.distinguisher = fit_setup_model(self.scenario, self.seed)

    def run_unit(self):
        start = time.perf_counter()
        cipher = self.distinguisher.test(
            self.scenario.cipher_oracle(), BULK_ROWS, rng=_rng(self.seed, 1)
        )
        random = self.distinguisher.test(
            self.scenario.random_oracle(rng=_rng(self.seed, 2)), BULK_ROWS,
            rng=_rng(self.seed, 3),
        )
        self.results.append((cipher, random))
        return time.perf_counter() - start

    def check(self):
        check_designer_vector()
        check_hash_pipeline(self.scenario, self.seed)
        check_online_results(self.results)


def check_online_results(results) -> None:
    """Online phase outcomes: right verdicts, 1/t on random, repeatable."""
    cipher, random = results[0]
    anchors.check_verdicts(cipher.verdict, random.verdict)
    anchors.check_random_accuracy(random.accuracy, random.num_samples,
                                  random.num_classes)
    key = [(c.accuracy, r.accuracy) for c, r in results]
    anchors.require(len(set(key)) == 1,
                    "repeated units of one seed gave different accuracies")


class SearchGimliCipher(Workload):
    """``evolve_differences`` with the bias oracle on 8-round Gimli-Cipher."""

    name = "search-gimli-cipher-r8"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.results = []

    def setup(self):
        from repro.core.scenario import GimliCipherScenario
        from repro.search.evolve import SearchConfig

        import_probe(["repro.search.evolve", "repro.core.scenario"])
        self.scenario = GimliCipherScenario(total_rounds=SEARCH_ROUNDS)
        #: the whole 128-bit nonce is attacker-chosen
        self.allowed = np.full(4, 0xFFFFFFFF, dtype=np.uint32)
        self.config = SearchConfig(
            population_size=SEARCH_POPULATION, generations=SEARCH_GENERATIONS,
            top_k=SEARCH_TOP_K, seed=self.seed,
        )

    def add_layers(self, tracer):
        from repro.search import evolve

        tracer.add(evolve, "evolve_differences", "search.evolve")

    def run_unit(self):
        from repro.search import evolve
        from repro.search.oracle import BiasScoringOracle

        start = time.perf_counter()
        oracle = BiasScoringOracle(self.scenario, rng=self.seed)
        result = evolve.evolve_differences(
            oracle, self.config, allowed=self.allowed,
            seeds=list(self.scenario.difference_masks),
        )
        busy = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.note("search.fresh", count=oracle.evaluations)
        self.oracle = oracle
        self.results.append(result)
        return busy

    def check(self):
        check_designer_vector()
        check_cipher_pipeline(self.scenario, self.seed)
        result = self.results[0]
        paper = [self.oracle.score(m) for m in self.scenario.difference_masks]
        anchors.check_search(result.ranked_scores, result.ranked_masks,
                             self.allowed, paper, result.noise_floor)
        anchors.require(
            all(np.array_equal(r.ranked_masks, result.ranked_masks)
                and np.array_equal(r.ranked_scores, result.ranked_scores)
                for r in self.results),
            "repeated searches of one seed ranked different differences",
        )


class _Server:
    """The serving process, started from ``server.py``."""

    def __init__(self, here: Path, registry: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(here / "server.py"), str(registry)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.url = self.command(None)["url"]

    def command(self, line: Optional[str]) -> dict:
        if line is not None:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        while True:
            reply = self.proc.stdout.readline()
            if not reply:
                raise RuntimeError("the serving process exited")
            if reply.startswith("PERFBENCH "):
                return json.loads(reply[len("PERFBENCH "):])

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _encode(features: np.ndarray, labels: np.ndarray) -> bytes:
    """A ``/v1/distinguish`` body as the program's client would send it."""
    return json.dumps({
        "model": SERVE_MODEL,
        "features": features.tolist(),
        "labels": labels.tolist(),
    }).encode()


class ServeOnline(Workload):
    """The online phase over HTTP: two closed-loop sessions, one per oracle."""

    name = "serve-online-r6"
    ops_per_unit = 2 * (SERVE_REQUESTS + 1)
    min_units = math.ceil(SERVE_MIN_REQUESTS / (2 * SERVE_REQUESTS))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.server: Optional[_Server] = None
        self.conns: List[http.client.HTTPConnection] = []
        self.latencies: List[float] = []
        self.statuses: List[int] = []
        self.finals: List[dict] = []
        self._repetition = 0

    def setup(self):
        from repro.core.scenario import GimliHashScenario
        from repro.serve.registry import ModelRegistry

        self.close()
        self._repetition += 1
        self.scenario = GimliHashScenario(rounds=HASH_ROUNDS)
        distinguisher = fit_setup_model(self.scenario, self.seed)
        self.model = distinguisher.model
        registry = self.workdir / f"registry-{self._repetition}"
        ModelRegistry(str(registry)).register(
            self.model, SERVE_MODEL, scenario=self.scenario,
            report=distinguisher.report,
        )
        n_per_class = SERVE_REQUESTS * SERVE_ROWS // self.scenario.num_classes
        oracles = (
            self.scenario.cipher_oracle(),
            self.scenario.random_oracle(rng=_rng(self.seed, 2)),
        )
        self.inputs = []
        self.bodies = []
        for k, oracle in enumerate(oracles):
            x, y = self.scenario.generate_dataset(
                n_per_class, rng=_rng(self.seed, 10 + k), oracle=oracle
            )
            pairs = [(x[i:i + SERVE_ROWS], y[i:i + SERVE_ROWS])
                     for i in range(0, x.shape[0], SERVE_ROWS)]
            self.inputs.append(pairs)
            self.bodies.append([_encode(f, l) for f, l in pairs])
        self.open_body = json.dumps({
            "model": SERVE_MODEL,
            "target_samples": SERVE_REQUESTS * SERVE_ROWS,
        }).encode()
        self.server = _Server(Path(__file__).resolve().parent, registry)
        host, port = self.server.url[len("http://"):].split(":")
        self.conns = [http.client.HTTPConnection(host, int(port), timeout=60)
                      for _ in oracles]
        # The engine loads the model on its first request.
        for conn in self.conns:
            self._post(conn, self.open_body)

    def _post(self, conn, body: bytes, path: str = "/v1/distinguish"):
        start = time.perf_counter()
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        return response.status, json.loads(data), elapsed

    def _session(self, conn, bodies, out: dict) -> None:
        start = time.perf_counter()
        latencies, statuses, client_s = [], [], 0.0
        status, state, elapsed = self._post(conn, self.open_body)
        statuses.append(status)
        client_s += elapsed
        prefix = b'{"session": ' + json.dumps(state.get("session")).encode() + b", "
        for body in bodies:
            status, state, elapsed = self._post(conn, prefix + body[1:])
            statuses.append(status)
            latencies.append(elapsed)
            client_s += elapsed
        out.update(wall=time.perf_counter() - start, latencies=latencies,
                   statuses=statuses, client_s=client_s, final=state)

    def run_unit(self):
        outs = [{} for _ in self.conns]
        threads = [
            threading.Thread(target=self._session, args=(conn, bodies, out))
            for conn, bodies, out in zip(self.conns, self.bodies, outs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy = 0.0
        for out in outs:
            if self.tracer is None:
                self.latencies.extend(out["latencies"])
            self.statuses.extend(out["statuses"])
            busy += out["wall"]
            if self.tracer is not None:
                self.tracer.note("serve.client", out["client_s"], top_level=True)
        self.finals.append([out["final"] for out in outs])
        return busy

    def warmed_up(self):
        self.latencies.clear()

    def trace(self, on):
        if on:
            self._snapshot = self._batch_counts()
            self.server.command("trace on")
        else:
            self.server.command("trace off")
            rows, batches = self._batch_counts()
            self.tracer.note("serve.rows", count=rows - self._snapshot[0])
            self.tracer.note("serve.batches", count=batches - self._snapshot[1])

    def _batch_counts(self):
        conn = self.conns[0]
        conn.request("GET", "/v1/metrics")
        snapshot = json.loads(conn.getresponse().read())
        batches = snapshot["batches"]["count"]
        return snapshot["batches"]["mean_size"] * batches, batches

    def server_totals(self) -> dict:
        return self.server.command("stats")

    def failed(self):
        return sum(1 for status in self.statuses if status != 200)

    def check(self):
        check_designer_vector()
        check_hash_pipeline(self.scenario, self.seed)
        anchors.require(self.failed() == 0,
                        f"{self.failed()} requests did not return 200")
        # Local reference: the same model, the same request rows.
        expected = []
        for pairs in self.inputs:
            correct = sum(
                int((self.model.predict_proba(f).argmax(axis=1) == l).sum())
                for f, l in pairs
            )
            expected.append(correct)
        for finals in self.finals:
            cipher, random = finals
            check_session_states(cipher, random, expected,
                                 SERVE_REQUESTS * SERVE_ROWS)
        for k, pairs in enumerate(self.inputs):
            features = pairs[len(pairs) // 2][0]
            status, reply, _ = self._post(
                self.conns[k],
                json.dumps({"model": SERVE_MODEL,
                            "features": features.tolist()}).encode(),
                path="/v1/classify",
            )
            anchors.require(status == 200, f"/v1/classify returned {status}")
            check_probabilities(reply["probabilities"],
                                self.model.predict_proba(features))

    def layer_values(self):
        """Request latency over the untraced rounds, printed in every run.

        The tail percentile is the tail rule's for the 400 requests every
        run times, so it is the same in every run (p95).  A traced run
        times half its rounds untraced, so its tail rests on fewer
        requests (at least 256).
        """
        p = tail_percentile(SERVE_MIN_REQUESTS)
        p50 = percentile(self.latencies, 50.0)
        tail = percentile(self.latencies, p)
        beyond = sum(1 for v in self.latencies if v > tail)
        print(f"requests: p50 {p50 * 1e3:.2f} ms, p{p:g} {tail * 1e3:.2f} ms "
              f"({len(self.latencies)} requests, {beyond} beyond p{p:g})",
              file=sys.stderr)
        return {"serve.request_p50_ms": p50 * 1e3,
                "serve.request_tail_ms": tail * 1e3}

    def peak_rss_mb(self):
        # The serving process is the program here; it has been waited for.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.server is not None:
            self.server.stop()
            self.server = None


def check_session_states(cipher: dict, random: dict, expected_correct,
                         samples: int) -> None:
    """Served sessions: full budget, right verdicts, local predictions."""
    for state in (cipher, random):
        anchors.require(state["done"] and state["samples"] == samples,
                        f"a session ended at {state['samples']} of {samples} rows")
    anchors.check_verdicts(cipher["verdict"], random["verdict"])
    anchors.check_random_accuracy(random["accuracy"], random["samples"],
                                  random["num_classes"])
    anchors.require(
        [cipher["correct"], random["correct"]] == list(expected_correct),
        f"served correct counts {[cipher['correct'], random['correct']]} "
        f"differ from local predict_proba's {list(expected_correct)}",
    )


def check_probabilities(served, local: np.ndarray) -> None:
    """Served probabilities equal a local ``predict_proba`` bit for bit."""
    served = np.asarray(served, dtype=np.float64)
    anchors.require(
        served.shape == local.shape
        and served.tobytes() == np.asarray(local, dtype=np.float64).tobytes(),
        "served probabilities differ from local predict_proba",
    )


WORKLOADS = {
    cls.name: cls for cls in (Table2Hash, OnlineBulk, SearchGimliCipher, ServeOnline)
}
