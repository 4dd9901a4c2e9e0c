"""Client side of the three benchmark workloads.

Each workload class takes the seeded inputs of :mod:`inputs` and offers:

* ``warm_up(port)`` — the first requests against a fresh server, each
  checked correct.  Lazy set-up (the corpus workspace, the top-k
  autotuner, first-touch of every code path) is paid here, inside
  ``setup_s``, not inside the timed window;
* ``measure(port, seconds, probe)`` — the timed window.  ``probe.traced()``
  says whether span recording is on when an op starts, so the traced run
  can compare traced and untraced ops;
* ``verify()`` — the correctness checks, run after the window, by name;
* ``metrics()`` — the end-to-end metrics plus the workload's own figures.

Every op is recorded as an :class:`Op`; a failed op (timeout, transport
error, typed :class:`~repro.serving.ServingError`) is counted and its
latency is taken as :data:`REQUEST_TIMEOUT_S`, so it misses any limit.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.database import Budget, FeatureCollection, RetrievalEngine
from repro.evaluation.simulated_user import CategoryJudge
from repro.feedback.engine import FeedbackEngine
from repro.serving import ConnectionClosed, PooledServingClient, ProtocolError, ServingClient, ServingError
from repro.serving.server import ServerConfig

from inputs import AUTOCOMPACT_DELTA_ROWS, LIVE_K, LOOP_K, MAX_ITERATIONS, SEARCH_K, labels_array

HOST = "127.0.0.1"

#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0

#: Failures a request can end in; each is counted, none stops the run.
REQUEST_ERRORS = (ServingError, ProtocolError, ConnectionClosed, OSError)


@dataclass
class Op:
    """One timed operation: when it was due, sent and answered."""

    kind: str
    due: float
    sent: float
    end: float
    ok: bool
    traced: bool
    payload: object = None

    @property
    def latency(self) -> float:
        return self.end - self.due if self.ok else REQUEST_TIMEOUT_S


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e3


def same_result(served, expected) -> bool:
    """Byte identity of two result pages: ids and distances."""
    return bool(
        np.array_equal(served.indices(), expected.indices())
        and served.distances().tobytes() == expected.distances().tobytes()
    )


def precision_of(indices, labels, label) -> float:
    indices = np.asarray(indices)
    if indices.size == 0:
        return 0.0
    return float(np.mean(labels[indices] == label))


def run_for(seconds: float, workers) -> None:
    """Run ``workers`` (callables taking the deadline) on threads and join them."""
    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(target=worker, args=(deadline,)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------- #
# search-open
# ---------------------------------------------------------------------- #
class SearchOpen:
    """Open loop: one-shot k-NN searches on a Poisson schedule.

    The offered rate climbs a fixed ladder, and the window runs the ladder
    in several short cycles so that a burst of outside load on the box
    spoils one cycle rather than one rung: each end-to-end figure is the
    median over cycles.  Two client threads share two pooled binary-codec
    connections; a request that finds both busy waits client-side, and its
    latency still runs from when it was due.  Arrivals still unsent when a
    rung ends are shed by the generator (counted, never sent), so an
    overloaded rung cannot run past its slot.
    """

    #: Offered rates (requests/s).  ``NOMINAL`` is where p50/p90 are read;
    #: the last rung is far above capacity and measures it.
    LADDER = (100, 200, 400, 800, 6400)
    NOMINAL = 200
    #: Share of a cycle each rung gets (nominal and capacity rungs longest).
    SHARES = (0.1, 0.4, 0.1, 0.1, 0.3)
    CYCLE_S = 2.0
    #: p99 limit of a rung that counts towards ``max_rate_qps``.
    LIMIT_MS = 10.0
    CLIENTS = 2
    WARMUP_REQUESTS = 64

    def __init__(self, inputs: dict, seed: int) -> None:
        self.vectors = inputs["vectors"]
        self.labels = inputs["labels"]
        self.queries = self.vectors[inputs["query_rows"]]
        self.query_labels = self.labels[inputs["query_rows"]]
        self.reference = RetrievalEngine(FeatureCollection(self.vectors))
        self.rng = np.random.default_rng([seed, 3])
        self.warmup_queries = self.queries[-self.WARMUP_REQUESTS:]
        self.warmup_expected = self.reference.search_batch(self.warmup_queries, SEARCH_K)
        self.ops: "list[Op]" = []
        self.per_cycle: "dict[str, list[float]]" = {}
        self.rungs: "list[dict]" = []
        self.pool: "PooledServingClient | None" = None

    def warm_up(self, port: int) -> bool:
        ok = True
        with ServingClient(HOST, port, timeout=REQUEST_TIMEOUT_S) as client:
            for query, expected in zip(self.warmup_queries, self.warmup_expected):
                ok = same_result(client.search(query, SEARCH_K), expected) and ok
        return ok

    def measure(self, port: int, seconds: float, probe) -> None:
        pool = PooledServingClient(
            HOST, port, max_connections=self.CLIENTS, request_timeout=REQUEST_TIMEOUT_S
        )
        self.pool = pool
        search = probe.wrap_request("client.search", pool.search)
        cycles = max(1, round(seconds / self.CYCLE_S))
        try:
            with pool.lease() as first, pool.lease() as second:
                first.ping()
                second.ping()
            for _ in range(cycles):
                for rate, share in zip(self.LADDER, self.SHARES):
                    self.rungs.append(self._rung(search, rate, share * seconds / cycles, probe))
        finally:
            pool.close()

    def _rung(self, search, rate: float, duration: float, probe) -> dict:
        start = time.perf_counter() + 0.005
        stop = start + duration
        gaps = self.rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
        arrivals = start + np.cumsum(gaps)
        arrivals = arrivals[arrivals < stop]
        first_query = len(self.ops)
        lock = threading.Lock()
        state = {"next": 0, "shed": 0}
        ops: "list[Op]" = []
        lateness: "list[float]" = []

        def client(_deadline) -> None:
            free_at = start
            while True:
                with lock:
                    position = state["next"]
                    state["next"] += 1
                if position >= arrivals.shape[0]:
                    return
                due = float(arrivals[position])
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                sent = time.perf_counter()
                if sent >= stop:
                    with lock:
                        state["shed"] += 1
                    continue
                lateness.append(sent - max(due, free_at))
                query_index = (first_query + position) % self.queries.shape[0]
                traced = probe.traced()
                try:
                    result = search(self.queries[query_index], SEARCH_K)
                    ok = True
                except REQUEST_ERRORS:
                    result, ok = None, False
                end = time.perf_counter()
                free_at = end
                ops.append(Op("search", due, sent, end, ok, traced, (query_index, result)))

        run_for(duration, [client] * self.CLIENTS)
        ops.sort(key=lambda op: op.due)
        self.ops.extend(ops)
        return {
            "rate": rate,
            "ops": ops,
            "shed": state["shed"],
            "throughput": sum(op.ok and op.end <= stop for op in ops) / duration,
            "lateness": lateness,
            "backlog_ms": (ops[-1].sent - ops[-1].due) * 1e3 if ops else 0.0,
        }

    def verify(self) -> "dict[str, bool]":
        served = [op for op in self.ops if op.ok]
        rows = np.array([op.payload[0] for op in served], dtype=np.intp)
        expected = self.reference.search_batch(self.queries[rows], SEARCH_K) if rows.size else []
        identical = all(
            same_result(op.payload[1], reference) for op, reference in zip(served, expected)
        )
        return {"served_equals_in_process_search_batch": identical}

    def _per_rate(self) -> "list[dict]":
        """Each rung's figures pooled over the cycles, in ladder order."""
        table = []
        for rate in self.LADDER:
            rungs = [rung for rung in self.rungs if rung["rate"] == rate]
            ops = [op for rung in rungs for op in rung["ops"]]
            latencies = [op.latency for op in ops] or [float("nan")]
            lateness = [late for rung in rungs for late in rung["lateness"]]
            table.append(
                {
                    "rate": rate,
                    "sent": len(ops),
                    "shed": sum(rung["shed"] for rung in rungs),
                    "throughput": statistics.median(rung["throughput"] for rung in rungs),
                    "p50_ms": percentile_ms(latencies, 50),
                    "p99_ms": percentile_ms(latencies, 99),
                    "late_p99_ms": percentile_ms(lateness, 99) if lateness else 0.0,
                    "backlog_ms": max(rung["backlog_ms"] for rung in rungs),
                }
            )
        return table

    def metrics(self) -> "tuple[dict, dict]":
        nominal = [rung for rung in self.rungs if rung["rate"] == self.NOMINAL]
        saturated = [rung for rung in self.rungs if rung["rate"] == self.LADDER[-1]]

        def at_nominal(q: float) -> "list[float]":
            return [percentile_ms([op.latency for op in rung["ops"]], q) for rung in nominal]

        table = self._per_rate()
        passing = [
            row["rate"]
            for row in table
            if row["shed"] == 0 and row["p99_ms"] <= self.LIMIT_MS and row["backlog_ms"] <= self.LIMIT_MS
        ]
        served = [op for op in self.ops if op.ok]
        precision = np.mean(
            [precision_of(op.payload[1].indices(), self.labels, self.query_labels[op.payload[0]])
             for op in served]
        ) if served else 0.0
        self.per_cycle = {
            "p50_ms": at_nominal(50),
            "p90_ms": at_nominal(90),
            "ops_per_s": [rung["throughput"] for rung in saturated],
        }
        end_to_end = {name: statistics.median(values) for name, values in self.per_cycle.items()}
        end_to_end["first_page.precision"] = float(precision)
        nominal_row = table[self.LADDER.index(self.NOMINAL)]
        named = {
            "search.p50_ms": (end_to_end["p50_ms"], "ms"),
            "search.p90_ms": (end_to_end["p90_ms"], "ms"),
            "search.p99_ms": (nominal_row["p99_ms"], "ms"),
            "search.max_rate_qps": (float(max(passing)) if passing else 0.0, "1/s"),
            "search.capacity_qps": (end_to_end["ops_per_s"], "1/s"),
            "search.generator_late_p99_ms": (max(row["late_p99_ms"] for row in table), "ms"),
            "search.nominal_samples": (nominal_row["sent"], "count"),
        }
        return end_to_end, named

    def rung_lines(self) -> "list[str]":
        lines = ["rate/s  sent  shed  done/s   p50_ms   p99_ms  late_p99_ms  backlog_ms"]
        for row in self._per_rate():
            lines.append(
                f"{row['rate']:6d} {row['sent']:5d} {row['shed']:5d} {row['throughput']:7.1f} "
                f"{row['p50_ms']:8.3f} {row['p99_ms']:8.3f} {row['late_p99_ms']:12.3f} "
                f"{row['backlog_ms']:11.3f}"
            )
        return lines

    def layer_counts(self) -> dict:
        stats = self.pool.stats() if self.pool is not None else {}
        return {"serving.pool.retries": float(stats.get("retries", 0))}


# ---------------------------------------------------------------------- #
# feedback-sessions
# ---------------------------------------------------------------------- #
class FeedbackSessions:
    """Closed loop: two simulated users run the paper's interactive cycle.

    Each op is ``bypass_mopt`` followed by a served ``feedback_loop`` that
    starts from the prediction, with the category judge shipped to the
    server; the retired loop trains the shared tree.  Queries come in order
    from a repeated-query stream, so the tree sees recurring regions.
    """

    CLIENTS = 2

    def __init__(self, inputs: dict, seed: int) -> None:
        self.vectors = inputs["vectors"]
        self.labels = inputs["labels"]
        self.stream = inputs["query_rows"]
        shared_labels = labels_array(self.labels)
        self.judges = {
            category: CategoryJudge(labels=shared_labels, category=str(category))
            for category in np.unique(self.labels)
        }
        config = ServerConfig(bypass=True, max_iterations=MAX_ITERATIONS)
        self.reference = FeedbackEngine(
            RetrievalEngine(FeatureCollection(self.vectors)),
            reweighting_rule=config.reweighting_rule,
            move_query_point=config.move_query_point,
            max_iterations=config.max_iterations,
            variance_floor=config.variance_floor,
        )
        # The warm-up loop uses the pool's last query, which no window reaches.
        self.warmup_row = int(self.stream[-1])
        self.ops: "list[Op]" = []
        self.per_cycle: "dict[str, list[float]]" = {}
        self.consumed = 0

    def _judge(self, row: int) -> CategoryJudge:
        return self.judges[self.labels[row]]

    def _cycle(self, client, row: int):
        point = self.vectors[row]
        prediction = client.bypass_mopt(point)
        loop = client.run_feedback_loop(
            point,
            LOOP_K,
            self._judge(row),
            initial_delta=prediction.delta,
            initial_weights=prediction.weights,
        )
        return prediction, loop

    def _reference_loop(self, row: int, prediction):
        return self.reference.run_loop(
            self.vectors[row],
            LOOP_K,
            self._judge(row),
            initial_delta=prediction.delta,
            initial_weights=prediction.weights,
        )

    def warm_up(self, port: int) -> bool:
        with ServingClient(HOST, port, timeout=REQUEST_TIMEOUT_S) as client:
            prediction, loop = self._cycle(client, self.warmup_row)
        return loop.identical_to(self._reference_loop(self.warmup_row, prediction))

    def measure(self, port: int, seconds: float, probe) -> None:
        lock = threading.Lock()
        cursor = [0]
        clients = [ServingClient(HOST, port, timeout=REQUEST_TIMEOUT_S) for _ in range(self.CLIENTS)]
        cycle = probe.wrap_request("client.feedback_cycle", self._cycle)

        def user(client):
            def run(deadline: float) -> None:
                while time.perf_counter() < deadline:
                    with lock:
                        position = cursor[0]
                        cursor[0] += 1
                    row = int(self.stream[position])
                    traced = probe.traced()
                    start = time.perf_counter()
                    try:
                        payload = (row, *cycle(client, row))
                        ok = True
                    except REQUEST_ERRORS:
                        payload, ok = (row, None, None), False
                    end = time.perf_counter()
                    with lock:
                        self.ops.append(Op("loop", start, start, end, ok, traced, payload))

            return run

        try:
            for client in clients:
                client.ping()
            self.started = time.perf_counter()
            run_for(seconds, [user(client) for client in clients])
            self.window = time.perf_counter() - self.started
        finally:
            for client in clients:
                client.close()
        self.consumed = cursor[0]

    def verify(self) -> "dict[str, bool]":
        identical = all(
            op.payload[2].identical_to(self._reference_loop(op.payload[0], op.payload[1]))
            for op in self.ops
            if op.ok
        )
        return {"loops_equal_in_process_run_loop": identical}

    def repeat_share(self) -> float:
        rows = self.stream[: self.consumed]
        seen: "set[int]" = set()
        repeats = 0
        for row in rows:
            repeats += int(row) in seen
            seen.add(int(row))
        return repeats / max(1, len(rows))

    def metrics(self) -> "tuple[dict, dict]":
        latencies = [op.latency for op in self.ops]
        served = [op for op in self.ops if op.ok]
        precision = np.mean(
            [precision_of(op.payload[2].initial_results.indices(), self.labels,
                          self.labels[op.payload[0]]) for op in served]
        ) if served else 0.0
        iterations = self.mean_iterations()
        end_to_end = {
            "p50_ms": percentile_ms(latencies, 50),
            "p90_ms": percentile_ms(latencies, 90),
            "ops_per_s": len(served) / self.window,
            "first_page.precision": float(precision),
        }
        named = {
            "loop.p50_ms": (end_to_end["p50_ms"], "ms"),
            "loop.p90_ms": (end_to_end["p90_ms"], "ms"),
            "loop.p95_ms": (percentile_ms(latencies, 95), "ms"),
            "loops_per_s": (end_to_end["ops_per_s"], "1/s"),
            "loop.iterations_mean": (iterations, "rounds"),
            "first_page.precision": (end_to_end["first_page.precision"], "ratio"),
            "workload.repeat_share": (self.repeat_share(), "ratio"),
            "loop.samples": (len(latencies), "count"),
        }
        return end_to_end, named

    def rung_lines(self) -> "list[str]":
        return []

    def mean_iterations(self) -> float:
        """Feedback rounds per served loop."""
        served = [op for op in self.ops if op.ok]
        return float(np.mean([op.payload[2].iterations for op in served])) if served else 0.0

    def layer_counts(self) -> dict:
        return {"feedback.engine.iterations": self.mean_iterations()}


# ---------------------------------------------------------------------- #
# live-mixed
# ---------------------------------------------------------------------- #
class LiveMixed:
    """Closed loop on one connection: reads interleaved with writes.

    A fixed op pattern (:data:`PATTERN`: ``R`` read, ``I`` insert of
    :data:`INSERT_ROWS` in-distribution rows, ``D`` delete of
    :data:`DELETE_IDS` alive ids) runs against a live corpus whose base
    segment has a VP-tree; the server compacts in the background.  Every
    :data:`CHECK_EVERY`-th read is a checkpoint, verified afterwards against
    a frozen rebuild of the rows alive at that moment.

    The server folds the delta each time :data:`CYCLE_OPS` ops have inserted
    ``AUTOCOMPACT_DELTA_ROWS`` rows, so the timings are taken over whole
    such cycles, each starting at the insert that triggers a fold: the
    measured ops hold exactly one fold per cycle, however the window
    happens to cut them.
    """

    PATTERN = "RRRRIRRRRD"
    INSERT_ROWS = 16
    DELETE_IDS = 4
    CHECK_EVERY = 25
    WARMUP_READS = 16
    ROWS_EVALUATED_SAMPLES = 16
    CYCLE_OPS = len(PATTERN) * AUTOCOMPACT_DELTA_ROWS // INSERT_ROWS

    def __init__(self, inputs: dict, seed: int) -> None:
        self.vectors = inputs["vectors"]
        self.n_base = self.vectors.shape[0]
        self.queries = inputs["queries"]
        self.query_labels = inputs["query_labels"]
        self.inserts = inputs["inserts"]
        self.delete_draws = inputs["delete_draws"]
        self.archive = np.vstack([self.vectors, self.inserts])
        self.labels = np.concatenate([inputs["labels"], inputs["insert_labels"]])
        frozen = RetrievalEngine(FeatureCollection(self.vectors))
        self.warmup_queries = self.queries[-self.WARMUP_READS:]
        self.warmup_expected = frozen.search_batch(self.warmup_queries, LIVE_K)
        self.ops: "list[Op]" = []
        self.per_cycle: "dict[str, list[float]]" = {}
        self.checkpoints: "list[tuple]" = []
        self.ids_as_expected = True
        self.rows_evaluated = 0.0

    def warm_up(self, port: int) -> bool:
        ok = True
        with ServingClient(HOST, port, timeout=REQUEST_TIMEOUT_S) as client:
            for query, expected in zip(self.warmup_queries, self.warmup_expected):
                ok = same_result(client.search(query, LIVE_K), expected) and ok
        return ok

    def measure(self, port: int, seconds: float, probe) -> None:
        alive = np.zeros(self.archive.shape[0], dtype=bool)
        alive[: self.n_base] = True
        inserted = 0
        draws = 0
        reads = 0
        with ServingClient(HOST, port, timeout=REQUEST_TIMEOUT_S) as client:
            search = probe.wrap_request("client.search", client.search)
            insert = probe.wrap_request("client.insert", client.insert)
            delete = probe.wrap_request("client.delete", client.delete)
            client.ping()
            deadline = time.perf_counter() + seconds
            step = 0
            while time.perf_counter() < deadline:
                kind = self.PATTERN[step % len(self.PATTERN)]
                step += 1
                traced = probe.traced()
                start = time.perf_counter()
                try:
                    if kind == "R":
                        query_index = reads % self.queries.shape[0]
                        result = search(self.queries[query_index], LIVE_K)
                        payload = (query_index, result)
                        reads += 1
                    elif kind == "I":
                        rows = self.inserts[inserted : inserted + self.INSERT_ROWS]
                        ids = insert(rows)
                        expected = np.arange(self.n_base + inserted, self.n_base + inserted + len(rows))
                        self.ids_as_expected = self.ids_as_expected and np.array_equal(ids, expected)
                        alive[expected] = True
                        inserted += len(rows)
                        payload = ids
                    else:
                        candidates = np.flatnonzero(alive)
                        picks = self.delete_draws[draws : draws + self.DELETE_IDS]
                        draws += self.DELETE_IDS
                        victims = np.unique(candidates[(picks * candidates.shape[0]).astype(np.intp)])
                        delete(victims)
                        alive[victims] = False
                        payload = victims
                    ok = True
                except REQUEST_ERRORS:
                    payload, ok = None, False
                end = time.perf_counter()
                self.ops.append(Op("read" if kind == "R" else "write", start, start, end, ok, traced, payload))
                if ok and kind == "R" and reads % self.CHECK_EVERY == 0:
                    self.checkpoints.append((payload[0], payload[1], np.flatnonzero(alive)))
            if probe.tracing:
                samples = [
                    client.search(query, LIVE_K, budget=Budget(max_rows=2**62))[1].rows_scanned
                    for query in self.queries[: self.ROWS_EVALUATED_SAMPLES]
                ]
                self.rows_evaluated = float(np.mean(samples))

    def verify(self) -> "dict[str, bool]":
        identical = True
        for query_index, served, alive_ids in self.checkpoints:
            frozen = RetrievalEngine(FeatureCollection(self.archive[alive_ids]))
            expected = frozen.search(self.queries[query_index], LIVE_K)
            identical = identical and bool(
                np.array_equal(served.indices(), alive_ids[expected.indices()])
                and served.distances().tobytes() == expected.distances().tobytes()
            )
        return {
            "checkpoint_reads_equal_frozen_rebuild": identical and bool(self.checkpoints),
            "insert_ids_as_expected": bool(self.ids_as_expected),
        }

    def metrics(self) -> "tuple[dict, dict]":
        reads = [op for op in self.ops if op.kind == "read"]
        writes = [op for op in self.ops if op.kind == "write"]
        read_latencies = [op.latency for op in reads]
        write_latencies = [op.latency for op in writes]
        served = [op for op in reads if op.ok]
        precision = np.mean(
            [precision_of(op.payload[1].indices(), self.labels, self.query_labels[op.payload[0]])
             for op in served]
        ) if served else 0.0
        inserted_hits = np.mean(
            [bool(np.any(op.payload[1].indices() >= self.n_base)) for op in served]
        ) if served else 0.0
        cycles = self.complete_cycles()
        self.per_cycle = {"ops_per_s": [len(cycle) / (cycle[-1].end - cycle[0].sent) for cycle in cycles]}
        measured = [op for cycle in cycles for op in cycle]
        cycle_reads = [op.latency for op in measured if op.kind == "read"]
        end_to_end = {
            "p50_ms": percentile_ms(cycle_reads, 50),
            "p90_ms": percentile_ms(cycle_reads, 90),
            "ops_per_s": sum(op.ok for op in measured) / sum(cycle[-1].end - cycle[0].sent for cycle in cycles),
            "first_page.precision": float(precision),
        }
        named = {
            "live.cycles": (len(cycles), "count"),
            "read.p50_ms": (end_to_end["p50_ms"], "ms"),
            "read.p90_ms": (end_to_end["p90_ms"], "ms"),
            "read.p99_ms": (percentile_ms(read_latencies, 99), "ms"),
            "write.p50_ms": (percentile_ms(write_latencies, 50), "ms"),
            "write.p99_ms": (percentile_ms(write_latencies, 99), "ms"),
            "live.ops_per_s": (end_to_end["ops_per_s"], "1/s"),
            "live.reads_with_inserted_rows": (float(inserted_hits), "ratio"),
            "read.samples": (len(read_latencies), "count"),
            "write.samples": (len(write_latencies), "count"),
        }
        return end_to_end, named

    def complete_cycles(self) -> "list[list[Op]]":
        """The ops of each complete fold cycle, in order.

        A window too short to hold one cycle is measured whole.
        """
        first = self.PATTERN.index("I") + self.CYCLE_OPS - len(self.PATTERN)
        cycles = [
            self.ops[low : low + self.CYCLE_OPS]
            for low in range(first, len(self.ops) - self.CYCLE_OPS + 1, self.CYCLE_OPS)
        ]
        return cycles or [self.ops]

    def rung_lines(self) -> "list[str]":
        return []

    def layer_counts(self) -> dict:
        return {"database.vptree.rows_evaluated": self.rows_evaluated}


WORKLOADS = {
    "search-open": SearchOpen,
    "feedback-sessions": FeedbackSessions,
    "live-mixed": LiveMixed,
}
