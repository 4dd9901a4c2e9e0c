"""The benchmark's server process: builds one workload's server and serves it.

``perfbench/run.py`` starts this file as a child process, so the load
generator's client threads never compete with the server's handler threads
for one interpreter lock.  The two talk over the child's stdin and stdout,
one JSON object or one word per line:

* the child pins itself to the CPU it is given, loads the inputs, builds
  the engine and starts a :class:`~repro.serving.server.RetrievalServer`,
  then prints ``{"port", "index_build_s"}``;
* the parent answers ``go`` (measure this server) or closes stdin (this
  was a set-up repeat: shut down);
* while measuring, ``trace 1`` / ``trace 0`` switch span recording;
* ``stop`` makes the child print ``{"stats", "checks", "cpu_s", "spans"}``
  (``cpu_s``: the CPU time it spent since ``go``) and exit.

Usage: ``python3 perfbench/serve.py <workload> <inputs.npz> <trace 0|1> <cpu>``.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

if __name__ == "__main__" and hasattr(os, "sched_setaffinity") and int(sys.argv[4]) >= 0:
    # Before NumPy loads, so every thread of this process inherits the pin.
    os.sched_setaffinity(0, {int(sys.argv[4])})

import numpy as np  # noqa: E402

from repro.database import FeatureCollection, LiveCollection, RetrievalEngine, VPTreeIndex  # noqa: E402
from repro.serving import DEFAULT_TENANT, BinaryCodec, RetrievalServer, ServerConfig  # noqa: E402

from inputs import AUTOCOMPACT_DELTA_ROWS, MAX_ITERATIONS  # noqa: E402
from spans import Tracer  # noqa: E402


def emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, default=_plain) + "\n")
    sys.stdout.flush()


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def vptree_factory(tracer: "Tracer | None"):
    """Index factory for the live base segment; traced indexes get spans."""

    def build(collection, distance):
        index = VPTreeIndex(collection, distance, seed=0)
        if tracer is not None:
            tracer.instrument(index, "database.vptree", ("search", "search_batch"))
        return index

    return build


def build_engine(workload: str, inputs: dict, tracer: "Tracer | None"):
    vectors = inputs["vectors"]
    if workload == "live-mixed":
        live = LiveCollection(vectors, index_factory=vptree_factory(tracer))
        return RetrievalEngine(live), ServerConfig(autocompact_delta_rows=AUTOCOMPACT_DELTA_ROWS)
    collection = FeatureCollection(vectors, labels=[str(label) for label in inputs["labels"]])
    if workload == "feedback-sessions":
        return RetrievalEngine(collection), ServerConfig(bypass=True, max_iterations=MAX_ITERATIONS)
    return RetrievalEngine(collection), ServerConfig()


def instrument(server: RetrievalServer, tracer: Tracer) -> None:
    """Wrap the public calls of every layer the server is built from."""
    # The coalescers and the dispatch entry point are read off the server's
    # core; the front end offers no public accessor for them.
    core = server._core
    tracer.instrument(core, "serving.server", ("serve_frames",), request_root=True)
    tracer.instrument(
        core.coalescer,
        "serving.coalescer",
        ("submit_search", "submit_search_with_parameters"),
        before=tracer.register_rows,
    )
    tracer.instrument(core.frontier, "feedback.scheduler", ("run_loop",))
    tracer.instrument(server.feedback_engine, "feedback.engine", ("prepare_loop", "compute_new_states"))
    engine = server.engine
    annotate = tracer.dispatch_links
    if engine.is_live:
        live = engine.collection
        tracer.instrument(live, "database.segments", ("insert", "delete", "compact"))

        def annotate(args, kwargs, result, links=tracer.dispatch_links):
            extra = links(args, kwargs, result)
            extra["delta_rows"] = live.delta_rows
            return extra

    tracer.instrument(
        engine,
        "database.engine",
        ("search", "search_batch", "search_batch_with_parameters"),
        annotate=annotate,
    )
    registry = server.bypass_registry
    if registry is not None:
        tracer.instrument(registry, "serving.bypass_registry", ("mopt", "insert"))
        # The served tree itself: create the public tenant's entry now and
        # wrap its FeedbackBypass, the Simplex Tree's public face.
        registry.stats(DEFAULT_TENANT)
        bypass = registry._trees[DEFAULT_TENANT].bypass
        tracer.instrument(
            bypass, "core.simplex_tree", ("mopt",),
            annotate=lambda args, kwargs, result: {"n_stored": bypass.n_stored_queries},
        )
        tracer.instrument(
            bypass, "core.simplex_tree", ("insert",),
            annotate=lambda args, kwargs, result: {
                "n_stored": bypass.n_stored_queries,
                "stored": bool(result.stored),
            },
        )


def served_tree_matches_replay(registry) -> bool:
    """The served tree equals a local bypass fed the registry's insert log."""
    log = registry.insert_log(DEFAULT_TENANT)
    local = registry.local_reference()
    for point, parameters in log:
        local.insert(point, parameters)
    stats = registry.stats(DEFAULT_TENANT)
    if int(stats["n_stored_queries"]) != local.n_stored_queries:
        return False
    if int(stats["n_simplices"]) != local.tree.n_simplices:
        return False
    probes = [point for point, _ in log[:: max(1, len(log) // 64)]]
    for point in probes:
        served = registry.mopt(DEFAULT_TENANT, point)
        expected = local.mopt(point)
        if not (
            np.array_equal(served.delta, expected.delta)
            and np.array_equal(served.weights, expected.weights)
        ):
            return False
    return True


def main(argv) -> int:
    workload, inputs_path, trace_flag, _cpu = argv
    with np.load(inputs_path) as archive:
        inputs = {name: archive[name] for name in archive.files}
    tracer = Tracer() if trace_flag == "1" else None
    if tracer is not None:
        BinaryCodec.encode = tracer.wrap("serving.codec", "serving.codec.encode", BinaryCodec.encode)
        BinaryCodec.decode = tracer.wrap("serving.codec", "serving.codec.decode", BinaryCodec.decode)

    start = time.perf_counter()
    engine, config = build_engine(workload, inputs, tracer)
    built = time.perf_counter()
    server = RetrievalServer(engine, config)
    if tracer is not None:
        instrument(server, tracer)
    _, port = server.start()
    emit({"port": port, "index_build_s": built - start})
    if sys.stdin.readline().strip() != "go":
        server.close()
        return 0
    cpu_start = time.process_time()

    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if tracer is not None and command in ("trace 0", "trace 1"):
            tracer.enabled = command == "trace 1"
    if tracer is not None:
        tracer.enabled = False

    cpu_s = time.process_time() - cpu_start
    stats = server.stats()
    checks = {}
    if server.bypass_registry is not None:
        checks["served_tree_matches_replay"] = served_tree_matches_replay(server.bypass_registry)
    server.close()
    emit({"stats": stats, "checks": checks, "cpu_s": cpu_s, "spans": [] if tracer is None else tracer.spans})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
