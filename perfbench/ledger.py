"""Per-layer ledger of a traced run: self time, counts and shares.

Layers are named by module.  A layer's self time is its spans' duration
minus what their same-thread child spans cover; its share is that self time
over the summed client-observed request time of the traced ops.  Two layers
only wait for work other threads do: a coalesced submission waits for the
dispatch that answers it (its wait is the submission minus that linked
dispatch), and ``FrontierCoalescer.run_loop`` waits for the frontier driver
thread, so ``feedback.scheduler`` time overlaps the ``feedback.engine`` and
``database.engine`` time of the rounds it waited for.

Counts come from the public ``stats()`` of the server's layers, read once
at the end of the run.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import self_times

#: Each layer, named by module, and the workload that does most of its work.
LAYERS = {
    "serving.codec": "search-open",
    "serving.server": "search-open",
    "serving.coalescer": "search-open",
    "serving.pool": "search-open",
    "serving.bypass_registry": "feedback-sessions",
    "feedback.scheduler": "feedback-sessions",
    "feedback.engine": "feedback-sessions",
    "database.engine": "live-mixed",
    "database.vptree": "live-mixed",
    "database.segments": "live-mixed",
    "core.simplex_tree": "feedback-sessions",
}

#: Every per-layer metric the traced run prints: unit, which direction is
#: better, the end-to-end metric it should move, and the workload that does
#: most of its work (the others should see little or none of it).
METRICS = {
    "serving.codec.encode_us": ("us", "lower", "p50_ms, ops_per_s", "search-open"),
    "serving.codec.decode_us": ("us", "lower", "p50_ms, ops_per_s", "search-open"),
    "serving.server.self_us": ("us", "lower", "p50_ms", "search-open"),
    "serving.coalescer.wait_us": ("us", "lower", "p90_ms, ops_per_s", "search-open"),
    "serving.coalescer.rows_per_dispatch": ("rows", "higher", "p90_ms, ops_per_s", "search-open"),
    "serving.coalescer.dispatches": ("count", "lower", "p90_ms, ops_per_s", "search-open"),
    "serving.pool.lease_wait_us": ("us", "lower", "p90_ms", "search-open"),
    "serving.pool.retries": ("count", "lower", "p90_ms", "search-open"),
    "database.engine.search_batch_us": ("us", "lower", "ops_per_s, p50_ms", "live-mixed"),
    "database.engine.per_row_us": ("us", "lower", "ops_per_s, p50_ms", "live-mixed"),
    "database.engine.scan_fallbacks": ("count", "lower", "p50_ms", "live-mixed"),
    "database.engine.index_hits": ("count", "higher", "p50_ms", "live-mixed"),
    "database.engine.search_batch_with_parameters_us": ("us", "lower", "p50_ms, ops_per_s", "feedback-sessions"),
    "database.vptree.search_us": ("us", "lower", "p50_ms", "live-mixed"),
    "database.vptree.rows_evaluated": ("count", "lower", "p50_ms", "live-mixed"),
    "database.segments.insert_us": ("us", "lower", "ops_per_s", "live-mixed"),
    "database.segments.delete_us": ("us", "lower", "ops_per_s", "live-mixed"),
    "database.segments.compact_ms": ("ms", "lower", "p90_ms", "live-mixed"),
    "database.segments.compactions": ("count", "lower", "p90_ms", "live-mixed"),
    "database.segments.delta_rows_at_read": ("rows", "lower", "p90_ms", "live-mixed"),
    "database.segments.delta_hits": ("count", "lower", "p90_ms", "live-mixed"),
    "database.segments.reads_during_compaction": ("count", "higher", "p90_ms", "live-mixed"),
    "feedback.scheduler.turn_us": ("us", "lower", "p50_ms, ops_per_s", "feedback-sessions"),
    "feedback.scheduler.rounds": ("count", "lower", "p50_ms, ops_per_s", "feedback-sessions"),
    "feedback.scheduler.peak_active": ("count", "higher", "p50_ms, ops_per_s", "feedback-sessions"),
    "feedback.engine.iterations": ("rounds", "lower", "p50_ms, ops_per_s", "feedback-sessions"),
    "core.simplex_tree.mopt_us": ("us", "lower", "p50_ms, ops_per_s", "feedback-sessions"),
    "core.simplex_tree.insert_us": ("us", "lower", "p50_ms, ops_per_s", "feedback-sessions"),
    "core.simplex_tree.n_stored": ("count", "higher", "p50_ms, first_page.precision", "feedback-sessions"),
    "core.simplex_tree.n_simplices": ("count", "lower", "p50_ms", "feedback-sessions"),
    "core.simplex_tree.depth": ("count", "lower", "p50_ms", "feedback-sessions"),
    "core.simplex_tree.avg_traversal_length": ("count", "lower", "p50_ms", "feedback-sessions"),
    "core.simplex_tree.applied_ratio": ("ratio", "higher", "first_page.precision", "feedback-sessions"),
    "setup.index_build_s": ("s", "lower", "setup_s", "live-mixed"),
    "setup.server_start_s": ("s", "lower", "setup_s", "live-mixed"),
    "setup.warmup_s": ("s", "lower", "setup_s", "search-open"),
    "trace.overhead_ms": ("ms", "lower", "p50_ms (traced minus untraced ops)", "all"),
}
METRICS.update(
    {
        f"{layer}.self_share": ("ratio", "lower", "p50_ms, ops_per_s", workload)
        for layer, workload in LAYERS.items()
    }
)

#: Stored-point buckets the Simplex Tree timings are split by.
TREE_BUCKETS = (0, 100, 300, 1000, 3000)


def _duration(span) -> float:
    return span[3] - span[2]


def _mean_us(durations) -> float:
    return float(np.mean(durations)) * 1e6 if durations else 0.0


def compute(parent_spans, child_spans, stats: dict, counts: dict, setup: dict) -> "tuple[dict, list[str]]":
    """Per-layer metrics plus human-readable ledger lines."""
    spans = list(parent_spans) + list(child_spans)
    own: "dict[tuple, float]" = {}
    for tag, group in (("p", parent_spans), ("c", child_spans)):
        for span_id, value in self_times(group).items():
            own[(tag, span_id)] = value

    def by_name(name):
        return [span for span in spans if span[1] == name]

    requests = [span for span in parent_spans if span[0] == "client"]
    e2e_total = sum(_duration(span) for span in requests)
    layer_self: "dict[str, float]" = defaultdict(float)
    for tag, group in (("p", parent_spans), ("c", child_spans)):
        for span in group:
            layer_self[span[0]] += own[(tag, span[4])]

    # Coalescer wait: a submission minus the dispatch that answered it.
    answered_by: "dict[int, float]" = {}
    for span in child_spans:
        extra = span[8] or {}
        for request_id in extra.get("links", ()):
            answered_by[request_id] = _duration(span)
    submits = [span for span in child_spans if span[0] == "serving.coalescer"]
    waits = [max(0.0, _duration(span) - answered_by.get(span[6], 0.0)) for span in submits]
    layer_self["serving.coalescer"] = float(sum(waits))

    # Server: client round trips minus everything below the front end.
    frames = {span[4] for span in child_spans if span[1] == "serving.server.serve_frames"}
    below = sum(
        _duration(span)
        for span in child_spans
        if span[5] in frames and span[0] != "serving.codec"
    )
    codec = [span for span in spans if span[0] == "serving.codec"]
    checkouts = by_name("serving.pool._checkout")
    server_self = e2e_total - below - sum(map(_duration, codec)) - sum(map(_duration, checkouts))
    layer_self["serving.server"] = max(0.0, server_self) if frames else 0.0

    engine_stats = stats.get("engine", {})
    coalescer_stats = stats.get("coalescer", {})
    frontier_stats = stats.get("frontier", {})
    corpus_stats = stats.get("corpus") or {}
    tenants = (stats.get("bypass") or {}).get("tenants", {})
    tree = next(iter(tenants.values()), {})

    reads = [
        span
        for span in child_spans
        if span[0] == "database.engine" and span[1] != "database.engine.search_batch_with_parameters"
    ]
    compactions = by_name("database.segments.compact")
    during = sum(
        any(read[2] < compact[3] and compact[2] < read[3] for compact in compactions)
        for read in reads
    )
    batch_spans = by_name("database.engine.search_batch")
    rows = sum((span[8] or {}).get("rows", 0) for span in batch_spans)
    delta_rows = [(span[8] or {})["delta_rows"] for span in reads if "delta_rows" in (span[8] or {})]
    tree_mopt = by_name("core.simplex_tree.mopt")
    tree_insert = by_name("core.simplex_tree.insert")
    run_loops = by_name("feedback.scheduler.run_loop")

    metrics = {
        "serving.codec.encode_us": _mean_us([_duration(s) for s in by_name("serving.codec.encode")]),
        "serving.codec.decode_us": _mean_us([_duration(s) for s in by_name("serving.codec.decode")]),
        "serving.server.self_us": layer_self["serving.server"] / len(frames) * 1e6 if frames else 0.0,
        "serving.coalescer.wait_us": _mean_us(waits),
        "serving.coalescer.rows_per_dispatch": float(coalescer_stats.get("rows_per_dispatch", 0.0)),
        "serving.coalescer.dispatches": float(coalescer_stats.get("dispatches", 0)),
        "serving.pool.lease_wait_us": _mean_us([_duration(s) for s in checkouts]),
        "serving.pool.retries": float(counts.get("serving.pool.retries", 0.0)),
        "database.engine.search_batch_us": _mean_us([_duration(s) for s in batch_spans]),
        "database.engine.per_row_us": sum(map(_duration, batch_spans)) / rows * 1e6 if rows else 0.0,
        "database.engine.scan_fallbacks": float(engine_stats.get("scan_fallbacks", 0)),
        "database.engine.index_hits": float(engine_stats.get("index_hits", 0)),
        "database.engine.search_batch_with_parameters_us": _mean_us(
            [_duration(s) for s in by_name("database.engine.search_batch_with_parameters")]
        ),
        "database.vptree.search_us": _mean_us(
            [_duration(s) for s in spans if s[0] == "database.vptree"]
        ),
        "database.vptree.rows_evaluated": float(counts.get("database.vptree.rows_evaluated", 0.0)),
        "database.segments.insert_us": _mean_us([_duration(s) for s in by_name("database.segments.insert")]),
        "database.segments.delete_us": _mean_us([_duration(s) for s in by_name("database.segments.delete")]),
        "database.segments.compact_ms": _mean_us([_duration(s) for s in compactions]) / 1e3,
        "database.segments.compactions": float(corpus_stats.get("compactions", 0)),
        "database.segments.delta_rows_at_read": float(np.mean(delta_rows)) if delta_rows else 0.0,
        "database.segments.delta_hits": float(engine_stats.get("delta_hits", 0)),
        "database.segments.reads_during_compaction": float(during),
        "feedback.scheduler.turn_us": _mean_us([own[("c", s[4])] for s in run_loops]),
        "feedback.scheduler.rounds": float(frontier_stats.get("rounds", 0)),
        "feedback.scheduler.peak_active": float(frontier_stats.get("peak_active", 0)),
        "feedback.engine.iterations": float(counts.get("feedback.engine.iterations", 0.0)),
        "core.simplex_tree.mopt_us": _mean_us([_duration(s) for s in tree_mopt]),
        "core.simplex_tree.insert_us": _mean_us([_duration(s) for s in tree_insert]),
        "core.simplex_tree.n_stored": float(tree.get("n_stored_queries", 0.0)),
        "core.simplex_tree.n_simplices": float(tree.get("n_simplices", 0.0)),
        "core.simplex_tree.depth": float(tree.get("depth", 0.0)),
        "core.simplex_tree.avg_traversal_length": float(tree.get("average_traversal_length", 0.0)),
        "core.simplex_tree.applied_ratio": (
            tree["n_applied"] / tree["n_insert_requests"] if tree.get("n_insert_requests") else 0.0
        ),
        "setup.index_build_s": setup["index_build_s"],
        "setup.server_start_s": setup["server_start_s"],
        "setup.warmup_s": setup["warmup_s"],
        "trace.overhead_ms": counts.get("trace.overhead_ms", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / e2e_total if e2e_total else 0.0

    lines = [f"traced requests: {len(requests)}, summed request time {e2e_total * 1e3:.1f} ms"]
    lines.append(f"{'layer':26s} {'self_ms':>10s} {'share':>7s} {'spans':>7s}")
    span_counts = defaultdict(int)
    for span in spans:
        span_counts[span[0]] += 1
    for layer in LAYERS:
        lines.append(
            f"{layer:26s} {layer_self[layer] * 1e3:10.2f} "
            f"{metrics[layer + '.self_share']:7.3f} {span_counts[layer]:7d}"
        )
    for name, timed in (("mopt", tree_mopt), ("insert", tree_insert)):
        for low, high in zip(TREE_BUCKETS, TREE_BUCKETS[1:] + (None,)):
            bucket = [
                _duration(span)
                for span in timed
                if span[8]["n_stored"] >= low and (high is None or span[8]["n_stored"] < high)
            ]
            if bucket:
                label = f"[{low}, {'inf' if high is None else high})"
                lines.append(
                    f"core.simplex_tree.{name}_us at n_stored {label}: "
                    f"{_mean_us(bucket):.1f} over {len(bucket)} calls"
                )
    return metrics, lines
