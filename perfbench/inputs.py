"""Seeded inputs of the three benchmark workloads.

Everything here is generated before any clock starts: input generation is
the benchmark's own cost, never the system's.  Each workload serves one
fixed corpus (seeded with :data:`CORPUS_SEED`, like the paper's fixed
image collection) and draws its traffic — queries, arrival times, written
rows — from the run's ``--seed``, so a seed is one population of users and
the same seed always gives the same inputs.  The parent process hands the
inputs to the server process through one ``.npz`` file.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.workloads import repeated_query_workload
from repro.features.datasets import ImageDataset, build_imsi_like_dataset
from repro.features.normalization import drop_last_bin
from repro.features.synthetic import build_clustered_corpus

#: Seed of every workload's corpus (the paper's publication year).
CORPUS_SEED = 2001

#: Result-page sizes: one-shot searches, feedback loops, live reads.
SEARCH_K = 50
LOOP_K = 50
LIVE_K = 20

#: IMSI-like corpus scales: 1.0 is the paper's 2,491 evaluation images plus
#: half as many noise images (3,737 rows); 4.1 is the smallest scale with at
#: least 15,000 rows, large enough that one feedback round's weighted scan
#: and the Simplex Tree both carry a real share of a loop's time.
SEARCH_SCALE = 1.0
FEEDBACK_SCALE = 4.1

#: Share of the feedback query stream that re-issues a recent query, and the
#: recency window it draws from.  The bypass only helps repeated regions, so
#: this is the property the ``feedback-sessions`` numbers depend on.
FEEDBACK_REPEAT_RATE = 0.5
FEEDBACK_WORKING_SET = 64

LIVE_ROWS = 50_000
LIVE_DIMENSION = 64
LIVE_CLUSTERS = 32
LIVE_QUERY_JITTER = 0.05

#: Server settings both processes need: the feedback-round cap of a served
#: loop (the in-process reference loop uses the same), and the delta rows that
#: trigger a background compaction on ``live-mixed`` (with the op mix of
#: ``workloads.py`` one fold per 80 ops, several per measured window).
MAX_ITERATIONS = 10
AUTOCOMPACT_DELTA_ROWS = 128

#: Pool sizes: more than any run can consume at the rates this box reaches.
SEARCH_POOL = 8192
FEEDBACK_POOL = 4096
LIVE_POOL = 8192


def _imsi_inputs(dataset: ImageDataset, query_rows) -> dict:
    return {
        "vectors": drop_last_bin(dataset.features),
        "labels": np.asarray([record.category for record in dataset.records]),
        "query_rows": np.asarray(query_rows, dtype=np.intp),
    }


def search_open(seed: int) -> dict:
    """IMSI-like corpus at scale 1.0; queries are evaluation images."""
    dataset = build_imsi_like_dataset(scale=SEARCH_SCALE, seed=CORPUS_SEED)
    rows = dataset.sample_query_indices(SEARCH_POOL, np.random.default_rng([seed, 1]))
    return _imsi_inputs(dataset, rows)


def feedback_sessions(seed: int) -> dict:
    """IMSI-like corpus of at least 15k rows and a repeated query stream."""
    dataset = build_imsi_like_dataset(scale=FEEDBACK_SCALE, seed=CORPUS_SEED)
    rows = repeated_query_workload(
        dataset,
        FEEDBACK_POOL,
        repeat_rate=FEEDBACK_REPEAT_RATE,
        working_set_size=FEEDBACK_WORKING_SET,
        seed=seed,
    )
    return _imsi_inputs(dataset, rows)


def live_mixed(seed: int) -> dict:
    """Clustered 50k x 64 corpus, in-cluster queries and in-distribution inserts.

    Inserted rows are fresh draws from the corpus mixture (a cluster picked
    with the corpus' own cluster frequencies, its center plus that cluster's
    measured spread), so they land among existing rows and can reach a
    query's top-k.
    """
    corpus = build_clustered_corpus(
        LIVE_ROWS, LIVE_DIMENSION, n_clusters=LIVE_CLUSTERS, seed=CORPUS_SEED
    )
    rng = np.random.default_rng([seed, 2])
    query_rows = rng.integers(0, corpus.n_vectors, size=LIVE_POOL)
    queries = corpus.vectors[query_rows] + LIVE_QUERY_JITTER * rng.normal(
        size=(LIVE_POOL, corpus.dimension)
    )
    residual = corpus.vectors - corpus.centers[corpus.assignments]
    spreads = np.array(
        [
            residual[corpus.assignments == cluster].std()
            if np.any(corpus.assignments == cluster)
            else 0.0
            for cluster in range(corpus.n_clusters)
        ]
    )
    insert_clusters = corpus.assignments[rng.integers(0, corpus.n_vectors, size=LIVE_POOL)]
    inserts = corpus.centers[insert_clusters] + spreads[insert_clusters, None] * rng.normal(
        size=(LIVE_POOL, corpus.dimension)
    )
    return {
        "vectors": corpus.vectors,
        "labels": corpus.assignments.astype(np.intp),
        "queries": queries,
        "query_labels": corpus.assignments[query_rows].astype(np.intp),
        "inserts": inserts,
        "insert_labels": insert_clusters.astype(np.intp),
        "delete_draws": rng.random(LIVE_POOL),
    }


BUILDERS = {
    "search-open": search_open,
    "feedback-sessions": feedback_sessions,
    "live-mixed": live_mixed,
}


def labels_array(labels) -> np.ndarray:
    """Labels as the read-only object array a category judge carries."""
    array = np.asarray([str(label) for label in labels], dtype=object)
    array.setflags(write=False)
    return array
