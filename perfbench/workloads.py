"""The benchmark's workloads: inputs from a seed, the timed call, its traced
twin, and the digest of the output rows.

Every workload builds ``make_synthetic_corpus(noise=0.35)``. At noise 0 the
accuracy at lambda 0 is already 1.0, so an accuracy regression could not
show. The benchmark seed ``s`` sets the corpus seed to ``7 + s`` and the
fold seed to ``s``, so seed 0 gives the library defaults (7 and 0).

* ``sem-hybrid`` -- the paper's full pipeline: semantic paradigm, window 5,
  knn, bayes and c45 on the 21-point lambda grid, 10 folds. Insertion
  re-walks dominate, so walk-engine and insertion changes show here first.
* ``topo-lowlevel`` -- topological paradigm with the lambda grid ``(0.0,)``:
  no class graph is built and no walk runs. Network topology and the
  low-level classifiers dominate; it is the bypass workload for every
  ``attgraph``/``tourist`` change.

The traced call drives the same computation through the public functions
of each module and records a span around every call (see ``spans.py``). It
uses no ``_``-prefixed name and none of the names the roadmap plans to
delete, so those refactors can land without editing the benchmark.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

import sensewalk
from sensewalk import evaluate
from sensewalk.classify import train_low_level
from sensewalk.features import feature_stats

NOISE = 0.35
CORPUS_SEED_OFFSET = 7
WINDOW = 5
N_FOLDS = 10
LOW_LEVELS = ("knn", "bayes", "c45")

# Spans whose summed self time is reported as ``<name>_s``.
TIMED_SPANS = (
    "corpus.preprocess",
    "adjacency.network",
    "adjacency.topology",
    "features.extract",
    "features.standardize",
    "attgraph.build",
    "attgraph.insert",
    "tourist.base_stats",
    "classify.high_level",
    "classify.knn_train",
    "classify.knn_predict",
    "classify.bayes_train",
    "classify.bayes_predict",
    "classify.c45_train",
    "classify.c45_predict",
    "classify.blend",
    "evaluate.pvalue",
)

# Counters reported as they are; counted per traced call.
COUNTERS = (
    "adjacency.nodes",
    "adjacency.edges",
    "features.dim",
    "attgraph.vertices",
    "attgraph.edges",
    "tourist.walk_starts",
    "classify.fallbacks",
)


@dataclass(frozen=True)
class Workload:
    name: str
    paradigm: str  # "semantic" or "topological"
    n_per_sense: int
    lambda_grid: tuple | None = None  # None: the library's full LAMBDA_GRID

    @property
    def occurrences(self):
        return 2 * self.n_per_sense


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sem-hybrid", "semantic", 110),
        Workload("topo-lowlevel", "topological", 500, (0.0,)),
    )
}


@dataclass
class Inputs:
    workload: Workload
    seed: int
    documents: dict
    streams: dict
    annotations: list


def make_inputs(workload, seed):
    """Set-up: the corpus for a seed."""
    documents, annotations = sensewalk.make_synthetic_corpus(
        n_per_sense=workload.n_per_sense, seed=CORPUS_SEED_OFFSET + seed, noise=NOISE
    )
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in documents.items()}
    return Inputs(workload, seed, documents, streams, annotations)


# ---------------------------------------------------------------------------
# the timed call


@dataclass(frozen=True)
class Output:
    rows: tuple  # tuples of strings, as the library's CSV writers print them
    acc_lam0: float | None = None
    acc_best: float | None = None

    def digest(self):
        h = hashlib.sha256()
        for row in self.rows:
            h.update(("\t".join(row) + "\n").encode())
        return h.hexdigest()


def report_output(reports):
    """Rows as ``write_report_csv`` writes them, plus mean accuracies."""
    rows = tuple(
        (r.word, r.paradigm, r.low_level, f"{lam:.2f}", repr(acc), repr(p))
        for r in reports
        for lam, acc, p in r.rows
    )
    acc_lam0 = sum(r.accuracy_at(0.0) for r in reports) / len(reports)
    acc_best = sum(r.best_accuracy for r in reports) / len(reports)
    return Output(rows, acc_lam0, acc_best)


def run(inputs):
    """One untraced workload call through the library's own entry points."""
    w = inputs.workload
    reports = evaluate.run_word_experiments(
        inputs.streams, inputs.annotations, paradigm=w.paradigm, window=WINDOW,
        low_levels=LOW_LEVELS, lambda_grid=w.lambda_grid, n_folds=N_FOLDS,
        seed=inputs.seed,
    )
    return report_output(reports)


# ---------------------------------------------------------------------------
# the traced call


def trace_preprocess(inputs, tracer):
    """Re-run corpus preprocessing on the raw texts as a set-up span."""
    with tracer.span("corpus.preprocess"):
        redone = {
            doc_id: sensewalk.preprocess_document(doc_id, doc.raw_text)
            for doc_id, doc in inputs.documents.items()
        }
    for doc_id, doc in redone.items():
        if doc.tokens != inputs.documents[doc_id].tokens:
            raise RuntimeError(f"preprocessing {doc_id!r} is not deterministic")


def run_traced(inputs, tracer):
    """The same computation as :func:`run`, one span per library call.

    The root span ``evaluate.run`` covers the call; what its children do
    not cover is the harness's own bookkeeping, reported as evaluate time.
    Class graphs are counted after the root span closes, so counting them
    adds to neither.
    """
    built = []  # (class graphs, mu of their base-stats warm-up)
    with tracer.span("evaluate.run"):
        output = _traced_word_experiments(inputs, tracer, built)
    for graphs, mu in built:
        tracer.add("attgraph.builds")
        tracer.add("attgraph.epsilon_sum", graphs[0].config.epsilon)
        tracer.add("attgraph.vertices", sum(g.vertex_count for g in graphs))
        tracer.add("attgraph.edges", sum(len(g.edges()) for g in graphs))
        tracer.add("tourist.walk_starts", sum(g.vertex_count for g in graphs) * (mu + 1))
    return output


def _traced_topological_features(network, annotations, tracer):
    """``topological_features`` split into topology and dataset assembly."""
    with tracer.span("adjacency.topology"):
        vectors = [
            sensewalk.node_topology(network, network.node_for(a.document_id, a.position))
            .as_vector()
            for a in annotations
        ]
    with tracer.span("features.extract"):
        return sensewalk.Dataset(
            [(a.document_id, a.position) for a in annotations],
            np.array(vectors, dtype=float),
            [a.sense_id for a in annotations],
            list(sensewalk.NodeTopology.FIELD_NAMES),
        )


def _traced_word_experiments(inputs, tracer, built):
    """``run_word_experiments`` followed through ``cv_sweep`` fold by fold."""
    w = inputs.workload
    config = evaluate.PipelineConfig()
    grid = w.lambda_grid if w.lambda_grid is not None else evaluate.LAMBDA_GRID
    need_high = any(lam > 0 for lam in grid)
    streams, annotations = inputs.streams, inputs.annotations
    semantic = w.paradigm == "semantic"

    network = None
    if not semantic:
        with tracer.span("adjacency.network"):
            network = sensewalk.build_network(streams, annotations)
        tracer.add("adjacency.nodes", len(network.nodes))
        tracer.add("adjacency.edges", len(network.weights))

    reports = []
    for word in sorted({a.word for a in annotations}):
        word_annots = sorted(
            (a for a in annotations if a.word == word),
            key=lambda a: (a.document_id, a.position),
        )
        if semantic:
            with tracer.span("features.extract"):
                base = sensewalk.semantic_features(streams, word_annots, WINDOW)
        else:
            base = _traced_topological_features(network, word_annots, tracer)
        tracer.add("features.dim", base.dim)
        with tracer.span("evaluate.fold_plan"):
            plan = sensewalk.make_fold_plan(base.labels, N_FOLDS, inputs.seed)

        records = []  # (true label, {low-level name: membership}, high membership)
        for train_idx, test_idx in plan.folds:
            if semantic:
                with tracer.span("features.extract"):
                    train_a = [word_annots[i] for i in train_idx]
                    test_a = [word_annots[i] for i in test_idx]
                    vocab = sensewalk.semantic_vocabulary(streams, train_a, WINDOW)
                    train_ds = sensewalk.semantic_features(streams, train_a, WINDOW, vocab)
                    test_ds = sensewalk.semantic_features(streams, test_a, WINDOW, vocab)
            else:
                train_ds, test_ds = base.subset(train_idx), base.subset(test_idx)
            with tracer.span("features.standardize"):
                stats = feature_stats(train_ds)
                train_z = sensewalk.standardize(train_ds, stats)
                test_z = sensewalk.standardize(test_ds, stats)

            if need_high:
                with tracer.span("attgraph.build"):
                    graphs = sensewalk.build_training_graph(train_z, config.graph)
                with tracer.span("tourist.base_stats"):
                    for graph in graphs:
                        sensewalk.component_stats(graph, config.high.mu_critical)
                built.append((graphs, config.high.mu_critical))

            predictors = {}
            for name in LOW_LEVELS:
                with tracer.span(f"classify.{name}_train"):
                    predictors[name] = train_low_level(
                        name, train_z, knn_k=config.knn_k, min_size=config.min_leaf
                    )

            for row in range(len(test_idx)):
                inst = test_z.instance(row)
                lows = {}
                for name in LOW_LEVELS:
                    with tracer.span(f"classify.{name}_predict"):
                        lows[name] = predictors[name](inst.features)
                high = None
                if need_high:
                    with tracer.span("attgraph.insert"):
                        views = sensewalk.insert_test(inst.features, graphs)
                    tracer.add("attgraph.views", len(views))
                    tracer.add("attgraph.links", sum(len(v.links) for v in views))
                    try:
                        with tracer.span("classify.high_level"):
                            high = sensewalk.high_level_predict(inst, graphs, config.high, views)
                    except sensewalk.AllViewsEmpty:
                        tracer.add("classify.fallbacks")
                records.append((test_z.labels[row], lows, high))

        # class counts keyed in record order, as cv_sweep builds them
        counts = {true: 0 for true, _, _ in records}
        for true, _, _ in records:
            counts[true] += 1
        for name in LOW_LEVELS:
            rows = []
            for lam in grid:
                with tracer.span("classify.blend"):
                    correct = sum(
                        1 for true, lows, high in records
                        if sensewalk.hybrid_predict(lows[name], high, lam)[1] == true
                    )
                acc = correct / len(records)
                with tracer.span("evaluate.pvalue"):
                    p = sensewalk.p_value(acc, len(records), counts)
                rows.append((lam, acc, p))
            best_lambda = max(rows, key=lambda r: r[1])[0]  # first of the best, as cv_sweep
            reports.append(
                sensewalk.ExperimentReport(word, w.paradigm, name, tuple(rows), best_lambda)
            )
    return report_output(reports)


def layer_metrics(tracer, output):
    """Per-layer metrics of one traced call (no ``trace.overhead_s``)."""
    own = tracer.self_by_name()
    metrics = {f"{name}_s": own.get(name, 0.0) for name in TIMED_SPANS}
    metrics["evaluate.self_s"] = tracer.self_by_layer().get("evaluate", 0.0)
    (root,) = [s for s in tracer.roots() if s.name == "evaluate.run"]
    metrics["trace.total_s"] = root.duration

    ms = np.array(tracer.durations("classify.high_level")) * 1000.0
    metrics["classify.high_level_ms_p50"] = float(np.percentile(ms, 50)) if len(ms) else 0.0
    metrics["classify.high_level_ms_p95"] = float(np.percentile(ms, 95)) if len(ms) else 0.0

    counts = tracer.counts
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    builds = counts.get("attgraph.builds", 0)
    metrics["attgraph.epsilon"] = counts["attgraph.epsilon_sum"] / builds if builds else 0.0
    views = counts.get("attgraph.views", 0)
    metrics["attgraph.links_per_view"] = counts["attgraph.links"] / views if views else 0.0
    metrics["classify.acc_lam0"] = output.acc_lam0 or 0.0
    metrics["classify.acc_best"] = output.acc_best or 0.0
    return metrics
