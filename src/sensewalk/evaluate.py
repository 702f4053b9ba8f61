"""Experiment harness: stratified cross-validation, compliance-term sweeps,
random-baseline p-values, walk curves, and the built-in toy experiment.

Every fold keeps the columns where some training row is non-zero, then takes
its rows (``_fold_datasets``): for semantic counts that is the vocabulary
refitted on the training windows, and any other dropped column is one the
fold's standardization zeroes in every row. Standardizer and class graphs
are fitted on training rows only and lambda enters at prediction time, so
one pass over the folds scores every low-level classifier and every lambda.

The folds are independent, so they are scored in up to one worker process
per usable CPU (``_fold_workers``), and their records are joined in fold
order: the rows are bit-identical to scoring the folds one after another in
the calling process, which is what happens on one usable CPU. A run over a
corpus goes through one generator (``_word_sweeps``: ``run_word_experiments``
and the CLI's corpus sweeps), which opens one ``_RunPool`` and shares it:
the topological network's source blocks (``adjacency._topology_table``) and
then every word's folds. A bare ``cv_sweep`` opens its own. To keep a run in
one process, pin it to one CPU (``taskset -c 0 ...``).
"""

import itertools
import json
import logging
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .attgraph import GraphConfig, build_training_graph, insert_test
from .classify import (
    LOW_LEVEL_NAMES,
    HighLevelConfig,
    hybrid_predict,
    high_level_predict,
    knn_predict,
    train_low_level,
)
from .corpus import (
    SenseAnnotation, load_lemma_table, load_stopwords, preprocess_document,
    validate_annotations,
)
from .features import (
    Dataset,
    Instance,
    as_int,
    as_real,
    feature_stats,
    rows_by_label,
    semantic_features,
    sorted_values,
    standardize,
    topological_features,
    write_csv,
)
from .tourist import AllViewsEmpty, component_stats, normalize

log = logging.getLogger(__name__)

LAMBDA_GRID = tuple(round(0.05 * i, 2) for i in range(21))
PARADIGMS = ("semantic", "topological")


class InsufficientClassSize(ValueError):
    """Cross-validation needs every class to appear at least twice."""


@dataclass(frozen=True)
class FoldPlan:
    """Stratified train/test partitions, reproducible from the seed."""

    folds: tuple
    seed: int


def make_fold_plan(labels, n_folds=10, seed=0):
    """Stratified folds: each class's shuffled indices are dealt round-robin,
    so per-class proportions match within one instance. Classes smaller
    than ``n_folds`` shrink the fold count to the smallest class size."""
    as_int(seed, "the fold seed", 0)
    n_folds = as_int(n_folds, "the fold count", 2)
    by_class = rows_by_label(labels)
    if sum(len(rows) for rows in by_class.values()) != len(labels):
        raise ValueError("cross-validation requires labeled instances")
    min_count = min((len(v) for v in by_class.values()), default=0)  # 0: no instances
    if min_count < 2:
        raise InsufficientClassSize("every class needs at least 2 instances")
    k = min(n_folds, min_count)
    if k < n_folds:
        log.warning("fold count reduced from %d to %d (smallest class)", n_folds, k)
    rng = np.random.default_rng(seed)
    test_sets = [[] for _ in range(k)]
    for class_id in sorted_values(by_class, "class labels"):
        idx = np.array(by_class[class_id])
        rng.shuffle(idx)
        for f in range(k):
            test_sets[f].extend(int(i) for i in idx[f::k])
    everything = set(range(len(labels)))
    return FoldPlan(tuple((tuple(sorted(everything.difference(test))), tuple(sorted(test)))
                          for test in test_sets), seed)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one classification run needs besides the data."""

    graph: GraphConfig = field(default_factory=GraphConfig)
    high: HighLevelConfig = field(default_factory=HighLevelConfig)
    knn_k: int = 1
    min_leaf: int = 2

    def __post_init__(self):
        as_int(self.knn_k, "knn_k", 1)
        as_int(self.min_leaf, "min_leaf", 1)


def _check_choices(low_levels, lambdas):
    """Reject an empty, unknown or repeated low-level name, and an empty or
    repeated grid or compliance terms outside [0, 1]."""
    if not low_levels:
        raise ValueError(f"give at least one low-level classifier of {LOW_LEVEL_NAMES}")
    for k, name in enumerate(low_levels):
        if name not in LOW_LEVEL_NAMES:
            raise ValueError(f"low_level must be one of {LOW_LEVEL_NAMES}, got {name!r}")
        if name in low_levels[:k]:
            raise ValueError(f"low-level classifier {name!r} is given twice; give each once")
    _check_lambdas(lambdas)


def _check_lambdas(lambdas):
    """Reject an empty or repeated grid or compliance terms outside [0, 1]."""
    if not lambdas:
        raise ValueError("the lambda grid is empty; give at least one lambda in [0, 1]")
    for k, lam in enumerate(lambdas):
        as_real(lam, "lambda", 0, 1)
        if lam in lambdas[:k]:
            raise ValueError(f"lambda {lam!r} is given twice; give each once")


def _check_folds(dataset, fold_plan, need_high):
    """One pass over the plan before any fold is fitted: every index lies in
    the dataset, every row it holds is labeled and no fold trains on a row it
    tests, and some fold tests a row; with walks (``need_high``), every class
    keeps 2 training rows in every fold, as its class graph needs."""
    if not any(test_idx for _, test_idx in fold_plan.folds):
        raise ValueError("the fold plan tests no row; accuracy needs at least one")
    n = len(dataset)
    for f, (train_idx, test_idx) in enumerate(fold_plan.folds, start=1):
        where = f"fold {f} of {len(fold_plan.folds)}"
        for i in (*train_idx, *test_idx):
            if not 0 <= i < n:
                raise ValueError(f"{where} holds row {i!r}; the dataset has rows 0..{n - 1}")
            if dataset.labels[i] is None:
                raise ValueError(f"{where} holds row {i}, which is unlabeled; "
                                 "cross-validation requires labeled instances")
        leaked = set(train_idx).intersection(test_idx)
        if leaked:
            raise ValueError(f"{where} trains on row {min(leaked)}, which it also tests")
        if not need_high:
            continue
        kept = Counter(dataset.labels[i] for i in train_idx)
        for class_id in dataset.classes():
            if kept[class_id] < 2:
                raise InsufficientClassSize(
                    f"class {class_id!r} keeps {kept[class_id]} training instance(s) in "
                    f"{where}; lambda > 0 needs >= 2 per class"
                )


@dataclass(frozen=True)
class ExperimentReport:
    word: str
    paradigm: str
    low_level: str
    rows: tuple  # (lambda, accuracy, p_value)
    best_lambda: float

    def accuracy_at(self, lam):
        for row_lam, acc, _ in self.rows:
            if row_lam == lam:
                return acc
        raise KeyError(lam)

    @property
    def best_accuracy(self):
        return max(acc for _, acc, _ in self.rows)


@dataclass(frozen=True)
class _Record:
    index: int
    true: int
    lows: dict  # low-level name -> MembershipVector
    high: object  # MembershipVector or None when no class was linked


def _fold_records(dataset, low_levels, config, fold_plan, need_high=True, pool=None):
    """Score every test instance once; lambdas blend these records later.

    Each fold is scored in its own ``_score_fold`` call, so its class graphs
    (with their walk memos), trained predictors and standardized datasets
    are freed before the next fold builds its own. The calls run on
    ``pool``, a run's ``_RunPool``, or without one on a ``_RunPool`` of this
    call's own; a fold is handed to each worker as it frees up. The records
    are joined in fold order either way, so they are bit-identical, and the
    first fold in fold order that raises gives the caller its error, type
    and message kept.
    """
    if pool is None:
        with _RunPool(len(fold_plan.folds)) as pool:
            return _fold_records(dataset, low_levels, config, fold_plan, need_high, pool)
    tasks = [(dataset, low_levels, config, train_idx, test_idx, need_high)
             for train_idx, test_idx in fold_plan.folds]
    return [record for part in pool.map(_score_fold, tasks) for record in part]


def _fold_workers(n_folds):
    """Processes to score ``n_folds`` folds in: one per usable CPU, at most
    one per fold. 1 (score in this process) when there is one usable CPU or
    one fold, when the platform cannot tell its usable CPUs or has no
    ``fork`` start method, or when this process is daemonic and so cannot
    have children."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, n_folds)
    if workers < 2:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return workers


class _RunPool:
    """The worker pool of a run whose words have up to ``n_folds`` folds: a
    ``ProcessPoolExecutor`` of ``_fold_workers(n_folds)`` ``fork``
    processes, forked at the first task, so they inherit every module the
    run has loaded by then (``scipy.sparse`` for the topology pass); at one
    worker there is none, and tasks run in this process. ``map`` keeps at
    most one chunk of tasks per worker in flight and hands out no more once
    one has failed, so a fold error waits only for the chunks already
    running. A dead worker fails the run with ``BrokenProcessPool``.
    Leaving the ``with`` block shuts the executor down and waits for the
    workers: no worker outlives the run."""

    def __init__(self, n_folds):
        self.workers = _fold_workers(n_folds)
        self._executor = None
        if self.workers > 1:
            import multiprocessing  # here: `import sensewalk` stays free of it
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                self.workers, mp_context=multiprocessing.get_context("fork"))

    def map(self, func, tasks, chunksize=1):
        """``func(*task)`` for each of ``tasks``, in chunks of ``chunksize``; the
        results in task order, and the first task in that order that raises, raises.
        The first chunk for each worker is handed out before this returns."""
        if self._executor is None:
            return itertools.starmap(func, tasks)
        tasks = list(tasks)
        chunks = (tasks[i:i + chunksize] for i in range(0, len(tasks), chunksize))
        futures = deque(self._executor.submit(_starmap, func, chunk)
                        for chunk in itertools.islice(chunks, self.workers))
        return itertools.chain.from_iterable(self._in_order(futures, func, chunks))

    def _in_order(self, futures, func, chunks):
        """Each chunk's results, ``futures`` first; a chunk is handed out as one
        in flight ends, while none handed out has failed."""
        from concurrent.futures import FIRST_COMPLETED, wait

        while futures:
            wait([f for f in futures if not f.done()], return_when=FIRST_COMPLETED)
            while futures and futures[0].done():
                yield futures.popleft().result()
            if not any(f.done() and f.exception() is not None for f in futures):
                free = self.workers - sum(not f.done() for f in futures)
                futures.extend(self._executor.submit(_starmap, func, chunk)
                               for chunk in itertools.islice(chunks, free))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        if self._executor is not None:
            self._executor.shutdown()


def _starmap(func, chunk):
    """One chunk of ``_RunPool.map``'s tasks, run in a worker."""
    return [func(*task) for task in chunk]


def _fold_datasets(dataset, train_idx, test_idx):
    """The fold's training and test datasets over the columns some training row
    holds; ``compress`` keeps X C-ordered, so sums round as a refit's would."""
    kept = dataset.X[list(train_idx)].any(axis=0)
    names = [name for name, keep in zip(dataset.feature_names, kept) if keep]
    selected = Dataset(dataset.ids, dataset.X.compress(kept, axis=1), dataset.labels, names)
    return selected.subset(train_idx), selected.subset(test_idx)


def _score_fold(dataset, low_levels, config, train_idx, test_idx, need_high):
    """The records of one fold's test instances."""
    train_ds, test_ds = _fold_datasets(dataset, train_idx, test_idx)
    stats = feature_stats(train_ds)
    train_z = standardize(train_ds, stats)
    test_z = standardize(test_ds, stats)
    graphs = build_training_graph(train_z, config.graph) if need_high else None
    predictors = {
        name: train_low_level(name, train_z, knn_k=config.knn_k, min_size=config.min_leaf)
        for name in low_levels
    }
    fold_lows = {name: predictors[name].rows(test_z.X) for name in low_levels}
    records = []
    for row, orig_index in enumerate(test_idx):
        inst = test_z.instance(row)
        lows = {name: fold_lows[name][row] for name in low_levels}
        high = None
        if need_high:
            views = insert_test(inst.features, graphs)
            try:
                high = high_level_predict(inst, graphs, config.high, views)
            except AllViewsEmpty:
                log.info("instance %r links into no class; using low-level only", inst.id)
        records.append(_Record(orig_index, test_z.labels[row], lows, high))
    return records


def _accuracies(records, low_level, lambdas):
    """The accuracy of ``hybrid_predict``'s labels at each lambda, one array
    pass per lambda. Memberships are rows of a records x classes matrix in
    ascending class order, a class missing from a record's memberships at
    0.0, so ``argmax`` takes the first maximum as ``MembershipVector.argmax``
    does; the blend is ``(1.0 - lam) * low + lam * high`` elementwise, the
    same float operations. A record linked into no class keeps its
    low-level membership unblended at every lambda."""
    classes = sorted({c for r in records for c in r.lows[low_level].scores})
    column = {c: j for j, c in enumerate(classes)}
    low = np.array([[r.lows[low_level].scores.get(c, 0.0) for c in classes] for r in records])
    linked = [i for i, r in enumerate(records) if r.high is not None]
    high = np.array([[records[i].high.scores.get(c, 0.0) for c in classes]
                     for i in linked]).reshape(len(linked), len(classes))
    low_linked = low[linked]
    truth = np.array([column.get(r.true, -1) for r in records])
    accuracies = []
    for lam in lambdas:
        blend = low.copy()
        blend[linked] = (1.0 - lam) * low_linked + lam * high
        accuracies.append(int(np.count_nonzero(blend.argmax(axis=1) == truth)) / len(records))
    return accuracies


def _trial_counts(class_counts, n):
    """Split n trials by class share, rounding by largest remainder.

    Each class gets the floor of its share n * count / total; the trials
    left over go one each to the largest remainders, ties in
    ``class_counts`` order, so the counts always add up to n.
    """
    if sum(class_counts.values()) <= 0:  # uniform priors, as ``normalize`` gives
        class_counts = dict.fromkeys(class_counts, 1)
    total = sum(class_counts.values())
    floors, remainders = {}, {}
    for c, count in class_counts.items():
        whole, remainders[c] = divmod(count * n, total)
        floors[c] = int(whole)
    left = n - sum(floors.values())
    for c in sorted(class_counts, key=lambda c: -remainders[c])[:left]:
        floors[c] += 1
    return floors


def p_value(accuracy, n, class_counts, method="binomial", seed=0, samples=20000):
    """Probability that prior-matched random guessing does at least this well.

    A random classifier guesses class j with probability p(j) equal to its
    prior, so each of the n trials succeeds with probability
    q = sum_j p(j)^2; the p-value is the upper binomial tail at the
    observed correct count c, P(X >= c) = I_q(c, n - c + 1), the
    regularized incomplete beta (1 when c <= 0, 0 when c > n).
    ``method="montecarlo"`` simulates another tail, each class's count held
    at its share of the n trials: sum_j Binomial(n_j, p(j)), narrower than
    the binomial unless the priors are equal, so its p-values are smaller.
    The n_j are p(j) n rounded by largest remainder, so they add up to n.
    """
    # abs, not np.isfinite, which refuses an int too large for a float
    if abs(as_real(accuracy, "accuracy", -np.inf, np.inf)) == np.inf:
        raise ValueError(f"accuracy must be finite, got {accuracy}")
    n = as_int(n, "n", 0)
    if not class_counts:
        raise ValueError("p_value needs the counts of at least one class")
    counts = {c: as_int(k, f"the count of class {c!r}", 0) for c, k in class_counts.items()}
    priors = normalize(counts)
    q = sum(p ** 2 for p in priors.values())
    correct = int(round(accuracy * n))
    if method == "binomial":
        if correct <= 0:
            return 1.0
        if correct > n:
            return 0.0
        from scipy.special import betainc  # imported here: it would dominate `import sensewalk`

        return float(betainc(correct, n - correct + 1, q))
    if method == "montecarlo":
        seed, samples = as_int(seed, "seed", 0), as_int(samples, "samples", 1)
        rng = np.random.default_rng(seed)
        hits = np.zeros(samples, dtype=int)
        trials = _trial_counts(counts, n)
        for c, p in priors.items():
            hits += rng.binomial(trials[c], p, size=samples)
        return float((hits >= correct).mean())
    raise ValueError(f"unknown p-value method {method!r}")


def cv_sweep(dataset, low_levels, lambda_grid=None, config=None, fold_plan=None,
             word="", paradigm=""):
    """One fold pass, every classifier, every lambda; shared walk scores.

    The folds are scored in up to one process per usable CPU
    (``_fold_records``); the reports are bit-identical to a one-process run.
    """
    return _sweep(dataset, low_levels, lambda_grid, config, fold_plan, word, paradigm)


def _sweep(dataset, low_levels, lambda_grid, config, fold_plan, word, paradigm, pool=None):
    """``cv_sweep``, its folds scored on ``pool`` as ``_fold_records`` takes it."""
    config = config or PipelineConfig()
    low_levels = tuple(low_levels)  # read more than once
    grid = tuple(lambda_grid) if lambda_grid is not None else LAMBDA_GRID
    _check_choices(low_levels, grid)
    if fold_plan is None:
        fold_plan = make_fold_plan(dataset.labels)
    need_high = any(lam > 0 for lam in grid)
    _check_folds(dataset, fold_plan, need_high)
    records = _fold_records(dataset, low_levels, config, fold_plan, need_high, pool)
    counts = {c: len(rows) for c, rows in rows_by_label([r.true for r in records]).items()}
    reports = {}
    for name in low_levels:
        rows = [(lam, acc, p_value(acc, len(records), counts))
                for lam, acc in zip(grid, _accuracies(records, name, grid))]
        best_lambda = max(rows, key=lambda row: row[1])[0]  # the first of equal bests
        reports[name] = ExperimentReport(word, paradigm, name, tuple(rows), best_lambda)
    return reports


def write_report_csv(reports, path):
    """Rows of ``word,paradigm,algorithm,lambda,accuracy,p_value``."""
    write_csv(path, ["word", "paradigm", "algorithm", "lambda", "accuracy", "p_value"],
              ([report.word, report.paradigm, report.low_level, f"{lam:.2f}", repr(acc), repr(p)]
               for report in reports for lam, acc, p in report.rows))


# ---------------------------------------------------------------------------
# corpus-level experiments


def word_datasets(token_streams, annotations, paradigm="semantic", window=5):
    """Yield ``(word, Dataset)`` per annotated word, words sorted, each word's
    rows in (document, position) order. The paradigm and the annotations
    (against ``token_streams``) are checked before anything is built; the
    topological network is built once, over every annotation."""
    return _word_datasets(token_streams, annotations, paradigm, window)


def _word_datasets(token_streams, annotations, paradigm, window, pool=None):
    """``word_datasets``; the network's topology table is computed before
    the first word, on a run's ``pool`` when given."""
    from .adjacency import _topology, build_network

    if paradigm not in PARADIGMS:
        raise ValueError(f"paradigm must be one of {PARADIGMS}, got {paradigm!r}")
    validate_annotations(annotations, token_streams)
    network = build_network(token_streams, annotations) if paradigm == "topological" else None
    if network is not None:
        _topology(network, pool)  # memoized: node_topology looks its rows up
    for word in sorted({a.word for a in annotations}):
        word_annots = sorted(
            (a for a in annotations if a.word == word),
            key=lambda a: (a.document_id, a.position),
        )
        if paradigm == "semantic":
            yield word, semantic_features(token_streams, word_annots, window)
        else:
            yield word, topological_features(network, word_annots)


def run_word_experiments(token_streams, annotations, paradigm="semantic", window=5,
                         low_levels=("knn", "bayes", "c45"), lambda_grid=None,
                         config=None, n_folds=10, seed=0):
    """Sweep every annotated word of ``word_datasets`` separately; returns
    one report per (word, low level), as ``_word_sweeps`` yields them."""
    return [report for reports, _ in _word_sweeps(token_streams, annotations, paradigm, window,
                                                  low_levels, lambda_grid, config, n_folds, seed)
            for report in reports]


def _word_sweeps(token_streams, annotations, paradigm, window, low_levels, lambda_grid,
                 config, n_folds, seed):
    """Yield ``(reports, dataset)`` per word of ``word_datasets``: the word's
    reports in ``low_levels`` order and the dataset they scored. One
    ``_RunPool`` serves the whole run: the topology pass, then every word's
    folds."""
    low_levels = tuple(low_levels)  # read more than once
    lambda_grid = tuple(lambda_grid) if lambda_grid is not None else LAMBDA_GRID
    _check_choices(low_levels, lambda_grid)
    with _RunPool(as_int(n_folds, "the fold count")) as pool:
        for word, dataset in _word_datasets(token_streams, annotations, paradigm, window, pool):
            plan = make_fold_plan(dataset.labels, n_folds, seed)
            swept = _sweep(dataset, low_levels, lambda_grid, config, plan, word, paradigm, pool)
            yield [swept[name] for name in low_levels], dataset


# ---------------------------------------------------------------------------
# walk curves


def walk_curve_rows(class_graphs, mu_max):
    """Per-class mean transient/cycle curves and their steady-state onset.

    The onset is the smallest mu from which both curves stop changing up
    to ``mu_max``; a class still drifting at the cap reports the cap.
    """
    mu_max = as_int(mu_max, "mu_max", 0)
    rows = []
    for graph in class_graphs:
        stats = component_stats(graph, mu_max)
        steady = mu_max
        for mu in range(mu_max, -1, -1):
            t, c = stats[mu]
            t_ref, c_ref = stats[steady]
            if abs(t - t_ref) <= 1e-12 and abs(c - c_ref) <= 1e-12:
                steady = mu
            else:
                break
        for mu in range(mu_max + 1):
            t, c = stats[mu]
            rows.append((graph.class_id, mu, t, c, steady))
    return rows


def write_walk_curves(rows, path):
    write_csv(path, ["class", "mu", "mean_transient", "mean_cycle", "steady_state_mu"],
              ([class_id, mu, repr(t), repr(c), steady] for class_id, mu, t, c, steady in rows))


# ---------------------------------------------------------------------------
# synthetic corpus


_MACHINE_VOCAB = ("steel", "motor", "cargo", "hook", "tower", "cable", "engine", "winch")

_BIRD_VOCAB = (
    "heron", "marsh", "reed", "pond", "lake", "cliff", "nest", "egg", "wing",
    "feather", "beak", "sky", "wind", "rain", "cloud", "dawn", "dusk", "river",
    "delta", "shore", "mud", "fog", "plume", "flock", "glide", "swoop", "perch",
    "wetland", "meadow", "willow", "alder", "pine", "brook", "creek", "trout",
    "frog", "snail", "minnow", "gravel", "moss",
)


def make_synthetic_corpus(word="crane", n_per_sense=110, n_docs=6, seed=7, noise=0.0):
    """A two-sense corpus with disjoint context vocabularies.

    Sense 1 sentences walk a fixed rotation over a small mechanical
    vocabulary (strongly patterned contexts); sense 2 sentences sample a
    large nature vocabulary at random (diffuse contexts). ``noise`` is the
    probability that a context word leaks from the other sense's
    vocabulary, blurring the contexts while leaving the structural
    contrast intact. Returns preprocessed documents and their annotations.
    """
    n_per_sense, n_docs = as_int(n_per_sense, "n_per_sense", 1), as_int(n_docs, "n_docs", 1)
    as_real(noise, "noise", 0, 1)
    rng = np.random.default_rng(as_int(seed, "seed", 0))

    def blur(words, other_vocab):
        if noise <= 0:
            return words  # keep seeded corpora identical to the noiseless ones
        out = []
        for token in words:
            if token != word and rng.random() < noise:
                out.append(other_vocab[int(rng.integers(len(other_vocab)))])
            else:
                out.append(token)
        return out

    sentences = []  # (sense, words)
    for k in range(n_per_sense):
        a = _MACHINE_VOCAB
        words = [a[k % 8], a[(k + 1) % 8], a[(k + 2) % 8], word, a[(k + 3) % 8], a[(k + 4) % 8]]
        sentences.append((1, blur(words, _BIRD_VOCAB)))
        picks = rng.choice(len(_BIRD_VOCAB), size=6, replace=False)
        b = [_BIRD_VOCAB[i] for i in picks]
        sentences.append((2, blur(b[:3] + [word] + b[3:], _MACHINE_VOCAB)))

    doc_text = {f"doc{d}": [] for d in range(n_docs)}
    doc_senses = {f"doc{d}": [] for d in range(n_docs)}
    for i, (sense, words) in enumerate(sentences):
        doc_id = f"doc{i % n_docs}"
        doc_text[doc_id].append(" ".join(words) + ".")
        doc_senses[doc_id].append(sense)

    documents = {}
    annotations = []
    stopwords, lemma_table = load_stopwords(), load_lemma_table()
    for doc_id in sorted(doc_text):
        documents[doc_id] = preprocess_document(doc_id, " ".join(doc_text[doc_id]),
                                                stopwords, lemma_table)
        lemmas = documents[doc_id].content_lemmas()
        occurrence_positions = [i for i, lemma in enumerate(lemmas) if lemma == word]
        senses = doc_senses[doc_id]
        if len(occurrence_positions) != len(senses):
            raise RuntimeError("synthetic corpus lost target occurrences in preprocessing")
        for position, sense in zip(occurrence_positions, senses):
            annotations.append(SenseAnnotation(doc_id, position, word, sense))
    return documents, annotations


# ---------------------------------------------------------------------------
# toy experiment


@dataclass(frozen=True)
class ToyReport:
    structured_class: int
    unstructured_class: int
    rows: tuple  # (lambda, predicted label, structured membership)
    predictions_at: dict  # lambda -> predicted label, for 0, 0.5 and 0.8
    flip_lambda: float | None
    monotone_after_flip: bool


def load_toy_points():
    """The frozen 14-vertex structured / 20-vertex unstructured layout."""
    raw = json.loads(
        resources.files("sensewalk").joinpath("data", "toy_points.json").read_text("utf-8")
    )
    return (
        np.array(raw["structured"], dtype=float),
        np.array(raw["unstructured"], dtype=float),
        np.array(raw["probe"], dtype=float),
    )


def toy_experiment(lambda_grid=None, mu_critical=10):
    """Classify the probe of the built-in toy layout across the lambda grid.

    The structured class is a pyramidal lattice missing its apex; the
    probe sits exactly at the apex, inside the unstructured cloud's reach,
    so a neighborhood classifier gets it wrong at lambda 0 and the walk
    term pulls it back as lambda grows.
    """
    grid = tuple(lambda_grid) if lambda_grid is not None else LAMBDA_GRID
    _check_lambdas(grid)
    structured, unstructured, probe = load_toy_points()
    X = np.vstack([structured, unstructured])
    labels = [1] * len(structured) + [2] * len(unstructured)
    ds = Dataset(list(range(len(X))), X, labels, ["x", "y"])
    # epsilon is below the lattice spacing of 0.05: each lattice vertex links its 3 nearest
    graphs = build_training_graph(ds, GraphConfig(epsilon=0.02, kappa=3))

    # the probe id sorts after every training id, so exact distance ties
    # keep resolving to lattice vertices
    probe_instance = Instance(len(X), probe, None)
    low = knn_predict(ds, probe, k=1)
    views = insert_test(probe, graphs)
    try:
        high = high_level_predict(
            probe_instance, graphs, HighLevelConfig(mu_critical=mu_critical), views
        )
    except AllViewsEmpty:
        high = None

    def predict(lam):
        membership, label = hybrid_predict(low, high, lam)
        return label, membership.scores[1]

    rows = tuple((lam,) + predict(lam) for lam in grid)
    predictions_at = {lam: predict(lam)[0] for lam in (0.0, 0.5, 0.8)}
    flip_lambda = next((lam for lam, label, _ in rows if label == 1), None)
    monotone = flip_lambda is None or all(label == 1 for lam, label, _ in rows
                                          if lam >= flip_lambda)
    return ToyReport(1, 2, rows, predictions_at, flip_lambda, monotone)
