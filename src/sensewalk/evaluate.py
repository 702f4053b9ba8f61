"""Experiment harness: stratified cross-validation, compliance-term sweeps,
random-baseline p-values, walk curves, and the built-in toy experiment.

Per fold the standardizer is fitted on training data only, class graphs
are built on training data only, and the compliance term enters at
prediction time, so one pass over the folds can score every low-level
classifier and every lambda from the same cached memberships.
"""

import csv
import json
import logging
from collections import Counter
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
from .corpus import SenseAnnotation, preprocess_document
from .features import (
    Dataset,
    Instance,
    as_int,
    feature_stats,
    rows_by_label,
    semantic_features,
    semantic_vocabulary,
    sorted_values,
    standardize,
    topological_features,
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
    as_int(seed, "the fold seed")
    if as_int(n_folds, "the fold count") < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {n_folds!r}")
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
    folds = []
    everything = set(range(len(labels)))
    for f in range(k):
        test = tuple(sorted(test_sets[f]))
        train = tuple(sorted(everything.difference(test)))
        folds.append((train, test))
    return FoldPlan(tuple(folds), seed)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one classification run needs besides the data."""

    graph: GraphConfig = field(default_factory=GraphConfig)
    high: HighLevelConfig = field(default_factory=HighLevelConfig)
    knn_k: int = 1
    min_leaf: int = 2

    def __post_init__(self):
        if as_int(self.knn_k, "knn_k") < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k!r}")


def _check_choices(low_levels, lambdas):
    """Reject an empty or unknown low-level list, and an empty grid or
    compliance terms outside [0, 1]."""
    if not low_levels:
        raise ValueError(f"give at least one low-level classifier of {LOW_LEVEL_NAMES}")
    for name in low_levels:
        if name not in LOW_LEVEL_NAMES:
            raise ValueError(f"low_level must be one of {LOW_LEVEL_NAMES}, got {name!r}")
    _check_lambdas(lambdas)


def _check_lambdas(lambdas):
    """Reject an empty grid or compliance terms outside [0, 1]."""
    if not lambdas:
        raise ValueError("the lambda grid is empty; give at least one lambda in [0, 1]")
    for lam in lambdas:
        if not 0 <= lam <= 1:
            raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")


def _check_walk_folds(dataset, fold_plan):
    """Every class keeps 2 training rows in every fold, as its class graph
    (and so any lambda > 0) needs; checked before any fold is fitted."""
    for f, (train_idx, _) in enumerate(fold_plan.folds, start=1):
        kept = Counter(dataset.labels[i] for i in train_idx)
        for class_id in dataset.classes():
            if kept[class_id] < 2:
                raise InsufficientClassSize(
                    f"class {class_id!r} keeps {kept[class_id]} training instance(s) in fold "
                    f"{f} of {len(fold_plan.folds)}; lambda > 0 needs >= 2 per class"
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


def _fold_records(dataset, low_levels, config, fold_plan, fold_datasets=None, need_high=True):
    """Score every test instance once; lambdas blend these records later."""
    records = []
    for train_idx, test_idx in fold_plan.folds:
        if fold_datasets is not None:
            train_ds, test_ds = fold_datasets(train_idx, test_idx)
        else:
            train_ds, test_ds = dataset.subset(train_idx), dataset.subset(test_idx)
        stats = feature_stats(train_ds)
        train_z = standardize(train_ds, stats)
        test_z = standardize(test_ds, stats)
        graphs = build_training_graph(train_z, config.graph) if need_high else None
        predictors = {
            name: train_low_level(name, train_z, knn_k=config.knn_k, min_size=config.min_leaf)
            for name in low_levels
        }
        fold_lows = {name: predictors[name].rows(test_z.X) for name in low_levels}
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


def _accuracy(records, low_level, lam):
    correct = sum(
        1 for r in records if hybrid_predict(r.lows[low_level], r.high, lam)[1] == r.true
    )
    return correct / len(records)


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
    priors = normalize(class_counts)
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
        rng = np.random.default_rng(seed)
        hits = np.zeros(samples, dtype=int)
        trials = _trial_counts(class_counts, n)
        for c, p in priors.items():
            hits += rng.binomial(trials[c], p, size=samples)
        return float((hits >= correct).mean())
    raise ValueError(f"unknown p-value method {method!r}")


def cv_sweep(dataset, low_levels, lambda_grid=None, config=None, fold_plan=None,
             fold_datasets=None, word="", paradigm=""):
    """One fold pass, every classifier, every lambda; shared walk scores."""
    config = config or PipelineConfig()
    low_levels = tuple(low_levels)  # read more than once
    grid = tuple(lambda_grid) if lambda_grid is not None else LAMBDA_GRID
    _check_choices(low_levels, grid)
    if fold_plan is None:
        fold_plan = make_fold_plan(dataset.labels)
    need_high = any(lam > 0 for lam in grid)
    if need_high:
        _check_walk_folds(dataset, fold_plan)
    records = _fold_records(dataset, low_levels, config, fold_plan, fold_datasets, need_high)
    counts = {c: len(rows) for c, rows in rows_by_label([r.true for r in records]).items()}
    reports = {}
    for name in low_levels:
        rows = []
        for lam in grid:
            acc = _accuracy(records, name, lam)
            rows.append((lam, acc, p_value(acc, len(records), counts)))
        best_lambda = max(rows, key=lambda row: row[1])[0]  # the first of equal bests
        reports[name] = ExperimentReport(word, paradigm, name, tuple(rows), best_lambda)
    return reports


def write_report_csv(reports, path):
    """Rows of ``word,paradigm,algorithm,lambda,accuracy,p_value``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "paradigm", "algorithm", "lambda", "accuracy", "p_value"])
        for report in reports:
            for lam, acc, p in report.rows:
                writer.writerow([report.word, report.paradigm, report.low_level,
                                 f"{lam:.2f}", repr(acc), repr(p)])


# ---------------------------------------------------------------------------
# corpus-level experiments


def run_word_experiments(token_streams, annotations, paradigm="semantic", window=5,
                         low_levels=("knn", "bayes", "c45"), lambda_grid=None,
                         config=None, n_folds=10, seed=0):
    """Sweep every annotated word separately; returns one report per
    (word, low level). Semantic vocabularies are refitted inside each fold
    so no test-window lemma leaks into training features."""
    from .adjacency import build_network

    if paradigm not in PARADIGMS:
        raise ValueError(f"paradigm must be one of {PARADIGMS}, got {paradigm!r}")
    low_levels = tuple(low_levels)  # read more than once
    lambda_grid = tuple(lambda_grid) if lambda_grid is not None else LAMBDA_GRID
    _check_choices(low_levels, lambda_grid)
    reports = []
    network = build_network(token_streams, annotations) if paradigm == "topological" else None
    for word in sorted({a.word for a in annotations}):
        word_annots = sorted(
            (a for a in annotations if a.word == word),
            key=lambda a: (a.document_id, a.position),
        )
        if paradigm == "semantic":
            base = semantic_features(token_streams, word_annots, window)

            def fold_datasets(train_idx, test_idx, _annots=word_annots):
                train = [_annots[i] for i in train_idx]
                test = [_annots[i] for i in test_idx]
                vocab = semantic_vocabulary(token_streams, train, window)
                return (
                    semantic_features(token_streams, train, window, vocab),
                    semantic_features(token_streams, test, window, vocab),
                )
        else:
            base = topological_features(network, word_annots)
            fold_datasets = None
        plan = make_fold_plan(base.labels, n_folds, seed)
        swept = cv_sweep(base, low_levels, lambda_grid, config, plan, fold_datasets,
                         word=word, paradigm=paradigm)
        reports.extend(swept[name] for name in low_levels)
    return reports


# ---------------------------------------------------------------------------
# walk curves


def walk_curve_rows(class_graphs, mu_max):
    """Per-class mean transient/cycle curves and their steady-state onset.

    The onset is the smallest mu from which both curves stop changing up
    to ``mu_max``; a class still drifting at the cap reports the cap.
    """
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "mu", "mean_transient", "mean_cycle", "steady_state_mu"])
        for class_id, mu, t, c, steady in rows:
            writer.writerow([class_id, mu, repr(t), repr(c), steady])


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
    rng = np.random.default_rng(seed)

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
    for doc_id in sorted(doc_text):
        documents[doc_id] = preprocess_document(doc_id, " ".join(doc_text[doc_id]))
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


def toy_experiment(lambda_grid=None, mu_critical=10, epsilon=0.02, kappa=3):
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
    graphs = build_training_graph(ds, GraphConfig(epsilon=epsilon, kappa=kappa))

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
    flip_lambda = None
    for lam, label, _ in rows:
        if label == 1:
            flip_lambda = lam
            break
    monotone = True
    if flip_lambda is not None:
        monotone = all(label == 1 for lam, label, _ in rows if lam >= flip_lambda)
    return ToyReport(1, 2, rows, predictions_at, flip_lambda, monotone)
