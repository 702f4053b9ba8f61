import csv
import dataclasses
import math
import re
import subprocess
import sys
import typing
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sensewalk
from sensewalk import adjacency, evaluate, features, tourist
from sensewalk.attgraph import GraphConfig, build_training_graph
from sensewalk.classify import (
    HighLevelConfig,
    MembershipVector,
    c45_train,
    hybrid_predict,
    knn_predict,
    train_low_level,
)
from sensewalk.corpus import PositionMismatch
from sensewalk.evaluate import (
    LAMBDA_GRID,
    PARADIGMS,
    FoldPlan,
    InsufficientClassSize,
    PipelineConfig,
    cv_sweep,
    make_fold_plan,
    make_synthetic_corpus,
    p_value,
    run_word_experiments,
    toy_experiment,
    walk_curve_rows,
    write_report_csv,
    write_walk_curves,
)
from sensewalk.features import (
    Dataset,
    feature_stats,
    semantic_features,
    semantic_vocabulary,
    standardize,
    topological_features,
    window_lemmas,
)
from sensewalk.tourist import normalize


def blob_dataset(per_class=20, classes=(1, 2), gap=8.0, spread=0.6, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for k, c in enumerate(classes):
        X.append(rng.normal(k * gap, spread, size=(per_class, dim)))
        labels += [c] * per_class
    X = np.vstack(X)
    return Dataset(list(range(len(X))), X, labels, [f"f{i}" for i in range(dim)])


def two_row_class_dataset():
    """Ten rows of class 1 and two of class 2."""
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0.0, 1.0, (10, 2)), rng.normal(4.0, 1.0, (2, 2))])
    return Dataset(list(range(12)), X, [1] * 10 + [2] * 2, ["x", "y"])


class TestFoldPlan:
    def test_partitions_disjoint_and_exhaustive(self):
        labels = [1] * 30 + [2] * 20
        plan = make_fold_plan(labels, 10, seed=1)
        seen = []
        for train, test in plan.folds:
            assert set(train).isdisjoint(test)
            assert sorted(train + test) == list(range(50))
            seen.extend(test)
        assert sorted(seen) == list(range(50))

    def test_stratification_within_one(self):
        labels = [1] * 33 + [2] * 17
        plan = make_fold_plan(labels, 10, seed=3)
        for _, test in plan.folds:
            ones = sum(1 for i in test if labels[i] == 1)
            twos = sum(1 for i in test if labels[i] == 2)
            assert ones in (33 // 10, 33 // 10 + 1)
            assert twos in (17 // 10, 17 // 10 + 1)

    def test_reproducible_from_seed(self):
        labels = [1] * 25 + [2] * 25
        assert make_fold_plan(labels, 10, 42) == make_fold_plan(labels, 10, 42)
        assert make_fold_plan(labels, 10, 42) != make_fold_plan(labels, 10, 43)

    def test_small_class_reduces_fold_count(self):
        labels = [1] * 30 + [2] * 4
        plan = make_fold_plan(labels, 10, seed=0)
        assert len(plan.folds) == 4

    def test_singleton_class_rejected(self):
        with pytest.raises(InsufficientClassSize):
            make_fold_plan([1, 1, 1, 2], 10)

    def test_no_instances_rejected(self):
        with pytest.raises(InsufficientClassSize):
            make_fold_plan([], 10)

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            make_fold_plan([1, None, 2, 2], 2)

    @pytest.mark.parametrize("n_folds", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, n_folds):
        with pytest.raises(ValueError, match=f"^the fold count must be >= 2, got {n_folds}$"):
            make_fold_plan([1, 1, 2, 2], n_folds)


    @pytest.mark.parametrize("seed", ["a", 1.5, [1, 2]])
    def test_seed_that_is_not_an_integer_rejected_at_entry(self, seed, caplog):
        # the fold-count warning (10 folds, classes of 2) must not come first
        with pytest.raises(ValueError, match="the fold seed must be an integer"):
            make_fold_plan([1, 1, 2, 2], seed=seed)
        assert caplog.records == []
        assert make_fold_plan([1, 1, 2, 2], 2, np.int64(3)) == make_fold_plan([1, 1, 2, 2], 2, 3)

    def test_negative_seed_rejected_at_entry(self, caplog):
        # numpy used to refuse it with "expected non-negative integer"
        with pytest.raises(ValueError, match="^the fold seed must be >= 0, got -1$"):
            make_fold_plan([1, 1, 2, 2], seed=-1)
        assert caplog.records == []


def _integer_parameter_calls():
    """(name, least, call(value)) for each integer parameter checked at entry."""
    ds = blob_dataset(per_class=4)
    graph = build_training_graph(ds, GraphConfig(kappa=1))[0]
    return [
        ("mu_critical", 0, lambda v: cv_sweep(ds, ["knn"], [0.5],
                                              PipelineConfig(high=HighLevelConfig(mu_critical=v)))),
        ("kappa", 1, lambda v: GraphConfig(kappa=v)),
        ("k", 1, lambda v: knn_predict(ds, ds.X[0], k=v)),
        ("knn_k", 1, lambda v: PipelineConfig(knn_k=v)),
        ("the fold count", 2, lambda v: make_fold_plan(ds.labels, v)),
        ("the fold seed", 0, lambda v: make_fold_plan(ds.labels, 2, v)),
        ("mu", 0, lambda v: tourist.walk(graph, graph.ids[0], v)),
        ("mu_critical", 0, lambda v: tourist.component_stats(graph, v)),
        ("the semantic window", 1,
         lambda v: window_lemmas(["a", "b", "c", "d", "e", "f"], 4, v)),
        ("n", 0, lambda v: p_value(0.5, v, {1: 1, 2: 1})),
        ("seed", 0, lambda v: p_value(0.5, 4, {1: 1, 2: 1}, method="montecarlo", seed=v)),
        ("samples", 1, lambda v: p_value(0.5, 4, {1: 1, 2: 1}, method="montecarlo", samples=v)),
        ("min_leaf", 1, lambda v: PipelineConfig(min_leaf=v)),
        ("min_size", 1, lambda v: c45_train(ds, min_size=v)),
        ("min_size", 1, lambda v: train_low_level("knn", ds, min_size=v)),
        ("mu_max", 0, lambda v: tourist.walk_memo(graph, v)),
        ("mu_max", 0, lambda v: walk_curve_rows([graph], v)),
    ]


_INTEGER_CALL_IDS = ["HighLevelConfig", "GraphConfig", "knn_predict", "PipelineConfig", "n_folds",
                     "seed", "walk", "component_stats", "window_lemmas", "p_value", "p_value_seed",
                     "p_value_samples", "min_leaf", "c45_train", "train_low_level", "walk_memo",
                     "walk_curve_rows"]


@pytest.mark.parametrize("at", range(len(_INTEGER_CALL_IDS)), ids=_INTEGER_CALL_IDS)
def test_integer_parameters_refuse_a_float_by_name(at):
    # each float used to fail deep in numpy or range() with a TypeError, and
    # window_lemmas(stream, 4, 2.5) returned 3 lemmas
    name, _, call = _integer_parameter_calls()[at]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
        call(2.5)
    call(np.int64(2))  # numpy integers and bools are integers
    if name != "the fold count":  # True is 1, too few folds
        call(True)


@pytest.mark.parametrize("at", range(len(_INTEGER_CALL_IDS)), ids=_INTEGER_CALL_IDS)
def test_integer_parameters_refuse_a_value_below_their_least(at):
    name, least, call = _integer_parameter_calls()[at]
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(np.int64(least - 1))
    call(least)


def _real_parameter_calls():
    """(name, call(value)) for each real parameter checked at entry."""
    ds = blob_dataset(per_class=4)
    config = PipelineConfig(high=HighLevelConfig(mu_critical=2))
    docs, annotations = make_synthetic_corpus(n_per_sense=6, n_docs=2)
    streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
    even = MembershipVector({1: 0.5, 2: 0.5})
    return [
        ("epsilon", lambda v: GraphConfig(epsilon=v)),
        ("fallback_factor", lambda v: GraphConfig(fallback_factor=v)),
        ("alpha_t", lambda v: HighLevelConfig(alpha_t=v)),
        ("lambda", lambda v: cv_sweep(ds, ("knn",), (v,), config)),
        ("lambda", lambda v: run_word_experiments(streams, annotations, low_levels=("knn",),
                                                  lambda_grid=(v,), config=config, n_folds=2)),
        ("lambda", lambda v: toy_experiment(lambda_grid=(v,), mu_critical=2)),
        ("lam", lambda v: hybrid_predict(even, even, v)),
        ("noise", lambda v: make_synthetic_corpus(n_per_sense=2, n_docs=1, noise=v)),
    ]


_REAL_CALL_IDS = ["epsilon", "fallback_factor", "alpha_t", "cv_sweep", "run_word_experiments",
                  "toy_experiment", "hybrid_predict", "make_synthetic_corpus"]


@pytest.mark.parametrize("at", range(len(_REAL_CALL_IDS)), ids=_REAL_CALL_IDS)
def test_real_parameters_refuse_a_string_none_or_nan_by_name(at):
    # a string or None used to fail with a bare TypeError from a comparison
    name, call = _real_parameter_calls()[at]
    for bad, message in (("0.5", "a real number, got '0.5'"), (None, "a real number, got None"),
                         (math.nan, "(> 0|lie in \\[0, 1\\]), got nan")):
        if bad is None and name == "epsilon":
            call(bad)  # None asks for the median same-class distance
            continue
        with pytest.raises(ValueError, match=f"^{name} must (be )?{message}$"):
            call(bad)
    call(np.float64(0.5))  # numpy floats are real numbers


@pytest.mark.parametrize("config", [GraphConfig, HighLevelConfig, PipelineConfig])
def test_every_numeric_config_field_refuses_a_string(config):
    # PipelineConfig(min_leaf="2") used to fail inside a fold, maybe in a worker
    numeric = [f.name for f in dataclasses.fields(config)
               if {int, float} & set(typing.get_args(f.type) or (f.type,))]
    assert numeric
    for name in numeric:
        with pytest.raises(ValueError, match=f"^{name} must be an? (integer|real number), got '2'$"):
            config(**{name: "2"})


@pytest.mark.parametrize("kwargs, message", [
    ({"n_docs": 0}, "n_docs must be >= 1, got 0"),  # ZeroDivisionError
    ({"n_docs": 2.5}, "n_docs must be an integer, got 2.5"),  # TypeError
    ({"seed": -1}, "seed must be >= 0, got -1"),  # numpy's "expected non-negative integer"
    ({"n_per_sense": -1}, "n_per_sense must be >= 1, got -1"),  # empty documents
    ({"noise": 1.5}, "noise must lie in [0, 1], got 1.5"),
])
def test_synthetic_corpus_refuses_bad_arguments_by_name(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_synthetic_corpus(**{"n_per_sense": 2, **kwargs})


def reference_make_fold_plan(labels, n_folds=10, seed=0):
    """``make_fold_plan`` as it grouped the labels itself, before the class index."""
    by_class = {}
    for i, lab in enumerate(labels):
        if lab is None:
            raise ValueError("cross-validation requires labeled instances")
        by_class.setdefault(lab, []).append(i)
    min_count = min(len(v) for v in by_class.values())
    if min_count < 2:
        raise InsufficientClassSize("every class needs at least 2 instances")
    k = min(n_folds, min_count)
    rng = np.random.default_rng(seed)
    test_sets = [[] for _ in range(k)]
    for class_id in sorted(by_class):
        idx = np.array(by_class[class_id])
        rng.shuffle(idx)
        for f in range(k):
            test_sets[f].extend(int(i) for i in idx[f::k])
    everything = set(range(len(labels)))
    return tuple(
        (tuple(sorted(everything.difference(test_sets[f]))), tuple(sorted(test_sets[f])))
        for f in range(k)
    )


@pytest.mark.parametrize("seed", range(9))
def test_fold_plan_matches_its_own_label_grouping(seed):
    rng = np.random.default_rng(seed)
    family = [(-4, -1, 3), ("bank", "river", "shore", "money"), (0, 1)][seed % 3]
    labels = [c for c in family for _ in range(int(rng.integers(2, 16)))]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    for n_folds in (2, 5, 10):
        plan = make_fold_plan(labels, n_folds, seed)
        assert plan.folds == reference_make_fold_plan(labels, n_folds, seed)
    labels[int(rng.integers(len(labels)))] = None
    with pytest.raises(ValueError, match="requires labeled instances"):
        make_fold_plan(labels, 5, seed)


def test_fold_plan_refuses_labels_that_do_not_order():
    with pytest.raises(ValueError, match=r"class labels 1 and 'a' cannot be ordered"):
        make_fold_plan([1, "a", 1, "a"], 2)


class TestPValue:
    def test_perfect_accuracy_two_balanced_classes(self):
        # random guessing matches 20/20 with probability 0.5^20
        p = p_value(1.0, 20, {1: 10, 2: 10})
        assert p == pytest.approx(0.5**20, rel=1e-9)

    def test_zero_accuracy_full_tail(self):
        assert p_value(0.0, 30, {1: 15, 2: 15}) == pytest.approx(1.0)

    def test_prior_matching_accuracy_near_half(self):
        counts = {1: 280, 2: 120}
        q = 0.7**2 + 0.3**2
        p = p_value(q, 400, counts)
        assert abs(p - 0.5) < 0.1

    def test_monotone_in_accuracy(self):
        counts = {1: 60, 2: 40}
        values = [p_value(a, 100, counts) for a in np.linspace(0, 1, 21)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_montecarlo_agrees_with_binomial(self):
        counts = {1: 50, 2: 50}
        exact = p_value(0.6, 100, counts)
        approx = p_value(0.6, 100, counts, method="montecarlo", seed=1, samples=40000)
        assert abs(exact - approx) < 0.02

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_montecarlo_holds_each_class_count_fixed(self, seed):
        # it simulates Binomial(80, 0.8) + Binomial(20, 0.2), not the binomial
        # tail of n = 100 trials at q = 0.8^2 + 0.2^2
        from scipy import stats

        counts = {1: 80, 2: 20}
        pmf = np.convolve(stats.binom.pmf(np.arange(81), 80, 0.8),
                          stats.binom.pmf(np.arange(21), 20, 0.2))
        fixed_counts_tail = pmf[75:].sum()
        approx = p_value(0.75, 100, counts, method="montecarlo", seed=seed)
        assert abs(approx - fixed_counts_tail) < 0.005
        assert p_value(0.75, 100, counts) - approx > 0.02

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            p_value(0.5, 10, {1: 5, 2: 5}, method="exactish")

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"samples": 0}, "samples must be >= 1, got 0"),
        ({"samples": -1}, "samples must be >= 1, got -1"),
    ])
    def test_montecarlo_refuses_a_negative_seed_or_no_samples(self, kwargs, message):
        # samples=0 returned nan with a RuntimeWarning, and samples=-1 or
        # seed=-1 failed inside numpy
        with pytest.raises(ValueError, match=f"^{message}$"):
            p_value(0.5, 10, {1: 5, 2: 5}, method="montecarlo", **kwargs)
        p_value(0.5, 10, {1: 5, 2: 5}, **kwargs)  # the binomial tail draws nothing

    @pytest.mark.parametrize("method", ["binomial", "montecarlo"])
    @pytest.mark.parametrize("counts, message", [
        ({1: -5, 2: 5}, "the count of class 1 must be >= 0, got -5"),
        ({1: 5, "b": 2.5}, "the count of class 'b' must be an integer, got 2.5"),
    ])
    def test_negative_or_fractional_class_count_refused(self, method, counts, message):
        # {1: -5, 2: 5} gave 0.623 by the binomial tail, and Monte Carlo
        # failed in numpy with "p < 0, p > 1 or p is NaN"
        with pytest.raises(ValueError, match=f"^{message}$"):
            p_value(0.5, 10, counts, method=method)

    @pytest.mark.parametrize("accuracy, message", [
        ("0.5", "a real number, got '0.5'"), (None, "a real number, got None"),
        (math.nan, "lie in [-inf, inf], got nan"),
    ])
    def test_accuracy_that_is_no_number_refused(self, accuracy, message):
        # a string was a bare TypeError, NaN "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=f"^accuracy must (be )?{re.escape(message)}$"):
            p_value(accuracy, 10, {1: 5, 2: 5})

    @pytest.mark.parametrize("method", ["binomial", "montecarlo"])
    @pytest.mark.parametrize("accuracy, n", [(math.inf, 10), (-math.inf, 10), (math.inf, 0)])
    def test_infinite_accuracy_refused(self, method, accuracy, n):
        # +-inf raised OverflowError from int(round(accuracy * n)), and inf with
        # n = 0 the unnamed "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=f"^accuracy must be finite, got {accuracy}$"):
            p_value(accuracy, n, {1: 5, 2: 5}, method=method)

    @pytest.mark.parametrize("method", ["binomial", "montecarlo"])
    def test_finite_accuracy_outside_0_1_keeps_its_tail(self, method):
        assert p_value(1.2, 10, {1: 5, 2: 5}, method=method) == 0.0
        assert p_value(-0.2, 10, {1: 5, 2: 5}, method=method) == 1.0

    def test_all_zero_counts_give_uniform_priors(self):
        for method in ("binomial", "montecarlo"):
            assert (p_value(0.7, 10, {1: 0, 2: 0}, method=method)
                    == p_value(0.7, 10, {1: 5, 2: 5}, method=method))

    @pytest.mark.parametrize("method", ["binomial", "montecarlo"])
    def test_no_classes_or_negative_n_refused(self, method):
        # with no classes q was 0, so any correct guess read as significant (p = 0)
        with pytest.raises(ValueError, match="at least one class"):
            p_value(0.5, 10, {}, method=method)
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            p_value(0.5, -1, {1: 5, 2: 5}, method=method)

    @pytest.mark.parametrize("counts", [{1: 1}, {1: 10, 2: 10}, {1: 80, 2: 20},
                                        {1: 3, 2: 5, 3: 7}, {"a": 1, "b": 1, "c": 1}])
    def test_binomial_tail_matches_scipy_stats_bit_for_bit(self, counts):
        from scipy import stats

        q = sum(p ** 2 for p in normalize(counts).values())
        for n in [0, 1, 2, 3, 7, 20, 99, 100, 1001]:
            for correct in range(-1, n + 2):
                accuracy = correct / n if n else correct
                want = float(stats.binom.sf(int(round(accuracy * n)) - 1, n, q))
                assert p_value(accuracy, n, counts) == want, (n, correct)

    def test_out_of_support_counts(self):
        assert p_value(0.0, 5, {1: 1, 2: 1}) == 1.0
        assert p_value(1.2, 5, {1: 1, 2: 1}) == 0.0
        assert p_value(1.0, 5, {1: 4}) == 1.0  # one class: q = 1

    def test_montecarlo_simulates_all_n_trials(self):
        # thirds of 4 instances: 1 + 1 + 1 trials could never reach 4 correct
        counts = {1: 1, 2: 1, 3: 1}
        tail = (1 / 3) ** 4  # with n_j = (2, 1, 1): P(all correct) = (1/3)^4
        approx = p_value(1.0, 4, counts, method="montecarlo", seed=0, samples=200000)
        assert abs(approx - tail) < 0.002

    def test_montecarlo_whole_shares_draw_as_rounded_shares(self):
        counts = {2: 30, 1: 50, 3: 20}
        rng = np.random.default_rng(4)
        hits = sum(rng.binomial(round(c / 100 * 200), c / 100, size=500) for c in counts.values())
        want = float((hits >= 90).mean())
        assert p_value(0.45, 200, counts, method="montecarlo", seed=4, samples=500) == want

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=6), st.integers(0, 500))
    def test_trial_counts_add_up_to_n(self, counts, n):
        class_counts = dict(enumerate(counts))
        trials = evaluate._trial_counts(class_counts, n)
        assert list(trials) == list(class_counts)
        assert sum(trials.values()) == n
        if sum(counts):
            for c, count in class_counts.items():
                assert abs(trials[c] - count * n / sum(counts)) < 1

    def test_leftover_trials_go_to_largest_remainders_ties_in_order(self):
        assert evaluate._trial_counts({3: 1, 1: 1, 2: 1}, 4) == {3: 2, 1: 1, 2: 1}
        assert evaluate._trial_counts({3: 1, 1: 1, 2: 1}, 5) == {3: 2, 1: 2, 2: 1}
        assert evaluate._trial_counts({1: 1, 2: 2}, 2) == {1: 1, 2: 1}

    def test_p_values_never_load_scipy_stats(self):
        src = str(Path(sensewalk.__file__).resolve().parents[1])
        code = (
            "import sys, sensewalk\n"
            "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
            "sensewalk.p_value(1.0, 20, {1: 10, 2: 10})\n"
            "sensewalk.p_value(0.5, 20, {1: 10, 2: 10}, method='montecarlo')\n"
            "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
            "X = [[0.1 * i, float(i % 2)] for i in range(12)]\n"
            "ds = sensewalk.Dataset(range(12), X, [1, 2] * 6, ['a', 'b'])\n"
            "plan = sensewalk.make_fold_plan(ds.labels, 3)\n"
            "sensewalk.cv_sweep(ds, ('knn',), (0.0, 1.0), fold_plan=plan)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False", "True", "False", "False"]


def cv_accuracy(ds, low_level, lam, plan=None, config=None):
    """Pooled cross-validated accuracy of one classifier at one lambda."""
    return cv_sweep(ds, (low_level,), (lam,), config, plan)[low_level].accuracy_at(lam)


class TestCrossValidate:
    def test_majority_classifier_forced_accuracy(self):
        # constant features starve the likelihoods, so Bayes predicts the
        # majority class everywhere: accuracy is exactly the majority share
        X = np.zeros((100, 2))
        labels = [1] * 70 + [2] * 30
        ds = Dataset(list(range(100)), X, labels, ["a", "b"])
        assert cv_accuracy(ds, "bayes", 0.0, make_fold_plan(labels, 10, 0)) == pytest.approx(0.70)

    def test_lambda_zero_equals_direct_low_level(self):
        ds = blob_dataset(per_class=15, spread=3.0, seed=5)
        plan = make_fold_plan(ds.labels, 5, seed=2)
        accuracy = cv_accuracy(ds, "knn", 0.0, plan)
        # independent low-level-only loop over the same folds
        correct = 0
        for train_idx, test_idx in plan.folds:
            train, test = ds.subset(train_idx), ds.subset(test_idx)
            stats = feature_stats(train)
            train_z, test_z = standardize(train, stats), standardize(test, stats)
            for row in range(len(test_z)):
                pred = knn_predict(train_z, test_z.X[row], k=1).argmax()
                correct += pred == test_z.labels[row]
        assert accuracy == pytest.approx(correct / len(ds))

    def test_separable_dataset_perfect_knn(self):
        ds = blob_dataset(per_class=20, gap=30.0, spread=0.3, seed=1)
        assert cv_accuracy(ds, "knn", 0.0) == 1.0

    def test_accuracy_invariant_under_fold_order(self):
        ds = blob_dataset(per_class=12, spread=2.5, seed=9)
        plan = make_fold_plan(ds.labels, 4, seed=7)
        shuffled = type(plan)(tuple(reversed(plan.folds)), plan.seed)
        assert cv_accuracy(ds, "knn", 0.0, plan) == pytest.approx(
            cv_accuracy(ds, "knn", 0.0, shuffled)
        )

    def test_hybrid_runs_with_positive_lambda(self):
        ds = blob_dataset(per_class=10, gap=10.0, seed=3)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=4))
        report = cv_sweep(ds, ("knn",), (0.5,), config, make_fold_plan(ds.labels, 5, 0))["knn"]
        ((lam, accuracy, p),) = report.rows
        assert lam == 0.5 and 0.0 <= accuracy <= 1.0 and 0.0 < p <= 1.0
        # every instance is scored exactly once
        assert accuracy * len(ds) == pytest.approx(round(accuracy * len(ds)))


class TestSweep:
    def test_report_row_count_matches_grid(self):
        ds = blob_dataset(per_class=10, gap=12.0, seed=2)
        grid = (0.0, 0.5, 1.0)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=3))
        report = cv_sweep(ds, ("knn",), grid, config, make_fold_plan(ds.labels, 5, 0))["knn"]
        assert len(report.rows) == 3
        assert report.best_lambda in grid

    def test_best_lambda_ties_resolve_to_smallest(self):
        ds = blob_dataset(per_class=10, gap=40.0, spread=0.2, seed=4)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=3))
        # trivially separable: every lambda scores 1.0, so best is 0.0
        report = cv_sweep(ds, ("knn",), (0.0, 0.25, 0.5), config,
                          make_fold_plan(ds.labels, 5, 0))["knn"]
        assert report.best_accuracy == 1.0
        assert report.best_lambda == 0.0

    def test_sweep_shares_records_across_classifiers(self):
        ds = blob_dataset(per_class=10, gap=10.0, seed=6)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=3))
        reports = cv_sweep(ds, ("knn", "bayes", "c45"), (0.0, 0.5), config,
                           make_fold_plan(ds.labels, 5, 0))
        assert set(reports) == {"knn", "bayes", "c45"}
        for rep in reports.values():
            assert len(rep.rows) == 2

    def test_best_lambda_one_when_walks_beat_low_level(self):
        # heavily blurred contexts push the nearest-neighbor classifier to
        # chance while the structural contrast between the templated and
        # sampled senses survives, so the sweep prefers the pure walk score
        docs, annotations = make_synthetic_corpus(n_per_sense=30, seed=7, noise=0.35)
        streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
        config = PipelineConfig(high=HighLevelConfig(mu_critical=8))
        report = run_word_experiments(
            streams, annotations, paradigm="semantic", window=5,
            low_levels=("knn",), lambda_grid=(0.0, 1.0), config=config,
            n_folds=5, seed=0,
        )[0]
        assert report.accuracy_at(1.0) > report.accuracy_at(0.0)
        assert report.best_lambda == 1.0

    def test_sweep_bookkeeping_monotone(self):
        ds = blob_dataset(per_class=12, gap=6.0, spread=1.2, seed=11)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=4))
        report = cv_sweep(ds, ("knn",), LAMBDA_GRID, config,
                          make_fold_plan(ds.labels, 4, 1))["knn"]
        assert report.accuracy_at(report.best_lambda) >= report.accuracy_at(0.0)
        assert report.accuracy_at(report.best_lambda) == report.best_accuracy

    @pytest.mark.parametrize("low_levels, grid", [
        (("knn",), (0.0, 1.5)),
        (("knn", "bayes"), (-0.05, 0.5)),
        (("knn", "svm"), (0.0, 0.5)),
        (("knn",), ()),
        ((), (0.0, 0.5)),
        ((), None),
        # a repeated name or lambda: run_word_experiments used to repeat its
        # rows, while cv_sweep's dict kept one
        (("knn", "c45", "knn"), (0.0,)),
        (("knn",), (0.0, 0.5, 0.5)),
        (("knn",), (0, 0.0)),
    ])
    def test_bad_grid_rejected_before_any_fold(self, monkeypatch, low_levels, grid):
        def never(*args, **kwargs):
            raise AssertionError("scoring started")

        monkeypatch.setattr(evaluate, "_fold_records", never)
        monkeypatch.setattr(adjacency, "build_network", never)
        with pytest.raises(ValueError):
            cv_sweep(blob_dataset(), low_levels, grid)
        docs, annotations = make_synthetic_corpus(n_per_sense=6, n_docs=2)
        streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
        with pytest.raises(ValueError):
            run_word_experiments(streams, annotations, paradigm="topological",
                                 low_levels=low_levels, lambda_grid=grid)

    def test_generator_of_classifiers_gives_the_list_reports(self):
        # the names are read more than once; a generator used to come back empty
        ds = blob_dataset(per_class=10, gap=10.0, seed=6)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=3))
        plan = make_fold_plan(ds.labels, 5, 0)
        names = ["knn", "c45"]
        want = cv_sweep(ds, names, (0.0, 0.5), config, plan)
        assert cv_sweep(ds, (n for n in names), (0.0, 0.5), config, plan) == want
        assert list(want) == names
        docs, annotations = make_synthetic_corpus(n_per_sense=8, n_docs=2)
        streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
        sweep = dict(paradigm="semantic", lambda_grid=(0.0, 1.0), config=config, n_folds=4)
        want = run_word_experiments(streams, annotations, low_levels=names, **sweep)
        assert len(want) == 2
        assert run_word_experiments(streams, annotations, low_levels=iter(names), **sweep) == want

    def test_unknown_paradigm_rejected_before_any_word(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("scoring started")

        monkeypatch.setattr(evaluate, "cv_sweep", never)
        for annotations in ([], make_synthetic_corpus(n_per_sense=6, n_docs=2)[1]):
            with pytest.raises(ValueError, match="paradigm must be one of"):
                run_word_experiments({}, annotations, paradigm="syntactic")

    def test_two_row_class_rejected_before_any_fold_when_walks_score(self, monkeypatch):
        # 2 folds, so each training fold keeps one row of class 2, too few
        # for its class graph; lambda 0 alone builds no graph and runs
        ds = two_row_class_dataset()
        plan = make_fold_plan(ds.labels, 10, 0)
        assert len(plan.folds) == 2
        assert cv_sweep(ds, ("knn",), (0.0,), fold_plan=plan)["knn"].rows[0][0] == 0.0

        def never(*args, **kwargs):
            raise AssertionError("scoring started")

        monkeypatch.setattr(evaluate, "_fold_records", never)
        with pytest.raises(InsufficientClassSize,
                           match=r"class 2 keeps 1 training instance\(s\) in fold 1 of 2"):
            cv_sweep(ds, ("knn",), (0.0, 0.5), fold_plan=plan)

    def test_report_csv_format(self, tmp_path):
        ds = blob_dataset(per_class=8, gap=12.0, seed=2)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=2))
        report = cv_sweep(ds, ("knn",), (0.0, 1.0), config,
                          make_fold_plan(ds.labels, 4, 0), word="crane",
                          paradigm="semantic")["knn"]
        path = tmp_path / "report.csv"
        write_report_csv([report], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["word", "paradigm", "algorithm", "lambda", "accuracy", "p_value"]
        assert len(rows) == 3
        assert rows[1][0] == "crane"
        assert float(rows[1][4]) <= 1.0


def test_one_fold_is_alive_at_a_time(monkeypatch):
    # the spy's list lives in this process, so the folds must too
    monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: 1)
    folds = []  # weak references to each fold's class graphs
    real = evaluate.build_training_graph

    def tracking(dataset, config=None):
        assert all(ref() is None for graphs in folds for ref in graphs)
        graphs = real(dataset, config)
        folds.append([weakref.ref(g) for g in graphs])
        return graphs

    monkeypatch.setattr(evaluate, "build_training_graph", tracking)
    ds = blob_dataset(per_class=12, spread=2.0)
    plan = make_fold_plan(ds.labels, 4)
    reports = cv_sweep(ds, ["knn", "bayes", "c45"], (0.0, 0.5), fold_plan=plan)
    assert len(folds) == 4 and set(reports) == {"knn", "bayes", "c45"}


@pytest.mark.parametrize("folds, message", [
    ([((0, 1, 3, 4), (2, 9))], "fold 1 of 1 holds row 9; the dataset has rows 0..5"),
    ([((0, 1, 3, 4), (-1, 2))], "fold 1 of 1 holds row -1"),
    ([((1, 2, 4, 5), (0, 3)), ((0, 1, 2, 3, 4, 5), (1, 4))],
     "fold 2 of 2 trains on row 1, which it also tests"),
], ids=["past-the-end", "negative", "tested-row-trains"])
def test_malformed_fold_plan_rejected_before_any_fit(monkeypatch, folds, message):
    def never(*args, **kwargs):
        raise AssertionError("scoring started")

    monkeypatch.setattr(evaluate, "_fold_records", never)
    ds = Dataset(range(6), [[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]], [1, 1, 1, 2, 2, 2], ["x"])
    for grid in ((0.0,), (0.0, 0.5)):
        with pytest.raises(ValueError, match=message):
            cv_sweep(ds, ("knn",), grid, fold_plan=FoldPlan(tuple(folds), 0))


@pytest.mark.parametrize("part", ["test", "train"])
def test_unlabeled_row_in_a_plan_rejected_before_any_fit(monkeypatch, part):
    # an unlabeled test row used to count as an error in the accuracy, and
    # an unlabeled training row failed only when its fold's classifiers trained
    def never(*args, **kwargs):
        raise AssertionError("scoring started")

    monkeypatch.setattr(evaluate, "_fold_records", never)
    labels = [1, 1, 1, 2, 2, 2, None, None]
    ds = Dataset(range(8), np.arange(8.0).reshape(8, 1), labels, ["x"])
    fold = ((1, 2, 4, 5), (0, 3, 6)) if part == "test" else ((1, 2, 4, 5, 7), (0, 3))
    plan = FoldPlan((((0, 1, 3, 4), (2, 5)), fold), 0)
    row = 6 if part == "test" else 7
    for grid in ((0.0,), (0.0, 0.5)):
        with pytest.raises(ValueError, match=f"^fold 2 of 2 holds row {row}, which is unlabeled"):
            cv_sweep(ds, ("knn",), grid, fold_plan=plan)


@pytest.mark.parametrize("folds", [(), (((*range(24),), ()),)], ids=["no-fold", "empty-test"])
def test_plan_that_tests_no_row_rejected_before_any_fit(monkeypatch, folds):
    # the accuracy divided by the number of tested rows, 0 here
    def never(*args, **kwargs):
        raise AssertionError("scoring started")

    monkeypatch.setattr(evaluate, "_fold_records", never)
    docs, annotations = make_synthetic_corpus(n_per_sense=12, n_docs=2, seed=3)
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in docs.items()}
    [(_, ds)] = evaluate.word_datasets(streams, annotations)
    assert len(ds) == 24
    for grid in ((0.0,), (0.0, 0.5)):
        with pytest.raises(ValueError, match="^the fold plan tests no row"):
            cv_sweep(ds, ("knn",), grid, fold_plan=FoldPlan(folds, 0))


def test_row_linked_into_no_class_keeps_its_low_level_label():
    # one class-1 row far beyond epsilon * fallback_factor of both blobs
    # links into no class component when it is tested
    ds = blob_dataset(per_class=10, gap=8.0, seed=4)
    far = Dataset(ds.ids + [len(ds)], np.vstack([ds.X, [[200.0, 200.0]]]), ds.labels + [1],
                  ds.feature_names)
    config = PipelineConfig(high=HighLevelConfig(mu_critical=3))
    records = evaluate._fold_records(far, ("knn", "c45"), config, make_fold_plan(far.labels, 3))
    (lost,) = [r for r in records if r.high is None]
    assert lost.index == len(ds)
    for low in lost.lows.values():
        assert {evaluate.hybrid_predict(low, None, lam)[1] for lam in LAMBDA_GRID} == {low.argmax()}


def _oracle_accuracy(records, low_level, lam):
    """The accuracy as one ``hybrid_predict`` call per record."""
    correct = sum(1 for r in records
                  if evaluate.hybrid_predict(r.lows[low_level], r.high, lam)[1] == r.true)
    return correct / len(records)


class TestAccuracies:
    """The array pass over a sweep's records gives hybrid_predict's accuracies."""

    @staticmethod
    def _check(records, low_level, grid):
        got = evaluate._accuracies(records, low_level, grid)
        assert got == [_oracle_accuracy(records, low_level, lam) for lam in grid]
        assert all(type(acc) is float for acc in got)

    def test_ties_and_unlinked_records_on_three_classes(self):
        M = MembershipVector
        # one ulp apart: blending this vector with itself at 0.2 rounds both
        # to one value, so an unlinked record must not be blended
        a, b = 0.6369616873214543, 0.6369616873214544
        records = [
            evaluate._Record(0, 1, {"knn": M({1: 0.5, 2: 0.5, 3: 0.0})}, None),
            evaluate._Record(1, 2, {"knn": M({1: 0.5, 2: 0.5, 3: 0.0})}, None),
            # the blend ties exactly at 0.5, and the tie goes to class 1
            evaluate._Record(2, 2, {"knn": M({1: 0.75, 2: 0.25, 3: 0.0})},
                             M({1: 0.25, 2: 0.75, 3: 0.0})),
            evaluate._Record(3, 3, {"knn": M({1: 0.25, 2: 0.25, 3: 0.5})},
                             M({1: 0.5, 2: 0.0, 3: 0.5})),
            evaluate._Record(4, 2, {"knn": M({1: a, 2: b, 3: 0.0})}, None),
        ]
        assert (1 - 0.2) * a + 0.2 * a == (1 - 0.2) * b + 0.2 * b
        assert evaluate.hybrid_predict(records[2].lows["knn"], records[2].high, 0.5)[1] == 1
        self._check(records, "knn", LAMBDA_GRID)
        assert evaluate._accuracies(records, "knn", (0.0, 0.2, 0.5, 1.0)) == [0.6, 0.6, 0.6, 0.6]

    def test_records_of_a_hybrid_run(self):
        # a class-1 row far beyond both blobs links into no class
        ds = blob_dataset(per_class=10, classes=(1, 2, 3), gap=2.0, spread=1.5, seed=4)
        far = Dataset(ds.ids + [len(ds)], np.vstack([ds.X, [[200.0, 200.0]]]), ds.labels + [1],
                      ds.feature_names)
        config = PipelineConfig(high=HighLevelConfig(mu_critical=3))
        names = ("knn", "bayes", "c45")
        records = evaluate._fold_records(far, names, config, make_fold_plan(far.labels, 3))
        assert any(r.high is None for r in records) and any(r.high for r in records)
        for name in names:
            self._check(records, name, LAMBDA_GRID)

    def test_lambda_zero_plan_whose_fold_trains_without_a_class(self):
        # the first fold trains on class 1 alone and tests both class-2 rows
        ds = two_row_class_dataset()
        plan = FoldPlan(((tuple(range(10)), (10, 11)), (tuple(range(2, 12)), (0, 1))), 0)
        names = ("knn", "bayes", "c45")
        records = evaluate._fold_records(ds, names, PipelineConfig(), plan, need_high=False)
        assert [sorted(r.lows["knn"].scores) for r in records] == [[1], [1], [1, 2], [1, 2]]
        reports = cv_sweep(ds, names, (0.0,), fold_plan=plan)
        for name in names:
            self._check(records, name, (0.0,))
            assert reports[name].rows[0][1] == _oracle_accuracy(records, name, 0.0)


class TestWalkCurves:
    def test_rows_and_steady_state(self, tmp_path):
        # class 1: rigid lattice; class 2: diffuse cloud
        xs, ys = np.meshgrid(np.arange(4), np.arange(4))
        lattice = np.column_stack([xs.ravel(), ys.ravel()]) * 1.0
        rng = np.random.default_rng(21)
        cloud = rng.uniform(10, 16, size=(16, 2))
        X = np.vstack([lattice, cloud])
        labels = [1] * 16 + [2] * 16
        ds = Dataset(list(range(32)), X, labels, ["x", "y"])
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.4, kappa=3))
        rows = walk_curve_rows(graphs, mu_max=8)
        assert len(rows) == 2 * 9
        per_class = {}
        for class_id, mu, t, c, steady in rows:
            per_class.setdefault(class_id, steady)
            assert t >= 0 and c >= 0
        path = tmp_path / "curves.csv"
        write_walk_curves(rows, path)
        with open(path) as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["class", "mu", "mean_transient", "mean_cycle", "steady_state_mu"]
        assert len(lines) == 1 + len(rows)


class TestSyntheticCorpus:
    def test_counts_and_annotations(self):
        docs, annotations = make_synthetic_corpus(n_per_sense=20, seed=3)
        senses = [a.sense_id for a in annotations]
        assert senses.count(1) == 20
        assert senses.count(2) == 20
        for ann in annotations:
            lemmas = docs[ann.document_id].content_lemmas()
            assert lemmas[ann.position] == ann.word

    def test_deterministic(self):
        a = make_synthetic_corpus(n_per_sense=10, seed=5)
        b = make_synthetic_corpus(n_per_sense=10, seed=5)
        assert [d.raw_text for d in a[0].values()] == [d.raw_text for d in b[0].values()]

    def test_word_experiment_semantic_separates(self):
        docs, annotations = make_synthetic_corpus(n_per_sense=15, seed=2)
        streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
        config = PipelineConfig(high=HighLevelConfig(mu_critical=3))
        reports = run_word_experiments(
            streams, annotations, paradigm="semantic", window=5,
            low_levels=("knn",), lambda_grid=(0.0,), config=config,
            n_folds=5, seed=0,
        )
        assert len(reports) == 1
        assert reports[0].accuracy_at(0.0) >= 0.9


def _assert_same_dataset(got, want):
    assert got.ids == want.ids and got.labels == want.labels
    assert got.feature_names == want.feature_names
    assert got.X.tobytes() == want.X.tobytes() and got.X.shape == want.X.shape
    assert got.X.flags.c_contiguous


class TestFoldDatasets:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_selected_folds_equal_refit_folds(self, seed):
        docs, annotations = make_synthetic_corpus(n_per_sense=15, seed=7 + seed, noise=0.35)
        streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
        word_annots = sorted(annotations, key=lambda a: (a.document_id, a.position))
        base = semantic_features(streams, word_annots, 5)
        plan = make_fold_plan(base.labels, 10, seed)  # as run_word_experiments plans
        dropped = 0
        for train_idx, test_idx in plan.folds:
            train = [word_annots[i] for i in train_idx]
            vocab = semantic_vocabulary(streams, train, 5)
            refit = (semantic_features(streams, train, 5, vocab),
                     semantic_features(streams, [word_annots[i] for i in test_idx], 5, vocab))
            for got, want in zip(evaluate._fold_datasets(base, train_idx, test_idx), refit):
                _assert_same_dataset(got, want)
            dropped += base.dim - len(vocab)
        assert dropped > 0  # some fold leaves out a lemma only its test windows hold

    def test_column_no_training_row_holds_is_dropped(self):
        # column "b" is 0 in every row but 1 and 6: a fold that trains on
        # neither drops it; a fold that trains on one keeps every column
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 3))
        X[:, 1] = 0.0
        X[1, 1], X[6, 1] = 2.5, -1.0
        ds = Dataset(range(8), X, [1, 1, 1, 1, 2, 2, 2, 2], ["a", "b", "c"])
        train_idx, test_idx = (0, 2, 3, 4, 5, 7), (1, 6)
        without_b = Dataset(ds.ids, np.delete(X, 1, axis=1), ds.labels, ["a", "c"])
        got = evaluate._fold_datasets(ds, train_idx, test_idx)
        for got_ds, want in zip(got, (without_b.subset(train_idx), without_b.subset(test_idx))):
            _assert_same_dataset(got_ds, want)
        train_idx, test_idx = (1, 2, 3, 5, 6, 7), (0, 4)
        got = evaluate._fold_datasets(ds, train_idx, test_idx)
        for got_ds, want in zip(got, (ds.subset(train_idx), ds.subset(test_idx))):
            _assert_same_dataset(got_ds, want)

    def test_one_extraction_per_word(self, monkeypatch):
        docs, annotations = make_synthetic_corpus(n_per_sense=10, seed=3)
        streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
        calls = []
        real = features.window_lemmas

        def counted(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(features, "window_lemmas", counted)
        run_word_experiments(streams, annotations, "semantic", low_levels=("knn",),
                             lambda_grid=(0.0, 0.5), n_folds=10,
                             config=PipelineConfig(high=HighLevelConfig(mu_critical=2)))
        # one window per occurrence, not one per fold
        assert len(calls) == len(annotations)


@pytest.mark.parametrize("paradigm", PARADIGMS)
@pytest.mark.parametrize("change", [
    dict(position=10**6), dict(position=-1), dict(document_id="nodoc"), "moved",
], ids=["past-the-end", "negative", "unknown-document", "moved-onto-another-lemma"])
def test_annotations_checked_before_anything_is_built(monkeypatch, paradigm, change):
    docs, annotations = make_synthetic_corpus(n_per_sense=12)
    streams = {doc_id: d.content_lemmas() for doc_id, d in docs.items()}
    first = annotations[0]
    change = dict(position=first.position + 1) if change == "moved" else change
    bad = [dataclasses.replace(first, **change)] + annotations[1:]

    def never(*args, **kwargs):
        raise AssertionError("a network or feature was built")

    for name in ("semantic_features", "topological_features"):
        monkeypatch.setattr(evaluate, name, never)
    monkeypatch.setattr(adjacency, "build_network", never)
    with pytest.raises(PositionMismatch):
        run_word_experiments(streams, bad, paradigm, lambda_grid=(0.0,), n_folds=3)


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_word_datasets_sort_words_and_rows(monkeypatch, paradigm):
    # annotations of two words in a shuffled order: the words come sorted,
    # each word's rows in (document, position) order, and one network
    # serves both words
    streams, annotations = {}, []
    for word, seed in (("crane", 3), ("bear", 4)):
        docs, word_annots = make_synthetic_corpus(word=word, n_per_sense=6, n_docs=2, seed=seed)
        streams.update({f"{word}_{d}": doc.content_lemmas() for d, doc in docs.items()})
        annotations += [dataclasses.replace(a, document_id=f"{word}_{a.document_id}")
                        for a in word_annots]
    annotations = [annotations[i] for i in np.random.default_rng(0).permutation(len(annotations))]
    network = adjacency.build_network(streams, annotations)
    calls = []
    build = adjacency.build_network

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(adjacency, "build_network", counted)
    got = list(evaluate.word_datasets(streams, annotations, paradigm))
    assert [word for word, _ in got] == ["bear", "crane"]
    assert len(calls) == (paradigm == "topological")
    for word, dataset in got:
        rows = sorted((a for a in annotations if a.word == word),
                      key=lambda a: (a.document_id, a.position))
        want = (semantic_features(streams, rows, 5) if paradigm == "semantic"
                else topological_features(network, rows))
        _assert_same_dataset(dataset, want)


class TestToyExperiment:
    def test_probe_misclassified_without_walks(self):
        report = toy_experiment()
        assert report.predictions_at[0.0] == report.unstructured_class

    def test_flip_to_structured_by_point_eight(self):
        report = toy_experiment()
        assert report.flip_lambda is not None
        assert report.flip_lambda <= 0.8
        assert report.predictions_at[0.8] == report.structured_class

    def test_monotone_after_flip(self):
        report = toy_experiment()
        assert report.monotone_after_flip

    @pytest.mark.parametrize("grid, message", [
        ((), "the lambda grid is empty"),
        ((0.0, 1.5), "lambda must lie in"),
        ((-0.05,), "lambda must lie in"),
        ((0.0, 0.5, 0.5), "^lambda 0.5 is given twice; give each once$"),
        ((0, 0.0), "^lambda 0.0 is given twice; give each once$"),
    ])
    def test_bad_grid_rejected_before_any_walk(self, monkeypatch, grid, message):
        def never(*args, **kwargs):
            raise AssertionError("scoring started")

        monkeypatch.setattr(evaluate, "build_training_graph", never)
        with pytest.raises(ValueError, match=message):
            toy_experiment(lambda_grid=grid)
