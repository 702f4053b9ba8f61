import math
import sys
import threading
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensewalk import classify, evaluate, tourist
from sensewalk.attgraph import GraphConfig, InsertionView, build_training_graph, insert_test
from sensewalk.classify import (
    DecisionTree,
    HighLevelConfig,
    MembershipVector,
    TreeNode,
    bayes_bandwidths_csv,
    bayes_predict,
    bayes_train,
    c45_predict,
    c45_train,
    candidate_thresholds,
    combine_walk_variations,
    entropy,
    high_level_predict,
    hybrid_predict,
    information_gain,
    knn_predict,
    train_low_level,
    tree_to_text,
)
from sensewalk.evaluate import PipelineConfig, make_synthetic_corpus, run_word_experiments
from sensewalk.features import Dataset, Instance
from sensewalk.tourist import AllViewsEmpty


def make_dataset(points, labels, ids=None):
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    ids = list(range(len(X))) if ids is None else ids
    return Dataset(ids, X, list(labels), [f"f{i}" for i in range(X.shape[1])])


RED, BLUE = 1, 2


class TestKnn:
    def test_coincident_point_k1(self):
        train = make_dataset([[0, 0], [5, 5]], [RED, BLUE])
        m = knn_predict(train, np.array([0.0, 0.0]), k=1)
        assert m.scores == {RED: 1.0, BLUE: 0.0}

    def _ring_layout(self):
        # concentric layout: 4 red then 1 blue inside radius 5, 8 more blue
        # out to radius 13 -> k=5 favors red, k=13 favors blue
        points, labels = [], []
        for r in (1, 2, 3, 4):
            points.append([r, 0.0])
            labels.append(RED)
        points.append([5, 0.0])
        labels.append(BLUE)
        for r in range(6, 14):
            points.append([r, 0.0])
            labels.append(BLUE)
        return make_dataset(points, labels)

    def test_five_nearest_majority_red(self):
        train = self._ring_layout()
        m = knn_predict(train, np.zeros(2), k=5)
        assert m.scores[RED] == pytest.approx(0.8)
        assert m.scores[BLUE] == pytest.approx(0.2)
        assert m.argmax() == RED

    def test_thirteen_nearest_majority_blue(self):
        train = self._ring_layout()
        m = knn_predict(train, np.zeros(2), k=13)
        assert m.argmax() == BLUE

    def test_distance_tie_broken_by_id(self):
        train = make_dataset([[1.0], [-1.0]], [BLUE, RED], ids=[5, 2])
        m = knn_predict(train, np.array([0.0]), k=1)
        assert m.argmax() == RED  # id 2 beats id 5 at equal distance

    def test_ids_that_do_not_order_rejected_when_training(self):
        train = Dataset([0, "a", 1], [[0.0], [0.0], [1.0]], [RED, BLUE, RED], ["x"])
        for train_knn in (lambda: knn_predict(train, [0.0], k=1),
                          lambda: train_low_level("knn", train)):
            with pytest.raises(ValueError, match="ids 0 and 'a' cannot be ordered"):
                train_knn()

    def test_scores_sum_to_one(self):
        train = self._ring_layout()
        for k in (1, 3, 7):
            m = knn_predict(train, np.array([0.5, 0.5]), k=k)
            assert sum(m.scores.values()) == pytest.approx(1.0)

    def test_k_beyond_the_training_rows_votes_all_of_them(self):
        train = make_dataset([[0.0], [1.0], [2.0]], [RED, RED, BLUE])
        m = knn_predict(train, np.array([0.0]), k=5)
        assert m.scores == {RED: 2 / 3, BLUE: 1 / 3}

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        train = make_dataset([[0, 0], [5, 5]], [RED, BLUE])
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            knn_predict(train, np.zeros(2), k=k)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_match_a_full_sort(self, seed):
        # points on a few rings around the query, ids shuffled: most
        # distances tie, so the k nearest are decided by id
        rng = np.random.default_rng(seed)
        angles = rng.choice(8, size=30) * (np.pi / 4)
        radii = rng.choice([1.0, 2.0, 3.0], size=30)
        points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        points = np.round(points, 12)  # equal radii give exactly equal distances
        ids = [int(i) for i in rng.permutation(100)[:30]]
        labels = rng.choice([RED, BLUE, 3], size=30).tolist()
        train = make_dataset(points, labels, ids=ids)
        x = np.zeros(2)
        d = np.sqrt(((train.X - x) ** 2).sum(axis=1))
        order = sorted(range(len(d)), key=lambda i: (d[i], ids[i]))
        for k in range(1, len(d) + 3):
            expected = Counter(labels[i] for i in order[:k])
            m = knn_predict(train, x, k=k)
            votes = min(k, len(d))  # every row votes once k exceeds them
            assert m.scores == {c: expected.get(c, 0) / votes for c in train.classes()}


    def test_makes_no_pass_over_the_training_labels(self):
        class CountingList(list):
            passes = 0

            def __iter__(self):
                CountingList.passes += 1
                return super().__iter__()

        train = make_dataset([[0.0], [1.0], [2.0], [3.0]], [RED, RED, BLUE, BLUE])
        train.labels = CountingList(train.labels)
        for k in (1, 3, 9):
            knn_predict(train, np.array([0.4]), k=k)
        assert CountingList.passes == 0


each_low_level = pytest.mark.parametrize("train", [
    lambda ds: (lambda x: knn_predict(ds, x, k=1)),
    lambda ds: (lambda x: bayes_predict(bayes_train(ds), x)),
    lambda ds: (lambda x: c45_predict(c45_train(ds), x)),
], ids=["knn", "bayes", "c45"])


@each_low_level
def test_unlabeled_training_row_rejected(train):
    # the unlabeled row is the query's nearest neighbor: kNN used to vote
    # for no class ({1: 0.0, 2: 0.0}) and Bayes dropped it silently
    ds = make_dataset([[0], [0.1], [5], [5.1], [0.05]], [RED, RED, BLUE, BLUE, None])
    with pytest.raises(ValueError, match="training labels must all be set"):
        train(ds)(np.array([0.05]))


@each_low_level
def test_empty_training_set_rejected(train):
    # kNN and C4.5 used to return an empty membership and Bayes failed in
    # max() with "max() arg is an empty sequence"
    ds = make_dataset(np.zeros((0, 1)), [])
    with pytest.raises(ValueError, match="the training set has no rows"):
        train(ds)(np.array([0.0]))


@each_low_level
@pytest.mark.parametrize("x", [[0.5], [0.5, 1.0, 2.0], [[0.5, 1.0]], 0.5,
                               [0.5, np.nan], [np.inf, 1.0], [-np.inf, 1.0]],
                         ids=["short", "long", "two-d", "scalar", "nan", "inf", "-inf"])
def test_bad_test_vector_rejected(train, x):
    # Bayes used to broadcast [0.5] over both features, C4.5 to raise
    # IndexError, kNN a broadcast error, and a NaN gave kNN a uniform vote
    ds = make_dataset([[0, 0], [0.1, 1], [5, 0], [5.1, 1]], [RED, RED, BLUE, BLUE])
    with pytest.raises(ValueError, match="test vectors must"):
        train(ds)(x)


@each_low_level
def test_values_at_the_feature_bound_score_without_warnings(train):
    # the widest rows and test vectors the range admits: every distance,
    # kernel exponent and split midpoint stays finite; one step past it is refused
    top = 2.0**480
    ds = make_dataset([[-top, 0], [-top, top], [top, 0], [top, -top]], [RED, RED, BLUE, BLUE])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predict = train(ds)
        for x, label in [([-top, top], RED), ([top, -top], BLUE), ([top / 2, 0.0], BLUE)]:
            membership = predict([float(v) for v in x])
            assert membership.argmax() == label
            assert all(math.isfinite(v) for v in membership.scores.values())
            assert math.isclose(sum(membership.scores.values()), 1.0)
    with pytest.raises(ValueError, match="test vectors must hold values within"):
        predict([np.nextafter(top, np.inf), 0.0])


@pytest.mark.parametrize("name", ["knn", "bayes", "c45"])
@pytest.mark.parametrize("X", [np.zeros((3, 1)), np.zeros(2), [[0.0, np.nan]]],
                         ids=["narrow", "one-d", "nan"])
def test_bad_test_rows_rejected(name, X):
    ds = make_dataset([[0, 0], [0.1, 1], [5, 0], [5.1, 1]], [RED, RED, BLUE, BLUE])
    with pytest.raises(ValueError, match="test vectors must"):
        train_low_level(name, ds).rows(X)


@pytest.mark.parametrize("name", ["knn", "bayes", "c45"])
def test_rows_equal_one_vector_calls(name):
    rng = np.random.default_rng(11)
    X = rng.integers(0, 5, size=(40, 3)) / 2
    ds = make_dataset(X, rng.integers(1, 4, size=40).tolist())
    predict = train_low_level(name, ds, knn_k=3)
    queries = np.vstack([X[:5], rng.normal(1, 1, size=(30, 3))])
    rows = predict.rows(queries)
    assert [repr(m.scores) for m in rows] == [repr(predict(q).scores) for q in queries]
    assert predict.rows(np.zeros((0, 3))) == []


@pytest.mark.parametrize("name, public", [
    ("knn", lambda ds, x: knn_predict(ds, x, k=3)),
    ("bayes", lambda ds, x: bayes_predict(bayes_train(ds), x)),
    ("c45", lambda ds, x: c45_predict(c45_train(ds), x)),
])
def test_each_call_checks_its_test_vectors_once(monkeypatch, name, public):
    ds = make_dataset([[0, 0], [0.1, 1], [5, 0], [5.1, 1]], [RED, RED, BLUE, BLUE])
    predict = train_low_level(name, ds, knn_k=3)
    checks = []
    real = classify.test_vectors

    def counting(*args, **kwargs):
        checks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(classify, "test_vectors", counting)
    for call in (lambda: predict([0.5, 0.5]), lambda: predict.rows(np.ones((5, 2))),
                 lambda: public(ds, [0.5, 0.5])):
        checks.clear()
        call()
        assert len(checks) == 1


class TestBayes:
    def test_symmetric_classes_give_half_half(self):
        train = make_dataset([-2.0, -1.0, 1.0, 2.0], [RED, RED, BLUE, BLUE])
        model = bayes_train(train)
        m = bayes_predict(model, np.array([0.0]))
        assert m.scores[RED] == pytest.approx(0.5, abs=1e-9)

    def test_strong_density_wins_under_uniform_priors(self):
        train = make_dataset([-1.1, -1.0, -0.9, 0.9, 1.0, 1.1], [RED] * 3 + [BLUE] * 3)
        model = bayes_train(train)
        assert bayes_predict(model, np.array([-1.0])).argmax() == RED
        assert bayes_predict(model, np.array([1.0])).argmax() == BLUE

    def test_single_point_classes_boundary_at_midpoint(self):
        # one blue at -1 and one red at +1: bandwidth floor keeps densities
        # finite; anything right of 0 is red
        train = make_dataset([-1.0, 1.0], [BLUE, RED])
        model = bayes_train(train)
        assert bayes_predict(model, np.array([0.5])).argmax() == RED
        assert bayes_predict(model, np.array([-0.5])).argmax() == BLUE

    def test_boundary_near_zero_for_symmetric_data(self):
        train = make_dataset([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5], [BLUE] * 3 + [RED] * 3)
        model = bayes_train(train)

        def red_minus_blue(x):
            m = bayes_predict(model, np.array([x]))
            return m.scores[RED] - m.scores[BLUE]

        lo, hi = -0.4, 0.4
        assert red_minus_blue(lo) < 0 < red_minus_blue(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            if red_minus_blue(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2) < 1e-3

    def test_argmax_invariant_under_scaling(self):
        # scaling all unnormalized scores cannot change the argmax because
        # memberships are normalized
        train = make_dataset([-1.0, -0.5, 0.7, 1.3], [RED, RED, BLUE, BLUE])
        model = bayes_train(train)
        m = bayes_predict(model, np.array([0.4]))
        scaled = MembershipVector.normalized({c: 7.3 * v for c, v in m.scores.items()})
        assert scaled.argmax() == m.argmax()

    def test_unbalanced_priors_shift_decision(self):
        train = make_dataset([-1.0, -0.8, -0.6, -0.4, 1.0], [RED] * 4 + [BLUE])
        model = bayes_train(train)
        assert math.exp(model.log_priors[RED]) == pytest.approx(0.8)

    def test_bandwidth_dump_format(self):
        train = make_dataset([[0.0, 1.0], [1.0, 2.0], [2.0, 1.5]], [RED, RED, BLUE])
        model = bayes_train(train)
        dump = bayes_bandwidths_csv(model)
        lines = dump.strip().splitlines()
        assert lines[0] == "class,feature,bandwidth"
        assert len(lines) == 1 + 2 * 2  # 2 classes x 2 features
        for line in lines[1:]:
            _, _, h = line.split(",")
            assert float(h) >= 1e-6


def reference_bayes_predict(train_dataset, x):
    """Naive Bayes as first written: for each test vector, the Gaussian
    kernel of every training entry of a class in one (n, d) array."""

    def _log_kde(x, values, h):
        """Per-feature log density of x under Gaussian kernels (log-sum-exp)."""
        z = (x[None, :] - values) / h[None, :]  # (n, d)
        logk = -0.5 * z * z - np.log(h[None, :] * math.sqrt(2 * math.pi))
        m = logk.max(axis=0)
        return m + np.log(np.exp(logk - m[None, :]).sum(axis=0)) - math.log(len(values))

    x = np.asarray(x, dtype=float)
    log_scores = {}
    for c in train_dataset.classes():
        values = train_dataset.X[train_dataset.class_rows[c]]
        h = np.maximum(1.06 * values.std(axis=0) * len(values) ** (-1 / 5), 1e-6)
        log_prior = math.log(len(values) / len(train_dataset))
        log_scores[c] = log_prior + _log_kde(x, values, h).sum()
    shift = max(log_scores.values())
    raw = {c: math.exp(s - shift) for c, s in log_scores.items()}
    return MembershipVector.normalized(raw)


def _bayes_case(kind, rng):
    """(training set, test rows) of one kind of bit-identity case."""
    if kind == "ties":
        X = rng.integers(0, 4, size=(60, 5)) / 2
    elif kind == "continuous":
        X = rng.normal(size=(50, 4)) * np.array([1e-3, 1.0, 10.0, 1e4])
    elif kind == "signed-zeros":
        X = rng.choice([-0.0, 0.0, 1.5], size=(30, 3))
    elif kind == "near-binary":  # standardized counts, as the semantic features are
        X = np.where(rng.random(size=(80, 12)) < 0.1, 3.0, -0.33)
    elif kind == "zero-features":
        X = np.zeros((12, 0))
    else:  # "wide": d much larger than n
        X = np.round(rng.normal(size=(7, 300)), 1)
    labels = rng.integers(1, 4, size=len(X))
    labels[:3] = [1, 2, 3]
    labels[3:][labels[3:] == 3] = 2  # class 3 keeps one row: the bandwidth floor
    queries = np.vstack([
        X[:4],
        np.zeros((1, X.shape[1])),
        -np.zeros((1, X.shape[1])),
        rng.normal(size=(6, X.shape[1])) * (np.abs(X).max(axis=0, initial=0.0) + 1),
    ])
    return make_dataset(X, labels.tolist()), queries


class TestBayesKernelTable:
    """Kernels evaluated once per distinct training value, a block of rows
    at a time, give the first formula's memberships bit for bit."""

    @staticmethod
    def _assert_bits(train, queries):
        want = [repr(reference_bayes_predict(train, q).scores) for q in queries]
        model = bayes_train(train)
        assert [repr(bayes_predict(model, q).scores) for q in queries] == want
        assert [repr(m.scores) for m in train_low_level("bayes", train).rows(queries)] == want

    @pytest.mark.parametrize("kind", ["ties", "continuous", "signed-zeros", "near-binary",
                                      "zero-features", "wide"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cases(self, kind, seed):
        self._assert_bits(*_bayes_case(kind, np.random.default_rng(seed)))

    def test_signed_zeros_share_a_kernel(self):
        train = make_dataset([[-0.0], [0.0], [0.0], [-0.0], [1.0]], [RED] * 4 + [BLUE])
        table = bayes_train(train).kernels[RED]
        assert table.values.tolist() == [0.0] and table.entries.tolist() == [[0]] * 4
        self._assert_bits(train, np.array([[-0.0], [0.0], [1e-300], [0.5]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 6),
           st.sampled_from([0.5, 1e-3, 1e6]))
    def test_random_lattices(self, seed, n, dim, scale):
        rng = np.random.default_rng(seed)
        X = rng.integers(-3, 4, size=(n, dim)) * scale
        train = make_dataset(X, rng.integers(1, 3, size=n).tolist())
        self._assert_bits(train, rng.integers(-4, 5, size=(5, dim)) * scale)

    def test_kernel_table_indexes_every_entry(self):
        rng = np.random.default_rng(2)
        V = rng.integers(0, 3, size=(20, 4)) / 4
        V[:, 3] = 1.0
        table = classify._kernel_table(V, np.ones(4))
        assert table.values[table.entries].tolist() == V.tolist()
        assert (table.features[table.entries] == np.arange(4)).all()
        assert table.starts.tolist() == [0, 3, 6, 9] and len(table.values) == 10
        for f in range(4):  # each feature's distinct values, ascending
            assert table.values[table.features == f].tolist() == sorted(set(V[:, f]))

    @pytest.mark.parametrize("shape", [(40, 64), (30, 20), (300, 400)])
    def test_row_counts_around_the_block(self, shape, monkeypatch):
        # one class of n rows and one of n // 2 + 1: two block sizes; every
        # gathered block stays within the budget unless one row exceeds it
        n, d = shape
        rng = np.random.default_rng(n)
        X = np.round(rng.normal(size=(n + n // 2 + 1, d)), 2)
        train = make_dataset(X, [RED] * n + [BLUE] * (n // 2 + 1))
        model = bayes_train(train)
        predictor = train_low_level("bayes", train)
        gathered, take = [], np.take

        def spied_take(a, indices, axis=None):
            out = take(a, indices, axis=axis)
            gathered.append(out.size)
            return out

        monkeypatch.setattr(np, "take", spied_take)
        steps = sorted({max(1, classify._BLOCK_FLOATS // model.kernels[c].entries.size)
                        for c in model.classes})
        counts = sorted({1, *(k for step in steps for k in (step - 1, step, step + 1) if k)})
        if n * d <= classify._BLOCK_FLOATS:
            assert steps[0] > 1
        queries = rng.normal(size=(max(counts), d))
        want = [repr(reference_bayes_predict(train, q).scores) for q in queries]
        for count in counts:
            gathered.clear()
            got = predictor.rows(queries[:count])
            assert [repr(m.scores) for m in got] == want[:count]
            assert max(gathered) <= max(classify._BLOCK_FLOATS, n * d)
            assert sum(gathered) == count * d * len(X)


class TestC45:
    def test_perfectly_separable_depth_one(self):
        train = make_dataset([0.0, 0.1, 0.9, 1.0], [RED, RED, BLUE, BLUE])
        y = train.labels
        best_gain = max(
            information_gain(y, train.X[:, 0], thr)
            for thr in candidate_thresholds(train.X[:, 0])
        )
        assert best_gain == pytest.approx(entropy(y))
        tree = c45_train(train)
        assert not tree.root.is_leaf
        assert tree.root.left.is_leaf and tree.root.right.is_leaf
        for i in range(len(train)):
            assert c45_predict(tree, train.X[i]).argmax() == train.labels[i]

    def test_xor_needs_depth_two(self):
        train = make_dataset(
            [[0, 0], [1, 1], [0, 1], [1, 0]], [RED, RED, BLUE, BLUE]
        )
        y = train.labels
        for f in range(2):
            for thr in candidate_thresholds(train.X[:, f]):
                assert information_gain(y, train.X[:, f], thr) == pytest.approx(0.0)
        tree = c45_train(train, min_size=1)
        depth = _tree_depth(tree.root)
        assert depth >= 2
        for i in range(len(train)):
            assert c45_predict(tree, train.X[i]).argmax() == train.labels[i]

    def test_routing_through_two_tests(self):
        # hand-built tree: first test on f1, then f3, landing in sense 3
        s1, s2, s3 = 1, 2, 3
        root = TreeNode(
            feature=0,
            threshold=0.0,
            left=TreeNode(
                feature=2,
                threshold=0.0,
                left=TreeNode(counts={s2: 4}),
                right=TreeNode(counts={s3: 5}),
            ),
            right=TreeNode(counts={s1: 3}),
        )
        tree = DecisionTree(root, (s1, s2, s3), 3)
        m = c45_predict(tree, np.array([-0.23, +0.29, +0.38]))
        assert m.argmax() == s3
        assert m.scores[s3] == 1.0

    def test_gain_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(size=12)
            y = list(rng.integers(1, 4, size=12))
            h = entropy(y)
            for thr in candidate_thresholds(x):
                gain = information_gain(y, x, thr)
                assert -1e-12 <= gain <= h + 1e-12

    def test_leave_in_accuracy_on_duplicate_free_data(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = list(rng.integers(1, 4, size=40))
        train = make_dataset(X, y)
        tree = c45_train(train, min_size=1)
        predictions = [c45_predict(tree, X[i]).argmax() for i in range(40)]
        assert predictions == y

    def test_no_split_on_identical_features(self):
        train = make_dataset([[1.0], [1.0], [1.0]], [RED, RED, BLUE])
        tree = c45_train(train)
        assert tree.root.is_leaf
        m = c45_predict(tree, np.array([1.0]))
        assert m.scores[RED] == pytest.approx(2 / 3)

    def test_tree_text_dump(self):
        train = make_dataset([0.0, 0.1, 0.9, 1.0], [RED, RED, BLUE, BLUE])
        tree = c45_train(train)
        text = tree_to_text(tree, feature_names=["height"])
        assert "if height <=" in text
        assert "leaf" in text

    def test_tree_text_nests_subtrees_under_their_tests(self):
        root = TreeNode(
            feature=0, threshold=0.5,
            left=TreeNode(feature=1, threshold=2.0,
                          left=TreeNode(counts={RED: 2}), right=TreeNode(counts={BLUE: 1})),
            right=TreeNode(counts={BLUE: 3, RED: 1}),
        )
        assert tree_to_text(DecisionTree(root, (RED, BLUE), 2), ["a", "b"]).splitlines() == [
            "if a <= 0.5:",
            "  if b <= 2:",
            "    leaf [1:2]",
            "  else:",
            "    leaf [2:1]",
            "else:",
            "  leaf [1:1, 2:3]",
        ]

    def test_deep_chain_beyond_the_recursion_limit(self):
        # one feature, alternating labels: every split peels off one row,
        # so the tree is 1,499 tests deep
        n = 1500
        train = make_dataset(np.arange(n, dtype=float), [RED if i % 2 else BLUE for i in range(n)])
        tree = c45_train(train)
        assert _tree_depth(tree.root) == n - 1
        assert [c45_predict(tree, train.X[i]).argmax() for i in range(n)] == train.labels
        lines = tree_to_text(tree).splitlines()
        assert len(lines) == 3 * (n - 1) + 1
        assert lines[:3] == ["if f0 <= 0.5:", "  leaf [2:1]", "else:"]

    def test_deep_tree_compares_and_prints_without_recursion(self):
        n = 1500
        train = make_dataset(np.arange(n, dtype=float), [RED if i % 2 else BLUE for i in range(n)])
        tree, again = c45_train(train, 1), c45_train(train, 1)
        # nodes compare by identity; structure is compared through _preorder
        assert tree == tree and tree != again
        assert _preorder(tree) == _preorder(again)
        assert repr(tree).startswith("DecisionTree(root=<")

    def test_midpoint_rounded_onto_a_value_makes_a_leaf(self):
        # the midpoint of these adjacent floats rounds up onto the larger
        # one, so the only candidate split would send every row left
        lo = 1.0 + 2.0**-52
        hi = 1.0 + 2.0**-51
        assert (lo + hi) / 2 == hi
        tree = c45_train(make_dataset([lo, hi], [RED, BLUE]))
        assert tree.root.is_leaf and tree.root.counts == {RED: 1, BLUE: 1}


    def test_values_at_the_feature_bound_split_at_their_midpoint(self):
        # (a + b) / 2 stays finite across the feature range, so no split
        # needs an overflow branch; values near 1e308 lie outside the range
        top = 2.0**480
        train = make_dataset([[-top], [-top / 2], [top / 2], [top]], [RED, RED, BLUE, BLUE])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = c45_train(train)
            assert candidate_thresholds([top, -top]) == [0.0]
            assert candidate_thresholds([top / 2, top]) == [0.75 * top]
        assert (tree.root.feature, tree.root.threshold) == (0, 0.0)
        assert tree.root.left.counts == {RED: 2} and tree.root.right.counts == {BLUE: 2}
        with pytest.raises(ValueError, match="test vectors must hold values within"):
            candidate_thresholds([1e308, 1.5e308])


def reference_c45_train(train_dataset, min_size=2):
    """C4.5 as first written: a fresh argsort per feature and node, the
    (-gain, feature, threshold) tie rule applied in a loop over boundaries,
    and recursive growth."""

    def entropy_(labels):
        n = len(labels)
        return -sum((k / n) * math.log2(k / n) for k in Counter(labels).values() if k)

    def entropies_by_row(counts, totals):
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / totals[:, None]
            term = np.where(counts > 0, p * np.log2(p), 0.0)
        return -term.sum(axis=1)

    def best_split(X, y):
        base = entropy_(y)
        n = len(y)
        class_ids = sorted(set(y))
        one_hot = np.array([[1.0 if lab == c else 0.0 for c in class_ids] for lab in y])
        best = None
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            cum = one_hot[order].cumsum(axis=0)
            boundaries = np.nonzero(xs[:-1] < xs[1:])[0]
            if len(boundaries) == 0:
                continue
            left = cum[boundaries]
            right = cum[-1][None, :] - left
            nl = left.sum(axis=1)
            nr = right.sum(axis=1)
            cond = (nl / n) * entropies_by_row(left, nl) + (nr / n) * entropies_by_row(right, nr)
            gains = base - cond
            for b, gain in zip(boundaries, gains):
                thr = (xs[b] + xs[b + 1]) / 2
                key = (-gain, f, thr)
                if best is None or key < best[0]:
                    best = (key, float(gain), f, float(thr))
        if best is None:
            return None
        _, gain, f, thr = best
        return gain, f, thr

    X = train_dataset.X
    y = list(train_dataset.labels)

    def grow(rows):
        labels = [y[i] for i in rows]
        counts = dict(Counter(labels))
        if len(counts) == 1 or len(rows) < min_size:
            return TreeNode(counts=counts)
        found = best_split(X[rows], labels)
        if found is None:
            return TreeNode(counts=counts)
        _, f, thr = found
        node = TreeNode(feature=f, threshold=thr)
        node.left = grow([i for i in rows if X[i, f] <= thr])
        node.right = grow([i for i in rows if X[i, f] > thr])
        return node

    return DecisionTree(grow(list(range(len(y)))), tuple(sorted(set(y))), X.shape[1])


def _preorder(tree):
    """The tree as a preorder list of (feature, threshold, leaf counts in
    insertion order), built without recursion; it pins the tree exactly."""
    out, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.feature, node.threshold, node.counts and list(node.counts.items())))
        if not node.is_leaf:
            stack += [node.right, node.left]
    return out


def _assert_same_tree(got, want):
    assert got.classes == want.classes
    assert _preorder(got) == _preorder(want)


class TestSplitSearchEquivalence:
    """The one-sort, all-features split search grows the reference's trees."""

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_lattice_cases(self, seed):
        # values on a 0.25 lattice tie within features; every third case
        # duplicates a column, an exact tie between features; up to 11
        # classes pins the order of the sum over classes
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        n_features = int(rng.integers(1, 6))
        n_classes = 2 + seed % 10
        X = np.round(rng.normal(size=(n, n_features)) * 4) / 4
        if seed % 3 == 0 and n_features > 1:
            X[:, -1] = X[:, 0]
        labels = rng.integers(1, n_classes + 1, size=n).tolist()
        train = make_dataset(X, labels)
        for min_size in (1, 2, 5):
            _assert_same_tree(c45_train(train, min_size), reference_c45_train(train, min_size))

    @pytest.mark.parametrize("paradigm", ["semantic", "topological"])
    def test_synthetic_corpus_folds(self, paradigm, monkeypatch):
        # the spy's list lives in this process, so the folds must too
        monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: 1)
        seen = []
        grow = classify.c45_train

        def checked(train_dataset, min_size=2):
            tree = grow(train_dataset, min_size)
            _assert_same_tree(tree, reference_c45_train(train_dataset, min_size))
            seen.append(train_dataset.X.shape)
            return tree

        monkeypatch.setattr(classify, "c45_train", checked)
        documents, annotations = make_synthetic_corpus(noise=0.35)
        streams = {doc_id: doc.content_lemmas() for doc_id, doc in documents.items()}
        run_word_experiments(streams, annotations, paradigm=paradigm,
                             low_levels=("c45",), lambda_grid=(0.0,))
        assert len(seen) == 10

    def test_equal_gains_at_two_thresholds_and_on_two_features(self):
        # feature 1 sorts the labels as 1 2 2 1 and feature 2 sorts them in
        # reverse order, which reads the same: thresholds 0.5 and 2.5 of
        # both features all reach the best gain exactly; feature 0 is
        # constant. The rule picks the smallest feature, then threshold.
        X = [[7.0, 0.0, 3.0], [7.0, 1.0, 2.0], [7.0, 2.0, 1.0], [7.0, 3.0, 0.0]]
        y = [RED, BLUE, BLUE, RED]
        gains = [information_gain(y, np.array(X)[:, f], thr)
                 for f in (1, 2) for thr in (0.5, 2.5)]
        assert len(set(gains)) == 1 and gains[0] > information_gain(y, np.array(X)[:, 1], 1.5)
        train = make_dataset(X, y)
        tree = c45_train(train, min_size=1)
        assert (tree.root.feature, tree.root.threshold) == (1, 0.5)
        _assert_same_tree(tree, reference_c45_train(train, min_size=1))


class TestAdmissibleSplits:
    """The split search scores only boundaries between two distinct values."""

    @staticmethod
    def _spy_levels(monkeypatch):
        """Record, per level, each entropy call's (rows, C-contiguous, class columns)."""
        levels = []
        splits, entropies = classify._level_splits, classify._entropies_by_row

        def spied_splits(*args):
            levels.append([])
            return splits(*args)

        def spied_entropies(counts, totals):
            assert counts.shape == (len(totals), counts.shape[-1])
            levels[-1].append((len(counts), counts.flags.c_contiguous, counts.shape[-1]))
            return entropies(counts, totals)

        monkeypatch.setattr(classify, "_level_splits", spied_splits)
        monkeypatch.setattr(classify, "_entropies_by_row", spied_entropies)
        return levels

    @staticmethod
    def _searched_boundaries(tree, X, labels, min_size):
        """Per depth, the boundaries of the nodes the tree searched: two
        consecutive distinct values of one feature inside one impure node of
        at least ``min_size`` rows."""
        per_depth = {}
        stack = [(tree.root, np.arange(len(X)), 0)]
        while stack:
            node, rows, depth = stack.pop()
            if len(set(labels[i] for i in rows)) > 1 and len(rows) >= min_size:
                boundaries = sum(len(np.unique(X[rows, f])) - 1 for f in range(X.shape[1]))
                per_depth.setdefault(depth, []).append(boundaries)
            if not node.is_leaf:
                left = X[rows, node.feature] <= node.threshold
                stack += [(node.left, rows[left], depth + 1), (node.right, rows[~left], depth + 1)]
        return [per_depth[d] for d in range(len(per_depth))]

    def test_entropies_only_at_value_changes(self, monkeypatch):
        levels = self._spy_levels(monkeypatch)
        rng = np.random.default_rng(3)
        X = rng.integers(0, 4, size=(120, 3)).astype(float)
        X[:, 2] = 1.0
        labels = rng.integers(1, 4, size=120).tolist()
        tree = c45_train(make_dataset(X, labels), min_size=1)
        searched = self._searched_boundaries(tree, X, labels, 1)
        assert searched[0] == [6]  # values 0..3 on two features, one constant feature
        assert any(0 in level for level in searched)
        assert len(levels) == len(searched)
        for calls, nodes in zip(levels, searched):
            # one left and one right call per set of present classes
            assert [rows for rows, _, _ in calls[::2]] == [rows for rows, _, _ in calls[1::2]]
            assert sum(rows for rows, _, _ in calls[::2]) == sum(nodes)

    @pytest.mark.parametrize("seed", range(2))
    def test_entropy_inputs_are_c_contiguous(self, monkeypatch, seed):
        # nine classes: most deep nodes miss some, so their columns are selected
        levels = self._spy_levels(monkeypatch)
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(900, 8)) / 2
        c45_train(make_dataset(X, rng.integers(1, 10, size=900).tolist()), min_size=1)
        calls = [call for level in levels for call in level]
        assert all(contiguous for _, contiguous, _ in calls)
        assert {width for _, _, width in calls} > {9}

    def test_signed_zeros_share_a_bin(self):
        # -0.0 and 0.0 are one value: no boundary falls between them
        X = [[0.0], [-0.0], [1.0], [-0.0], [0.0], [-1.0]]
        y = [RED, BLUE, RED, RED, BLUE, BLUE]
        tree = c45_train(make_dataset(X, y), min_size=1)
        assert candidate_thresholds([x for x, in X]) == [-0.5, 0.5]
        assert {tree.root.threshold, tree.root.right.threshold} <= {-0.5, 0.5}
        _assert_same_tree(tree, reference_c45_train(make_dataset(X, y), min_size=1))

    def test_midpoint_rounded_onto_the_upper_value_with_rows_above(self):
        # both root boundaries make the same partition; the first, between
        # lo and hi, wins the tie and its midpoint rounds onto hi, so the rows
        # at hi go left with those at lo while the row at 2.0 goes right. In
        # the left child that boundary sends every row left: it is a leaf
        lo, hi = 1.0 + 2.0**-52, 1.0 + 2.0**-51
        train = make_dataset([lo, hi, hi, 2.0, lo], [RED, BLUE, RED, BLUE, RED])
        tree = c45_train(train, min_size=1)
        assert (tree.root.feature, tree.root.threshold) == (0, hi)
        assert tree.root.left.counts == {RED: 3, BLUE: 1}
        assert tree.root.right.counts == {BLUE: 1}

    def test_leaf_counts_in_order_of_first_appearance(self):
        # the root splits at 0.5; each leaf lists its classes as its rows
        # (ascending) first show them, not in class order
        X = [[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]]
        y = [BLUE, RED, RED, BLUE, BLUE, BLUE]
        tree = c45_train(make_dataset(X, y), min_size=5)
        assert list(tree.root.left.counts.items()) == [(BLUE, 2), (RED, 1)]
        assert list(tree.root.right.counts.items()) == [(RED, 1), (BLUE, 2)]

    def test_impure_node_with_constant_features_is_a_leaf(self):
        # the root splits off row 0; its right child has mixed labels and
        # the same value on every feature
        train = make_dataset([[0, 0], [1, 1], [1, 1], [1, 1]], [RED, RED, BLUE, BLUE])
        tree = c45_train(train, min_size=1)
        assert (tree.root.feature, tree.root.threshold) == (0, 0.5)
        assert tree.root.left.counts == {RED: 1}
        assert tree.root.right.is_leaf and tree.root.right.counts == {RED: 1, BLUE: 2}
        _assert_same_tree(tree, reference_c45_train(train, min_size=1))

    def test_zero_features_give_a_root_leaf(self):
        tree = c45_train(make_dataset(np.zeros((4, 0)), [RED, BLUE, BLUE, RED]))
        assert tree.root.is_leaf and tree.root.counts == {RED: 2, BLUE: 2}
        assert c45_predict(tree, np.zeros(0)).scores == {RED: 0.5, BLUE: 0.5}

    @pytest.mark.parametrize("seed", range(2))
    def test_large_tied_case_with_many_classes(self, seed):
        # 900 x 8 on six values per feature with nine classes: from 8
        # classes on numpy sums the class axis pairwise, not in sequence
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(900, 8)) / 2
        train = make_dataset(X, rng.integers(1, 10, size=900).tolist())
        for min_size in (1, 2, 5):
            _assert_same_tree(c45_train(train, min_size), reference_c45_train(train, min_size))


class TestContractHelpers:
    """entropy, information_gain and candidate_thresholds refuse what the
    tree refuses and score its splits."""

    def test_labels_and_values_must_align(self):
        # zip used to drop the third label and return 0.918
        with pytest.raises(ValueError, match="test vectors must have 3 values"):
            information_gain([1, 2, 1], [0.0, 1.0], 0.5)

    def test_nan_value_is_refused(self):
        # a NaN used to count on the right side
        with pytest.raises(ValueError, match="test vectors must hold values within"):
            information_gain([1, 2], [0.0, np.nan], 0.5)

    def test_value_past_the_feature_bound_is_refused(self):
        with pytest.raises(ValueError, match="test vectors must hold values within"):
            information_gain([1, 2], [0.0, np.nextafter(2.0**480, np.inf)], 0.5)

    def test_no_labels_have_float_zero_entropy(self):
        h = entropy([])
        assert type(h) is float and h == 0.0

    def test_empty_side_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert information_gain([RED, BLUE, BLUE], [0.0, 1.0, 2.0], 5.0) == 0.0
            assert information_gain([RED, BLUE, BLUE], [0.0, 1.0, 2.0], -5.0) == 0.0
            assert information_gain([], [], 0.0) == 0.0

    def test_tree_root_takes_the_largest_gain(self):
        # lattice values tie within and across features; rows 0 and 1
        # differ in label and on feature 0, so every root splits
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 60))
            X = np.round(rng.normal(size=(n, int(rng.integers(1, 5)))) * 4) / 4
            X[:2, 0] = -3.0, 3.0
            y = [RED, BLUE] + rng.integers(1, 2 + seed % 10 + 1, size=n - 2).tolist()
            root = c45_train(make_dataset(X, y), min_size=1).root
            gains = {(f, thr): information_gain(y, X[:, f], thr)
                     for f in range(X.shape[1]) for thr in candidate_thresholds(X[:, f])}
            assert not root.is_leaf, seed
            assert root.threshold in candidate_thresholds(X[:, root.feature]), seed
            best = max(gains.values())
            assert gains[root.feature, root.threshold] == pytest.approx(best, abs=1e-12), seed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(1, 3))
def test_low_level_labels_ignore_training_row_order(seed, n, dim):
    # coarse integer features make many exact distance and value ties,
    # which are broken by id (kNN) or fall between equal values (C4.5)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, dim)).astype(float)
    labels = rng.integers(1, 4, size=n).tolist()
    ids = rng.permutation(3 * n)[:n].tolist()
    train = make_dataset(X, labels, ids=ids)
    perm = rng.permutation(n).tolist()
    shuffled = make_dataset(X[perm], [labels[i] for i in perm], ids=[ids[i] for i in perm])
    queries = rng.integers(-1, 5, size=(10, dim)).astype(float)
    for name, k in (("knn", 1), ("knn", 3), ("c45", 1)):
        predict = train_low_level(name, train, knn_k=k)
        predict_shuffled = train_low_level(name, shuffled, knn_k=k)
        for x in queries:
            assert predict(x).argmax() == predict_shuffled(x).argmax()


class TestHighLevel:
    def test_hand_computed_combination(self):
        # class 1 unperturbed, class 2 fully perturbed, equal priors,
        # alpha_t = alpha_c = 0.5, mu_critical = 1:
        # totals are 2 and 1, so memberships are (2/3, 1/3)
        variations = {
            0: ({1: 0.0, 2: 1.0}, {1: 0.0, 2: 1.0}),
            1: ({1: 0.0, 2: 1.0}, {1: 0.0, 2: 1.0}),
        }
        config = HighLevelConfig(mu_critical=1)
        m = combine_walk_variations(variations, {1: 0.5, 2: 0.5}, config)
        assert m.scores[1] == pytest.approx(2 / 3)
        assert m.scores[2] == pytest.approx(1 / 3)

    def test_balanced_identical_variations_tie(self):
        variations = {mu: ({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) for mu in range(3)}
        config = HighLevelConfig(mu_critical=2)
        m = combine_walk_variations(variations, {1: 0.5, 2: 0.5}, config)
        assert m.scores[1] == pytest.approx(0.5)

    def test_memberships_sum_to_one_random(self):
        rng = np.random.default_rng(12)
        config = HighLevelConfig(mu_critical=4)
        for _ in range(50):
            variations = {}
            for mu in range(5):
                raw = rng.random(3)
                dt = dict(zip((1, 2, 3), raw / raw.sum()))
                raw = rng.random(3)
                dc = dict(zip((1, 2, 3), raw / raw.sum()))
                variations[mu] = (dt, dc)
            priors = {1: 0.2, 2: 0.3, 3: 0.5}
            m = combine_walk_variations(variations, priors, config)
            assert sum(m.scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(0 <= v <= 1 for v in m.scores.values())

    def test_end_to_end_sums_to_one(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 0.4, (10, 2)), rng.normal(4, 0.4, (10, 2))])
        ds = Dataset(list(range(20)), X, [1] * 10 + [2] * 10, ["x", "y"])
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=3))
        probe = Instance(99, np.array([0.5, 0.5]), None)
        views = insert_test(probe.features, graphs)
        m = high_level_predict(probe, graphs, HighLevelConfig(mu_critical=4), views)
        assert sum(m.scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_views_empty_propagates(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 0.4, (10, 2)), rng.normal(4, 0.4, (10, 2))])
        ds = Dataset(list(range(20)), X, [1] * 10 + [2] * 10, ["x", "y"])
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=3))
        probe = Instance(99, np.array([900.0, 900.0]), None)
        views = insert_test(probe.features, graphs)
        with pytest.raises(AllViewsEmpty):
            high_level_predict(probe, graphs, HighLevelConfig(mu_critical=2), views)

    def test_bare_feature_vector_needs_an_id(self):
        # 12 points, two classes; a bare vector carries no id to order ties
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 0.4, (6, 2)), rng.normal(4, 0.4, (6, 2))])
        ds = Dataset(list(range(12)), X, [1] * 6 + [2] * 6, ["x", "y"])
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=3))
        probe = np.array([0.2, 0.1])
        views = insert_test(probe, graphs)
        assert any(v.linked for v in views)
        for bare in (probe, Instance("p", probe, None)):
            with pytest.raises(ValueError, match="id comparable with the training ids"):
                high_level_predict(bare, graphs, HighLevelConfig(mu_critical=2), views)

    def test_malformed_views_rejected(self):
        # a view list must hold one view per class graph, linking vertices
        # of that graph; 2.5 is no training id (it used to bind vertex 3)
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 0.4, (6, 2)), rng.normal(4, 0.4, (6, 2))])
        ds = Dataset(list(range(12)), X, [1] * 6 + [2] * 6, ["x", "y"])
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=3))
        probe = Instance(99, np.array([0.2, 0.1]), None)
        views = insert_test(probe.features, graphs)
        config = HighLevelConfig(mu_critical=2)
        for bad, message in (
            (views[1:], "has no view for class 1"),
            (views + views[1:], "has two views for class 2"),
            ([InsertionView(1, ((2.5, 0.3),)), views[1]], "links to 2.5 in class 1"),
        ):
            with pytest.raises(ValueError, match=message):
                high_level_predict(probe, graphs, config, bad)

    def test_one_deflection_pass_per_linked_class(self, monkeypatch):
        # each prediction makes one augmented_means call, so one deflection
        # comparison, per linked class, covering every mu at once; each
        # graph's memo is walked once for all of them
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(c, 0.4, (10, 2)) for c in (0.0, 1.5, 9.0)])
        ds = Dataset(list(range(30)), X, [1] * 10 + [2] * 10 + [3] * 10, ["x", "y"])
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=3))
        config = HighLevelConfig(mu_critical=5)
        calls, built = [], []
        real_means = tourist.InsertionTrial.augmented_means
        real_build = tourist._build_memo

        def means(trial, class_id, mu_max):
            calls.append((class_id, mu_max))
            return real_means(trial, class_id, mu_max)

        def build(graph, mu_max):
            built.append((graph.class_id, mu_max))
            return real_build(graph, mu_max)

        monkeypatch.setattr(tourist.InsertionTrial, "augmented_means", means)
        monkeypatch.setattr(tourist, "_build_memo", build)
        for k, point in enumerate(([0.7, 0.3], [0.2, 0.0], [1.2, 0.9])):
            probe = Instance(100 + k, np.array(point), None)
            views = insert_test(probe.features, graphs)
            linked = [v.class_id for v in views if v.linked]
            assert 3 not in linked and linked
            calls.clear()
            high_level_predict(probe, graphs, config, views)
            assert calls == [(c, 5) for c in linked]
        assert sorted(built) == [(c, 5) for c in sorted({c for c, _ in built})]

    def test_concurrent_scoring_on_cold_graphs_matches_serial(self):
        # predictions fill the graphs' walk memos; threads racing to fill
        # them on fresh graphs must still give the serial memberships
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(0, 1.0, (20, 2)), rng.normal(1.5, 1.0, (20, 2))])
        ds = Dataset(list(range(40)), X, [1] * 20 + [2] * 20, ["x", "y"])
        probes = [Instance(100 + k, p, None) for k, p in enumerate(rng.normal(0.75, 1.2, (40, 2)))]
        config = HighLevelConfig(mu_critical=6)

        def score(graphs, probe):
            views = insert_test(probe.features, graphs)
            return high_level_predict(probe, graphs, config, views).scores

        serial_graphs = build_training_graph(ds, GraphConfig(kappa=3))
        want = [score(serial_graphs, p) for p in probes]
        shared = build_training_graph(ds, GraphConfig(kappa=3))
        got, errors = {}, []

        def work(offset):
            try:
                for k in range(offset, len(probes), 4):
                    got[k] = score(shared, probes[k])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [got[k] for k in range(len(probes))] == want


class TestHybrid:
    def test_lambda_zero_is_exactly_low_level(self):
        low = MembershipVector({1: 0.3, 2: 0.7})
        high = MembershipVector({1: 0.9, 2: 0.1})
        m, label = hybrid_predict(low, high, 0.0)
        assert m.scores == low.scores  # bit-identical
        assert label == 2

    def test_lambda_one_is_high_level(self):
        low = MembershipVector({1: 0.3, 2: 0.7})
        high = MembershipVector({1: 0.9, 2: 0.1})
        m, label = hybrid_predict(low, high, 1.0)
        assert m.scores == high.scores
        assert label == 1

    def test_hand_arithmetic(self):
        low = MembershipVector({1: 0.2, 2: 0.8})
        high = MembershipVector({1: 0.9, 2: 0.1})
        m, label = hybrid_predict(low, high, 0.5)
        assert m.scores[1] == pytest.approx(0.55)
        assert m.scores[2] == pytest.approx(0.45)
        assert label == 1

    def test_affine_in_lambda(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.random(3)
            b = rng.random(3)
            low = MembershipVector.normalized(dict(zip((1, 2, 3), a)))
            high = MembershipVector.normalized(dict(zip((1, 2, 3), b)))
            quarter, _ = hybrid_predict(low, high, 0.25)
            zero, _ = hybrid_predict(low, high, 0.0)
            half, _ = hybrid_predict(low, high, 0.5)
            for c in (1, 2, 3):
                blend = 0.5 * zero.scores[c] + 0.5 * half.scores[c]
                assert abs(quarter.scores[c] - blend) <= 1e-12

    def test_unanimous_extremes(self):
        low = MembershipVector({1: 1.0, 2: 0.0})
        high = MembershipVector({1: 1.0, 2: 0.0})
        for lam in (0.0, 0.3, 1.0):
            m, label = hybrid_predict(low, high, lam)
            assert m.scores[1] == 1.0
            assert m.scores[2] == 0.0
            assert label == 1

    def test_argmax_tie_smallest_class(self):
        m = MembershipVector({2: 0.5, 1: 0.5})
        assert m.argmax() == 1

    def test_fallback_without_high_level(self):
        low = MembershipVector({1: 0.4, 2: 0.6})
        m, label = hybrid_predict(low, None, 0.7)
        assert m.scores == low.scores

    def test_invalid_lambda(self):
        low = MembershipVector({1: 1.0})
        with pytest.raises(ValueError):
            hybrid_predict(low, low, 1.5)

    @given(st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_membership_sums_property(self, lam, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random(4), rng.random(4)
        low = MembershipVector.normalized(dict(zip(range(4), a)))
        high = MembershipVector.normalized(dict(zip(range(4), b)))
        m, _ = hybrid_predict(low, high, lam)
        assert sum(m.scores.values()) == pytest.approx(1.0, abs=1e-9)


class TestConfigsAndFactory:
    def test_high_level_config_validation(self):
        with pytest.raises(ValueError):
            HighLevelConfig(alpha_t=1.5)
        with pytest.raises(ValueError):
            HighLevelConfig(mu_critical=-1)
        assert HighLevelConfig(alpha_t=0.3).alpha_c == 1.0 - 0.3

    def test_hybrid_config_validation(self):
        with pytest.raises(ValueError, match="knn_k must be >= 1, got 0"):
            PipelineConfig(knn_k=0)

    def test_train_low_level_names(self):
        train = make_dataset([-1.0, -0.9, 0.9, 1.0], [RED, RED, BLUE, BLUE])
        for name in ("knn", "bayes", "c45"):
            predict = train_low_level(name, train)
            assert predict(np.array([0.95])).argmax() == BLUE
        with pytest.raises(ValueError):
            train_low_level("svm", train)


def _tree_depth(root):
    depth, stack = 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if not node.is_leaf:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return depth
