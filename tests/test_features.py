import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sensewalk.adjacency import build_network, node_topology
from sensewalk.corpus import SenseAnnotation
from sensewalk.evaluate import make_synthetic_corpus
from sensewalk.features import (
    Dataset,
    MissingNode,
    as_int,
    as_real,
    feature_stats,
    semantic_features,
    semantic_vocabulary,
    standardize,
    topological_features,
    window_lemmas,
)


class TestNumericParameters:
    def test_as_int_returns_a_python_int_at_or_above_least(self):
        assert as_int(np.int64(3), "k", 3) == 3 and type(as_int(np.int64(3), "k", 3)) is int
        assert as_int(True, "k", 1) == 1
        assert as_int(-7, "k") == -7  # no bound without least
        with pytest.raises(ValueError, match="^k must be >= 3, got 2$"):
            as_int(np.int64(2), "k", 3)

    @pytest.mark.parametrize("value", [0.5, 1, True, np.float32(0.25), np.float64(1.0)])
    def test_as_real_returns_a_real_in_range_itself(self, value):
        assert as_real(value, "x", 0, 1) is value

    @pytest.mark.parametrize("args, message", [
        ((0, "x", 0), "x must be > 0, got 0"),
        ((-1e-300, "x", 0), "x must be > 0, got -1e-300"),
        ((float("nan"), "x", 0), "x must be > 0, got nan"),
        ((1.5, "x", 0, 1), "x must lie in [0, 1], got 1.5"),
        ((np.float64(-0.5), "x", 0, 1), "x must lie in [0, 1], got -0.5"),
        ((np.nan, "x", 0, 1), "x must lie in [0, 1], got nan"),
        (("0.5", "x", 0, 1), "x must be a real number, got '0.5'"),
        ((None, "x", 0), "x must be a real number, got None"),
        ((1j, "x", 0), "x must be a real number, got 1j"),
    ])
    def test_as_real_refuses_by_name(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_real(*args)

    def test_as_real_bounds_are_inclusive_only_when_high_is_given(self):
        assert as_real(0, "x", 0, 1) == 0 and as_real(1, "x", 0, 1) == 1
        assert as_real(float("inf"), "x", 0) == float("inf")


class TestWindow:
    def test_document_start_takes_following_words(self):
        stream = ["t"] + [f"w{i}" for i in range(8)]
        assert window_lemmas(stream, 0, 5) == ["w0", "w1", "w2", "w3", "w4"]

    def test_document_end_takes_preceding_words(self):
        stream = [f"w{i}" for i in range(8)] + ["t"]
        assert window_lemmas(stream, 8, 5) == ["w7", "w6", "w5", "w4", "w3"]

    def test_interior_split_prefers_preceding_on_ties(self):
        stream = ["b3", "b2", "b1", "t", "a1", "a2", "a3"]
        got = window_lemmas(stream, 3, 5)
        assert sorted(got) == ["a1", "a2", "b1", "b2", "b3"]  # 3 before, 2 after

    def test_whole_stream_window(self):
        stream = ["a", "b", "t", "b", "c"]
        got = window_lemmas(stream, 2, 4)
        assert sorted(got) == ["a", "b", "b", "c"]

    def test_window_larger_than_document(self):
        stream = ["a", "t", "b"]
        assert sorted(window_lemmas(stream, 1, 50)) == ["a", "b"]

    @pytest.mark.parametrize("position", [9, 4, -1])
    def test_position_outside_the_stream_refused(self, position):
        # 9 gave [] (an all-zero row), 4 gave ["d", "c"] and -1 gave ["a", "b"]
        streams = {"d": ["a", "b", "c", "d"]}
        annotations = [SenseAnnotation("d", position, "x", 1)]
        message = f"^position {position} outside the stream \\(length 4\\)$"
        with pytest.raises(ValueError, match=message):
            window_lemmas(streams["d"], position, 2)
        with pytest.raises(ValueError, match=message):
            semantic_features(streams, annotations, 2)
        with pytest.raises(ValueError, match=message):
            semantic_vocabulary(streams, annotations, 2)

    def test_both_edges_of_the_stream_accepted(self):
        stream = ["a", "b", "c", "d"]
        assert window_lemmas(stream, 0, 2) == ["b", "c"]
        assert window_lemmas(stream, 3, 2) == ["c", "b"]

    @staticmethod
    def two_pointer_window(stream, position, window):
        """``window_lemmas`` as it walked two pointers outward, one lemma a step."""
        chosen = []
        left = position - 1
        right = position + 1
        n = len(stream)
        while len(chosen) < window and (left >= 0 or right < n):
            d_left = position - left if left >= 0 else None
            d_right = right - position if right < n else None
            if d_right is None or (d_left is not None and d_left <= d_right):
                chosen.append(stream[left])
                left -= 1
            else:
                chosen.append(stream[right])
                right += 1
        return chosen

    @pytest.mark.parametrize("seed", range(6))
    def test_sorted_window_matches_the_two_pointer_walk(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(1, 90))
            stream = [f"w{i}" for i in range(n)]
            edges = {0, 1, 2, n // 2, n - 3, n - 2, n - 1, int(rng.integers(n))}
            for position in sorted(p for p in edges if 0 <= p < n):
                for window in range(1, 61):
                    assert (window_lemmas(stream, position, window)
                            == self.two_pointer_window(stream, position, window)), \
                        (n, position, window)


class TestSemanticFeatures:
    def test_counts_from_spec_stream(self):
        streams = {"d": ["a", "b", "bank", "b", "c"]}
        anns = [SenseAnnotation("d", 2, "bank", 1)]
        ds = semantic_features(streams, anns, window=4)
        row = dict(zip(ds.feature_names, ds.X[0]))
        assert row == {"a": 1.0, "b": 2.0, "c": 1.0}

    def test_identical_windows_identical_rows(self):
        streams = {"d": ["u", "v", "bank", "w", "x", "u", "v", "bank", "w", "x"]}
        anns = [SenseAnnotation("d", 2, "bank", 1), SenseAnnotation("d", 7, "bank", 2)]
        ds = semantic_features(streams, anns, window=4)
        assert np.array_equal(ds.X[0], ds.X[1])

    def test_values_are_nonnegative_integers(self):
        streams = {"d": ["a", "b", "bank", "b", "c", "a", "bank", "c"]}
        anns = [SenseAnnotation("d", 2, "bank", 1), SenseAnnotation("d", 6, "bank", 2)]
        ds = semantic_features(streams, anns, window=5)
        assert (ds.X >= 0).all()
        assert np.array_equal(ds.X, np.round(ds.X))

    def test_fixed_vocabulary_drops_unseen(self):
        streams = {"d": ["new", "bank", "old"]}
        anns = [SenseAnnotation("d", 1, "bank", 1)]
        ds = semantic_features(streams, anns, window=4, vocabulary=["old"])
        assert ds.feature_names == ["old"]
        assert ds.X[0].tolist() == [1.0]

    def test_vocabulary_sorted_union(self):
        streams = {"d": ["zeta", "bank", "alpha"]}
        anns = [SenseAnnotation("d", 1, "bank", 1)]
        assert semantic_vocabulary(streams, anns, 4) == ["alpha", "zeta"]

    def test_labels_and_ids(self):
        streams = {"d": ["a", "bank", "b"]}
        anns = [SenseAnnotation("d", 1, "bank", 2)]
        ds = semantic_features(streams, anns, window=2)
        assert ds.labels == [2]
        assert ds.ids == [("d", 1)]
        assert ds.class_counts == {2: 1}


class TestTopologicalFeatures:
    def test_rows_match_node_topology(self):
        streams = {"d": ["u", "v", "bank", "w", "x"]}
        anns = [SenseAnnotation("d", 2, "bank", 1)]
        net = build_network(streams, anns)
        ds = topological_features(net, anns)
        assert ds.dim == 8
        assert ds.feature_names[0] == "hier_degree_1"
        assert ds.X[0, 0] == 2.0  # v and w

    def test_symmetric_occurrences_identical_rows(self):
        # two occurrences with automorphic neighborhoods
        streams = {
            "d1": ["u", "v", "bank", "w", "x"],
            "d2": ["u", "v", "bank", "w", "x"],
        }
        anns = [SenseAnnotation("d1", 2, "bank", 1), SenseAnnotation("d2", 2, "bank", 2)]
        net = build_network(streams, anns)
        ds = topological_features(net, anns)
        assert np.allclose(ds.X[0], ds.X[1])

    def test_isolated_occurrence_zero_vector(self):
        streams = {"d": ["bank"], "e": ["x", "y"]}
        anns = [SenseAnnotation("d", 0, "bank", 1)]
        net = build_network(streams, anns)
        ds = topological_features(net, anns)
        assert np.array_equal(ds.X[0], np.zeros(8))

    def test_missing_node(self):
        net = build_network({"d": ["a", "b"]}, [])
        with pytest.raises(MissingNode):
            topological_features(net, [SenseAnnotation("d", 0, "a", 1)])

    def test_missing_node_raises_before_the_topology_is_computed(self):
        streams = {"d": ["u", "bank", "w"], "e": ["bank", "x"]}
        anns = [SenseAnnotation("d", 1, "bank", 1), SenseAnnotation("e", 1, "x", 2)]
        net = build_network(streams, anns[:1])
        with pytest.raises(MissingNode, match=r"no occurrence node for \(e, 1\)"):
            topological_features(net, anns)
        assert net._topology is None

    def test_rows_are_the_node_topology_vectors_bit_for_bit(self):
        documents, annotations = make_synthetic_corpus(n_per_sense=30, n_docs=3, seed=5,
                                                       noise=0.35)
        streams = {doc_id: doc.content_lemmas() for doc_id, doc in documents.items()}
        net = build_network(streams, annotations)
        ds = topological_features(net, annotations[::-1])
        want = np.array([node_topology(net, net.node_for(a.document_id, a.position)).as_vector()
                         for a in annotations[::-1]])
        assert ds.X.flags.c_contiguous and ds.X.dtype == np.float64
        assert ds.X.tobytes() == want.tobytes()
        assert ds.ids == [(a.document_id, a.position) for a in annotations[::-1]]
        assert ds.labels == [a.sense_id for a in annotations[::-1]]

    def test_no_annotations_give_an_empty_dataset(self):
        net = build_network({"d": ["a", "b"]}, [])
        ds = topological_features(net, [])
        assert ds.X.shape == (0, 8) and ds.ids == [] and net._topology is None


class TestStandardize:
    def test_two_point_column(self):
        ds = Dataset([0, 1], np.array([[0.0], [2.0]]), [1, 2], ["f"])
        z = standardize(ds)
        assert z.X[:, 0].tolist() == [-1.0, 1.0]  # population sigma = 1

    def test_constant_column_zeroed(self):
        ds = Dataset([0, 1, 2], np.array([[5.0], [5.0], [5.0]]), [1, 1, 2], ["f"])
        assert standardize(ds).X.tolist() == [[0.0], [0.0], [0.0]]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        ds = Dataset(range(20), rng.normal(size=(20, 4)) * 7 + 3, [1] * 20, list("abcd"))
        once = standardize(ds)
        twice = standardize(once)
        assert np.allclose(once.X, twice.X, atol=1e-12)

    def test_train_stats_applied_to_test(self):
        train = Dataset([0, 1], np.array([[0.0], [2.0]]), [1, 2], ["f"])
        test = Dataset([2], np.array([[4.0]]), [None], ["f"])
        stats = feature_stats(train)
        z = standardize(test, stats)
        assert z.X[0, 0] == pytest.approx(3.0)  # (4 - 1) / 1

    def test_requires_two_instances(self):
        ds = Dataset([0], np.array([[1.0]]), [1], ["f"])
        with pytest.raises(ValueError):
            standardize(ds)

    def test_overflowing_column_is_refused_by_name(self):
        # squares of values near 1e160 overflow, and an infinite deviation
        # used to map the whole column to 0 without an error; such a column
        # lies outside the feature range, so the dataset refuses it by name
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(0.0, 1.0, 6), rng.normal(3.0, 1.0, 6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="feature 'big' in row 0 "):
                Dataset(range(6), X * [1.0, 1e160], [1, 1, 1, 2, 2, 2], ["small", "big"])
        plain = Dataset(range(6), X, [1, 1, 1, 2, 2, 2], ["small", "big"])
        wide = Dataset(range(6), X * 1e140, plain.labels, plain.feature_names)  # within range
        assert np.allclose(standardize(wide).X, standardize(plain).X)

    @given(st.integers(0, 2**32 - 1))
    def test_idempotence_property(self, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(range(5), rng.normal(size=(5, 2)), [1] * 5, ["a", "b"])
        once = standardize(ds)
        assert np.allclose(standardize(once).X, once.X, atol=1e-9)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        ds = Dataset([0, 1], np.array([[1.5, 2.0], [0.25, -1.0]]), [1, None], ["a", "b"])
        path = tmp_path / "features.csv"
        ds.to_csv(path)
        loaded = Dataset.from_csv(path)
        assert loaded.feature_names == ["a", "b"]
        assert np.array_equal(loaded.X, ds.X)
        assert loaded.labels == [1, None]

    def test_header_must_end_with_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            Dataset.from_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("a,b,label\n", r"bad\.csv: no instance rows after the header$"),
        ("a,b,label\n1,2,1\n3,2\n", r"bad\.csv, line 3: 2 fields, the header has 3$"),
        ("a,b,label\n1,2,1\n1,x,2\n", r"bad\.csv, line 3: could not convert string to float: 'x'$"),
        ("a,b,label\n1,2,one\n", r"bad\.csv, line 2: invalid literal for int\(\) .*'one'$"),
    ], ids=["header-only", "short-row", "non-number", "non-integer-label"])
    def test_malformed_row_named_by_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            Dataset.from_csv(path)

    def test_subset_alignment(self):
        ds = Dataset([10, 11, 12], np.eye(3), [1, 2, 1], ["a", "b", "c"])
        sub = ds.subset([2, 0])
        assert sub.ids == [12, 10]
        assert sub.labels == [1, 1]
        assert np.array_equal(sub.X, ds.X[[2, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_named_at_the_boundary(self, bad):
        X = np.zeros((4, 3))
        X[2, 1] = bad
        X[3, 0] = bad  # a later row; the first one is named
        with pytest.raises(ValueError, match=r"row 2 \(id 12\), column 1 "):
            Dataset([10, 11, 12, 13], X, [1, 2, 1, 2], ["a", "b", "c"])

    def test_non_finite_csv_value_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,b,label\n1,2,1\n3,nan,2\n")
        with pytest.raises(ValueError, match="row 1 .*column 1 "):
            Dataset.from_csv(path)


def reference_class_counts(labels):
    """The label grouping every consumer ran on its own before the class index."""
    return dict(Counter(lab for lab in labels if lab is not None))


def seeded_label_lists():
    """Label lists in seeded random order: negative, positive, string and unlabeled."""
    families = [(-3, -1, 0, 2, 7), ("bank", "river", "shore"), (-2, 5)]
    cases = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        family = families[seed % len(families)]
        pool = list(family) + [None]
        cases.append([pool[i] for i in rng.integers(len(pool), size=int(rng.integers(1, 40)))])
    return cases


class TestClassIndex:
    @pytest.mark.parametrize("labels", seeded_label_lists())
    def test_matches_a_regrouping_of_the_labels(self, labels):
        ds = Dataset(range(len(labels)), np.zeros((len(labels), 1)), labels, ["x"])
        want = reference_class_counts(labels)
        assert ds.class_counts == want
        assert list(ds.class_counts) == list(want)  # first appearance, which p_value draws in
        assert ds.classes() == sorted(want)
        for c in ds.classes():
            assert ds.class_rows[c] == [i for i, lab in enumerate(labels) if lab == c]

    def test_unlabeled_rows_join_no_class(self):
        ds = Dataset(range(4), np.zeros((4, 1)), [None, 2, None, -1], ["x"])
        assert ds.class_rows == {2: [1], -1: [3]}
        assert ds.classes() == [-1, 2]

    def test_labels_that_do_not_order_fail_with_a_domain_error(self):
        with pytest.raises(ValueError, match=r"class labels 1 and 'a' cannot be ordered"):
            Dataset(range(2), [[0], [1]], [1, "a"], ["x"])
        with pytest.raises(ValueError, match=r"labels 2 and 'b' cannot be ordered"):
            Dataset(range(4), np.zeros((4, 1)), [2, None, 2.5, "b"], ["x"])

    def test_duplicate_ids_fail_with_a_domain_error(self):
        # a repeated id used to surface, fold by fold, as "vertex 3 already
        # present" from the walk engine
        with pytest.raises(ValueError, match=r"id 3 appears more than once"):
            Dataset(list(range(19)) + [3], np.zeros((20, 2)), [1] * 10 + [2] * 10, ["x", "y"])
        with pytest.raises(ValueError, match=r"id \('d', 1\) appears more than once"):
            Dataset([("d", 0), ("d", 1), ("d", 1)], np.zeros((3, 1)), [1, 1, 1], ["x"])

    def test_subset_and_standardize_rebuild_the_index(self):
        ds = Dataset(range(5), np.arange(5.0)[:, None], [2, 1, 2, None, 1], ["x"])
        assert ds.subset([4, 2, 3]).class_rows == {1: [0], 2: [1]}
        assert standardize(ds).class_rows == ds.class_rows
