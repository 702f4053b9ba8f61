import tracemalloc
import warnings

import numpy as np
import pytest

from sensewalk import attgraph
from sensewalk.attgraph import (
    ClassGraph,
    ClassTooSmall,
    GraphConfig,
    _bridges,
    _pairwise_distances,
    build_training_graph,
    default_epsilon,
    insert_test,
    write_class_graphs,
)
from sensewalk.evaluate import make_fold_plan, make_synthetic_corpus
from sensewalk.features import (
    Dataset,
    feature_stats,
    semantic_features,
    semantic_vocabulary,
    standardize,
)


def make_dataset(points, labels, ids=None):
    X = np.asarray(points, dtype=float)
    ids = list(range(len(X))) if ids is None else ids
    names = [f"f{i}" for i in range(X.shape[1])]
    return Dataset(ids, X, list(labels), names)


def neighbors(graph, v):
    """Ids adjacent to vertex id ``v``."""
    return {graph.ids[j] for _, j in graph.rows[graph.ids.index(v)]}


def snapshot(graph):
    """Everything a built graph holds, floats as their exact bits."""
    return (
        graph.class_id,
        list(graph.ids),
        graph.positions.tobytes(),
        [[(d.hex(), j) for d, j in row] for row in graph.rows],
        [(a, b, d.hex()) for a, b, d in graph.edges()],
    )


def is_connected(graph):
    """Breadth-first search over ``rows`` from vertex 0 reaches every vertex."""
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [j for k in frontier for _, j in graph.rows[k] if j not in seen]
        seen.update(frontier)
    return len(seen) == graph.vertex_count


class TestBuildRule:
    def test_dense_regime_epsilon_clique(self):
        # 5 coincident points: every epsilon ball holds the other 4 > kappa=3
        ds = make_dataset([[0.0, 0.0]] * 5, [1] * 5)
        graphs = build_training_graph(ds, GraphConfig(epsilon=0.1, kappa=3))
        g = graphs[0]
        assert g.vertex_count == 5
        for row in g.rows:
            assert len(row) == 4  # clique

    def test_sparse_regime_knn_links(self):
        # an isolated point far from its class gets exactly kappa links
        pts = [[0, 0], [0.1, 0], [0, 0.1], [0.1, 0.1], [50, 50]]
        ds = make_dataset(pts, [1] * 5)
        graphs = build_training_graph(ds, GraphConfig(epsilon=0.5, kappa=3))
        g = graphs[0]
        assert len(neighbors(g, 4)) == 3
        assert neighbors(g, 4) <= {0, 1, 2, 3}

    def test_no_interclass_edges(self):
        pts = [[0, 0], [0.1, 0], [10, 10], [10.1, 10]]
        ds = make_dataset(pts, [1, 1, 2, 2])
        graphs = build_training_graph(ds, GraphConfig(epsilon=0.5, kappa=1))
        class_vertices = {g.class_id: set(g.ids) for g in graphs}
        for g in graphs:
            for a, b, _ in g.edges():
                assert a in class_vertices[g.class_id]
                assert b in class_vertices[g.class_id]

    def test_rule_selector_invariant(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        ds = make_dataset(X, [1] * 30)
        cfg = GraphConfig(epsilon=1.0, kappa=3)
        graphs = build_training_graph(ds, cfg)
        g = graphs[0]
        rules_seen = set()
        for i, v in enumerate(g.ids):
            d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
            ball = {g.ids[j] for j in np.nonzero(d < cfg.epsilon)[0] if j != i}
            expected_rule = "epsilon" if len(ball) > cfg.kappa else "knn"
            rules_seen.add(expected_rule)
            if expected_rule == "epsilon":
                assert ball <= neighbors(g, v)
            else:
                order = [j for j in np.argsort(d, kind="stable") if j != i]
                knn = {g.ids[j] for j in order[: cfg.kappa]}
                assert knn <= neighbors(g, v)
        assert rules_seen == {"epsilon", "knn"}  # layout exercises both regimes

    def test_each_class_single_component(self):
        rng = np.random.default_rng(1)
        # two far-apart blobs in the same class force a repair bridge
        X = np.vstack([rng.normal(0, 0.2, size=(6, 2)), rng.normal(20, 0.2, size=(6, 2))])
        ds = make_dataset(X, [1] * 12)
        graphs = build_training_graph(ds, GraphConfig(epsilon=0.5, kappa=2))
        assert is_connected(graphs[0])

    def test_class_too_small(self):
        ds = make_dataset([[0, 0], [1, 1], [2, 2]], [1, 1, 2])
        with pytest.raises(ClassTooSmall):
            build_training_graph(ds, GraphConfig(epsilon=1.0))

    def test_default_epsilon_is_median_same_class_distance(self):
        pts = [[0, 0], [3, 4], [0, 0], [6, 8]]
        ds = make_dataset(pts, [1, 1, 2, 2])
        # distances: class1 pair = 5, class2 pair = 10 -> median 7.5
        assert default_epsilon(ds) == pytest.approx(7.5)

    def test_duplicate_heavy_data_needs_an_explicit_epsilon(self):
        ds = make_dataset([[0, 0]] * 6 + [[1, 1]] * 6, [1] * 6 + [2] * 6)
        with pytest.raises(ValueError, match="duplicate points.*--epsilon"):
            default_epsilon(ds)
        with pytest.raises(ValueError, match="median same-class distance is 0"):
            build_training_graph(ds)
        assert len(build_training_graph(ds, GraphConfig(epsilon=0.5))) == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GraphConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            GraphConfig(kappa=0)


class TestInsertTest:
    def _two_class_graphs(self):
        pts = [[0, 0], [0.2, 0], [0, 0.2], [5, 5], [5.2, 5], [5, 5.2]]
        ds = make_dataset(pts, [1, 1, 1, 2, 2, 2])
        return build_training_graph(ds, GraphConfig(epsilon=0.5, kappa=2)), ds

    def test_coincident_point_links_that_vertex(self):
        graphs, _ = self._two_class_graphs()
        views = insert_test(np.array([0.0, 0.0]), graphs)
        view1 = next(v for v in views if v.class_id == 1)
        assert 0 in {vid for vid, _ in view1.links}

    def test_far_point_empty_view(self):
        graphs, _ = self._two_class_graphs()
        views = insert_test(np.array([100.0, 100.0]), graphs)
        assert all(not v.linked for v in views)

    def test_fallback_kappa_links_within_factor(self):
        graphs, _ = self._two_class_graphs()
        # distance ~0.8 from class 1: outside epsilon=0.5, inside 3*epsilon
        views = insert_test(np.array([0.8, 0.0]), graphs)
        view1 = next(v for v in views if v.class_id == 1)
        assert len(view1.links) == 2  # kappa
        view2 = next(v for v in views if v.class_id == 2)
        assert not view2.linked

    def test_insertion_does_not_mutate_graphs(self):
        graphs, _ = self._two_class_graphs()
        before = [snapshot(g) for g in graphs]
        insert_test(np.array([0.1, 0.1]), graphs)
        insert_test(np.array([100.0, 100.0]), graphs)
        assert [snapshot(g) for g in graphs] == before

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], [np.nan, 0.0],
                                   [np.inf, 0.0], [0.0, -np.inf], [np.nextafter(2.0**480, np.inf), 0.0]],
                             ids=["short", "long", "two-d", "nan", "inf", "-inf", "past-bound"])
    def test_bad_test_vector_rejected(self, x):
        # [0.5] used to broadcast to [0.5, 0.5] and link; a NaN gave empty
        # views, which the classifier took for an instance linking nowhere
        graphs, _ = self._two_class_graphs()
        with pytest.raises(ValueError, match="test vectors must"):
            insert_test(x, graphs)

    def test_vector_at_the_feature_bound_links_without_warnings(self):
        top = 2.0**480
        ds = make_dataset([[-top, 0], [-top, 1], [-top, 2], [top, 0], [top, 1], [top, 2]],
                          [1, 1, 1, 2, 2, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graphs = build_training_graph(ds, GraphConfig(kappa=1))
            near = insert_test([top, 1.5], graphs)
            far = insert_test([-top, top], graphs)
        assert not near[0].linked and near[1].links == ((4, 0.5), (5, 0.5))
        assert not far[0].linked and not far[1].linked
        with pytest.raises(ValueError, match="features must lie within"):
            make_dataset([[np.nextafter(top, np.inf), 0], [top, 1]], [1, 1])

    def test_mirrored_components_symmetric_views(self):
        rng = np.random.default_rng(7)
        left = rng.normal(size=(8, 2)) - np.array([4.0, 0.0])
        right = -left  # mirror through the origin
        X = np.vstack([left, right])
        ds = make_dataset(X, [1] * 8 + [2] * 8)
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=3))
        views = insert_test(np.zeros(2), graphs)
        d1 = sorted(round(d, 12) for _, d in views[0].links)
        d2 = sorted(round(d, 12) for _, d in views[1].links)
        assert d1 == d2
        # mirrored ids correspond: id i in class 1 <-> id i+8 in class 2
        ids1 = sorted(vid for vid, _ in views[0].links)
        ids2 = sorted(vid - 8 for vid, _ in views[1].links)
        assert ids1 == ids2


def _repeated_scan_bridges(D, pairs):
    """Reference bridging: rescan every pair for the shortest edge between
    two pieces, add it, and repeat until one piece is left."""
    n = len(D)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in pairs:
        parent[find(i)] = find(j)
    added = []
    while len({find(i) for i in range(n)}) > 1:
        best = None
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) != find(j):
                    cand = (D[i, j], i, j)
                    if best is None or cand < best:
                        best = cand
        _, i, j = best
        added.append((i, j))
        parent[find(i)] = find(j)
    return added


def _multi_blob_dataset(seed, translated):
    """Two classes of small integer-coordinate blobs on a coarse grid, far
    enough apart that the local rule leaves each class in several pieces.
    Translated copies of one blob make the bridges tie exactly."""
    rng = np.random.default_rng(seed)
    shape = rng.integers(0, 3, size=(5, 2))
    X, labels = [], []
    for k, center in enumerate([(0, 0), (9, 0), (0, 9), (9, 9)] * 2):
        blob = shape if translated else rng.integers(0, 3, size=(5, 2))
        X.append(blob + np.array(center) + np.array([27 * (k // 4), 0]))
        labels += [1 + k // 4] * len(blob)
    return make_dataset(np.vstack(X), labels)


class TestBridging:
    CONFIG = GraphConfig(epsilon=1.5, kappa=2)

    def _pieces(self, ds, class_id):
        rows = [i for i, lab in enumerate(ds.labels) if lab == class_id]
        ids = [ds.ids[r] for r in rows]
        D = _reference_distances(ds.X[rows])
        pairs = [(i, j) for i in range(len(ids))
                 for j in _reference_neighbor_choice(D, i, self.CONFIG.epsilon,
                                                     self.CONFIG.kappa).tolist()]
        return ids, D, pairs

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("translated", [False, True])
    def test_kruskal_matches_repeated_scan(self, seed, translated):
        ds = _multi_blob_dataset(seed, translated)
        graphs = build_training_graph(ds, self.CONFIG)
        for g in graphs:
            ids, D, pairs = self._pieces(ds, g.class_id)
            want_bridges = _repeated_scan_bridges(D, pairs)
            assert len(want_bridges) >= 2
            links = np.zeros(D.shape, dtype=bool)
            links[tuple(zip(*pairs))] = True
            assert _bridges(D, links | links.T) == want_bridges
            want = {(min(i, j), max(i, j)) for i, j in pairs + want_bridges}
            assert g.edges() == sorted((ids[i], ids[j], D[i, j]) for i, j in want)

    def test_translated_blobs_force_exact_ties(self):
        ds = _multi_blob_dataset(0, translated=True)
        ids, D, pairs = self._pieces(ds, 1)
        lengths = [D[i, j] for i, j in _repeated_scan_bridges(D, pairs)]
        assert len(set(lengths)) < len(lengths)


# -- the per-vertex builder, the reference the index-space build must match bit for bit


def _reference_distances(X):
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _reference_neighbor_choice(D, row, epsilon, kappa):
    """Indices the combined rule links vertex ``row`` to: its epsilon ball
    when that holds more than kappa vertices, else its kappa nearest."""
    d = D[row].copy()
    d[row] = np.inf
    ball = np.nonzero(d < epsilon)[0]
    if len(ball) > kappa:
        return ball
    order = np.argsort(d, kind="stable")  # ties fall back to id order
    return order[: min(kappa, len(d) - 1)]


def _reference_bridges(D, pairs):
    """Kruskal over every directed pair, then over all pairs by (distance, i, j)."""
    n = len(D)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pieces = n
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            pieces -= 1
    added = []
    if pieces <= 1:
        return added
    iu, ju = np.triu_indices(n, k=1)
    for k in np.lexsort((ju, iu, D[iu, ju])).tolist():
        i, j = int(iu[k]), int(ju[k])
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            added.append((i, j))
            pieces -= 1
            if pieces == 1:
                break
    return added


def _rows_from_id_edges(ids, edges):
    """Sorted index-space rows of ``(id_a, id_b, distance)`` edges, a pair
    listed twice kept once: the constructor's old id-edge path."""
    index = {v: k for k, v in enumerate(ids)}
    pairs = {}
    for a, b, d in edges:
        i, j = index[a], index[b]
        pairs[min(i, j), max(i, j)] = float(d)
    rows = [[] for _ in ids]
    for (i, j), d in pairs.items():
        rows[i].append((d, j))
        rows[j].append((d, i))
    return [sorted(row) for row in rows]


def reference_build_training_graph(dataset, config):
    """``(class_id, ids, rows, epsilon)`` per class, as the per-vertex builder made them.

    Each class's distances are computed once for the median epsilon (in
    dataset row order) and again for the graph (in id order), the rule
    runs once per vertex and the edges go through ids before the rows are
    built.
    """
    by_class = {}
    for i, label in enumerate(dataset.labels):
        if label is not None:
            by_class.setdefault(label, []).append(i)
    epsilon = config.epsilon
    if epsilon is None:
        dists = []
        for class_id in sorted(by_class):
            D = _reference_distances(dataset.X[by_class[class_id]])
            dists.extend(D[np.triu_indices(len(D), k=1)].tolist())
        epsilon = float(np.median(dists))
    graphs = []
    for class_id in sorted(by_class):
        rows = sorted(by_class[class_id], key=lambda r: dataset.ids[r])
        ids = [dataset.ids[r] for r in rows]
        D = _reference_distances(dataset.X[rows])
        pairs = [(i, j) for i in range(len(ids))
                 for j in _reference_neighbor_choice(D, i, epsilon, config.kappa).tolist()]
        pairs += _reference_bridges(D, pairs)
        edges = [(ids[i], ids[j], D[i, j]) for i, j in pairs]
        graphs.append((class_id, ids, _rows_from_id_edges(ids, edges), epsilon))
    return graphs


def _clouds(seed, sizes, spread):
    """One class per size: a tight core (dense regime) plus outliers spread
    ``spread`` wide (sparse regime), ids shuffled against row order."""
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for class_id, n in enumerate(sizes):
        core = rng.normal(class_id, 0.2, size=(n - n // 3, 3))
        far = rng.uniform(-spread, spread, size=(n // 3, 3))
        X += [core, far]
        labels += [class_id] * n
    ids = rng.permutation(len(labels)).tolist()
    return make_dataset(np.vstack(X), labels, ids)


def _lattice(seed, n_per_class):
    """Points on a 0.25 lattice, so distances tie exactly and often."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 8, size=(2 * n_per_class, 2)) * 0.25
    return make_dataset(X, [3] * n_per_class + [5] * n_per_class)


def _semantic_training_folds(seed):
    """Standardized training folds of the noisy synthetic corpus, as
    cross-validation hands them to the builder."""
    documents, annotations = make_synthetic_corpus(noise=0.35, seed=7 + seed)
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in documents.items()}
    annotations = sorted(annotations, key=lambda a: (a.document_id, a.position))
    labels = [a.sense_id for a in annotations]
    folds = []
    for train_idx, _ in make_fold_plan(labels, 10, seed).folds:
        train = [annotations[i] for i in train_idx]
        ds = semantic_features(streams, train, 5, semantic_vocabulary(streams, train, 5))
        folds.append(standardize(ds, feature_stats(ds)))
    return folds


EQUIVALENCE_CASES = {
    **{f"mixed-regimes-{seed}-eps-{eps}": (_clouds(seed, (24, 31, 17), 3.0),
                                           GraphConfig(epsilon=eps, kappa=3))
       for seed in range(3) for eps in (None, 0.6)},
    **{f"lattice-ties-{seed}-eps-{eps}": (_lattice(seed, 40), GraphConfig(epsilon=eps, kappa=k))
       for seed in range(3) for eps, k in ((None, 3), (0.5, 3), (0.25, 2), (0.75, 6))},
    "duplicates-explicit-eps": (
        make_dataset([[0, 0]] * 7 + [[1, 0]] * 3 + [[1, 1]] * 6 + [[4, 4]] * 2,
                     [1] * 10 + [2] * 8),
        GraphConfig(epsilon=0.5, kappa=3)),
    "two-point-classes": (make_dataset([[0, 0], [1, 2], [5, 5], [5, 6.5], [9, 0], [9, 0]],
                                       [1, 1, 2, 2, 3, 3]), GraphConfig(kappa=1)),
    "kappa-at-least-n-minus-1": (_clouds(4, (4, 5, 6), 2.0), GraphConfig(epsilon=0.3, kappa=5)),
    "kappa-far-beyond-n": (_clouds(5, (3, 7), 2.0), GraphConfig(kappa=50)),
    **{f"multi-blob-{seed}-{'translated' if t else 'random'}": (
        _multi_blob_dataset(seed, t), GraphConfig(epsilon=1.5, kappa=2))
       for seed in range(6) for t in (False, True)},
}


class TestReferenceBuilder:
    @staticmethod
    def assert_matches_reference(graphs, dataset, config):
        want = reference_build_training_graph(dataset, config)
        assert len(graphs) == len(want)
        for g, (class_id, ids, rows, epsilon) in zip(graphs, want):
            assert (g.class_id, g.ids) == (class_id, ids)
            assert [[(d.hex(), j) for d, j in row] for row in g.rows] == \
                [[(d.hex(), j) for d, j in row] for row in rows]
            assert [(a, b, d.hex()) for a, b, d in g.edges()] == sorted(
                (ids[k], ids[j], d.hex()) for k, row in enumerate(rows) for d, j in row if j > k)
            assert g.config.epsilon.hex() == epsilon.hex()

    @pytest.mark.parametrize("case", EQUIVALENCE_CASES)
    def test_rows_edges_and_epsilon_are_bit_identical(self, case):
        ds, config = EQUIVALENCE_CASES[case]
        self.assert_matches_reference(build_training_graph(ds, config), ds, config)

    def test_training_folds_of_the_noisy_corpus(self):
        for z in _semantic_training_folds(0):
            self.assert_matches_reference(build_training_graph(z), z, GraphConfig())

    def test_cases_cover_both_regimes_and_bridges(self):
        """The cases exercise what they are named for."""
        dense = sparse = bridged = 0
        for ds, config in EQUIVALENCE_CASES.values():
            for class_id, ids, rows, epsilon in reference_build_training_graph(ds, config):
                X = ds.X[[ds.ids.index(v) for v in ids]]
                D = _reference_distances(X)
                picked = [(i, j) for i in range(len(ids))
                          for j in _reference_neighbor_choice(D, i, epsilon, config.kappa)]
                balls = (D < epsilon).sum(axis=1) - 1
                dense += int((balls > config.kappa).sum())
                sparse += int((balls <= config.kappa).sum())
                bridged += len(_reference_bridges(D, picked)) > 0
        assert dense > 100 and sparse > 100 and bridged >= 24


def test_one_distance_matrix_per_class(monkeypatch):
    sizes = []
    real = attgraph._pairwise_distances

    def counting(X):
        sizes.append(len(X))
        return real(X)

    monkeypatch.setattr(attgraph, "_pairwise_distances", counting)
    ds = _clouds(0, (6, 9, 4), 2.0)
    build_training_graph(ds)
    assert sizes == [6, 9, 4]  # epsilon=None takes the median from the same matrices
    sizes.clear()
    build_training_graph(ds, GraphConfig(epsilon=1.0))
    assert sizes == [6, 9, 4]


@pytest.mark.parametrize("shape, scale", [
    ((2, 1), 1.0), ((63, 5), 1.0), ((64, 7), 1.0), ((65, 48), 1.0), ((99, 48), 1.0),
    ((257, 3), 1.0), ((300, 48), 1e-3), ((1000, 48), 1e3),
])
def test_blocked_distances_equal_the_one_shot_tensor(shape, scale):
    X = np.random.default_rng(shape[0]).normal(size=shape) * scale
    D = _pairwise_distances(X)
    # the first and last 160 rows cover every shape but the largest, whose
    # full tensor would take 768 MB
    for rows in (slice(0, 160), slice(-160, None)):
        diff = X[rows, None, :] - X[None, :, :]
        assert np.array_equal(D[rows], np.sqrt((diff * diff).sum(axis=-1)))


def test_large_class_build_stays_in_row_blocks():
    # one 600 x 48 class: the n x n x d difference tensor alone would be
    # 138 MB (280 MB peak with its square); row blocks keep it near 15 MB
    n, d = 600, 48
    ds = make_dataset(np.random.default_rng(0).normal(size=(n, d)), [1] * n)
    tracemalloc.start()
    try:
        graphs = build_training_graph(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graphs[0].vertex_count == n
    assert peak < 80e6


@pytest.mark.parametrize("labels", [[-1, 2], [-2, -3], ["bank", "shore"]],
                         ids=["negative-and-positive", "all-negative", "strings"])
def test_epsilon_comes_from_every_labeled_class(labels):
    # same-class distances {1, 3, 2} and {3, 1, 4}: median 2.5 over both
    # classes, 3.0 over the second alone
    first, second = labels
    ds = make_dataset([[0], [1], [3], [10], [13], [14]], [first] * 3 + [second] * 3)
    assert default_epsilon(ds) == 2.5
    graphs = build_training_graph(ds)
    assert [g.class_id for g in graphs] == sorted(labels)
    assert [g.config.epsilon for g in graphs] == [2.5, 2.5]


def test_ids_that_do_not_order_fail_with_a_domain_error():
    ds = make_dataset([[0], [1], [2], [3], [4]], [1, 1, 2, 2, 2], ids=[0, "a", 2, 3, 4])
    with pytest.raises(ValueError, match=r"ids 0 and 'a' cannot be ordered"):
        build_training_graph(ds)


@pytest.mark.parametrize("config", [GraphConfig(epsilon=1.0, kappa=1), GraphConfig()],
                         ids=["given-epsilon", "median-epsilon"])
def test_overflowing_distance_fails_with_the_ids(config):
    # ids 0 and 1 of class 1 are 1e200 apart, whose square overflows: the
    # build used to give vertex 0 a self-loop and leave 1 and 2 isolated.
    # Such rows now lie outside the feature range, so no dataset holds them.
    with pytest.raises(ValueError, match=r"row 1 \(id 1\), column 0 is 1e\+200"):
        make_dataset([[0, 0], [1e200, 0], [3e200, 0], [0, 1], [1, 1], [2, 1]], [1, 1, 1, 2, 2, 2])
    # the widest rows the range admits build, and their distances are finite
    ds = make_dataset([[0, 0], [2.0**480, 0], [-2.0**480, 0], [0, 1], [1, 1], [2, 1]],
                      [1, 1, 1, 2, 2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graphs = build_training_graph(ds, config)
        assert default_epsilon(ds) > 0
    assert all(np.isfinite(d) for g in graphs for _, _, d in g.edges())


def _distances_from_rows(rows):
    """The n x n edge-length matrix of index-space rows, +inf off the edges."""
    distances = np.full((len(rows), len(rows)), np.inf)
    for k, row in enumerate(rows):
        for d, j in row:
            distances[k, j] = d
    return distances


def test_round_trip_through_edges_keeps_the_graph():
    ds = _multi_blob_dataset(1, translated=False)
    for g in build_training_graph(ds, GraphConfig(epsilon=1.5, kappa=2)):
        distances = _distances_from_rows(_rows_from_id_edges(g.ids, g.edges()))
        copy = ClassGraph(g.class_id, g.ids, g.positions, distances, g.config)
        assert snapshot(copy) == snapshot(g)


@pytest.mark.parametrize("seed", range(16))
def test_rows_and_rank_equal_a_per_row_sort(seed):
    # exact distance ties and duplicate points (distance 0), vertex 0
    # isolated on odd seeds; the argsort-built rows equal sorted() of each
    # row's (distance, index) pairs, rank[k, j] is j's position in row k,
    # rank[k, n] that row's length, and every other entry -1
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 30))
    X = rng.integers(0, 3, size=(n, 2)) * 0.5  # more points than the 9 lattice sites
    D = _reference_distances(X)
    links = np.triu(rng.random((n, n)) < 0.4, k=1)
    links |= links.T
    links[0] &= seed % 2 == 0
    links[:, 0] &= seed % 2 == 0
    graph = ClassGraph(0, range(n), X, np.where(links, D, np.inf), GraphConfig())
    want = [sorted((D[k, j], j) for j in range(n) if links[k, j]) for k in range(n)]
    assert [[(d.hex(), j) for d, j in row] for row in graph.rows] == \
        [[(float(d).hex(), j) for d, j in row] for row in want]
    rank = graph.rank
    assert rank.shape == (n + 1, n + 1) and rank.dtype == np.int32
    for k in range(n):
        order = [j for _, j in want[k]]
        for j in range(n):
            assert rank[k, j] == (order.index(j) if j in order else -1), (k, j)
    assert rank[:n, n].tolist() == [len(row) for row in want]
    assert rank[n].tolist() == [-1] * (n + 1)
    assert not rank.flags.writeable
    with pytest.raises(ValueError):
        rank[0, 0] = 0


def test_distance_matrix_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="must be a 3 x 3 matrix"):
        ClassGraph(0, [0, 1, 2], np.zeros((3, 1)), np.full((2, 2), np.inf), GraphConfig())


def test_graph_dump_format(tmp_path):
    pts = [[0, 0], [0.2, 0], [5, 5], [5.2, 5]]
    ds = make_dataset(pts, [1, 1, 2, 2])
    graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=1))
    path = tmp_path / "graphs.tsv"
    write_class_graphs(graphs, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2  # one edge per class
    for line in lines:
        class_id, a, b, d = line.split("\t")
        assert float(d) > 0
