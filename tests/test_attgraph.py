import numpy as np
import pytest

from sensewalk.attgraph import (
    ClassGraph,
    ClassTooSmall,
    GraphConfig,
    _bridges,
    _neighbor_choice,
    _pairwise_distances,
    build_training_graph,
    default_epsilon,
    insert_test,
    write_class_graphs,
)
from sensewalk.features import Dataset


def make_dataset(points, labels, ids=None):
    X = np.asarray(points, dtype=float)
    ids = list(range(len(X))) if ids is None else ids
    names = [f"f{i}" for i in range(X.shape[1])]
    return Dataset(ids, X, list(labels), names)


def neighbors(graph, v):
    """Ids adjacent to vertex id ``v``."""
    return {graph.ids[j] for _, j in graph.rows[graph.ids.index(v)]}


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
        assert graphs[0].is_connected()

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
        before = [g.content_hash() for g in graphs]
        insert_test(np.array([0.1, 0.1]), graphs)
        insert_test(np.array([100.0, 100.0]), graphs)
        assert [g.content_hash() for g in graphs] == before

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
        D = _pairwise_distances(ds.X[rows])
        pairs = [(i, j) for i in range(len(ids))
                 for j in _neighbor_choice(D, i, self.CONFIG.epsilon, self.CONFIG.kappa).tolist()]
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
            assert _bridges(D, pairs) == want_bridges
            want = {(min(i, j), max(i, j)) for i, j in pairs + want_bridges}
            assert g.edges() == sorted((ids[i], ids[j], D[i, j]) for i, j in want)

    def test_translated_blobs_force_exact_ties(self):
        ds = _multi_blob_dataset(0, translated=True)
        ids, D, pairs = self._pieces(ds, 1)
        lengths = [D[i, j] for i, j in _repeated_scan_bridges(D, pairs)]
        assert len(set(lengths)) < len(lengths)


def test_round_trip_through_edges_keeps_content_hash():
    ds = _multi_blob_dataset(1, translated=False)
    for g in build_training_graph(ds, GraphConfig(epsilon=1.5, kappa=2)):
        copy = ClassGraph(g.class_id, g.ids, g.positions, g.edges(), g.config)
        assert copy.content_hash() == g.content_hash()
        assert copy.rows == g.rows


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
