import math
import random

import numpy as np
import pytest

from sensewalk.attgraph import (
    ClassGraph,
    GraphConfig,
    InsertionView,
    build_training_graph,
    insert_test,
)
from sensewalk.features import Dataset
from sensewalk.tourist import (
    AllViewsEmpty,
    InsertionTrial,
    VertexNotInComponent,
    _walk_indices,
    component_stats,
    walk,
    walk_memo,
)

from walk_oracle import oracle_neighbors, oracle_walk, random_geometric_graph


def graph_from_edges(positions, weighted_edges):
    """ClassGraph over explicit coordinates and (id_a, id_b, distance) edges;
    a pair listed twice keeps its last distance."""
    ids = sorted(positions)
    coords = np.array([positions[v] for v in ids], dtype=float)
    index = {v: k for k, v in enumerate(ids)}
    distances = np.full((len(ids), len(ids)), np.inf)
    for a, b, d in weighted_edges:
        i, j = index[a], index[b]
        distances[i, j] = distances[j, i] = float(d)
    return ClassGraph(0, ids, coords, distances, GraphConfig())


def snapshot(graph):
    """A graph's ids, positions and rows, floats as their exact bits."""
    rows = [[(d.hex(), j) for d, j in row] for row in graph.rows]
    return list(graph.ids), graph.positions.tobytes(), rows


def component_from_points(positions, edges):
    """ClassGraph over explicit coordinates and an undirected edge list."""
    weighted = [(a, b, math.dist(positions[a], positions[b])) for a, b in edges]
    return graph_from_edges(positions, weighted)


class TestWalkBasics:
    def test_mu_zero_traps_everywhere(self):
        positions = {0: (0, 0), 1: (1, 0), 2: (0.5, 1)}
        comp = component_from_points(positions, [(0, 1), (1, 2), (0, 2)])
        for start in positions:
            result = walk(comp, start, 0)
            assert (result.transient, result.cycle) == (0, 1)
            assert result.trajectory == (start,)

    def test_mutual_nearest_pair_bounce(self):
        positions = {0: (0, 0), 1: (0.1, 0)}
        comp = component_from_points(positions, [(0, 1)])
        for start in (0, 1):
            result = walk(comp, start, 1)
            assert (result.transient, result.cycle) == (0, 2)

    def test_triangle_cycle_three(self):
        # AB=1, BC=2, CA=3: from A the walk visits B, C, then A again
        positions = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (3.0, 0.0)}
        comp = graph_from_edges(
            positions, [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)]
        )
        result = walk(comp, "a", 2)
        assert (result.transient, result.cycle) == (0, 3)
        assert result.trajectory == ("a", "b", "c")

    def test_dead_end_on_path_graph(self):
        positions = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
        comp = component_from_points(positions, [(0, 1), (1, 2)])
        result = walk(comp, 0, 5)
        assert result.cycle == 0
        assert result.transient == 2  # two moves then stuck
        assert result.trajectory == (0, 1, 2)

    def test_single_vertex(self):
        comp = graph_from_edges({7: (0.0,)}, [])
        assert (walk(comp, 7, 0).transient, walk(comp, 7, 0).cycle) == (0, 1)
        assert (walk(comp, 7, 3).transient, walk(comp, 7, 3).cycle) == (0, 0)

    def test_unknown_start(self):
        comp = graph_from_edges({0: (0.0,)}, [])
        with pytest.raises(VertexNotInComponent):
            walk(comp, 99, 1)

    def test_negative_mu(self):
        comp = graph_from_edges({0: (0.0,)}, [])
        with pytest.raises(ValueError):
            walk(comp, 0, -1)

    def test_tie_breaks_to_smallest_id(self):
        # two neighbors at exactly the same distance
        positions = {"m": (0.0,), "a": (1.0,), "b": (-1.0,)}
        comp = graph_from_edges(positions, [("m", "a", 1.0), ("m", "b", 1.0)])
        assert walk(comp, "m", 1).trajectory[:2] == ("m", "a")

    def test_determinism(self):
        rng = random.Random(42)
        positions, edges = random_geometric_graph(rng, 10)
        comp = component_from_points(positions, edges)
        for start in range(10):
            runs = {(walk(comp, start, 3).transient, walk(comp, start, 3).cycle)
                    for _ in range(5)}
            assert len(runs) == 1

    def test_monotone_exploration_and_cycle_verification(self):
        rng = random.Random(9)
        for _ in range(30):
            positions, edges = random_geometric_graph(rng, rng.randint(3, 10))
            comp = component_from_points(positions, edges)
            for start in positions:
                for mu in (1, 2, 4):
                    result = walk(comp, start, mu)
                    if result.cycle == 0:
                        continue
                    t, c = result.transient, result.cycle
                    assert len(result.trajectory) == t + c
                    # simulating longer reproduces the cycle in order:
                    # the trajectory must satisfy v[m] == v[m+c] along the overlap
                    longer = _trace(comp, start, mu, steps=t + 3 * c)
                    for m in range(t, len(longer) - c):
                        assert longer[m] == longer[m + c]


def _trace(comp, start, mu, steps):
    """Raw vertex sequence of the first ``steps`` moves (engine-independent)."""
    idx = comp.ids.index(start)
    traj = [idx]
    window = (idx,) if mu > 0 else ()
    for _ in range(steps):
        nxt = None
        for d, j in comp.rows[traj[-1]]:
            if j not in window:
                nxt = j
                break
        if mu == 0:
            nxt = traj[-1]
        if nxt is None:
            break
        traj.append(nxt)
        if mu > 0:
            window = (nxt,) + window[: mu - 1]
    return [comp.ids[i] for i in traj]


class TestWalkAgainstOracle:
    def test_oracle_equivalence_sample(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(2, 12)
            positions, edges = random_geometric_graph(rng, n)
            comp = component_from_points(positions, edges)
            adj = oracle_neighbors(positions, edges)
            for start in positions:
                for mu in range(0, n + 1):
                    got = walk(comp, start, mu)
                    want = oracle_walk(positions, adj, start, mu)
                    assert (got.transient, got.cycle) == want, (
                        f"n={n} start={start} mu={mu}"
                    )


class TestComponentStats:
    def test_negative_mu_rejected(self):
        comp = graph_from_edges({0: (0.0,)}, [])
        with pytest.raises(ValueError, match="^mu_critical must be >= 0, got -1$"):
            component_stats(comp, -1)

    def test_single_vertex_component(self):
        comp = graph_from_edges({0: (0.0,)}, [])
        stats = component_stats(comp, 2)
        assert stats[0] == (0.0, 1.0)
        assert stats[1] == (0.0, 0.0)
        assert stats[2] == (0.0, 0.0)

    def test_vertex_transitive_rectangle(self):
        # a ring of alternating side lengths is vertex-transitive and
        # tie-free, so every start yields the same (t, c)
        positions = {0: (0, 0), 1: (1, 0), 2: (1, 3), 3: (0, 3)}
        comp = component_from_points(positions, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for mu in range(4):
            results = [(walk(comp, s, mu).transient, walk(comp, s, mu).cycle)
                       for s in positions]
            assert len(set(results)) == 1
            stats = component_stats(comp, mu)
            assert stats[mu][0] == pytest.approx(results[0][0])
            assert stats[mu][1] == pytest.approx(results[0][1])

    def test_equal_sided_square_symmetric_where_tie_free(self):
        # on an exact square the mu=1 step ties and resolves by vertex id,
        # so symmetry across starts is only guaranteed at other mu
        positions = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
        comp = component_from_points(positions, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for mu in (0, 2, 3):
            results = [(walk(comp, s, mu).transient, walk(comp, s, mu).cycle)
                       for s in positions]
            assert len(set(results)) == 1

    def test_matches_bruteforce_average(self):
        rng = random.Random(31)
        positions, edges = random_geometric_graph(rng, 10)
        comp = component_from_points(positions, edges)
        adj = oracle_neighbors(positions, edges)
        stats = component_stats(comp, 5)
        for mu in range(6):
            ts, cs = zip(*(oracle_walk(positions, adj, s, mu) for s in positions))
            assert stats[mu][0] == pytest.approx(sum(ts) / len(ts))
            assert stats[mu][1] == pytest.approx(sum(cs) / len(cs))

    def test_cache_reused_on_class_graphs(self):
        ds = _blob_dataset()
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.0, kappa=2))
        stats = component_stats(graphs[0], 3)
        first = walk_memo(graphs[0], 3)
        assert walk_memo(graphs[0], 3) is first
        assert walk_memo(graphs[0], 1) is first  # a smaller mu_max is covered
        assert [stats[mu] for mu in range(4)] == [first.means(mu) for mu in range(4)]
        assert len(first.t) == len(first.c) == 4 * graphs[0].vertex_count

    @pytest.mark.parametrize("seed", range(20))
    def test_memo_keeps_one_period_per_start(self, seed):
        # row (mu, s) of the flat memo holds start s's walk at mu up to one
        # cycle period, exactly as walk() reports it and with the oracle's
        # transient and cycle, and the row position of each move out of
        # those vertices, read off the rows (-1 at mu 0, where no walk moves)
        rng = random.Random(900 + seed)
        if seed % 4 == 3:
            n = rng.randint(3, 10)
            positions = {k: (0.25 * k, 0.5) for k in range(n)}
            edges = [(k, k + 1) for k in range(n - 1)]
        else:
            positions, edges = random_geometric_graph(rng, rng.randint(2, 14))
            if seed % 2:
                positions = _lattice_snap(positions)
        graph = component_from_points(positions, edges)
        adj = oracle_neighbors(positions, edges)
        n = len(graph.ids)
        memo = walk_memo(graph, 8)
        assert memo.mu_max == 8 and len(memo.t) == len(memo.c) == 9 * n
        assert memo.offsets[0] == 0 and len(memo.offsets) == 9 * n + 1
        size = memo.offsets[-1]
        assert len(memo.verts) == len(memo.picks) == size
        assert memo.vertex_list == tuple(memo.verts.tolist())
        for mu in range(9):
            rows = _memo_rows(memo, mu)
            assert memo.total_t[mu] == sum(t for t, _, _, _ in rows)
            assert memo.total_c[mu] == sum(c for _, c, _, _ in rows)
            for s, (t, c, verts, picks) in enumerate(rows):
                start = graph.ids[s]
                got = walk(graph, start, mu)
                assert (t, c) == (got.transient, got.cycle), (s, mu)
                assert (t, c) == oracle_walk(positions, adj, start, mu), (s, mu)
                assert [graph.ids[i] for i in verts] == list(got.trajectory)
                if mu:
                    # one move past the kept vertices: the period's closing move
                    traj = [graph.ids.index(v) for v in _trace(graph, start, mu, len(verts))]
                    _checked_picks(graph.rows, traj, picks, 0)
                else:
                    assert picks == [-1]

    @pytest.mark.parametrize("seed", range(12))
    def test_extended_memo_equals_a_fresh_one(self, seed, monkeypatch):
        # asking a graph with a memo to 3 for mu 12 rebuilds its memo in one
        # pass over mu 0..12, equal to a memo built to 12 at once, field for
        # field; a smaller mu then returns the stored memo itself
        rng = random.Random(950 + seed)
        positions, edges = _random_graph(rng, seed)
        graph = component_from_points(positions, edges)
        walk_memo(graph, 3)
        walked = []

        def spy(rows, prefixes, mu):
            walked.append(mu)
            return _walk_indices(rows, prefixes, mu)

        monkeypatch.setattr("sensewalk.tourist._walk_indices", spy)
        grown = walk_memo(graph, 12)
        assert walked == list(range(13))
        assert graph._walks is grown
        assert walk_memo(graph, 5) is grown and walked == list(range(13))
        monkeypatch.undo()
        fresh = walk_memo(component_from_points(positions, edges), 12)
        for name, got, want in zip(fresh._fields, grown, fresh):
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            else:
                assert got == want, name

    def test_memo_arrays_are_read_only(self):
        graphs = build_training_graph(_blob_dataset(), GraphConfig(epsilon=1.0, kappa=2))
        for mu_max in (2, 5):  # a fresh memo, then a rebuilt one
            memo = walk_memo(graphs[0], mu_max)
            for name, part in zip(memo._fields, memo):
                if isinstance(part, np.ndarray):
                    assert not part.flags.writeable, name
                    with pytest.raises(ValueError):
                        part[0] = 0
                else:
                    assert isinstance(part, tuple), name


def _memo_rows(memo, mu):
    """Per start, ``(t, c, kept vertices, picks)`` of a memo's rows at one mu."""
    n = len(memo.t) // len(memo.total_t)
    rows = []
    for r in range(mu * n, (mu + 1) * n):
        kept = slice(memo.offsets[r], memo.offsets[r + 1])
        rows.append((int(memo.t[r]), int(memo.c[r]),
                     memo.verts[kept].tolist(), memo.picks[kept].tolist()))
    return rows


def _blob_dataset(seed=5, per_class=8, classes=(1, 2), spread=0.5, gap=6.0):
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for k, class_id in enumerate(classes):
        X.append(rng.normal(k * gap, spread, size=(per_class, 2)))
        labels += [class_id] * per_class
    X = np.vstack(X)
    return Dataset(list(range(len(X))), X, labels, ["x", "y"])


class TestInsertionVariation:
    def _setup(self, probe):
        ds = _blob_dataset()
        graphs = build_training_graph(ds, GraphConfig(epsilon=1.5, kappa=3))
        views = insert_test(np.asarray(probe, float), graphs)
        return graphs, views

    def test_deltas_sum_to_one(self):
        graphs, views = self._setup([0.3, 0.2])
        for mu in range(5):
            dt, dc = InsertionTrial(99, graphs, views).variations(mu)
            assert sum(dt.values()) == pytest.approx(1.0, abs=1e-9)
            assert sum(dc.values()) == pytest.approx(1.0, abs=1e-9)

    def test_unlinked_class_gets_dominant_share(self):
        graphs, views = self._setup([0.3, 0.2])  # probe near class 1 only
        unlinked = [v.class_id for v in views if not v.linked]
        assert unlinked == [2]
        dt, dc = InsertionTrial(99, graphs, views).variations(2)
        # the unlinked class carries at least the linked class's variation
        assert dt[2] >= dt[1]
        assert dc[2] >= dc[1]

    def test_normalization_of_zero_and_positive(self):
        # one class unchanged, the other perturbed -> (0, 1) after normalizing
        dt = {1: 0.0, 2: 0.4}
        total = sum(dt.values())
        assert {k: v / total for k, v in dt.items()} == {1: 0.0, 2: 1.0}

    def test_three_class_arithmetic(self):
        raw = {1: 1.0, 2: 1.0, 3: 2.0}
        total = sum(raw.values())
        deltas = {k: v / total for k, v in raw.items()}
        assert deltas == {1: 0.25, 2: 0.25, 3: 0.5}

    def test_all_views_empty_raises(self):
        graphs, _ = self._setup([0.3, 0.2])
        far_views = insert_test(np.array([500.0, 500.0]), graphs)
        with pytest.raises(AllViewsEmpty):
            InsertionTrial(99, graphs, far_views)

    def test_trial_reuse_matches_fresh_computation(self):
        graphs, views = self._setup([0.3, 0.2])
        trial = InsertionTrial(99, graphs, views)
        for mu in range(4):
            fresh_dt, fresh_dc = InsertionTrial(99, graphs, views).variations(mu)
            dt, dc = trial.variations(mu)
            assert dt == fresh_dt
            assert dc == fresh_dc

    def test_selective_rewalk_matches_full_rewalk(self):
        # the cached-walk shortcut must agree with walking the augmented
        # component from scratch
        graphs, views = self._setup([0.5, -0.1])
        trial = InsertionTrial(99, graphs, views)
        view = next(v for v in views if v.linked)
        graph = next(g for g in graphs if g.class_id == view.class_id)
        full = _rebuilt_with(graph, 99, [0.5, -0.1], view.links)
        want = [_means_bruteforce(full, mu)[:2] for mu in range(5)]
        assert trial.augmented_means(view.class_id, 4) == want

    def test_insertion_leaves_graphs_unchanged(self):
        graphs, views = self._setup([0.3, 0.2])
        before = [snapshot(g) for g in graphs]
        trial = InsertionTrial(99, graphs, views)
        for mu in range(4):
            trial.variations(mu)
        assert [snapshot(g) for g in graphs] == before


def _means_bruteforce(comp, mu):
    ts, cs = [], []
    for v in comp.ids:
        r = walk(comp, v, mu)
        ts.append(r.transient)
        cs.append(r.cycle)
    return sum(ts) / len(ts), sum(cs) / len(cs), None


def _rebuilt_with(graph, new_id, position, links):
    """The augmented graph built from scratch: base edges plus the links."""
    positions = dict(zip(graph.ids, graph.positions.tolist()))
    positions[new_id] = position
    return graph_from_edges(positions, graph.edges() + [(new_id, vid, d) for vid, d in links])


class TestInsertionOverlay:
    def _lattice(self):
        # 3x3 unit lattice with even ids, so every odd test id sorts between
        # training ids; each vertex has several neighbors at exactly 1.0
        positions = {2 * k: (float(k % 3), float(k // 3)) for k in range(9)}
        edges = [(a, b) for a in positions for b in positions
                 if a < b and math.dist(positions[a], positions[b]) < 1.5]
        return component_from_points(positions, edges)

    def test_exact_tie_matches_rebuilt_graph(self):
        graph = self._lattice()
        link_sets = [(8,), (0, 8), (2, 8, 14), (4, 10, 16)]
        for test_id in range(1, 18, 2):
            for linked in link_sets:
                links = tuple((vid, 1.0) for vid in linked)
                trial = InsertionTrial(test_id, [graph], [InsertionView(0, links)])
                full = _rebuilt_with(graph, test_id, (1.0, 1.0), links)
                want = component_stats(full, 5)
                got = trial.augmented_means(0, 5)
                assert got == [want[mu] for mu in range(6)], (test_id, linked)

    def test_existing_id_rejected(self):
        graph = self._lattice()
        with pytest.raises(ValueError):
            InsertionTrial(8, [graph], [InsertionView(0, ((0, 1.0),))])

    @pytest.mark.parametrize("links", [((0, 1.0),), ()], ids=["linked", "unlinked"])
    @pytest.mark.parametrize("test_id", [None, "p"], ids=["bare-vector", "string"])
    def test_id_not_comparable_with_the_training_ids_rejected(self, test_id, links):
        # None is what a bare feature vector carries; the id is checked
        # before the views, so an unlinked test point gets the same error
        graph = self._lattice()
        with pytest.raises(ValueError, match="id comparable with the training ids"):
            InsertionTrial(test_id, [graph], [InsertionView(0, links)])


def _lattice_snap(positions, step=0.25):
    """Coordinates on a coarse binary lattice, so many distances tie exactly."""
    return {v: tuple(round(x / step) * step for x in p) for v, p in positions.items()}


class TestResumedWalks:
    """Walks resumed at their deflection step equal a full re-walk, bit for bit.

    Training ids are even and the test id odd, so it sorts between them;
    odd seeds put every point on a lattice so link distances tie the
    distances already in the touched rows.
    """

    @staticmethod
    def _assert_matches_rebuilt(positions, edges, rng, tied):
        ids = sorted(positions)
        test_id = 2 * rng.randint(0, len(ids)) - 1
        point = (rng.random(), rng.random())
        if tied:
            point = _lattice_snap({0: point})[0]
        linked = rng.sample(ids, rng.randint(1, min(len(ids), 5)))
        links = tuple((v, math.dist(point, positions[v])) for v in linked)
        graph = component_from_points(positions, edges)
        trial = InsertionTrial(test_id, [graph], [InsertionView(0, links)])
        full = _rebuilt_with(graph, test_id, point, links)
        # every mu's means from one call, each equal to a full re-walk
        got = trial.augmented_means(0, 8)
        for mu in range(9):
            want_t, want_c, _ = _means_bruteforce(full, mu)
            assert got[mu] == (want_t, want_c), (test_id, linked, mu)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_geometric_graphs(self, seed):
        rng = random.Random(seed)
        for _ in range(3):
            points, pairs = random_geometric_graph(rng, rng.randint(2, 14))
            if seed % 2:
                points = _lattice_snap(points)
            positions = {2 * v: p for v, p in points.items()}
            edges = [(2 * a, 2 * b) for a, b in pairs]
            self._assert_matches_rebuilt(positions, edges, rng, tied=seed % 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_dead_end_paths(self, seed):
        # on a path every walk with mu >= 2 runs into an end and halts
        rng = random.Random(100 + seed)
        n = rng.randint(3, 12)
        gaps = [0.25] * n if seed % 2 else [(0.5 + rng.random()) / n for _ in range(n)]
        positions = {2 * k: (sum(gaps[:k]), 0.5) for k in range(n)}
        edges = [(2 * k, 2 * k + 2) for k in range(n - 1)]
        graph = component_from_points(positions, edges)
        assert walk(graph, 0, 2).cycle == 0
        for _ in range(4):
            self._assert_matches_rebuilt(positions, edges, rng, tied=seed % 2)


def _states(traj, mu):
    """The (vertex, window) state at each index of a vertex sequence."""
    return [(v, tuple(reversed(traj[max(0, k + 1 - mu):k + 1]))) for k, v in enumerate(traj)]


def _checked_picks(rows, traj, picks, off):
    """Each pick is the row position of the next vertex (the row's length at a dead end)."""
    for m, pick in enumerate(picks, start=off):
        order = [j for _, j in rows[traj[m]]]
        assert pick == (order.index(traj[m + 1]) if m + 1 < len(traj) else len(order))


def _random_graph(rng, seed):
    """A random geometric graph; lattice-snapped on odd seeds, a path every fourth."""
    if seed % 4 == 3:
        n = rng.randint(3, 10)
        positions = {k: (0.25 * k + 0.1 * (k % 2), 0.5) for k in range(n)}
        return positions, [(k, k + 1) for k in range(n - 1)]
    positions, edges = random_geometric_graph(rng, rng.randint(2, 14))
    return (_lattice_snap(positions) if seed % 2 else positions), edges


class TestSharedStateTable:
    """Walks of one batch share a state table; each result equals an isolated walk."""

    @pytest.mark.parametrize("seed", range(24))
    def test_every_start_in_one_batch(self, seed):
        rng = random.Random(7000 + seed)
        positions, edges = _random_graph(rng, seed)
        graph = component_from_points(positions, edges)
        adj = oracle_neighbors(positions, edges)
        order = list(range(len(graph.ids)))
        for mu in range(9):
            rng.shuffle(order)
            batch = _walk_indices(graph.rows, [(s,) for s in order], mu)
            for s, got in zip(order, batch):
                assert got == _walk_indices(graph.rows, [(s,)], mu)[0], (s, mu)
                t, c, traj = got
                assert (t, c) == oracle_walk(positions, adj, graph.ids[s], mu), (s, mu)
                assert [graph.ids[i] for i in traj] == _trace(graph, graph.ids[s], mu,
                                                              len(traj) - 1), (s, mu)

    @pytest.mark.parametrize("seed", range(24))
    def test_resumed_prefixes_in_one_batch(self, seed):
        # base walks resumed at their first move onto the test vertex n,
        # batched with n's own walk, equal full walks on the augmented rows
        rng = random.Random(8000 + seed)
        points, pairs = _random_graph(rng, seed)
        positions = {2 * v: p for v, p in points.items()}
        edges = [(2 * a, 2 * b) for a, b in pairs]
        graph = component_from_points(positions, edges)
        test_id = 2 * rng.randint(0, len(positions)) - 1
        point = (rng.random(), rng.random())
        linked = rng.sample(sorted(positions), rng.randint(1, min(len(positions), 5)))
        links = tuple((v, math.dist(point, positions[v])) for v in linked)
        _, rows, _ = InsertionTrial(test_id, [graph], [InsertionView(0, links)])._aug[0]
        n = len(graph.ids)
        ids = graph.ids + [test_id]  # index n is the test vertex
        full_positions = {**positions, test_id: point}
        adj = oracle_neighbors(full_positions, edges + [(test_id, v) for v in linked])
        memo = walk_memo(graph, 8)
        for mu in range(1, 9):
            prefixes = {}
            for s, (_, _, traj, _) in enumerate(_memo_rows(memo, mu)):
                k = _first_deflection(rows, traj, mu, n)
                if k is not None:
                    prefixes[s] = traj[:k + 1]
            prefixes[n] = (n,)
            order = list(prefixes)
            rng.shuffle(order)
            batch = _walk_indices(rows, [prefixes[s] for s in order], mu)
            for s, got in zip(order, batch):
                assert got == _walk_indices(rows, [prefixes[s]], mu)[0], (s, mu)
                t, c, traj = got
                want_t, want_c, want_traj = _walk_indices(rows, [(s,)], mu)[0]
                end = t + (c or 1)
                assert (t, c, traj[:end]) == (want_t, want_c, want_traj[:end]), (s, mu)
                assert (t, c) == oracle_walk(full_positions, adj, ids[s], mu)

    @pytest.mark.parametrize("seed", range(24))
    def test_resumes_exactly_the_first_deflections(self, seed, monkeypatch):
        # one augmented_means call runs one batch per mu; each resumes every
        # start whose base walk at that mu moves onto the test vertex n,
        # from its first such move, and no other start; a brute-force scan
        # of every base walk finds those moves
        rng = random.Random(9000 + seed)
        points, pairs = _random_graph(rng, seed)
        positions = {2 * v: p for v, p in points.items()}
        edges = [(2 * a, 2 * b) for a, b in pairs]
        graph = component_from_points(positions, edges)
        adj = oracle_neighbors(positions, edges)
        test_id = 2 * rng.randint(0, len(positions)) - 1
        point = (rng.random(), rng.random())
        linked = rng.sample(sorted(positions), rng.randint(1, min(len(positions), 5)))
        links = tuple((v, math.dist(point, positions[v])) for v in linked)
        trial = InsertionTrial(test_id, [graph], [InsertionView(0, links)])
        _, rows, _ = trial._aug[0]
        n = len(graph.ids)
        walk_memo(graph, 8)  # the memo's own batches are not spied on
        batches = []

        def spy(rows, prefixes, mu):
            batches.append((mu, [tuple(p) for p in prefixes]))
            return _walk_indices(rows, prefixes, mu)

        monkeypatch.setattr("sensewalk.tourist._walk_indices", spy)
        trial.augmented_means(0, 8)
        assert [mu for mu, _ in batches] == list(range(9))
        for mu, batch in batches:
            want = []
            for start in graph.ids if mu else ():
                t, c = oracle_walk(positions, adj, start, mu)
                traj = [graph.ids.index(v) for v in _trace(graph, start, mu, t + 2 * c)]
                k = _first_deflection(rows, traj, mu, n)
                if k is not None:
                    want.append(tuple(traj[:k + 1]))
            assert batch[-1] == (n,)
            assert sorted(batch[:-1]) == want, mu

    # Explicit joins. In the batch a later walk stops at the first state an
    # earlier walk entered; the asserted trajectories are worked by hand.

    def test_join_into_a_dead_end(self):
        # 0 - 1 - 2 on a line, 1 nearer 0; at mu 2 walk 1 halts at 0 and
        # walk 2 reaches that same state (0, window (0, 1)) one step later
        graph = graph_from_edges({0: (0.0,), 1: (1.0,), 2: (3.0,)},
                                 [(0, 1, 1.0), (1, 2, 2.0)])
        got = _walk_indices(graph.rows, [(0,), (1,), (2,)], 2)
        assert got == [(2, 0, [0, 1, 2]), (1, 0, [1, 0]), (2, 0, [2, 1, 0])]
        assert _states(got[2][2], 2)[2] == _states(got[1][2], 2)[1]
        # row positions of each move, the row's length at the dead end
        picks = [p for _, _, _, p in _memo_rows(walk_memo(graph, 2), 2)]
        assert picks == [[0, 1, 1], [0, 1], [0, 0, 1]]

    def test_join_onto_a_cycle_past_its_entry(self):
        # the triangle 0, 1, 2 at 1, 2 and 4 on a line; at mu 2 walk 1 runs
        # 1 0 2 1 0 (cycle entered at index 1); walk 2 steps onto its state
        # (1, window (1, 2)) at index 3, so its tail is one rotated period
        graph = graph_from_edges({0: (1.0,), 1: (2.0,), 2: (4.0,)},
                                 [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        got = _walk_indices(graph.rows, [(1,), (2,)], 2)
        assert got[0] == (0, 3, [1, 0, 2, 1, 0])
        assert _states(got[1][2], 2)[1] == _states(got[0][2], 2)[3]
        assert got[1] == (0, 3, [2, 1, 0, 2, 1])
        assert got == [_walk_indices(graph.rows, [(s,)], 2)[0] for s in (1, 2)]

    def test_join_into_a_transient(self):
        # the same triangle with a tail 2 - 3 - 4; walk 3 enters the cycle
        # through (2, window (2, 3)) at index 1, and walk 4 reaches that
        # transient state at index 2
        graph = graph_from_edges(
            {0: (1.0,), 1: (2.0,), 2: (4.0,), 3: (10.0,), 4: (20.0,)},
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 6.0), (3, 4, 10.0)],
        )
        got = _walk_indices(graph.rows, [(3,), (4,)], 2)
        assert got[0] == (1, 3, [3, 2, 1, 0, 2, 1])
        assert _states(got[1][2], 2)[2] == _states(got[0][2], 2)[1]
        assert got[1] == (2, 3, [4, 3, 2, 1, 0, 2, 1])
        assert got == [_walk_indices(graph.rows, [(s,)], 2)[0] for s in (3, 4)]

    def test_mu_one_walk_back_to_its_start_state(self):
        # 0 and 1 are mutual nearest neighbors: walk 0 returns to its start
        # state; walk 2 joins it at state 1 and walk 1 starts there
        graph = graph_from_edges({0: (0.0,), 1: (1.0,), 2: (3.0,)},
                                 [(0, 1, 1.0), (1, 2, 2.0)])
        got = _walk_indices(graph.rows, [(0,), (2,), (1,)], 1)
        assert got == [(0, 2, [0, 1, 0]), (1, 2, [2, 1, 0, 1]), (0, 2, [1, 0, 1])]
        assert got == [_walk_indices(graph.rows, [(s,)], 1)[0] for s in (0, 2, 1)]


def _first_deflection(rows, traj, mu, n):
    """First index of ``traj`` whose move on ``rows`` goes to vertex ``n``, or None."""
    for k, v in enumerate(traj):
        window = traj[max(0, k + 1 - mu):k + 1]
        nxt = next((j for _, j in rows[v] if j not in window), None)
        if nxt == n:
            return k
    return None
