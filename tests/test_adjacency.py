import itertools
import math
import random
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import pytest

import sensewalk
from sensewalk import adjacency
from sensewalk.adjacency import (
    NodeTopology,
    WordAdjacencyNetwork,
    build_network,
    node_topology,
    write_edgelist,
)
from sensewalk.corpus import SenseAnnotation, preprocess_text
from sensewalk.evaluate import make_synthetic_corpus

POEM_LEMMAS = (
    "middle road stone stone middle road stone middle road stone never "
    "forget event lifetime fatigue retina never forget middle road stone "
    "stone middle road middle road stone"
).split()


def bigram_oracle(*streams):
    """Independent bigram counter."""
    counts = Counter()
    for seq in streams:
        counts.update(zip(seq, seq[1:]))
    return dict(counts)


def star_network(leaves=4):
    weights = {("hub", f"leaf{i}"): 1 for i in range(leaves)}
    nodes = {"hub"} | {f"leaf{i}" for i in range(leaves)}
    return WordAdjacencyNetwork(weights, nodes, {})


class TestBuildNetwork:
    def test_drummond_poem_weights(self):
        net = build_network({"poem": POEM_LEMMAS})
        expected = bigram_oracle(POEM_LEMMAS)
        assert net.weights == expected
        assert net.weights[("middle", "road")] == 6
        assert net.weights[("road", "stone")] == 5
        assert net.weights[("stone", "stone")] == 2
        assert net.weights[("stone", "middle")] == 3
        assert net.weights[("road", "middle")] == 1
        assert net.weights[("never", "forget")] == 2

    def test_single_token_stream(self):
        net = build_network({"d": ["a"]})
        assert net.weights == {}
        assert net.nodes == {"a"}

    def test_alternating_stream(self):
        net = build_network({"d": ["x", "y", "x", "y"]})
        assert net.weights == {("x", "y"): 2, ("y", "x"): 1}

    def test_total_weight_invariant(self):
        streams = {"a": POEM_LEMMAS, "b": ["x", "y", "x"], "c": ["solo"]}
        net = build_network(streams)
        expected = sum(max(len(s) - 1, 0) for s in streams.values())
        assert net.total_weight() == expected

    def test_deterministic_rebuild(self):
        streams = {"a": POEM_LEMMAS, "b": ["x", "y", "x"]}
        n1 = build_network(streams)
        n2 = build_network(streams)
        assert n1.weights == n2.weights
        assert n1.nodes == n2.nodes

    def test_annotated_occurrences_become_distinct_nodes(self):
        streams = {"d": ["deep", "rock", "face", "rock", "edge"]}
        anns = [
            SenseAnnotation("d", 1, "rock", 1),
            SenseAnnotation("d", 3, "rock", 2),
        ]
        net = build_network(streams, anns)
        assert net.node_for("d", 1) == "rock#0"
        assert net.node_for("d", 3) == "rock#1"
        assert ("deep", "rock#0") in net.weights
        assert ("rock#0", "face") in net.weights
        assert ("face", "rock#1") in net.weights
        assert "rock" not in net.nodes

    def test_occurrence_numbering_spans_documents(self):
        streams = {"a": ["x", "jam", "y"], "b": ["jam", "z"]}
        anns = [SenseAnnotation("a", 1, "jam", 1), SenseAnnotation("b", 0, "jam", 2)]
        net = build_network(streams, anns)
        assert net.node_for("a", 1) == "jam#0"
        assert net.node_for("b", 0) == "jam#1"


def projection(network):
    """Undirected unweighted projection as sorted adjacency lists (no self-loops)."""
    adj = {node: set() for node in network.nodes}
    for a, b in network.weights:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {node: sorted(adj[node]) for node in sorted(adj)}


# The per-node loops the one-pass topology table replaced, kept as its
# reference: a BFS per node, ring densities from member sets, and a
# dict-based Brandes pass over every source.


def reference_bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_ring_density(adj, ring):
    n = len(ring)
    if n < 2:
        return 0.0
    members = set(ring)
    edge_count = 0
    for u in ring:
        edge_count += sum(1 for v in adj[u] if v in members)
    return edge_count / (n * (n - 1))  # each edge seen from both ends


def reference_brandes_betweenness(adj):
    centrality = {v: 0.0 for v in adj}
    for s in adj:
        stack = []
        preds = {v: [] for v in adj}
        sigma = {v: 0.0 for v in adj}
        sigma[s] = 1.0
        dist = {v: -1 for v in adj}
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in adj}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                centrality[w] += delta[w]
    return {v: c / 2.0 for v, c in centrality.items()}


def reference_topology(adj, node, betweenness):
    dist = reference_bfs_distances(adj, node)
    ring1 = [v for v, d in dist.items() if d == 1]
    ring2 = [v for v, d in dist.items() if d == 2]
    degrees = [len(adj[v]) for v in ring1]
    if degrees:
        mean = sum(degrees) / len(degrees)
        std = math.sqrt(sum((d - mean) ** 2 for d in degrees) / len(degrees))
    else:
        mean = std = 0.0
    reachable = [d for d in dist.values() if d > 0]
    aspl = sum(reachable) / len(reachable) if reachable else 0.0
    return NodeTopology(
        hier_degree_1=float(len(ring1)),
        hier_degree_2=float(len(ring2)),
        hier_clustering_1=reference_ring_density(adj, ring1),
        hier_clustering_2=reference_ring_density(adj, ring2),
        neighbor_degree_mean=mean,
        neighbor_degree_std=std,
        avg_shortest_path=aspl,
        betweenness=betweenness[node],
    )


def mixed_network(seed):
    """Random pieces side by side: G(n, p) blobs, a star, a path, isolated
    nodes, self-loops and edges given in both directions."""
    rng = random.Random(seed)
    weights, nodes = {}, set()

    def link(a, b):
        weights[(a, b)] = weights.get((a, b), 0) + rng.randint(1, 3)
        nodes.update((a, b))

    for blob in range(rng.randint(1, 3)):
        members = [f"b{blob}_{i}" for i in range(rng.randint(2, 14))]
        nodes.update(members)
        p = rng.uniform(0.15, 0.7)
        for a, b in itertools.permutations(members, 2):
            if rng.random() < p / 2:
                link(a, b)
    hub = f"hub{seed}"
    for i in range(rng.randint(1, 7)):
        ends = (hub, f"leaf{i}") if rng.random() < 0.5 else (f"leaf{i}", hub)
        link(*ends)
    path = [f"p{i}" for i in range(rng.randint(2, 9))]
    for a, b in zip(path, path[1:]):
        link(a, b)
    if rng.random() < 0.5:  # tie the path to the star
        link(path[-1], hub)
    for node in rng.sample(sorted(nodes), 3):
        link(node, node)
    nodes.update(f"iso{i}" for i in range(rng.randint(0, 3)))
    return WordAdjacencyNetwork(weights, nodes, {})


def corpus_network():
    documents, annotations = make_synthetic_corpus(n_per_sense=60, seed=7, noise=0.35)
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in documents.items()}
    return build_network(streams, annotations), annotations


def assert_matches_reference(net):
    adj = projection(net)
    betweenness = reference_brandes_betweenness(adj)
    for node in adj:
        got = node_topology(net, node).as_vector()
        want = reference_topology(adj, node, betweenness).as_vector()
        assert got[:7] == want[:7], node
        assert got[7] == pytest.approx(want[7], rel=1e-12), node


class SmallGraphOracle:
    """Exhaustive shortest-path bookkeeping for tiny undirected graphs."""

    def __init__(self, adj):
        self.adj = adj

    def distances(self, source):
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v in self.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        return dist

    def betweenness(self, node):
        """Enumerate every shortest path of every pair; count pass-throughs."""
        total = 0.0
        nodes = sorted(self.adj)
        for s, t in itertools.combinations(nodes, 2):
            if s == node or t == node:
                continue
            paths = self._all_shortest_paths(s, t)
            if not paths:
                continue
            through = sum(1 for p in paths if node in p[1:-1])
            total += through / len(paths)
        return total

    def _all_shortest_paths(self, s, t):
        dist = self.distances(s)
        if t not in dist:
            return []
        paths = []

        def extend(path):
            u = path[-1]
            if u == t:
                paths.append(path)
                return
            for v in self.adj[u]:
                if dist.get(v) == dist[u] + 1:
                    extend(path + [v])

        extend([s])
        return paths


class TestNodeTopology:
    def test_field_names_are_the_fields_in_order(self):
        # the topological feature columns and the benchmark read these names
        assert NodeTopology.FIELD_NAMES == (
            "hier_degree_1", "hier_degree_2", "hier_clustering_1", "hier_clustering_2",
            "neighbor_degree_mean", "neighbor_degree_std", "avg_shortest_path", "betweenness",
        )
        topo = NodeTopology(*range(8))
        assert topo.as_vector() == list(range(8))

    def test_star_center(self):
        net = star_network(4)
        topo = node_topology(net, "hub")
        assert topo.hier_degree_1 == 4
        assert topo.hier_degree_2 == 0
        assert topo.hier_clustering_1 == 0.0
        assert topo.avg_shortest_path == 1.0
        assert topo.betweenness == 6.0  # all 6 leaf pairs route through the hub
        assert topo.neighbor_degree_mean == 1.0
        assert topo.neighbor_degree_std == 0.0

    def test_star_against_oracle(self):
        net = star_network(4)
        oracle = SmallGraphOracle(projection(net))
        for node in net.nodes:
            topo = node_topology(net, node)
            dist = oracle.distances(node)
            assert topo.hier_degree_1 == sum(1 for d in dist.values() if d == 1)
            assert topo.hier_degree_2 == sum(1 for d in dist.values() if d == 2)
            reachable = [d for d in dist.values() if d > 0]
            assert topo.avg_shortest_path == pytest.approx(sum(reachable) / len(reachable))
            assert topo.betweenness == pytest.approx(oracle.betweenness(node))

    def test_triangle_vertex(self):
        weights = {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1}
        net = WordAdjacencyNetwork(weights, {"a", "b", "c"}, {})
        topo = node_topology(net, "a")
        assert topo.hier_degree_1 == 2
        assert topo.hier_clustering_1 == 1.0
        assert topo.betweenness == 0.0

    def test_two_node_graph_neighbor_std(self):
        net = WordAdjacencyNetwork({("a", "b"): 3}, {"a", "b"}, {})
        topo = node_topology(net, "a")
        assert topo.neighbor_degree_std == 0.0
        assert topo.hier_degree_1 == 1

    def test_isolated_node(self):
        net = WordAdjacencyNetwork({("a", "b"): 1}, {"a", "b", "c"}, {})
        topo = node_topology(net, "c")
        assert topo.avg_shortest_path == 0.0
        assert topo.betweenness == 0.0
        assert topo.hier_degree_1 == 0

    def test_self_loop_excluded_from_projection(self):
        net = WordAdjacencyNetwork({("a", "a"): 2, ("a", "b"): 1}, {"a", "b"}, {})
        topo = node_topology(net, "a")
        assert topo.hier_degree_1 == 1

    def test_tree_clustering_zero_everywhere(self):
        # path + branches: trees have no triangles and no ring edges
        weights = {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("b", "e"): 1}
        net = WordAdjacencyNetwork(weights, {"a", "b", "c", "d", "e"}, {})
        for node in net.nodes:
            topo = node_topology(net, node)
            assert topo.hier_clustering_1 == 0.0

    def test_clustering_in_unit_interval_random_graphs(self):
        import random

        rng = random.Random(11)
        for _ in range(20):
            nodes = [f"n{i}" for i in range(rng.randint(2, 9))]
            weights = {}
            for a, b in itertools.combinations(nodes, 2):
                if rng.random() < 0.4:
                    weights[(a, b)] = 1
            net = WordAdjacencyNetwork(weights, set(nodes), {})
            for node in nodes:
                topo = node_topology(net, node)
                assert 0.0 <= topo.hier_clustering_1 <= 1.0
                assert 0.0 <= topo.hier_clustering_2 <= 1.0
                assert topo.betweenness >= 0.0

    def test_betweenness_matches_oracle_random_graphs(self):
        import random

        rng = random.Random(5)
        for _ in range(10):
            nodes = [f"n{i}" for i in range(rng.randint(3, 8))]
            weights = {}
            for a, b in itertools.combinations(nodes, 2):
                if rng.random() < 0.5:
                    weights[(a, b)] = 1
            net = WordAdjacencyNetwork(weights, set(nodes), {})
            oracle = SmallGraphOracle(projection(net))
            for node in nodes:
                bc = node_topology(net, node).betweenness
                assert bc == pytest.approx(oracle.betweenness(node))

    def test_missing_node_raises(self):
        net = star_network(2)
        with pytest.raises(KeyError):
            node_topology(net, "ghost")

    def test_empty_network(self):
        with pytest.raises(KeyError):
            node_topology(WordAdjacencyNetwork({}, set(), {}), "a")

    def test_table_is_computed_once(self, monkeypatch):
        calls = []
        table = adjacency._topology_table

        def counted(*args):
            calls.append(1)
            return table(*args)

        monkeypatch.setattr(adjacency, "_topology_table", counted)
        net = star_network(5)
        vectors = [node_topology(net, node).as_vector() for node in sorted(net.nodes) * 2]
        assert vectors[:6] == vectors[6:]
        assert len(calls) == 1


class TestReferenceEquivalence:
    """The one-pass table against the per-node loops it replaced."""

    @pytest.mark.parametrize("seed", range(24))
    def test_mixed_random_graphs(self, seed):
        assert_matches_reference(mixed_network(seed))

    def test_long_path(self):
        # one level per node: the backward pass runs 39 levels deep
        nodes = [f"n{i:02d}" for i in range(40)]
        net = WordAdjacencyNetwork({(a, b): 1 for a, b in zip(nodes, nodes[1:])}, nodes, {})
        assert_matches_reference(net)
        assert node_topology(net, "n00").avg_shortest_path == sum(range(40)) / 39

    def test_synthetic_corpus_network(self):
        net, _ = corpus_network()
        assert len(net.nodes) > 100
        assert_matches_reference(net)


_OCCURRENCE_VECTORS = """
import sys
sys.path.insert(0, sys.argv[1])
from test_adjacency import corpus_network
from sensewalk import node_topology
net, annotations = corpus_network()
for a in annotations:
    print(repr(node_topology(net, net.node_for(a.document_id, a.position)).as_vector()))
"""


def test_topology_is_identical_across_hash_seeds():
    # string hashing changes set order from one process to the next
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _OCCURRENCE_VECTORS, tests],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 120
    assert outputs[0] == outputs[1]


def test_scipy_sparse_loads_only_for_topology():
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    code = (
        "import sys, sensewalk\n"
        "print('scipy.sparse' in sys.modules)\n"
        "net = sensewalk.build_network({'d': ['a', 'b', 'c', 'a']})\n"
        "sensewalk.node_topology(net, 'a')\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        net = build_network({"poem": POEM_LEMMAS})
        path = tmp_path / "net.tsv"
        write_edgelist(net, path)
        want = sorted(bigram_oracle(POEM_LEMMAS).items())
        assert path.read_text(encoding="utf-8").splitlines() == \
            [f"{a}\t{b}\t{w}" for (a, b), w in want]

    def test_isolated_node_round_trip(self, tmp_path):
        net = build_network({"a": ["only"], "b": ["x", "y"]})
        path = tmp_path / "net.tsv"
        write_edgelist(net, path)
        assert path.read_text(encoding="utf-8") == "x\ty\t1\nonly\t\t0\n"


def test_full_pipeline_to_network():
    text = "The deep rock face and the rolling rock edge."
    toks = preprocess_text(text)
    lemmas = [t.lemma for t in toks if t.is_content]
    anns = [
        SenseAnnotation("d", lemmas.index("rock"), "rock", 1),
        SenseAnnotation("d", len(lemmas) - 1 - lemmas[::-1].index("rock"), "rock", 2),
    ]
    net = build_network({"d": lemmas}, anns)
    assert net.total_weight() == len(lemmas) - 1
    assert len(net.occurrence_nodes) == 2
