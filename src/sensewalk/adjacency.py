"""Word-adjacency networks and per-node topological measurements.

The network is a weighted directed graph over content lemmas: the weight
of edge ``(i, j)`` counts how often lemma ``i`` appears immediately before
lemma ``j``. Annotated occurrences of ambiguous words become their own
nodes (``word#k`` for the k-th occurrence corpus-wide) so that each
occurrence can be characterized independently; every other lemma shares a
single node.

Topological measurements are computed on the undirected, unweighted
projection of the network (self-loops dropped): hierarchical degree and
hierarchical clustering at levels 1 and 2, mean and standard deviation of
neighbor degrees, average shortest path length over reachable nodes, and
unnormalized betweenness (Brandes accumulation). The first
``node_topology`` call measures every node in one pass: breadth-first
searches from blocks of sources, run level by level with sparse products,
give each source's distances and shortest-path counts, Brandes'
dependencies accumulate back over the same levels, and all eight
measurements are read off those blocks. Nodes are indexed in sorted order,
so every sum runs in the same order and the table is identical across
processes, whatever the string hash seed. The table is memoized on the
network (compute, then assign: concurrent first calls compute equal
tables), and later calls look up one row.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

_SOURCE_BLOCK = 16  # BFS sources per block: columns of the n x block dist/sigma arrays


@dataclass(frozen=True)
class NodeTopology:
    """The eight structural measurements of one node."""

    hier_degree_1: float
    hier_degree_2: float
    hier_clustering_1: float
    hier_clustering_2: float
    neighbor_degree_mean: float
    neighbor_degree_std: float
    avg_shortest_path: float
    betweenness: float

    def as_vector(self):
        return [getattr(self, name) for name in self.FIELD_NAMES]


NodeTopology.FIELD_NAMES = tuple(f.name for f in fields(NodeTopology))


class WordAdjacencyNetwork:
    """Directed weighted lemma graph with distinct ambiguous-occurrence nodes."""

    def __init__(self, weights, nodes, occurrence_nodes):
        self.weights = dict(weights)  # (i, j) -> count, count >= 1
        self.nodes = set(nodes)
        # (document_id, content position) -> occurrence node id
        self.occurrence_nodes = dict(occurrence_nodes)
        self._topology = None  # (node -> row, n x 8 table), filled by node_topology

    def total_weight(self):
        return sum(self.weights.values())

    def node_for(self, document_id, position):
        return self.occurrence_nodes.get((document_id, position))


def build_network(token_streams, annotations=()):
    """Count adjacent content-lemma pairs across documents.

    ``token_streams`` maps document id to its ordered content-lemma list
    (the output of the corpus pipeline). Each annotated position becomes a
    ``word#k`` node, numbered in document/stream order.
    """
    annotated = {(a.document_id, a.position): a for a in annotations}
    weights = {}
    nodes = set()
    occurrence_nodes = {}
    occurrence_counter = {}

    for doc_id, lemmas in token_streams.items():
        node_seq = []
        for position, lemma in enumerate(lemmas):
            ann = annotated.get((doc_id, position))
            if ann is not None:
                k = occurrence_counter.get(ann.word, 0)
                occurrence_counter[ann.word] = k + 1
                node = f"{ann.word}#{k}"
                occurrence_nodes[(doc_id, position)] = node
            else:
                node = lemma
            node_seq.append(node)
            nodes.add(node)
        for a, b in zip(node_seq, node_seq[1:]):
            weights[(a, b)] = weights.get((a, b), 0) + 1

    return WordAdjacencyNetwork(weights, nodes, occurrence_nodes)


def _projection(network):
    """Node index and CSR adjacency of the undirected projection.

    Nodes are indexed in sorted order; each row lists its neighbors in
    ascending index order, and self-loops are dropped.
    """
    from scipy import sparse  # imported here: loading it would dominate `import sensewalk`

    nodes = sorted(network.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    ends = np.array(
        [(index[a], index[b]) for a, b in network.weights if a != b], dtype=np.int64
    ).reshape(-1, 2)
    keys = np.unique(np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]]))
    rows, cols = np.divmod(keys, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return index, sparse.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))


def _neighbor_degree_stats(adjacency):
    """Mean and population std of each node's neighbor degrees.

    Summed neighbor by neighbor with Python floats, the textbook loop:
    numpy squares with ``x * x``, which differs from Python's ``x ** 2`` in
    the last bit for about one random double in a thousand.
    """
    degree = np.diff(adjacency.indptr)
    neighbor_degrees = degree[adjacency.indices].tolist()
    bounds = adjacency.indptr.tolist()
    stats = np.zeros((len(degree), 2))
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        degrees = neighbor_degrees[lo:hi]
        if degrees:
            mean = sum(degrees) / len(degrees)
            stats[i] = mean, math.sqrt(sum((d - mean) ** 2 for d in degrees) / len(degrees))
    return stats


def _ring_density(adjacency, ring):
    """Per column, the fraction of possible edges present among the ring's nodes."""
    members = ring.sum(axis=0)
    edges = (ring * (adjacency @ ring)).sum(axis=0)  # each edge seen from both ends
    pairs = members * (members - 1.0)
    return np.divide(edges, pairs, out=np.zeros(len(edges)), where=members >= 2)


def _topology_table(adjacency):
    """The eight measurements of every node, one row per node.

    One pass over blocks of sources: a level-synchronous BFS builds each
    block's distances and shortest-path counts, Brandes' dependency
    accumulation runs back over the same levels, and every per-source
    measurement is read off those blocks.
    """
    n = adjacency.shape[0]
    table = np.zeros((n, len(NodeTopology.FIELD_NAMES)))  # columns in FIELD_NAMES order
    table[:, 4:6] = _neighbor_degree_stats(adjacency)
    betweenness = np.zeros(n)
    for first in range(0, n, _SOURCE_BLOCK):
        sources = np.arange(first, min(first + _SOURCE_BLOCK, n))
        columns = np.arange(len(sources))
        dist = np.full((n, len(sources)), -1)
        sigma = np.zeros((n, len(sources)))
        dist[sources, columns] = 0
        sigma[sources, columns] = 1.0
        frontier = sigma.copy()  # path counts of the last level, 0 elsewhere
        depth = 0
        while True:
            reach = adjacency @ frontier
            new = (reach > 0) & (dist < 0)
            if not new.any():
                break
            depth += 1
            dist[new] = depth
            frontier = np.where(new, reach, 0.0)
            sigma += frontier

        delta = np.zeros((n, len(sources)))
        for level in range(depth, 1, -1):
            outer = dist == level
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(delta), where=outer)
            inner = dist == level - 1
            delta[inner] = (sigma * (adjacency @ share))[inner]
        betweenness += delta.sum(axis=1)

        ring1, ring2 = (dist == 1).astype(float), (dist == 2).astype(float)
        reached = dist > 0
        count = reached.sum(axis=0)
        total = np.where(reached, dist, 0).sum(axis=0)
        table[sources, 0] = ring1.sum(axis=0)
        table[sources, 1] = ring2.sum(axis=0)
        table[sources, 2] = _ring_density(adjacency, ring1)
        table[sources, 3] = _ring_density(adjacency, ring2)
        table[sources, 6] = np.divide(total, count, out=np.zeros(len(sources)), where=count > 0)
    # each unordered pair was counted from both endpoints
    table[:, 7] = betweenness / 2.0
    return table


def node_topology(network, node):
    """All eight measurements for one node of the network."""
    if network._topology is None:
        index, adjacency = _projection(network)
        network._topology = index, _topology_table(adjacency)
    index, table = network._topology
    if node not in index:
        raise KeyError(f"node {node!r} not in network")
    return NodeTopology(*table[index[node]].tolist())


def write_edgelist(network, path):
    """Serialize as ``i<TAB>j<TAB>w_ij`` lines, sorted for reproducibility."""
    lines = [f"{a}\t{b}\t{w}" for (a, b), w in sorted(network.weights.items())]
    isolated = sorted(
        network.nodes - {a for a, _ in network.weights} - {b for _, b in network.weights}
    )
    lines.extend(f"{node}\t\t0" for node in isolated)  # keep edge-free nodes
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_edgelist(path):
    """Inverse of ``write_edgelist``; occurrence bookkeeping is not restored."""
    weights = {}
    nodes = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        a, b, w = line.split("\t")
        if b == "":
            nodes.add(a)
            continue
        weights[(a, b)] = int(w)
        nodes.update((a, b))
    return WordAdjacencyNetwork(weights, nodes, {})
