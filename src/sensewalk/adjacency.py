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
give each source's distance levels and shortest-path counts, Brandes'
dependencies accumulate back over the same levels, and all eight
measurements are read off those blocks. The blocks are independent: a
corpus run scores them on its ``evaluate._RunPool`` before its first word,
one contiguous chunk per worker, and adds their dependencies in block order.
Nodes are indexed in sorted order, so every sum runs in the same order and
the table is identical across processes, whatever the string hash seed.
The table is memoized on the network (compute, then assign: concurrent
first calls compute equal tables), and later calls look up one row.

``write_edgelist`` saves a network as sorted ``i<TAB>j<TAB>w`` lines; the
package writes edge lists and reads none.
"""

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .corpus import _write_lines

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


def _ring_density(adjacency, ring, members):
    """Per column, the fraction of possible edges present among the ring's
    ``members`` nodes; ``ring`` is 1.0 at them, 0.0 elsewhere."""
    edges = np.ones(len(ring)) @ (ring * (adjacency @ ring))  # each edge seen from both ends
    pairs = members * (members - 1.0)
    return np.divide(edges, pairs, out=np.zeros(len(edges)), where=members >= 2)


def _block_topology(adjacency, first):
    """One block of sources' table rows and their summed Brandes dependencies.

    The sources are nodes ``first`` up to ``first + _SOURCE_BLOCK``, one
    column each. A level-synchronous BFS keeps each level's mask and the
    shortest-path counts; the dependency accumulation runs back over those
    masks, and the rows are read off them. Masks enter the arithmetic as
    factors of 1 and 0, which keep a value's bits or zero it. Every count
    is a sum of whole numbers, exact in any order. Returns ``(rows,
    dependencies)``: the sources' rows of the table, with the
    neighbor-degree and betweenness columns left 0, and each node's
    dependency summed over the sources.
    """
    n = adjacency.shape[0]
    sources = np.arange(first, min(first + _SOURCE_BLOCK, n))
    width = len(sources)
    frontier = np.zeros((n, width))  # path counts of the last level, 0 elsewhere
    frontier[sources, np.arange(width)] = 1.0
    sigma = frontier.copy()
    unseen = frontier == 0
    levels = []  # levels[d - 1]: the nodes at distance d from each source
    while True:
        reach = adjacency @ frontier
        new = reach > 0
        new &= unseen
        if not new.any():
            break
        unseen ^= new
        levels.append(new)
        frontier = np.multiply(reach, new, out=reach)
        sigma += frontier

    delta = np.zeros((n, width))
    divisor = sigma + unseen  # sigma where reached, 1 where not: no division by 0
    for outer, inner in zip(levels[:0:-1], levels[-2::-1]):
        share = np.add(delta, 1.0)
        share /= divisor
        share *= outer
        gain = adjacency @ share
        gain *= sigma
        gain *= inner
        delta += gain

    ones = np.ones(n)
    counts = [ones @ level for level in levels]  # per level, the nodes at that distance
    count = sum(counts, np.zeros(width))
    total = sum((d * c for d, c in enumerate(counts, start=1)), np.zeros(width))
    rows = np.zeros((width, len(NodeTopology.FIELD_NAMES)))  # columns in FIELD_NAMES order
    for d in (1, 2):
        if d <= len(levels):
            rows[:, d - 1] = counts[d - 1]
            rows[:, d + 1] = _ring_density(adjacency, levels[d - 1].astype(float), counts[d - 1])
    rows[:, 6] = np.divide(total, count, out=np.zeros(width), where=count > 0)
    return rows, delta.sum(axis=1)


def _topology_table(adjacency, pool=None):
    """The eight measurements of every node, one row per node.

    ``_block_topology`` is mapped over the blocks of sources: in this
    process, or on ``pool`` (an ``evaluate`` run pool, which sends the
    function by name) in one contiguous chunk of blocks per worker. Either
    way the dependencies are added in block order, so the table has the same bits.
    """
    n = adjacency.shape[0]
    firsts = range(0, n, _SOURCE_BLOCK)
    tasks = [(adjacency, first) for first in firsts]
    if pool is None:
        blocks = itertools.starmap(_block_topology, tasks)
    else:
        blocks = pool.map(_block_topology, tasks, -(-len(tasks) // pool.workers) or 1)
    neighbor_degrees = _neighbor_degree_stats(adjacency)  # while the workers run the blocks
    table = np.zeros((n, len(NodeTopology.FIELD_NAMES)))
    betweenness = np.zeros(n)
    for first, (rows, dependencies) in zip(firsts, blocks):
        table[first:first + len(rows)] = rows
        betweenness += dependencies
    table[:, 4:6] = neighbor_degrees
    # each unordered pair was counted from both endpoints
    table[:, 7] = betweenness / 2.0
    return table


def _topology(network, pool=None):
    """The network's ``(node -> row, table)``, computed on first use and
    memoized on it; ``pool`` as ``_topology_table`` takes it."""
    if network._topology is None:
        index, adjacency = _projection(network)
        network._topology = index, _topology_table(adjacency, pool)
    return network._topology


def node_topology(network, node):
    """All eight measurements for one node of the network."""
    index, table = _topology(network)
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
    _write_lines(path, lines)

