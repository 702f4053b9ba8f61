"""Attribute-space class graphs: combined epsilon-radius / kNN formation.

Each class in the dataset's class index (any label other than ``None``;
unlabeled rows are skipped) becomes one connected graph component, built
in index space from one pairwise distance matrix per class. With no
epsilon given, the build takes the median same-class distance from those
same matrices. A training vertex links to every same-class vertex closer
than epsilon when that ball holds more than kappa points (dense regions),
and to its kappa nearest same-class vertices otherwise (sparse regions);
the rule is one boolean matrix per class, symmetrised. Classes left
disconnected by the local rule are bridged by one Kruskal pass over the
pairs that cross its pieces, adding the shortest inter-component edges,
ties to the smallest index pair.

:class:`ClassGraph` is the only graph type. It lives in index space:
vertex ``k`` is ``ids[k]`` (ids sorted), ``positions[k]`` its feature
vector and ``rows[k]`` its neighbors as ``(distance, index)`` pairs sorted
ascending. Because indices follow id order, scanning a row front to back
realizes the tourist walk's movement rule (nearest first, ties to the
smallest id); the constructor takes the n x n edge-length matrix and is the
one place that sorts it, with one stable argsort of its rows.

Test instances are inserted *virtually*: an :class:`InsertionView` lists
the links a test point would make into one class component without ever
mutating the trained graphs, so many test instances can be scored
concurrently against the same graphs. The walk engine
(:class:`sensewalk.tourist.InsertionTrial`) overlays those links on the
base rows instead of copying them.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import _write_lines
from .features import as_int, as_real, sorted_values, test_vectors


class ClassTooSmall(ValueError):
    """A class must contribute at least 2 training instances."""


@dataclass(frozen=True)
class GraphConfig:
    """Formation parameters.

    ``epsilon=None`` asks the builder to use the median pairwise
    same-class distance of the training data. ``fallback_factor`` bounds
    how far (in units of epsilon) a test instance may sit from a
    component and still fall back to kappa-nearest links when its
    epsilon-ball is empty.
    """

    epsilon: float | None = None
    kappa: int = 3
    fallback_factor: float = 3.0

    def __post_init__(self):
        if self.epsilon is not None:
            as_real(self.epsilon, "epsilon", 0)
        as_int(self.kappa, "kappa", 1)
        as_real(self.fallback_factor, "fallback_factor", 0)


@dataclass(frozen=True)
class InsertionView:
    """Links a test instance would make into one class component."""

    class_id: int
    links: tuple  # ((vertex id, distance), ...) possibly empty

    @property
    def linked(self):
        return len(self.links) > 0


class ClassGraph:
    """One class's component in index space.

    ``ids`` must be strictly increasing and ``positions`` holds row ``k``
    for ``ids[k]``. ``distances`` is the symmetric n x n matrix of edge
    lengths, +inf where two vertices share no edge (the diagonal too).
    One stable argsort of its rows gives every row at once: ``rows[k]``
    lists vertex ``k``'s neighbors as ``(distance, index)`` pairs sorted
    ascending, exact ties to the smaller index as a tuple sort gives them.

    ``rank``, read-only (n + 1) x (n + 1) int32, holds row positions from
    the same argsort: ``rank[k, j]`` is ``j``'s position in ``rows[k]``,
    ``rank[k, n]`` is ``len(rows[k])`` (a dead end) and every other entry,
    row n too, is -1.

    Immutable once built. The one mutable slot, ``_walks``, holds a
    :class:`sensewalk.tourist.WalkMemo` (or None): every start's walk at
    every mu from 0 to the memo's ``mu_max``, laid out flat with
    the row position each kept move took, read from ``rank``, which lets
    an insertion resume only the walks it deflects.
    :func:`sensewalk.tourist.walk_memo` is its only reader and writer.
    """

    def __init__(self, class_id, ids, positions, distances, config):
        self.class_id = class_id
        self.ids = list(ids)
        if any(b <= a for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("ids must be strictly increasing")
        self.positions = np.array(positions, dtype=float)
        self.positions.flags.writeable = False
        self.config = config
        n = len(self.ids)
        W = np.asarray(distances, dtype=float)
        if W.shape != (n, n):
            raise ValueError(f"distances must be a {n} x {n} matrix, got shape {W.shape}")
        order = np.argsort(W, axis=1, kind="stable")
        linked = W < np.inf
        degree = linked.sum(axis=1)
        kept = np.arange(n) < degree[:, None]  # the leading entries of each sorted row
        pairs = list(zip(np.take_along_axis(W, order, axis=1)[kept].tolist(),
                         order[kept].tolist()))
        ends = np.cumsum(degree).tolist()
        self.rows = [pairs[a:b] for a, b in zip([0] + ends, ends)]
        position = np.empty((n, n), dtype=np.int32)
        np.put_along_axis(position, order, np.arange(n, dtype=np.int32)[None, :], axis=1)
        self.rank = np.full((n + 1, n + 1), -1, dtype=np.int32)
        self.rank[:n, :n] = np.where(linked, position, -1)
        self.rank[:n, n] = degree  # n, past the last neighbor, marks a dead end
        self.rank.flags.writeable = False
        self._walks = None

    @property
    def vertex_count(self):
        return len(self.ids)

    def edges(self):
        """Unique undirected edges as (id_a, id_b, distance), id_a < id_b, sorted."""
        return sorted(
            (self.ids[k], self.ids[j], d)
            for k, row in enumerate(self.rows)
            for d, j in row
            if j > k
        )


def euclidean(A, B):
    """Euclidean distances between the rows of ``A`` and ``B``, broadcast."""
    diff = A - B
    return np.sqrt((diff * diff).sum(axis=-1))


# One float budget for every row-blocked array pass: the distance pass
# below and naive Bayes's kernel gathers (``classify``) each hold at most
# rows x n x d floats, 2^16 of them (512 kB), or one row's n x d when that
# is more.
_BLOCK_FLOATS = 2**16


def _pairwise_distances(X):
    """The n x n distance matrix of the rows of ``X``, one row block at a
    time within ``_BLOCK_FLOATS``.

    Each block is computed only against the rows from its own start on and
    written with its transpose: (a - b)^2 and (b - a)^2 are the same float,
    and each pair still sums its d squared differences in one pass, so the
    matrix keeps the one-shot tensor's bits and equals its transpose.
    """
    n, d = X.shape
    D = np.empty((n, n))
    step = max(1, _BLOCK_FLOATS // max(1, n * d))
    for start in range(0, n, step):
        block = euclidean(X[start:start + step, None, :], X[None, start:, :])
        D[start:start + step, start:] = block
        D[start:, start:start + step] = block.T
    return D


def _class_distances(dataset):
    """Every labeled class as ``(class_id, rows, D)``, classes sorted.

    ``rows`` are the class's dataset rows in id order and ``D`` their
    pairwise distance matrix, the one distance computation per class of a
    build.
    """
    classes = []
    for class_id in dataset.classes():
        rows = sorted_values(dataset.class_rows[class_id], "ids", key=dataset.ids.__getitem__)
        classes.append((class_id, rows, _pairwise_distances(dataset.X[rows])))
    return classes


def _median_distance(classes):
    """Median of every same-class pair's distance in ``_class_distances`` output."""
    dists = [D[np.triu_indices(len(D), k=1)] for _, _, D in classes]
    epsilon = float(np.median(np.concatenate(dists)))
    if epsilon == 0.0:
        raise ValueError(
            "the median same-class distance is 0 because at least half of the "
            "same-class pairs are duplicate points; give an explicit epsilon (--epsilon)"
        )
    return epsilon


def _local_links(D, epsilon, kappa):
    """The combined rule as a symmetric boolean adjacency matrix.

    Vertex ``i`` links its epsilon ball when that holds more than kappa
    other vertices, else its kappa nearest (a stable sort, so ties go to
    the smaller index); a link either end chose is an edge.
    """
    d = D.copy()
    np.fill_diagonal(d, np.inf)
    ball = d < epsilon
    nearest = np.argsort(d, axis=1, kind="stable")[:, : min(kappa, len(d) - 1)]
    links = np.zeros_like(ball)
    np.put_along_axis(links, nearest, True, axis=1)
    dense = ball.sum(axis=1) > kappa
    links[dense] = ball[dense]
    return links | links.T


def _bridges(D, links):
    """Index pairs that join the pieces ``links`` leaves apart, shortest first.

    Each vertex is labeled with the smallest index it reaches over
    ``links`` (min-label propagation, jumping through the new labels each
    round). When more than one piece is left, one Kruskal pass over the
    cross-piece pairs, sorted by (distance, i, j), joins groups of pieces.
    Each added pair is the shortest one left between two groups, so these
    are the bridges, in order, of repeatedly taking the globally shortest
    inter-component edge.
    """
    n = len(D)
    piece = np.arange(n)
    while True:
        reached = np.minimum(piece, np.where(links, piece, n).min(axis=1))
        reached = reached[reached]
        if (reached == piece).all():
            break
        piece = reached
    group = {p: p for p in np.unique(piece).tolist()}  # piece label -> its group
    bridges = []
    if len(group) == 1:
        return bridges
    iu, ju = np.nonzero(np.triu(piece[:, None] != piece, k=1))
    order = np.argsort(D[iu, ju], kind="stable")  # ties keep (i, j) order
    label = piece.tolist()
    for i, j in zip(iu[order].tolist(), ju[order].tolist()):
        a, b = group[label[i]], group[label[j]]
        if a != b:
            bridges.append((i, j))
            if len(bridges) == len(group) - 1:
                break
            for p, g in group.items():
                if g == a:
                    group[p] = b
    return bridges


def build_training_graph(dataset, config=None):
    """Build one connected ClassGraph per class of a labeled dataset.

    Each class's distance matrix is computed once; with ``epsilon=None``
    the median is taken over those same matrices.
    """
    config = config or GraphConfig()
    classes = _class_distances(dataset)
    if not classes:
        raise ClassTooSmall("dataset has no labeled instances")
    for class_id, rows, _ in classes:
        if len(rows) < 2:
            raise ClassTooSmall(f"class {class_id} has {len(rows)} instance(s); need >= 2")

    epsilon = config.epsilon if config.epsilon is not None else _median_distance(classes)
    resolved = GraphConfig(epsilon, config.kappa, config.fallback_factor)

    graphs = []
    for class_id, rows, D in classes:
        links = _local_links(D, epsilon, config.kappa)
        for i, j in _bridges(D, links):
            links[i, j] = links[j, i] = True
        ids = [dataset.ids[r] for r in rows]
        distances = np.where(links, D, np.inf)
        graphs.append(ClassGraph(class_id, ids, dataset.X[rows], distances, resolved))
    return graphs


def insert_test(instance_features, class_graphs):
    """Virtual insertion: one InsertionView per class, graphs untouched.

    Links are the component vertices strictly within epsilon of the test
    point; if none qualify but the component lies within
    ``epsilon * fallback_factor``, the kappa nearest vertices are linked
    instead; beyond that the view stays empty. The test vector must hold
    one value per feature, each within the feature range.
    """
    views = []
    for graph in class_graphs:
        cfg = graph.config
        d = euclidean(graph.positions, test_vectors(instance_features, graph.positions.shape[-1]))
        within = np.nonzero(d < cfg.epsilon)[0]
        if len(within) > 0:
            links = tuple((graph.ids[int(i)], float(d[i])) for i in within)
        elif d.min() < cfg.epsilon * cfg.fallback_factor:
            order = np.argsort(d, kind="stable")[: min(cfg.kappa, len(d))]
            links = tuple((graph.ids[int(i)], float(d[i])) for i in order)
        else:
            links = ()
        views.append(InsertionView(graph.class_id, links))
    return views


def write_class_graphs(class_graphs, path):
    """Per-class edge dump: ``class_id<TAB>id_a<TAB>id_b<TAB>distance``."""
    lines = []
    for graph in class_graphs:
        for a, b, d in graph.edges():
            lines.append(f"{graph.class_id}\t{a}\t{b}\t{float(d)!r}")
    _write_lines(path, lines)
