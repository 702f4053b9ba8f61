"""Attribute-space class graphs: combined epsilon-radius / kNN formation.

Each class of a labeled dataset becomes one connected graph component.
A training vertex links to every same-class vertex closer than epsilon
when that ball holds more than kappa points (dense regions), and to its
kappa nearest same-class vertices otherwise (sparse regions). Classes
left disconnected by the local rule are bridged by one Kruskal pass that
adds the shortest inter-component edges, ties to the smallest index pair.

:class:`ClassGraph` is the only graph type. It lives in index space:
vertex ``k`` is ``ids[k]`` (ids sorted), ``positions[k]`` its feature
vector and ``rows[k]`` its neighbors as ``(distance, index)`` pairs sorted
ascending. Because indices follow id order, scanning a row front to back
realizes the tourist walk's movement rule (nearest first, ties to the
smallest id); the constructor is the one place that sorts rows.

Test instances are inserted *virtually*: an :class:`InsertionView` lists
the links a test point would make into one class component without ever
mutating the trained graphs, so many test instances can be scored
concurrently against the same graphs. The walk engine
(:class:`sensewalk.tourist.InsertionTrial`) overlays those links on the
base rows instead of copying them.
"""

import hashlib
from dataclasses import dataclass

import numpy as np


class ClassTooSmall(Exception):
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
        if self.epsilon is not None and not self.epsilon > 0:  # NaN too
            raise ValueError("epsilon must be > 0")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if not self.fallback_factor > 0:
            raise ValueError("fallback_factor must be > 0")


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

    ``edges`` are undirected ``(id_a, id_b, distance)`` triples, the form
    :meth:`edges` returns; a pair listed twice is kept once. ``ids`` must
    be strictly increasing, ``positions`` holds row ``k`` for ``ids[k]``.

    Immutable once built. The one mutable slot, ``_walks``, maps mu to a
    :class:`sensewalk.tourist.WalkDetail`: every start's transient and
    cycle, and its walk up to one period as a row of vertices beside a row
    of the row positions its moves took, which lets an insertion resume
    only the walks it deflects. :func:`sensewalk.tourist.walk_detail` is its
    only reader and writer, and ``content_hash`` leaves it out.
    """

    def __init__(self, class_id, ids, positions, edges, config):
        self.class_id = class_id
        self.ids = list(ids)
        if any(b <= a for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("ids must be strictly increasing")
        self.positions = np.array(positions, dtype=float)
        self.positions.flags.writeable = False
        self.config = config
        index = {v: k for k, v in enumerate(self.ids)}
        pairs = {}
        for a, b, d in edges:
            i, j = index[a], index[b]
            pairs[min(i, j), max(i, j)] = float(d)
        self.rows = [[] for _ in self.ids]
        for (i, j), d in pairs.items():
            self.rows[i].append((d, j))
            self.rows[j].append((d, i))
        for row in self.rows:
            row.sort()
        self._walks = {}

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

    def is_connected(self):
        if not self.ids:
            return True
        stack = [0]
        visited = {0}
        while stack:
            for _, j in self.rows[stack.pop()]:
                if j not in visited:
                    visited.add(j)
                    stack.append(j)
        return len(visited) == len(self.ids)

    def content_hash(self):
        h = hashlib.sha256()
        for v, position in zip(self.ids, self.positions):
            h.update(repr(v).encode())
            h.update(position.tobytes())
        for a, b, d in self.edges():
            h.update(repr((a, b)).encode())
            h.update(np.float64(d).tobytes())
        return h.hexdigest()


def _pairwise_distances(X):
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def default_epsilon(dataset):
    """Median Euclidean distance over all labeled same-class pairs.

    Raises ``ValueError`` when that median is 0, which happens when at
    least half of the same-class pairs coincide.
    """
    dists = []
    labels = np.array([lab if lab is not None else -1 for lab in dataset.labels])
    for class_id in sorted(set(labels[labels >= 0])):
        X = dataset.X[labels == class_id]
        if len(X) < 2:
            continue
        D = _pairwise_distances(X)
        iu = np.triu_indices(len(X), k=1)
        dists.extend(D[iu].tolist())
    if not dists:
        raise ClassTooSmall("no class has 2 or more labeled instances")
    epsilon = float(np.median(dists))
    if epsilon == 0.0:
        raise ValueError(
            "the median same-class distance is 0 because at least half of the "
            "same-class pairs are duplicate points; give an explicit epsilon (--epsilon)"
        )
    return epsilon


def _neighbor_choice(D, row, epsilon, kappa):
    """Indices the combined rule links vertex ``row`` to: its epsilon ball
    when that holds more than kappa vertices, else its kappa nearest."""
    d = D[row].copy()
    d[row] = np.inf
    ball = np.nonzero(d < epsilon)[0]
    if len(ball) > kappa:
        return ball
    order = np.argsort(d, kind="stable")  # ties fall back to id order
    return order[: min(kappa, len(d) - 1)]


def _bridges(D, pairs):
    """Index pairs that join the pieces ``pairs`` leaves apart, shortest first.

    One Kruskal pass over all pairs sorted by (distance, i, j). A pair is
    added only if it is the shortest one left between two pieces, so this
    adds the same bridges in the same order as repeatedly taking the
    globally shortest inter-component edge.
    """
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


def build_training_graph(dataset, config=None):
    """Build one connected ClassGraph per class of a labeled dataset."""
    config = config or GraphConfig()
    by_class = {}
    for i, label in enumerate(dataset.labels):
        if label is not None:
            by_class.setdefault(label, []).append(i)

    if not by_class:
        raise ClassTooSmall("dataset has no labeled instances")
    for class_id, rows in by_class.items():
        if len(rows) < 2:
            raise ClassTooSmall(f"class {class_id} has {len(rows)} instance(s); need >= 2")

    epsilon = config.epsilon if config.epsilon is not None else default_epsilon(dataset)
    resolved = GraphConfig(epsilon, config.kappa, config.fallback_factor)

    graphs = []
    for class_id in sorted(by_class):
        rows = sorted(by_class[class_id], key=lambda r: dataset.ids[r])
        ids = [dataset.ids[r] for r in rows]
        X = dataset.X[rows]
        D = _pairwise_distances(X)
        pairs = [
            (i, j)
            for i in range(len(ids))
            for j in _neighbor_choice(D, i, epsilon, resolved.kappa).tolist()
        ]
        pairs += _bridges(D, pairs)
        edges = [(ids[i], ids[j], D[i, j]) for i, j in pairs]
        graphs.append(ClassGraph(class_id, ids, X, edges, resolved))
    return graphs


def insert_test(instance_features, class_graphs):
    """Virtual insertion: one InsertionView per class, graphs untouched.

    Links are the component vertices strictly within epsilon of the test
    point; if none qualify but the component lies within
    ``epsilon * fallback_factor``, the kappa nearest vertices are linked
    instead; beyond that the view stays empty.
    """
    x = np.asarray(getattr(instance_features, "features", instance_features), dtype=float)
    views = []
    for graph in class_graphs:
        cfg = graph.config
        d = np.sqrt(((graph.positions - x) ** 2).sum(axis=1))
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
