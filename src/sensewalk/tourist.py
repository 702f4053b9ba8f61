"""Deterministic tourist walks over class graphs.

A walker sits on a vertex and repeatedly moves along graph edges to the
nearest vertex (Euclidean distance, ties to the smallest vertex id) that
is not among the last ``mu`` visited vertices. The window counts the
current vertex, so ``mu == 0`` lets the walker stay in place (distance 0
to itself) and every walk degenerates to transient 0, cycle 1; ``mu == 1``
is the classic nearest-neighbor walk that only avoids standing still.

Each walk splits into a transient prefix and a periodic cycle. The cycle
is found through the first repetition of the full (vertex, window) state,
which is the walk's true Markov state; the transient is then shrunk to
the first index where the vertex sequence itself turns periodic. A walker
whose every neighbor is forbidden halts: cycle 0, transient = steps taken.

Walks run directly on :attr:`ClassGraph.rows <sensewalk.attgraph.ClassGraph>`:
row ``k`` lists vertex ``k``'s neighbors sorted by (distance, index), and
indices follow id order, so the first admissible entry is the step the
movement rule takes.

:func:`walk_detail` memoizes, per graph and mu, each start's transient,
cycle and visited set. It is the memo's only writer; a race between two
threads computing the same mu costs work but not consistency, because the
walks are deterministic and the first stored result wins.

:class:`InsertionTrial` scores a virtual insertion without copying the
graph: the augmented rows share every base row except the touched ones,
which get one extra ``(distance, n)`` entry for the test vertex at index
``n``, placed so exact ties still resolve by id; the test vertex's own
row is appended last.
"""

from bisect import bisect_left
from dataclasses import dataclass


class VertexNotInComponent(Exception):
    pass


class AllViewsEmpty(Exception):
    """The test instance links into no class component; high-level scores are undefined."""


@dataclass(frozen=True)
class WalkResult:
    transient: int
    cycle: int
    trajectory: tuple  # transient vertices then one cycle period (all visited on dead end)


def _walk_indices(rows, start, mu):
    """Core loop in index space; returns (transient, cycle, trajectory)."""
    if mu == 0:
        return 0, 1, (start,)
    traj = [start]
    window = (start,)
    seen = {(start, window): 0}
    keep = mu - 1
    while True:
        nxt = -1
        for d, j in rows[traj[-1]]:
            if j not in window:
                nxt = j
                break
        if nxt < 0:
            # dead end: every neighbor inside the memory window
            return len(traj) - 1, 0, tuple(traj)
        traj.append(nxt)
        window = (nxt,) + window[:keep]
        key = (nxt, window)
        k = len(traj) - 1
        i = seen.get(key)
        if i is not None:
            c = k - i
            t = i
            # the vertex sequence may turn periodic before the state does
            while t > 0 and traj[t - 1] == traj[t - 1 + c]:
                t -= 1
            return t, c, tuple(traj[: t + c])
        seen[key] = k


def walk(graph, start, mu):
    """One tourist walk from vertex id ``start`` with memory length ``mu``."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    k = bisect_left(graph.ids, start)
    if k == len(graph.ids) or graph.ids[k] != start:
        raise VertexNotInComponent(repr(start))
    t, c, traj = _walk_indices(graph.rows, k, mu)
    return WalkResult(t, c, tuple(graph.ids[i] for i in traj))


def _stats_for_mu(rows, mu):
    """Means plus per-start (transient, cycle, visited set) details."""
    detail = []
    total_t = 0
    total_c = 0
    for s in range(len(rows)):
        t, c, traj = _walk_indices(rows, s, mu)
        total_t += t
        total_c += c
        detail.append((t, c, frozenset(traj)))
    n = len(rows)
    return total_t / n, total_c / n, tuple(detail)


def walk_detail(graph, mu):
    """(mean transient, mean cycle, per-start (t, c, visited)) at one mu,
    computed once per graph and mu."""
    found = graph._walks.get(mu)
    if found is None:
        found = graph._walks.setdefault(mu, _stats_for_mu(graph.rows, mu))
    return found


def component_stats(graph, mu_critical):
    """``{mu: (mean transient, mean cycle)}`` over walks from every vertex,
    for each mu in [0, mu_critical]."""
    if graph.vertex_count == 0:
        raise ValueError("component is empty")
    return {mu: walk_detail(graph, mu)[:2] for mu in range(mu_critical + 1)}


class InsertionTrial:
    """Walk bookkeeping for one test instance virtually joining the components.

    Builds each linked class's augmented rows once; per-mu averages reuse
    the memoized base walk of any start whose trajectory never meets a
    linked vertex, since such walks cannot be deflected by the insertion.
    """

    def __init__(self, test_id, class_graphs, views):
        self.class_graphs = list(class_graphs)
        self.views = {v.class_id: v for v in views}
        self.linked_ids = [g.class_id for g in class_graphs if self.views[g.class_id].linked]
        if not self.linked_ids:
            raise AllViewsEmpty(f"test instance {test_id!r} links into no class component")
        self._aug = {}
        for graph in class_graphs:
            view = self.views[graph.class_id]
            if not view.linked:
                continue
            n = graph.vertex_count
            cut = bisect_left(graph.ids, test_id)  # ids below the test id
            if cut < n and graph.ids[cut] == test_id:
                raise ValueError(f"vertex {test_id!r} already present")
            rows = list(graph.rows)
            own = []
            for vid, dist in view.links:
                i = bisect_left(graph.ids, vid)
                row = list(rows[i])
                row.insert(bisect_left(row, (dist, cut - 0.5)), (dist, n))
                rows[i] = row
                own.append((dist, i))
            rows.append(sorted(own))
            touched = frozenset(i for _, i in own)
            self._aug[graph.class_id] = (graph, rows, touched)

    def augmented_means(self, class_id, mu):
        graph, rows, touched = self._aug[class_id]
        _, _, detail = walk_detail(graph, mu)
        total_t = 0
        total_c = 0
        for s, (t, c, visited) in enumerate(detail):
            if visited & touched:
                t, c, _ = _walk_indices(rows, s, mu)
            total_t += t
            total_c += c
        t, c, _ = _walk_indices(rows, len(detail), mu)
        total_t += t
        total_c += c
        n = len(rows)
        return total_t / n, total_c / n

    def variations(self, mu):
        """Normalized per-class variations (delta_t, delta_c) at one mu.

        Unlinked classes receive twice the largest linked variation (1.0
        when every linked variation is zero); if everything is zero the
        deltas are uniform so they still sum to one.
        """
        raw_t = {}
        raw_c = {}
        for graph in self.class_graphs:
            class_id = graph.class_id
            if class_id in self._aug:
                base_t, base_c, _ = walk_detail(graph, mu)
                new_t, new_c = self.augmented_means(class_id, mu)
                raw_t[class_id] = abs(new_t - base_t)
                raw_c[class_id] = abs(new_c - base_c)
        max_t = max(raw_t.values())
        max_c = max(raw_c.values())
        high_t = 2.0 * max_t if max_t > 0 else 1.0
        high_c = 2.0 * max_c if max_c > 0 else 1.0
        for graph in self.class_graphs:
            if graph.class_id not in self._aug:
                raw_t[graph.class_id] = high_t
                raw_c[graph.class_id] = high_c
        return _normalize(raw_t), _normalize(raw_c)


def _normalize(raw):
    total = sum(raw.values())
    if total == 0:
        return {k: 1.0 / len(raw) for k in raw}
    return {k: v / total for k, v in raw.items()}
