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

One loop, :func:`_walk_indices`, runs a batch of walks on the same rows
at one mu, each on from a prefix of states (a fresh walk is the prefix
``(start,)``). A batch is every start of one graph at one mu when the memo
below is filled, or the resumed starts at one mu plus the test vertex's
own walk in :meth:`InsertionTrial.augmented_means`. It shares one state table,
mapping each state a walk of the batch entered to that walk and step; the
table lives only for the call. For fixed mu the walk is a map on states
(a functional graph), so a walk that reaches a state an earlier walk
entered goes on exactly as that walk did: it copies the earlier walk's
remaining vertices (up to its dead end, or up to its repeated state plus
the rest of one period when the state lies on its cycle), takes its cycle
and reruns the vertex-level shrink on the joined sequence. That shrink
returns the smallest index from which the vertices repeat with period
``c``, wherever in the periodic part it starts, so the join is exact. A
resumed walk enters only its prefix's last state: a walk back into its
prefix passes that state again and is caught there, with the same cycle
and, after the shrink, the same transient.

:func:`walk_memo` keeps one :class:`WalkMemo` per graph, built in one
call over every mu from 0 to ``mu_max``. Row ``r = mu * n + s`` holds
start ``s`` at ``mu``: its transient ``t``, its cycle ``c`` and its first
``t + c`` vertices (``t + 1`` on a dead end). The vertex sequence is
periodic from ``t`` with period ``c``, so every later move repeats one of
these. The rows' vertices are concatenated into one flat array with row
offsets, filled in one pass, beside ``picks``, the row position of each
move out of them (``len(row)`` on a dead end). A move's row position
depends only on the vertices it joins, so walks record only vertices and
``picks`` is one gather from ``ClassGraph.rank``. The memo's arrays are
read-only.

:class:`InsertionTrial` scores a virtual insertion without copying the
graph: the augmented rows share every base row except the touched ones,
which get one extra ``(distance, n)`` entry for the test vertex at index
``n``, placed so exact ties still resolve by id; the test vertex's own
row is appended last. For fixed mu the walk is a deterministic map on
(vertex, window) states, and the test vertex is outside every window
until the walk first reaches it. So an augmented walk follows its base
walk up to the first move out of a touched vertex ``u`` whose row position
is at or behind ``p_u``, the test vertex's entry in ``u``'s augmented row;
there the test vertex becomes the next choice. ``picks >= floor[verts]``
marks those moves, ``floor`` being ``p_u`` at each touched ``u`` and the
int64 maximum elsewhere. One such comparison over the flat memo marks the
moves of every row at every mu, and the first mark per row is its
deflection. Only rows with a mark are walked again, one batch per mu, on
the augmented rows from the first; the rest keep their memoized
(transient, cycle). At mu 0 no walk moves, so none is deflected.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .features import as_int


class VertexNotInComponent(Exception):
    pass


class AllViewsEmpty(Exception):
    """The test instance links into no class component; high-level scores are undefined."""


@dataclass(frozen=True)
class WalkResult:
    transient: int
    cycle: int
    trajectory: tuple  # transient vertices then one cycle period (all visited on dead end)


def _walk_indices(rows, prefixes, mu):
    """Walk on from each prefix in turn, sharing one state table.

    A prefix is a walk's first states as vertex indices (a fresh walk is
    ``(start,)``) and must repeat no state; only its last state enters the
    table. Returns, per prefix, (transient, cycle, traj): ``traj`` is the
    prefix plus every vertex up to the walk's first return to a state it
    entered, or to its dead end.
    """
    if mu == 0:
        return [(0, 1, list(prefix)) for prefix in prefixes]
    keep = mu - 1
    seen = {}  # window (its first entry is the vertex) -> serial, in entry order
    setdefault = seen.setdefault
    walks = []
    firsts = []  # per walk: the serial of the first state it entered
    offs = []  # per walk: the index of that state, its prefix's last
    loops = []  # per walk: index of its repeated state, or of its last if it halts or joins
    for prefix in prefixes:
        traj = list(prefix)
        v = traj[-1]
        window = tuple(reversed(traj[-mu:]))
        off = len(traj) - 1
        first = serial = len(seen)
        while True:  # v, window: the walk's last state, traj[-1] == v
            g = setdefault(window, serial)
            if g != serial:
                break
            serial += 1
            for _, j in rows[v]:
                if j not in window:
                    break
            else:
                break  # dead end: every neighbor inside the memory window
            traj.append(j)
            v = j
            window = (j,) + window[:keep]
        k = loop = len(traj) - 1
        if g >= first:
            # the walk repeats its own state, or halts on its last state k
            # (g is that state's serial, so the cycle comes out as 0)
            loop = t = g - first + off
            c = k - t
        else:  # the walk joins an earlier walk's state and copies its rest
            w = bisect_right(firsts, g) - 1
            t_w, c, traj_w = walks[w]
            loop_w = loops[w]
            i = g - firsts[w] + offs[w]
            # from state i the earlier walk runs to its end; if state i is
            # on its cycle (i > loop_w), the rest of one period leads back to i
            traj += traj_w[i + 1:]
            traj += traj_w[loop_w + 1:i + 1]
            # its vertices repeat from t_w on, so the joined ones from k + t_w - i
            t = k + max(t_w - i, 0)
        if c:
            # the vertex sequence may turn periodic before the state does
            while t > 0 and traj[t - 1] == traj[t - 1 + c]:
                t -= 1
        walks.append((t, c, traj))
        firsts.append(first)
        offs.append(off)
        loops.append(loop)
    return walks


def _period_end(t, c):
    """Steps to keep of a walk: its transient and one cycle period (the
    transient and the dead end when it halts); later steps repeat them."""
    return t + (c or 1)


def walk(graph, start, mu):
    """One tourist walk from vertex id ``start`` with memory length ``mu``."""
    mu = as_int(mu, "mu", 0)
    k = bisect_left(graph.ids, start)
    if k == len(graph.ids) or graph.ids[k] != start:
        raise VertexNotInComponent(repr(start))
    t, c, traj = _walk_indices(graph.rows, [(k,)], mu)[0]
    return WalkResult(t, c, tuple(graph.ids[i] for i in traj[: _period_end(t, c)]))


class WalkMemo(NamedTuple):
    """Base walks of one graph at every mu in 0..mu_max, as :func:`walk_memo`
    keeps them. Row ``r = mu * n + s`` is start ``s`` at ``mu``; every array
    is read-only."""

    t: np.ndarray  # per row: its transient
    c: np.ndarray  # per row: its cycle
    total_t: tuple  # per mu: the sums of t and c over its rows, as Python ints
    total_c: tuple
    offsets: np.ndarray  # per row, and one past the last: where its kept vertices start
    verts: np.ndarray  # each row's first _period_end vertices, rows concatenated
    vertex_list: tuple  # verts as Python ints, sliced into resumed walks' prefixes
    picks: np.ndarray  # per entry of verts: the row position of the move out of it

    @property
    def mu_max(self):
        return len(self.total_t) - 1

    def means(self, mu):
        """(mean transient, mean cycle) over every start at one mu."""
        n = len(self.t) // len(self.total_t)
        return self.total_t[mu] / n, self.total_c[mu] / n


def _build_memo(graph, mu_max):
    """The :class:`WalkMemo` of every start at each mu in 0..mu_max, its
    rows filled in one pass."""
    n = graph.vertex_count
    t, c, kept, closes = [], [], [], []
    for mu in range(mu_max + 1):  # one mu's full trajectories alive at a time
        for w_t, w_c, traj in _walk_indices(graph.rows, [(s,) for s in range(n)], mu):
            t.append(w_t)
            c.append(w_c)
            kept += traj[:_period_end(w_t, w_c)]
            closes.append(traj[w_t] if w_c else n)  # where a period's last move goes
    t = np.array(t, dtype=np.int64)
    c = np.array(c, dtype=np.int64)
    verts = np.array(kept, dtype=np.int32)  # as rank's entries
    ends = np.cumsum(t + np.maximum(c, 1))
    after = np.empty_like(verts)  # where each kept move goes: n past a dead end
    after[:-1] = verts[1:]
    after[ends - 1] = closes
    memo = WalkMemo(
        t,
        c,
        tuple(t.reshape(mu_max + 1, n).sum(axis=1).tolist()),
        tuple(c.reshape(mu_max + 1, n).sum(axis=1).tolist()),
        np.concatenate(([0], ends)),
        verts,
        tuple(kept),
        graph.rank[verts, after],
    )
    for part in memo:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return memo


def walk_memo(graph, mu_max):
    """The :class:`WalkMemo` of ``graph`` covering at least 0..mu_max.

    A graph keeps one memo: the stored one when it covers mu_max, else a
    new one over 0..mu_max, built in one call, that replaces it whole.
    """
    mu_max = as_int(mu_max, "mu_max", 0)
    memo = graph._walks
    if memo is None or memo.mu_max < mu_max:
        memo = graph._walks = _build_memo(graph, mu_max)
    return memo


def component_stats(graph, mu_critical):
    """``{mu: (mean transient, mean cycle)}`` over walks from every vertex,
    for each mu in [0, mu_critical]."""
    mu_critical = as_int(mu_critical, "mu_critical", 0)
    if graph.vertex_count == 0:
        raise ValueError("component is empty")
    memo = walk_memo(graph, mu_critical)
    return {mu: memo.means(mu) for mu in range(mu_critical + 1)}


class InsertionTrial:
    """Walk bookkeeping for one test instance virtually joining the components.

    Builds each linked class's augmented rows once, with the position
    ``p_u`` of the test vertex's entry in each touched row ``u``. A start is
    walked again at a mu only if its base walk there moves out of some
    touched ``u`` from row position ``p_u`` or later, and then only from
    the first such step; one comparison over a class's memo finds those
    steps at every mu, and the means start from the memoized base totals.
    """

    def __init__(self, test_id, class_graphs, views):
        self.class_graphs = list(class_graphs)
        try:
            cuts = [bisect_left(g.ids, test_id) for g in self.class_graphs]  # ids below it
        except TypeError:
            raise ValueError(
                f"the test instance needs an id comparable with the training ids, got {test_id!r}"
            ) from None
        views = {v.class_id: v for v in views}
        if not any(views[g.class_id].linked for g in self.class_graphs):
            raise AllViewsEmpty(f"test instance {test_id!r} links into no class component")
        self._aug = {}
        for graph, cut in zip(self.class_graphs, cuts):
            view = views[graph.class_id]
            if not view.linked:
                continue
            n = graph.vertex_count
            if cut < n and graph.ids[cut] == test_id:
                raise ValueError(f"vertex {test_id!r} already present")
            rows = list(graph.rows)
            own = []
            floor = np.full(n + 1, np.iinfo(np.int64).max)  # p_u at each touched u
            for vid, dist in view.links:
                i = bisect_left(graph.ids, vid)
                row = list(rows[i])
                p = bisect_left(row, (dist, cut - 0.5))
                row.insert(p, (dist, n))
                rows[i] = row
                own.append((dist, i))
                floor[i] = p
            rows.append(sorted(own))
            self._aug[graph.class_id] = (graph, rows, floor)

    def augmented_means(self, class_id, mu_max):
        """(mean transient, mean cycle) of the augmented graph at each mu in
        0..mu_max, from one deflection pass over the class's memo."""
        graph, rows, floor = self._aug[class_id]
        memo = walk_memo(graph, mu_max)
        n = graph.vertex_count
        stop = memo.offsets[(mu_max + 1) * n]  # the entries of rows at mu <= mu_max
        hits = np.flatnonzero(memo.picks[:stop] >= floor[memo.verts[:stop]])
        hit_rows = np.searchsorted(memo.offsets, hits, side="right") - 1
        first = np.ones(len(hits), dtype=bool)  # a row's hits are adjacent and ascending
        first[1:] = hit_rows[1:] != hit_rows[:-1]
        deflected = hit_rows[first]
        ends = (hits[first] + 1).tolist()
        prefixes = [memo.vertex_list[a:b] for a, b in zip(memo.offsets[deflected].tolist(), ends)]
        bounds = np.searchsorted(deflected, np.arange(mu_max + 2) * n).tolist()
        dropped_t = [0] + np.cumsum(memo.t[deflected]).tolist()
        dropped_c = [0] + np.cumsum(memo.c[deflected]).tolist()
        means = []
        for mu, lo, hi in zip(range(mu_max + 1), bounds, bounds[1:]):
            walks = _walk_indices(rows, prefixes[lo:hi] + [(n,)], mu)  # n's own walk last
            total_t = memo.total_t[mu] - (dropped_t[hi] - dropped_t[lo]) + sum(w[0] for w in walks)
            total_c = memo.total_c[mu] - (dropped_c[hi] - dropped_c[lo]) + sum(w[1] for w in walks)
            means.append((total_t / (n + 1), total_c / (n + 1)))
        return means

    def variation_curves(self, mu_max):
        """``{mu: (delta_t, delta_c)}``, the normalized per-class variations
        at each mu in 0..mu_max, with one :meth:`augmented_means` call per
        linked class.

        Unlinked classes receive twice the largest linked variation (1.0
        when every linked variation is zero); if everything is zero the
        deltas are uniform so they still sum to one.
        """
        base, new = {}, {}
        for graph in self.class_graphs:
            if graph.class_id in self._aug:
                memo = walk_memo(graph, mu_max)
                base[graph.class_id] = [memo.means(mu) for mu in range(mu_max + 1)]
                new[graph.class_id] = self.augmented_means(graph.class_id, mu_max)
        curves = {}
        for mu in range(mu_max + 1):
            raw_t = {k: abs(new[k][mu][0] - base[k][mu][0]) for k in new}
            raw_c = {k: abs(new[k][mu][1] - base[k][mu][1]) for k in new}
            max_t = max(raw_t.values())
            max_c = max(raw_c.values())
            high_t = 2.0 * max_t if max_t > 0 else 1.0
            high_c = 2.0 * max_c if max_c > 0 else 1.0
            for graph in self.class_graphs:
                if graph.class_id not in self._aug:
                    raw_t[graph.class_id] = high_t
                    raw_c[graph.class_id] = high_c
            curves[mu] = normalize(raw_t), normalize(raw_c)
        return curves

    def variations(self, mu):
        """Normalized per-class variations (delta_t, delta_c) at one mu."""
        return self.variation_curves(mu)[mu]


def normalize(raw):
    """Scale non-negative scores to sum to 1; uniform when they sum to 0."""
    total = sum(raw.values())
    if total <= 0:
        return {k: 1.0 / len(raw) for k in raw}
    return {k: v / total for k, v in raw.items()}
