"""Low-level classifiers, the walk-based high-level classifier, and their
hybrid combination.

Every prediction is a :class:`MembershipVector`: per-class scores in
[0, 1] summing to one. The hybrid membership is the convex combination

    M(j) = (1 - lam) * L(j) + lam * H(j)

where L comes from a conventional classifier (nearest neighbors, naive
Bayes with Parzen-window likelihoods, or an information-gain decision
tree), H scores how little the test instance perturbs each class
component's tourist-walk statistics, and ``lam`` trades the two off.
At ``lam == 0`` the hybrid reduces exactly to the low-level classifier.

Naive Bayes keeps, per class, one Parzen kernel per distinct (feature,
training value) pair and an (n, d) index from each training entry to its
kernel. It scores test rows in blocks: each kernel is evaluated once per
row of the block, then gathered back to the (n, d) layout, so every
density sums the same floats in the same order as a per-entry evaluation.
A block gathers at most ``_BLOCK_FLOATS`` kernels (the float budget the
class-graph distance pass shares), or one row's n x d when that is more.

The tree grows one level at a time. At the root each feature's distinct
values become bins, and every (row, feature) element is kept sorted by
(node, feature, bin); each level counts classes per run of one bin,
scores all of its nodes' boundaries (between two distinct consecutive
values of a feature inside a node) in one array pass, and splits each
node at its least conditional entropy, which is the largest information
gain since the node's own entropy is the same for every split; ties go
to the smallest feature index, then the smallest threshold. No node is
grown by recursion, so depth is not limited by the recursion limit.

The low-level classifiers read the training set's class index
(:class:`sensewalk.features.Dataset`) and refuse unlabeled training rows.
Trained models are immutable; predictions write nothing but the class
graphs' walk memos, and are safe to run concurrently across test instances.
"""

import io
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .attgraph import _BLOCK_FLOATS, euclidean
from .features import _run_starts, as_int, as_real, sorted_values, test_vectors
from .tourist import InsertionTrial, normalize

log = logging.getLogger(__name__)

LOW_LEVEL_NAMES = ("knn", "bayes", "c45")


@dataclass(frozen=True)
class MembershipVector:
    """Normalized per-class scores."""

    scores: dict

    def argmax(self):
        # deterministic: ties go to the smallest class id, the first maximum
        return max(sorted(self.scores), key=self.scores.__getitem__, default=None)

    @classmethod
    def normalized(cls, raw):
        return cls(normalize(raw))


@dataclass(frozen=True)
class HighLevelConfig:
    """Weights of the transient/cycle variations and the memory sweep cap.

    The cycle weight ``alpha_c`` is the complement of ``alpha_t``.
    """

    alpha_t: float = 0.5
    mu_critical: int = 10

    def __post_init__(self):
        as_real(self.alpha_t, "alpha_t", 0, 1)
        as_int(self.mu_critical, "mu_critical", 0)

    @property
    def alpha_c(self):
        return 1.0 - self.alpha_t


def _training_classes(train_dataset):
    """The sorted classes of a non-empty training set whose every row is labeled."""
    if len(train_dataset) == 0:
        raise ValueError("the training set has no rows")
    if sum(len(rows) for rows in train_dataset.class_rows.values()) != len(train_dataset):
        raise ValueError("training labels must all be set")
    return train_dataset.classes()


# ---------------------------------------------------------------------------
# k-nearest neighbors


def _knn_voter(train_dataset, k):
    """Check k and the training set once, and put its rows in id order;
    returns the scorer of one checked test vector. Distance ties go to the
    row earlier in that order, the smaller id."""
    as_int(k, "k", 1)
    classes = _training_classes(train_dataset)
    order = sorted_values(range(len(train_dataset)), "ids", key=train_dataset.ids.__getitem__)
    X = train_dataset.X[order]
    labels = [train_dataset.labels[i] for i in order]

    def vote(x):
        d = euclidean(X, x)
        near = range(len(d))
        if k < len(d):  # only rows within the k-th smallest distance can be among the k nearest
            near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1]).tolist()
        votes = Counter(labels[i] for i in sorted(near, key=d.__getitem__)[:k])
        return MembershipVector.normalized({c: votes.get(c, 0) for c in classes})

    return vote


def knn_predict(train_dataset, x, k=1):
    """Vote fractions among the k nearest training instances (Euclidean);
    all of them when there are no more than k."""
    return _knn_voter(train_dataset, k)(test_vectors(x, train_dataset.X.shape[1]))


# ---------------------------------------------------------------------------
# naive Bayes with Parzen-window likelihoods

_BANDWIDTH_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class KernelTable:
    """One class's Parzen kernels, one per distinct (feature, value) pair.

    ``values`` holds each feature's distinct training values in ascending
    order, the features one after another; ``features``, ``widths`` and
    ``log_norms`` give each value's feature, bandwidth h and log(h * sqrt(2 pi)),
    and ``starts`` the position of each feature's first value. Training
    entry (i, j) is the kernel at ``entries[i, j]``.
    """

    values: np.ndarray
    features: np.ndarray
    widths: np.ndarray
    log_norms: np.ndarray
    starts: np.ndarray
    entries: np.ndarray


@dataclass(frozen=True)
class BayesModel:
    classes: tuple
    log_priors: dict
    kernels: dict  # class -> KernelTable
    bandwidths: dict  # class -> per-feature bandwidth array
    feature_names: tuple


def _silverman(values):
    n = len(values)
    sigma = values.std(axis=0)
    return 1.06 * sigma * n ** (-1 / 5)


def _value_bins(X):
    """Each column's distinct values as dense bins, numbered column by
    column. Returns the bin of every (column, row) element, the columns
    one after another and each column's elements in ascending value order
    (stable, so equal values keep row order); the row of each element; and
    each bin's value and column. -0.0 and 0.0 share a bin: no comparison
    tells them apart, nor does a midpoint with another value or a
    difference from one."""
    order = np.argsort(X, axis=0, kind="stable")
    ranked = np.take_along_axis(X, order, axis=0).T  # (d, n), each row ascending
    new = np.ones(ranked.shape, dtype=bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    return np.cumsum(new) - 1, order.T.ravel(), ranked[new], np.nonzero(new)[0]


def _kernel_table(values, h):
    """One kernel per distinct value of each column of ``values`` (n, d)
    (``_value_bins``) and the index of every entry among them."""
    n, d = values.shape
    bins, rows, distinct, features = _value_bins(values)
    entries = np.empty((n, d), dtype=np.intp)
    entries[rows, np.repeat(np.arange(d), n)] = bins
    log_norms = np.log(h[None, :] * math.sqrt(2 * math.pi))[0]
    return KernelTable(distinct, features, h[features], log_norms[features],
                       np.searchsorted(features, np.arange(d)), entries)


def bayes_train(train_dataset):
    """Fit priors and per-class per-feature Gaussian kernel densities.

    Bandwidths follow Silverman's rule of thumb, floored so single-point
    classes stay well-defined.
    """
    classes = tuple(_training_classes(train_dataset))
    priors = normalize({c: len(train_dataset.class_rows[c]) for c in classes})
    log_priors, kernels, bandwidths = {}, {}, {}
    for c in classes:
        V = train_dataset.X[train_dataset.class_rows[c]]
        bandwidths[c] = np.maximum(_silverman(V), _BANDWIDTH_FLOOR)
        kernels[c] = _kernel_table(V, bandwidths[c])
        log_priors[c] = math.log(priors[c])
    return BayesModel(classes, log_priors, kernels, bandwidths, tuple(train_dataset.feature_names))


def _log_kde_rows(table, X):
    """Each row's summed per-feature log density under one class's
    kernels (log-sum-exp), a block of rows at a time."""
    n = len(table.entries)
    out = np.empty(len(X))
    step = max(1, _BLOCK_FLOATS // max(1, table.entries.size))
    for start in range(0, len(X), step):
        z = (X[start:start + step, table.features] - table.values) / table.widths
        logk = -0.5 * z * z - table.log_norms
        m = np.maximum.reduceat(logk, table.starts, axis=1)  # (rows, d)
        kernels = np.exp(logk - m[:, table.features])
        density = np.take(kernels, table.entries, axis=1).sum(axis=1)  # (rows, n, d) -> (rows, d)
        out[start:start + step] = (m + np.log(density) - math.log(n)).sum(axis=1)
    return out


def _bayes_rows(model, X):
    """Posterior memberships of each row of a checked matrix ``X``."""
    log_scores = {c: (model.log_priors[c] + _log_kde_rows(model.kernels[c], X)).tolist()
                  for c in model.classes}
    memberships = []
    for row in range(len(X)):
        shift = max(log_scores[c][row] for c in model.classes)
        raw = {c: math.exp(log_scores[c][row] - shift) for c in model.classes}
        memberships.append(MembershipVector.normalized(raw))
    return memberships


def bayes_predict(model, x):
    """Posterior memberships of one test vector."""
    return _bayes_rows(model, test_vectors(x, len(model.feature_names))[None, :])[0]


def bayes_bandwidths_csv(model):
    """Introspection dump: ``class,feature,bandwidth`` rows."""
    out = io.StringIO()
    out.write("class,feature,bandwidth\n")
    for c in model.classes:
        for name, h in zip(model.feature_names, model.bandwidths[c]):
            out.write(f"{c},{name},{float(h)!r}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# decision tree (binary splits on continuous attributes, information gain)


@dataclass(eq=False, repr=False)
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: dict | None = None  # leaf class counts

    @property
    def is_leaf(self):
        return self.feature is None


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    classes: tuple
    n_features: int  # the length of a test vector


def entropy(labels):
    """Entropy in bits of a label sequence; 0.0 when it is empty."""
    counts = np.array([list(Counter(labels).values())], dtype=float)
    return float(_entropies_by_row(counts, np.maximum(counts.sum(axis=1), 1.0))[0])


def information_gain(y, x, threshold):
    """Entropy drop from splitting labels ``y`` on feature values ``x``,
    one per label, at ``threshold``."""
    y = list(y)
    left = (test_vectors(x, len(y)) <= threshold).tolist()
    sides = ([lab for lab, go in zip(y, left) if go], [lab for lab, go in zip(y, left) if not go])
    return entropy(y) - sum(len(side) / len(y) * entropy(side) for side in sides if side)


def candidate_thresholds(x):
    """Midpoints between consecutive distinct sorted feature values: the
    thresholds the tree scores."""
    x = np.asarray(x, dtype=float)
    xs = np.sort(test_vectors(x, x.size))
    below, above = xs[:-1], xs[1:]
    return ((below + above) / 2)[below < above].tolist()


def _entropies_by_row(counts, totals):
    """Entropy of class counts along the last axis; every total is >= 1."""
    p = counts / totals[..., None]
    return -(p * np.log2(np.where(counts > 0, p, 1.0))).sum(axis=-1)


def _level_splits(bins, elem_codes, sizes, counts, n_features):
    """The least-conditional-entropy boundary of every node of one level.

    The level's (row, feature) elements come node by node, then feature by
    feature, each feature's in ascending bin order: ``bins`` and
    ``elem_codes`` hold their bins and class codes, ``sizes`` each node's
    row count and ``counts`` (K, C) its class counts. A boundary falls
    between two distinct consecutive values of one feature inside one
    node; one cumulative sum over the runs of equal bins gives every
    boundary's left class counts. Conditional entropies are computed at
    the boundaries alone, with the same float operations as a per-node
    scan: each call's class axis is exactly its nodes' present classes, in
    class order, and C-contiguous, since numpy sums an axis of 8 or more
    terms pairwise, so padding or a strided layout would change the bits.
    A node's boundaries come feature-major with positions ascending, so
    its first least entropy is the tie rule: smallest feature index, then
    smallest threshold. Returns the nodes with a boundary and, per node,
    the bins just below and just above its chosen boundary.
    """
    K, C = counts.shape
    E = len(bins)
    # where each (node, feature) segment starts; a sentinel closes the last
    seg_first = (((np.cumsum(sizes) - sizes) * n_features)[:, None]
                 + np.outer(sizes, np.arange(n_features))).ravel()
    is_seg = np.zeros(E + 1, dtype=bool)
    is_seg[seg_first] = True
    is_seg[E] = True
    # runs of one bin inside one segment, with their class counts
    start = is_seg[:E].copy()
    start[1:] |= bins[1:] != bins[:-1]
    run_first = np.flatnonzero(start)
    R = len(run_first)
    run_counts = np.bincount((np.cumsum(start) - 1) * C + elem_codes, minlength=R * C).reshape(R, C)
    cum = run_counts.cumsum(axis=0)
    opens_seg = is_seg[run_first]
    run_seg = np.cumsum(opens_seg) - 1
    seg_base = (cum - run_counts)[opens_seg]  # the class counts before each segment
    run_next = np.append(run_first[1:], E)
    # a run followed by another run of its own segment ends at a boundary
    at = np.flatnonzero(~is_seg[run_next])
    if len(at) == 0:
        return at, at, at
    seg = run_seg[at]
    node = seg // n_features
    left = cum[at] - seg_base[seg]
    right = counts[node] - left
    nl = (run_next[at] - seg_first[seg]).astype(float)
    m = sizes[node].astype(float)
    nr = m - nl
    cond = np.empty(len(at))
    by_classes = {}  # the nodes of each set of present classes
    for k, present in enumerate((counts > 0).tolist()):
        by_classes.setdefault(tuple(present), []).append(k)
    if len(by_classes) > 1:
        group = np.empty(K, dtype=np.intp)
        for g, nodes in enumerate(by_classes.values()):
            group[nodes] = g
        group = group[node]
    for g, present in enumerate(by_classes):
        sel = np.flatnonzero(group == g) if len(by_classes) > 1 else slice(None)
        lt, rt, nlg, nrg, mg = left[sel], right[sel], nl[sel], nr[sel], m[sel]
        if not all(present):
            cols = np.flatnonzero(present)
            lt, rt = np.ascontiguousarray(lt[:, cols]), np.ascontiguousarray(rt[:, cols])
        cond[sel] = (nlg / mg) * _entropies_by_row(lt, nlg) + (nrg / mg) * _entropies_by_row(rt, nrg)
    # each node's first least conditional entropy
    opens_node = _run_starts(node)
    least = np.empty(K)
    least[node[opens_node]] = np.minimum.reduceat(cond, np.flatnonzero(opens_node))
    hit = np.flatnonzero(cond == least[node])
    chosen = hit[_run_starts(node[hit])]
    above = run_next[at[chosen]]  # the element just above each chosen boundary
    return node[chosen], bins[above - 1], bins[above]


def c45_train(train_dataset, min_size=2):
    """Grow a binary tree by best-gain (least conditional entropy) splits.

    A node becomes a leaf when it is pure, smaller than ``min_size``, or
    offers no admissible split (all feature values equal). Splits with
    zero gain are still taken on impure nodes so that patterns needing
    two coordinated tests remain learnable.

    The tree grows one level at a time, so its depth is not bounded by the
    recursion limit. At the root each feature's distinct values become
    bins (``_value_bins``) and every (row, feature) element is sorted by
    (node, feature, bin); each level scores all of its nodes' boundaries
    together (``_level_splits``), and one stable sort by child hands the
    rows and elements down a level. The rows of finished nodes leave the
    arrays; a leaf's class counts keep their order of first appearance
    along its ascending rows.
    """
    min_size = as_int(min_size, "min_size", 1)
    X = train_dataset.X
    n, n_features = X.shape
    classes = tuple(_training_classes(train_dataset))
    C = len(classes)
    codes = np.empty(n, dtype=np.intp)
    for i, c in enumerate(classes):
        codes[train_dataset.class_rows[c]] = i
    root = TreeNode()
    counts = np.bincount(codes, minlength=C)
    if np.count_nonzero(counts) < 2 or n < min_size or n_features == 0:
        root.counts = {classes[c]: int(counts[c]) for c in dict.fromkeys(codes.tolist())}
        return DecisionTree(root, classes, n_features)
    bins, elem_rows, values, bin_feature = _value_bins(X)
    nodes, rows, sizes, counts = [root], np.arange(n), np.array([n]), counts[None, :]
    while nodes:
        K = len(nodes)
        found, below, above = _level_splits(bins, codes[elem_rows], sizes, counts, n_features)
        feature = np.zeros(K, dtype=np.intp)
        threshold = np.full(K, np.nan)  # no value goes left of NaN
        feature[found] = bin_feature[above]
        threshold[found] = (values[below] + values[above]) / 2
        node_of_row = np.repeat(np.arange(K), sizes)
        left = X[rows, feature[node_of_row]] <= threshold[node_of_row]
        # a midpoint rounded onto the upper value can send a whole node left
        n_left = np.bincount(node_of_row, weights=left, minlength=K)
        splits = (n_left > 0) & (n_left < sizes)
        # a node's outcomes: its two children when it splits, else itself as a leaf
        width = 1 + splits
        outcome = (np.cumsum(width) - width)[node_of_row] + (splits[node_of_row] & ~left)
        U = int(width.sum())
        outcome_counts = np.bincount(outcome * C + codes[rows], minlength=U * C).reshape(U, C)
        outcome_sizes = outcome_counts.sum(axis=1)
        grows = (np.repeat(splits, width) & (np.count_nonzero(outcome_counts, axis=1) > 1)
                 & (outcome_sizes >= min_size))
        # rows by outcome, growing outcomes first; a small key dtype sorts by radix
        key = (outcome + U * ~grows[outcome]).astype(np.min_scalar_type(2 * U))
        row_key = np.empty(n, dtype=key.dtype)
        row_key[rows] = key
        rows = rows[np.argsort(key, kind="stable")]
        outcomes = []
        for node, f, thr, splits_node in zip(nodes, feature.tolist(), threshold.tolist(),
                                             splits.tolist()):
            if splits_node:
                node.feature, node.threshold = f, thr
                node.left, node.right = TreeNode(), TreeNode()
                outcomes += (node.left, node.right)
            else:
                outcomes.append(node)
        n_grown = int(outcome_sizes[grows].sum())
        leaf_codes = codes[rows[n_grown:]].tolist()
        end = 0
        for u, size, leaf_counts in zip(np.flatnonzero(~grows).tolist(),
                                        outcome_sizes[~grows].tolist(),
                                        outcome_counts[~grows].tolist()):
            start, end = end, end + size
            outcomes[u].counts = {classes[c]: leaf_counts[c]
                                  for c in dict.fromkeys(leaf_codes[start:end])}
        nodes = [outcomes[u] for u in np.flatnonzero(grows).tolist()]
        rows, sizes, counts = rows[:n_grown], outcome_sizes[grows], outcome_counts[grows]
        elem_order = np.argsort(row_key[elem_rows], kind="stable")[:n_features * n_grown]
        bins, elem_rows = bins[elem_order], elem_rows[elem_order]
    return DecisionTree(root, classes, n_features)


def _leaf_membership(tree, x):
    """The leaf class proportions of one checked test vector."""
    node = tree.root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return MembershipVector.normalized({c: node.counts.get(c, 0) for c in tree.classes})


def c45_predict(tree, x):
    """Walk threshold tests to a leaf; membership = leaf class proportions."""
    return _leaf_membership(tree, test_vectors(x, tree.n_features))


def tree_to_text(tree, feature_names=None):
    """Introspection dump: the tree as indented threshold tests."""
    lines = []
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, str):  # an "else:" line between two subtrees
            lines.append(node)
            continue
        pad = "  " * depth
        if node.is_leaf:
            counts = ", ".join(f"{c}:{n}" for c, n in sorted(node.counts.items()))
            lines.append(f"{pad}leaf [{counts}]")
        else:
            name = feature_names[node.feature] if feature_names else f"f{node.feature}"
            lines.append(f"{pad}if {name} <= {node.threshold:.6g}:")
            stack += [(node.right, depth + 1), (f"{pad}else:", depth), (node.left, depth + 1)]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# high-level classifier and hybrid combination


def combine_walk_variations(variations, priors, config):
    """Fold per-mu (delta_t, delta_c) maps into normalized memberships.

    Each class accumulates, over mu = 0..mu_critical,
    ``alpha_t * (1 - delta_t * p) + alpha_c * (1 - delta_c * p)`` with p
    its training proportion; the totals are normalized across classes.
    """
    totals = {c: 0.0 for c in priors}
    for mu, (dt, dc) in variations.items():
        for c in priors:
            t_term = dt[c] * priors[c]
            c_term = dc[c] * priors[c]
            totals[c] += config.alpha_t * (1.0 - t_term) + config.alpha_c * (1.0 - c_term)
    return MembershipVector.normalized(totals)


def high_level_predict(test_instance, class_graphs, config, views):
    """Membership from insertion-induced walk variations across mu.

    ``test_instance`` must carry an ``id`` comparable with the training
    instance ids (it orders distance ties inside the walk engine).
    Raises :class:`sensewalk.tourist.AllViewsEmpty` when the instance
    links into no class; callers fall back to the low-level membership.
    """
    trial = InsertionTrial(getattr(test_instance, "id", None), class_graphs, views)
    variations = trial.variation_curves(config.mu_critical)
    priors = normalize({g.class_id: g.vertex_count for g in class_graphs})
    return combine_walk_variations(variations, priors, config)


def hybrid_predict(low, high, lam):
    """Blend memberships; returns (membership, predicted label).

    Affine in ``lam``: at 0 the result is exactly the low-level vector,
    at 1 exactly the high-level one.
    """
    as_real(lam, "lam", 0, 1)
    if high is None:
        membership = low
    else:
        membership = MembershipVector(
            {c: (1.0 - lam) * low.scores[c] + lam * high.scores[c] for c in low.scores}
        )
    return membership, membership.argmax()


@dataclass(frozen=True)
class LowLevelPredictor:
    """A trained low-level classifier. ``rows(X)`` checks a matrix with one
    test vector per row once and maps it to a list of memberships; calling
    the predictor with one test vector checks it and scores it as a one-row
    matrix. ``score`` maps checked rows to memberships: Bayes scores a block
    of rows at a time, kNN and C4.5 one row at a time."""

    score: object
    n_features: int

    def rows(self, X):
        return self.score(test_vectors(X, self.n_features, ndim=2))

    def __call__(self, x):
        return self.score(test_vectors(x, self.n_features)[None, :])[0]


def train_low_level(name, train_dataset, knn_k=1, min_size=2):
    """Uniform handle over the three low-level classifiers."""
    as_int(min_size, "min_size", 1)
    d = train_dataset.X.shape[1]
    if name == "knn":
        vote = _knn_voter(train_dataset, knn_k)
        return LowLevelPredictor(lambda X: [vote(x) for x in X], d)
    if name == "bayes":
        model = bayes_train(train_dataset)
        return LowLevelPredictor(lambda X: _bayes_rows(model, X), d)
    if name == "c45":
        tree = c45_train(train_dataset, min_size=min_size)
        return LowLevelPredictor(lambda X: [_leaf_membership(tree, x) for x in X], d)
    raise ValueError(f"unknown low-level classifier {name!r}")
