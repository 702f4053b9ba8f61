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
A block gathers at most ``_BLOCK_FLOATS`` kernels, or one row's n x d when
that is more.

The tree sorts each feature once at the root and carries the sorted
orders down to its children; every node scores, in one array pass, only
the boundaries a split can fall on (between two distinct consecutive
values of a feature), ties going to the smallest feature index, then the
smallest threshold. Trees grow from an explicit stack, so their
depth is not limited by the recursion limit.

The low-level classifiers read the training set's class index
(:class:`sensewalk.features.Dataset`) and refuse unlabeled training rows.
Trained models are immutable; predictions write nothing but the class
graphs' walk memos, and are safe to run concurrently across test instances.
"""

import io
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .attgraph import euclidean
from .features import as_int, test_vectors
from .tourist import InsertionTrial, normalize

log = logging.getLogger(__name__)

LOW_LEVEL_NAMES = ("knn", "bayes", "c45")


@dataclass(frozen=True)
class MembershipVector:
    """Normalized per-class scores."""

    scores: dict

    def argmax(self):
        # deterministic: ties go to the smallest class id
        best = None
        for class_id in sorted(self.scores):
            if best is None or self.scores[class_id] > self.scores[best]:
                best = class_id
        return best

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
        if not 0 <= self.alpha_t <= 1:
            raise ValueError("alpha_t must lie in [0, 1]")
        if as_int(self.mu_critical, "mu_critical") < 0:
            raise ValueError("mu_critical must be >= 0")

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


def knn_predict(train_dataset, x, k=1):
    """Vote fractions among the k nearest training instances (Euclidean);
    all of them when there are no more than k."""
    if as_int(k, "k") < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    classes = _training_classes(train_dataset)
    d = euclidean(train_dataset.X, test_vectors(x, train_dataset.X.shape[1]))
    near = range(len(d))
    if k < len(d):  # only rows within the k-th smallest distance can be among the k nearest
        near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1]).tolist()
    order = sorted(near, key=lambda i: (d[i], train_dataset.ids[i]))
    votes = Counter(train_dataset.labels[i] for i in order[:k])
    return MembershipVector.normalized({c: votes.get(c, 0) for c in classes})


# ---------------------------------------------------------------------------
# naive Bayes with Parzen-window likelihoods

_BANDWIDTH_FLOOR = 1e-6
_BLOCK_FLOATS = 2**16  # bounds a block's gathered kernels at rows x n x d floats


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
    feature_names: tuple = field(default=())

    @property
    def n_features(self):
        return next(iter(self.bandwidths.values())).shape[0]


def _silverman(values):
    n = len(values)
    sigma = values.std(axis=0)
    return 1.06 * sigma * n ** (-1 / 5)


def _kernel_table(values, h):
    """The distinct values of each column of ``values`` (n, d) and the index
    of every entry among them; -0.0 and 0.0 share a kernel, which gives
    both the same z * z."""
    n, d = values.shape
    order = np.argsort(values, axis=0, kind="stable")
    ranked = np.take_along_axis(values, order, axis=0).T  # (d, n), each row ascending
    new = np.ones((d, n), dtype=bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    entries = np.empty((n, d), dtype=np.intp)
    entries[order, np.arange(d)] = (np.cumsum(new) - 1).reshape(d, n).T
    features = np.nonzero(new)[0]
    log_norms = np.log(h[None, :] * math.sqrt(2 * math.pi))[0]
    return KernelTable(ranked[new], features, h[features], log_norms[features],
                       np.searchsorted(features, np.arange(d)), entries)


def bayes_train(train_dataset):
    """Fit priors and per-class per-feature Gaussian kernel densities.

    Bandwidths follow Silverman's rule of thumb, floored so single-point
    classes stay well-defined.
    """
    classes = tuple(_training_classes(train_dataset))
    log_priors, kernels, bandwidths = {}, {}, {}
    for c in classes:
        V = train_dataset.X[train_dataset.class_rows[c]]
        bandwidths[c] = np.maximum(_silverman(V), _BANDWIDTH_FLOOR)
        kernels[c] = _kernel_table(V, bandwidths[c])
        log_priors[c] = math.log(len(V) / len(train_dataset))
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


def bayes_predict_rows(model, X):
    """Posterior memberships of each row of ``X`` under the
    attribute-independence hypothesis."""
    X = test_vectors(X, model.n_features, ndim=2)
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
    return bayes_predict_rows(model, test_vectors(x, model.n_features)[None, :])[0]


def bayes_bandwidths_csv(model):
    """Introspection dump: ``class,feature,bandwidth`` rows."""
    out = io.StringIO()
    out.write("class,feature,bandwidth\n")
    names = model.feature_names or tuple(f"f{i}" for i in range(model.n_features))
    for c in model.classes:
        for name, h in zip(names, model.bandwidths[c]):
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


def _entropy(counts):
    """Entropy in bits of a sequence of class counts, summed in its order."""
    n = sum(counts)
    return -sum((k / n) * math.log2(k / n) for k in counts if k)


def entropy(labels):
    return _entropy(list(Counter(labels).values()))


def information_gain(y, x, threshold):
    """Entropy drop from splitting labels ``y`` on feature values ``x``."""
    h = 0.0
    for side in ([lab for lab, v in zip(y, x) if v <= threshold],
                 [lab for lab, v in zip(y, x) if v > threshold]):
        if side:
            h += len(side) / len(y) * entropy(side)
    return entropy(y) - h


def candidate_thresholds(x):
    """Midpoints between consecutive distinct sorted feature values."""
    x = np.asarray(x, dtype=float)
    vals = sorted(set(test_vectors(x, x.size).tolist()))
    return [(a + b) / 2 for a, b in zip(vals, vals[1:])]


def _entropies_by_row(counts, totals):
    """Entropy of class counts along the last axis; every total is >= 1."""
    p = counts / totals[..., None]
    return -(p * np.log2(np.where(counts > 0, p, 1.0))).sum(axis=-1)


def _best_split(xs, one_hot, base):
    """(feature, position) of the best split of one node, or None.

    ``xs`` holds the node's values sorted along each feature's row (F, m)
    and ``one_hot`` the matching class indicators (F, m, C), ``base`` the
    node's label entropy. Gains are computed only where a split can fall,
    after a position whose value changes, with the same float operations
    as a per-feature scan; a node with no such pair gets None. The pairs
    come feature-major with positions ascending, so the first argmax is the
    tie rule: smallest feature index, then smallest threshold.
    """
    f, at = np.nonzero(xs[:, :-1] < xs[:, 1:])
    if len(f) == 0:
        return None
    m = xs.shape[1]
    cum = one_hot.cumsum(axis=1, dtype=float)
    left = cum[f, at]
    right = cum[f, -1] - left
    nl = at + 1.0
    nr = m - nl
    cond = (nl / m) * _entropies_by_row(left, nl) + (nr / m) * _entropies_by_row(right, nr)
    best = int((base - cond).argmax())
    return int(f[best]), int(at[best])


def c45_train(train_dataset, min_size=2):
    """Grow a binary tree by best-gain splits.

    A node becomes a leaf when it is pure, smaller than ``min_size``, or
    offers no admissible split (all feature values equal). Splits with
    zero gain are still taken on impure nodes so that patterns needing
    two coordinated tests remain learnable.

    The training rows are sorted once per feature at the root (stable, so
    ties keep row order); a split partitions that (F, n) order matrix with
    a row mask, so every node sees its rows presorted. Nodes are grown from
    an explicit stack, so depth is not bounded by the recursion limit.
    """
    X = train_dataset.X
    classes = tuple(_training_classes(train_dataset))
    codes = np.empty(len(X), dtype=np.intp)
    for i, c in enumerate(classes):
        codes[train_dataset.class_rows[c]] = i
    XT = X.T
    features = np.arange(X.shape[1])[:, None]
    go_left = np.zeros(len(X), dtype=bool)
    root = TreeNode()
    stack = [(root, np.arange(len(X)), np.argsort(X, axis=0, kind="stable").T)]
    while stack:
        node, rows, order = stack.pop()
        # class counts in order of first appearance along the (ascending)
        # rows, as Counter gives them: the base entropy sums in this order
        node_codes = codes[rows]
        sizes = np.bincount(node_codes, minlength=len(classes))
        counts = {classes[c]: int(sizes[c]) for c in dict.fromkeys(node_codes.tolist())}
        found = None
        if len(counts) > 1 and len(rows) >= min_size:
            xs = XT[features, order]
            one_hot = codes[order][..., None] == np.flatnonzero(sizes)
            found = _best_split(xs, one_hot, _entropy(list(counts.values())))
        if found is not None:
            f, at = found
            thr = (float(xs[f, at]) + float(xs[f, at + 1])) / 2
            left = X[rows, f] <= thr
            # a midpoint rounded onto the upper value can leave one side empty
            if 0 < np.count_nonzero(left) < len(rows):
                go_left[rows] = left
                keep = go_left[order]
                node.feature, node.threshold = f, thr
                node.left, node.right = TreeNode(), TreeNode()
                stack.append((node.right, rows[~left], order[~keep].reshape(len(order), -1)))
                stack.append((node.left, rows[left], order[keep].reshape(len(order), -1)))
                continue
        node.counts = counts
    return DecisionTree(root, classes, X.shape[1])


def c45_predict(tree, x):
    """Walk threshold tests to a leaf; membership = leaf class proportions."""
    x = test_vectors(x, tree.n_features)
    node = tree.root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return MembershipVector.normalized({c: node.counts.get(c, 0) for c in tree.classes})


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


def class_priors(class_graphs):
    return normalize({g.class_id: g.vertex_count for g in class_graphs})


def high_level_predict(test_instance, class_graphs, config, views):
    """Membership from insertion-induced walk variations across mu.

    ``test_instance`` must carry an ``id`` comparable with the training
    instance ids (it orders distance ties inside the walk engine).
    Raises :class:`sensewalk.tourist.AllViewsEmpty` when the instance
    links into no class; callers fall back to the low-level membership.
    """
    trial = InsertionTrial(getattr(test_instance, "id", None), class_graphs, views)
    variations = trial.variation_curves(config.mu_critical)
    return combine_walk_variations(variations, class_priors(class_graphs), config)


def hybrid_predict(low, high, lam):
    """Blend memberships; returns (membership, predicted label).

    Affine in ``lam``: at 0 the result is exactly the low-level vector,
    at 1 exactly the high-level one.
    """
    if not 0 <= lam <= 1:
        raise ValueError("lam must lie in [0, 1]")
    if high is None:
        membership = low
    else:
        membership = MembershipVector(
            {c: (1.0 - lam) * low.scores[c] + lam * high.scores[c] for c in low.scores}
        )
    return membership, membership.argmax()


@dataclass(frozen=True)
class LowLevelPredictor:
    """A trained low-level classifier. Call it with one test vector, or
    give ``rows`` a matrix with one test vector per row for a list of
    memberships; Bayes scores a block of rows at a time, kNN and C4.5 one
    row at a time."""

    one: object
    rows: object

    def __call__(self, x):
        return self.one(x)


def _row_by_row(one, n_features):
    """A predictor whose ``rows`` calls ``one`` on each row in turn."""
    return LowLevelPredictor(one, lambda X: [one(x) for x in test_vectors(X, n_features, ndim=2)])


def train_low_level(name, train_dataset, knn_k=1, min_size=2):
    """Uniform handle over the three low-level classifiers."""
    if name == "knn":
        return _row_by_row(lambda x: knn_predict(train_dataset, x, k=knn_k),
                           train_dataset.X.shape[1])
    if name == "bayes":
        model = bayes_train(train_dataset)
        return LowLevelPredictor(lambda x: bayes_predict(model, x),
                                 lambda X: bayes_predict_rows(model, X))
    if name == "c45":
        tree = c45_train(train_dataset, min_size=min_size)
        return _row_by_row(lambda x: c45_predict(tree, x), tree.n_features)
    raise ValueError(f"unknown low-level classifier {name!r}")
