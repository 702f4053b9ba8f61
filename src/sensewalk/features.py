"""Feature extraction for annotated occurrences, under two paradigms.

Semantic: each occurrence is described by the counts of the lemmas among
its nearest context words. Topological: each occurrence is described by
the eight structural measurements of its node in the word-adjacency
network. Both produce a :class:`Dataset`, which owns the class index (any
label but ``None`` is a class; unlabeled rows join none). Distance-based
downstream methods expect the features to be standardized first.

Every feature value and test-vector entry must lie within ±2^480
(``FEATURE_BOUND``): :class:`Dataset` (so :func:`standardize` too) and
:func:`test_vectors` refuse anything else, NaN and infinities included,
so no later stage guards against overflow.

Numeric parameters are checked where they enter, by :func:`as_int` and
:func:`as_real`, with one ValueError form: "kappa must be >= 1, got 0".
"""

import csv
import itertools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .adjacency import NodeTopology, _topology


# Within ±2^480 nothing derived overflows: differences are at most 2^481 and
# squares 2^962, so sums over fewer than 2^60 rows or features stay finite; a
# positive deviation is at least 2^-537 (the root of the least subnormal), so
# z-scores stay below 2^1018; a Bayes z is below 2^481 / 1e-6 < 2^501, so z * z
# < 2^1002, and a log-likelihood over fewer than 2^22 features stays finite.
FEATURE_BOUND = 2.0 ** 480


def _in_range(X):
    """Where ``X`` lies within ``±FEATURE_BOUND``; False at NaN and infinities."""
    return np.abs(X) <= FEATURE_BOUND


def _entry(dataset, row, col):
    """Where entry (row, col) of a dataset sits, for an error message."""
    name, row_id = dataset.feature_names[col], dataset.ids[row]
    return f"feature {name!r} in row {row} (id {row_id!r}), column {col}"


def test_vectors(x, n_features, ndim=1):
    """``x`` as a float array: one test vector (``ndim`` 1) or one per row
    (``ndim`` 2). Refuses a wrong shape or a value outside the feature
    range with the same ValueError wherever a test vector enters."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] != n_features:
        raise ValueError(f"test vectors must have {n_features} values, "
                         f"got an array of shape {x.shape}")
    if not _in_range(x).all():
        raise ValueError("test vectors must hold values within ±2^480")
    return x


def as_int(value, name, least=None):
    """``value`` as an int; a ValueError naming ``name`` when it is no
    integer (numpy integers and bools are) or is below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return value


def as_real(value, name, low, high=None):
    """``value`` when it is a real number (numpy floats and bools are) above
    ``low``, or in [low, high] when ``high`` is given; NaN is in no range."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if high is None and not value > low:
        raise ValueError(f"{name} must be > {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


class MissingNode(ValueError):
    """An annotation has no occurrence node in the network."""


@dataclass(frozen=True)
class Instance:
    id: object
    features: np.ndarray
    label: int | None


def rows_by_label(labels):
    """Each label but ``None`` with its rows ascending, in order of first appearance."""
    rows = {}
    for i, label in enumerate(labels):
        if label is not None:
            rows.setdefault(label, []).append(i)
    return rows


def sorted_values(values, what, key=None):
    """``values`` sorted (by ``key`` when given), say a class index's labels.

    Raises ``ValueError`` naming two sort keys that do not order against
    each other (say ``1`` and ``"a"``) as ``what`` ("class labels", "ids"),
    instead of Python's bare ``TypeError``.
    """
    try:
        return sorted(values, key=key)
    except TypeError:
        keys = list(values) if key is None else [key(v) for v in values]
        for a, b in itertools.combinations(keys, 2):
            try:
                sorted((a, b))
            except TypeError:
                raise ValueError(
                    f"{what} {a!r} and {b!r} cannot be ordered; "
                    "each must compare with every other"
                ) from None
        raise


class Dataset:
    """A fixed-order collection of feature vectors with optional labels.

    All rows share the feature ordering in ``feature_names``. Labels are
    sense ids; unlabeled rows carry ``None``. Ids must be unique and every
    feature within ``±FEATURE_BOUND``. The class index (read-only ``class_rows``, sorted
    ``classes()``) is built once.
    """

    def __init__(self, ids, X, labels, feature_names):
        self.ids = list(ids)
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim == 1:
            self.X = self.X.reshape(len(self.ids), -1)
        self.labels = list(labels)
        self.feature_names = list(feature_names)
        if len(self.ids) != len(self.labels) or len(self.ids) != self.X.shape[0]:
            raise ValueError("ids, labels and feature rows must align")
        if self.X.ndim != 2 or self.X.shape[1] != len(self.feature_names):
            raise ValueError(f"feature rows must hold one value per feature name "
                             f"({len(self.feature_names)}), got an array of shape {self.X.shape}")
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            twice = next(i for i in self.ids if i in seen or seen.add(i))
            raise ValueError(f"id {twice!r} appears more than once; ids must be unique")
        if not _in_range(self.X).all():
            row, col = np.argwhere(~_in_range(self.X))[0]
            raise ValueError(f"{_entry(self, row, col)} is {float(self.X[row, col])!r}; "
                             "features must lie within ±2^480")
        self.class_rows = rows_by_label(self.labels)
        self._classes = sorted_values(self.class_rows, "class labels")

    def __len__(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.X.shape[1]

    @property
    def class_counts(self):
        return {c: len(rows) for c, rows in self.class_rows.items()}

    def classes(self):
        return list(self._classes)

    def instance(self, i):
        return Instance(self.ids[i], self.X[i], self.labels[i])

    def subset(self, indices):
        idx = list(indices)
        return Dataset(
            [self.ids[i] for i in idx],
            self.X[idx],
            [self.labels[i] for i in idx],
            self.feature_names,
        )

    def to_csv(self, path):
        """Header of feature names plus trailing ``label`` column."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.feature_names) + ["label"])
            for row, label in zip(self.X, self.labels):
                writer.writerow([repr(float(v)) for v in row] + [label if label is not None else ""])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-1] != "label":
                raise ValueError("feature CSV must end with a 'label' column")
            names = header[:-1]
            X, labels = [], []
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(header):
                    raise ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
                try:
                    X.append([float(v) for v in row[:-1]])
                    labels.append(int(row[-1]) if row[-1] != "" else None)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
        if not X:
            raise ValueError(f"{path}: no instance rows after the header")
        return cls(range(len(X)), np.array(X, dtype=float), labels, names)


def window_lemmas(stream, position, window):
    """The ``window`` content lemmas nearest to ``position`` in the stream.

    Candidates are ordered by distance, preceding words first on ties, so
    an interior occurrence takes ceil(window/2) before and floor(window/2)
    after, while occurrences near a document edge draw the shortfall from
    the other side. A position outside the stream is refused.
    """
    window = as_int(window, "the semantic window", 1)
    if not 0 <= as_int(position, "the position") < len(stream):
        raise ValueError(f"position {position} outside the stream (length {len(stream)})")
    near = sorted(range(max(0, position - window), min(len(stream), position + window + 1)),
                  key=lambda i: (abs(i - position), i > position))
    return [stream[i] for i in near if i != position][:window]


def semantic_vocabulary(token_streams, annotations, window):
    """Sorted union of lemmas appearing in any annotation window."""
    vocab = set()
    for ann in annotations:
        vocab.update(window_lemmas(token_streams[ann.document_id], ann.position, window))
    return sorted(vocab)


def semantic_features(token_streams, annotations, window=5, vocabulary=None):
    """One count-vector instance per annotation.

    When ``vocabulary`` is given (e.g. fitted on a training fold), window
    lemmas outside it are dropped; otherwise the vocabulary is the sorted
    union over all windows seen here, as ``semantic_vocabulary`` gives.
    """
    windows = [window_lemmas(token_streams[a.document_id], a.position, window)
               for a in annotations]
    if vocabulary is None:
        vocabulary = sorted(set().union(*windows))
    index = {lemma: i for i, lemma in enumerate(vocabulary)}
    X = np.zeros((len(annotations), len(vocabulary)))
    for row, lemmas in enumerate(windows):
        for lemma in lemmas:
            j = index.get(lemma)
            if j is not None:
                X[row, j] += 1.0
    ids = [(a.document_id, a.position) for a in annotations]
    return Dataset(ids, X, [a.sense_id for a in annotations], vocabulary)


def topological_features(network, annotations):
    """One instance per annotation from its occurrence node's measurements:
    every node is found first, then their rows of the network's memoized
    topology table are read in one gather, the values ``node_topology``
    gives."""
    nodes = []
    for ann in annotations:
        node = network.node_for(ann.document_id, ann.position)
        if node is None:
            raise MissingNode(f"no occurrence node for ({ann.document_id}, {ann.position})")
        nodes.append(node)
    X = np.zeros((0, len(NodeTopology.FIELD_NAMES)))
    if nodes:
        index, table = _topology(network)
        X = table[[index[node] for node in nodes]]
    ids = [(ann.document_id, ann.position) for ann in annotations]
    return Dataset(ids, X, [ann.sense_id for ann in annotations], list(NodeTopology.FIELD_NAMES))


def feature_stats(dataset):
    """Per-feature mean and population standard deviation."""
    if len(dataset) < 2:
        raise ValueError("standardization needs at least 2 instances")
    return dataset.X.mean(axis=0), dataset.X.std(axis=0)  # std divides by N


def standardize(dataset, stats=None):
    """Z-score the features; constant columns map to zero.

    Pass ``stats`` fitted on a training fold to transform held-out data
    with the training statistics; a z-score outside the feature range is
    refused with the entry's name, input value and z-score.
    """
    mean, std = feature_stats(dataset) if stats is None else stats
    safe = np.where(std > 0, std, 1.0)
    Z = (dataset.X - mean) / safe
    Z[:, std == 0] = 0.0
    if not _in_range(Z).all():
        row, col = np.argwhere(~_in_range(Z))[0]
        raise ValueError(f"{_entry(dataset, row, col)} is {float(dataset.X[row, col])!r}, "
                         f"whose z-score {Z[row, col]:.3g} leaves the range; "
                         "features must lie within ±2^480")
    return Dataset(dataset.ids, Z, dataset.labels, dataset.feature_names)
