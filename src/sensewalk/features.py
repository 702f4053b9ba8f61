"""Feature extraction for annotated occurrences, under two paradigms.

Semantic: each occurrence is described by the counts of the lemmas among
its nearest context words. Topological: each occurrence is described by
the eight structural measurements of its node in the word-adjacency
network. Both produce a :class:`Dataset`, which owns the class index (any
label but ``None`` is a class; unlabeled rows join none). Distance-based
downstream methods expect the features to be standardized first.
"""

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .adjacency import NodeTopology, node_topology


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
    feature finite. The class index (read-only ``class_rows``, sorted
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
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            twice = next(i for i in self.ids if i in seen or seen.add(i))
            raise ValueError(f"id {twice!r} appears more than once; ids must be unique")
        if not np.isfinite(self.X).all():
            row, col = np.argwhere(~np.isfinite(self.X))[0]
            raise ValueError(
                f"feature row {row} (id {self.ids[row]!r}), column {col} "
                f"is {self.X[row, col]}; features must be finite"
            )
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
    the other side.
    """
    if window < 1:
        raise ValueError(f"the semantic window must be >= 1, got {window!r}")
    chosen = []
    left = position - 1
    right = position + 1
    n = len(stream)
    while len(chosen) < window and (left >= 0 or right < n):
        d_left = position - left if left >= 0 else None
        d_right = right - position if right < n else None
        if d_right is None or (d_left is not None and d_left <= d_right):
            chosen.append(stream[left])
            left -= 1
        else:
            chosen.append(stream[right])
            right += 1
    return chosen


def semantic_vocabulary(token_streams, annotations, window):
    """Sorted union of lemmas appearing in any annotation window."""
    vocab = set()
    for ann in annotations:
        vocab.update(window_lemmas(token_streams[ann.document_id], ann.position, window))
    return sorted(vocab)


def semantic_features(token_streams, annotations, window=5, vocabulary=None):
    """One count-vector instance per annotation.

    When ``vocabulary`` is given (e.g. fitted on a training fold), window
    lemmas outside it are dropped; otherwise the vocabulary is the union
    over all windows seen here.
    """
    if vocabulary is None:
        vocabulary = semantic_vocabulary(token_streams, annotations, window)
    index = {lemma: i for i, lemma in enumerate(vocabulary)}
    X = np.zeros((len(annotations), len(vocabulary)))
    ids, labels = [], []
    for row, ann in enumerate(annotations):
        for lemma in window_lemmas(token_streams[ann.document_id], ann.position, window):
            j = index.get(lemma)
            if j is not None:
                X[row, j] += 1.0
        ids.append((ann.document_id, ann.position))
        labels.append(ann.sense_id)
    return Dataset(ids, X, labels, vocabulary)


def topological_features(network, annotations):
    """One instance per annotation from its occurrence node's measurements."""
    X = np.zeros((len(annotations), len(NodeTopology.FIELD_NAMES)))
    ids, labels = [], []
    for row, ann in enumerate(annotations):
        node = network.node_for(ann.document_id, ann.position)
        if node is None:
            raise MissingNode(f"no occurrence node for ({ann.document_id}, {ann.position})")
        X[row] = node_topology(network, node).as_vector()
        ids.append((ann.document_id, ann.position))
        labels.append(ann.sense_id)
    return Dataset(ids, X, labels, list(NodeTopology.FIELD_NAMES))


def feature_stats(dataset):
    """Per-feature mean and population standard deviation; a feature whose
    mean or deviation overflows is refused."""
    if len(dataset) < 2:
        raise ValueError("standardization needs at least 2 instances")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = dataset.X.mean(axis=0)
        std = dataset.X.std(axis=0)  # population convention (divide by N)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if len(bad):
        raise ValueError(f"feature {dataset.feature_names[bad[0]]!r} is too large to "
                         f"standardize: its mean or standard deviation overflows")
    return mean, std


def standardize(dataset, stats=None):
    """Z-score the features; constant columns map to zero.

    Pass ``stats`` fitted on a training fold to transform held-out data
    with the training statistics.
    """
    mean, std = feature_stats(dataset) if stats is None else stats
    safe = np.where(std > 0, std, 1.0)
    Z = (dataset.X - mean) / safe
    Z[:, std == 0] = 0.0
    return Dataset(dataset.ids, Z, dataset.labels, dataset.feature_names)
