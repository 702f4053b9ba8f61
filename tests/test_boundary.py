"""Property suite over the public API at the numeric boundary.

Every call draws extreme but plausible input: values near ±1e300, the
subnormals, columns whose scales differ by up to 1e300, values at and just
past the feature bound ±2^480, wrong shapes and NaN test vectors. Each call
must either return finite memberships (or accuracies) or refuse the input
with a ``ValueError`` or a named domain error, and it must do so without
any warning: the whole module runs with warnings as errors.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sensewalk.attgraph import GraphConfig, build_training_graph, insert_test
from sensewalk.classify import HighLevelConfig, high_level_predict, train_low_level
from sensewalk.cli import main
from sensewalk.evaluate import PipelineConfig, cv_sweep, make_fold_plan
from sensewalk.features import FEATURE_BOUND, Dataset, Instance, feature_stats, standardize
from sensewalk.tourist import AllViewsEmpty



@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield

boundary = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

PAST = float(np.nextafter(FEATURE_BOUND, np.inf))
EXTREMES = [0.0, -0.0, 1.0, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308, 1e-150,
            FEATURE_BOUND, -FEATURE_BOUND, PAST, -PAST, math.nan, math.inf, -math.inf]
SCALES = [1e-300, 1e-150, 1.0, 1e150, 1e300]

values = st.one_of(st.sampled_from(EXTREMES), st.floats(-10, 10))


@st.composite
def matrices(draw, max_rows=10, max_cols=3):
    """An (n, d) matrix: entries from ``values``, or a normal base whose
    columns are scaled by up to 1e300 against each other."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                      min_size=n, max_size=n)))
    seed = draw(st.integers(0, 2**16))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=d, max_size=d))
    return np.random.default_rng(seed).normal(size=(n, d)) * scales


@st.composite
def datasets(draw):
    """A two-class labeled dataset that ``Dataset`` accepts, or None when
    it refuses the drawn values (checked in ``test_dataset_and_standardize``)."""
    X = draw(matrices())
    labels = [1 + i % 2 for i in range(len(X))]
    try:
        return Dataset(range(len(X)), X, labels, [f"f{j}" for j in range(X.shape[1])])
    except ValueError:
        return None


def vectors_for(d):
    """A test vector of ``d`` values, or of a wrong shape."""
    right = st.lists(values, min_size=d, max_size=d)
    wrong = st.one_of(st.lists(values, min_size=d + 1, max_size=d + 2),
                      st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=2),
                      values)
    return st.one_of(right, right, wrong)  # two in three of the right shape


def assert_membership(membership, classes):
    scores = membership.scores
    assert sorted(scores) == sorted(classes)
    assert all(math.isfinite(v) and 0 <= v <= 1 for v in scores.values())
    assert math.isclose(sum(scores.values()), 1.0, rel_tol=1e-9)


@boundary
@given(matrices(), st.booleans())
def test_dataset_and_standardize(X, refit):
    names = [f"f{j}" for j in range(X.shape[1])]
    labels = [1 + i % 2 for i in range(len(X))]
    inside = bool((np.abs(X) <= FEATURE_BOUND).all())
    try:
        ds = Dataset(range(len(X)), X, labels, names)
    except ValueError as exc:
        assert not inside and "features must lie within" in str(exc)
        return
    assert inside
    # fitted on every row, or on all but the last and applied to every row
    stats = feature_stats(ds if refit else ds.subset(range(max(2, len(X) - 1))))
    try:
        z = standardize(ds, stats)
    except ValueError as exc:
        assert "features must lie within" in str(exc)
        return
    assert (np.abs(z.X) <= FEATURE_BOUND).all()


@boundary
@given(st.data())
def test_dataset_refuses_wrong_shapes(data):
    n = data.draw(st.integers(1, 4))
    X = np.zeros(data.draw(st.sampled_from([(n, 2, 2), (n + 1, 2), (n, 3)])))
    with pytest.raises(ValueError):
        Dataset(range(n), X, [1] * n, ["a", "b"])


@boundary
@given(datasets(), st.booleans(), st.data())
def test_low_level_predictors(ds, standardized, data):
    if ds is None:
        return
    try:
        train = standardize(ds) if standardized else ds
    except ValueError:
        return
    x = data.draw(vectors_for(ds.dim))
    for name in ("knn", "bayes", "c45"):
        predict = train_low_level(name, train, knn_k=data.draw(st.integers(1, 3)))
        try:
            membership = predict(x)
        except ValueError as exc:
            assert str(exc).startswith("test vectors must")
            continue
        assert_membership(membership, train.classes())
        assert_membership(predict.rows(np.array([x], dtype=float))[0], train.classes())


@boundary
@given(datasets(), st.data())
def test_class_graphs_and_insertion(ds, data):
    if ds is None:
        return
    x = data.draw(vectors_for(ds.dim))
    try:
        graphs = build_training_graph(ds, GraphConfig(kappa=2))
        views = insert_test(x, graphs)
        membership = high_level_predict(Instance(len(ds), np.asarray(x, dtype=float), None),
                                        graphs, HighLevelConfig(mu_critical=3), views)
    except (ValueError, AllViewsEmpty):
        return
    assert all(math.isfinite(d) for view in views for _, d in view.links)
    assert_membership(membership, ds.classes())


@settings(max_examples=10, deadline=None, derandomize=True)
@given(datasets(), st.sampled_from([[0.0], [0.0, 0.5]]))
def test_cv_sweep(ds, grid):
    if ds is None or len(ds) < 4:
        return
    try:
        reports = cv_sweep(ds, ("knn", "bayes", "c45"), grid,
                           PipelineConfig(high=HighLevelConfig(mu_critical=2)),
                           make_fold_plan(ds.labels, 2))
    except ValueError:
        return
    for report in reports.values():
        for _, accuracy, p in report.rows:
            assert 0 <= accuracy <= 1 and 0 <= p <= 1


@settings(max_examples=10, deadline=None, derandomize=True)
@given(matrices(max_rows=8, max_cols=2), st.sampled_from(["knn", "bayes", "c45"]))
def test_cli_evaluate_on_a_features_file(X, low_level):
    rows = [",".join(repr(float(v)) for v in row) + f",{1 + i % 2}" for i, row in enumerate(X)]
    header = ",".join(f"f{j}" for j in range(X.shape[1])) + ",label"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--features", str(path), "--folds", "2",
                         "--lambda", "0", "--low-level", low_level])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("sensewalk:")]
    if code == 0:
        assert errors == []
        accuracy = float(out.getvalue().split("accuracy=")[1].split()[0])
        assert 0 <= accuracy <= 1
    else:
        assert code == 1 and out.getvalue() == "" and len(errors) == 1
