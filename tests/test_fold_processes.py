"""Cross-validation folds and topology blocks scored in worker processes:
the same records, tables, reports and errors as in one process, one pool
per run, and no worker left behind."""

import dataclasses
import itertools
import multiprocessing
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sensewalk
from sensewalk import adjacency, evaluate
from sensewalk.attgraph import ClassTooSmall
from sensewalk.classify import HighLevelConfig
from sensewalk.evaluate import (
    PARADIGMS,
    FoldPlan,
    PipelineConfig,
    cv_sweep,
    make_fold_plan,
    make_synthetic_corpus,
    run_word_experiments,
)
from sensewalk.adjacency import WordAdjacencyNetwork, node_topology
from sensewalk.features import Dataset

LOWS = ("knn", "bayes", "c45")
GRID = (0.0, 0.3, 0.7, 1.0)
CONFIG = PipelineConfig(high=HighLevelConfig(mu_critical=3))


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` makes the library score folds in ``n`` processes."""
    def force(n):
        monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: n)
    return force


def corpus_dataset(paradigm, seed=5):
    docs, annotations = make_synthetic_corpus(n_per_sense=20, n_docs=3, seed=seed, noise=0.35)
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in docs.items()}
    [(_, dataset)] = evaluate.word_datasets(streams, annotations, paradigm)
    return dataset


def far_row_dataset():
    """Two blobs and one class-1 row that links into no class when tested."""
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(0.0, 0.6, (10, 2)), rng.normal(8.0, 0.6, (10, 2)), [[200.0, 200.0]]])
    return Dataset(range(21), X, [1] * 10 + [2] * 10 + [1], ["x", "y"])


def scored_both_ways(workers, dataset, plan):
    """``(records, reports)`` with one worker, then with two."""
    out = []
    for n in (1, 2):
        workers(n)
        out.append((evaluate._fold_records(dataset, LOWS, CONFIG, plan),
                    cv_sweep(dataset, LOWS, GRID, CONFIG, plan)))
    return out


def test_worker_count_follows_usable_cpus_and_folds(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert [evaluate._fold_workers(n) for n in (1, 2, 3, 10)] == [1, 2, 3, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert evaluate._fold_workers(10) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert evaluate._fold_workers(10) == 1


def test_folds_are_built_in_worker_processes(workers, monkeypatch, tmp_path):
    # a spy's list would stay in the worker, so each build writes its pid
    log = tmp_path / "pids"
    build = evaluate.build_training_graph

    def logged(dataset, config=None):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return build(dataset, config)

    monkeypatch.setattr(evaluate, "build_training_graph", logged)
    dataset = far_row_dataset()
    plan = make_fold_plan(dataset.labels, 5)
    for n, in_parent in ((1, True), (2, False)):
        workers(n)
        log.write_text("")
        cv_sweep(dataset, ("knn",), (0.5,), CONFIG, plan)
        pids = [int(line) for line in log.read_text().split()]
        assert len(pids) == 5
        assert {pid == os.getpid() for pid in pids} == {in_parent}
        assert len(set(pids)) <= n


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_parallel_and_serial_agree_bit_for_bit(workers, paradigm):
    dataset = corpus_dataset(paradigm)
    (serial_records, serial_reports), (records, reports) = scored_both_ways(
        workers, dataset, make_fold_plan(dataset.labels, 10, seed=2))
    assert len(records) == len(dataset)
    assert repr(records) == repr(serial_records) and records == serial_records
    assert repr(reports) == repr(serial_reports) and reports == serial_reports


def two_word_corpus():
    """Crane and bear, 24 annotated occurrences each, in separate documents."""
    streams, annotations = {}, []
    for word, seed in (("crane", 3), ("bear", 4)):
        docs, word_annots = make_synthetic_corpus(word=word, n_per_sense=12, n_docs=2,
                                                  seed=seed, noise=0.35)
        streams.update({f"{word}_{d}": doc.content_lemmas() for d, doc in docs.items()})
        annotations += [dataclasses.replace(a, document_id=f"{word}_{a.document_id}")
                        for a in word_annots]
    return streams, annotations


def two_word_run(paradigm="semantic"):
    return run_word_experiments(*two_word_corpus(), paradigm=paradigm, lambda_grid=GRID,
                                config=CONFIG, n_folds=4, seed=1)


def test_two_word_corpus_agrees_bit_for_bit(workers):
    runs = []
    for n in (1, 2):
        workers(n)
        runs.append(two_word_run())
    assert [r.word for r in runs[1]] == ["bear"] * 3 + ["crane"] * 3
    assert repr(runs[1]) == repr(runs[0]) and runs[1] == runs[0]


# the pool pickles the function it maps, so the spies on the block kernel
# are module-level functions that the forked workers find by name
_block_topology = adjacency._block_topology
PID_LOG = None  # where ``logged_block`` writes; set before the workers fork


def logged_block(adjacency_matrix, first):
    # a spy's list would stay in the worker, so each block writes its pid
    with open(PID_LOG, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
    return _block_topology(adjacency_matrix, first)


def broken_block(adjacency_matrix, first):
    raise RuntimeError(f"block at source {first} failed")


def test_a_run_scores_topology_and_every_fold_on_one_pool(workers, pools, monkeypatch,
                                                          tmp_path):
    log = tmp_path / "pids"
    monkeypatch.setattr(sys.modules[__name__], "PID_LOG", log)
    tables = []
    table = adjacency._topology_table

    def counted(*args):
        tables.append(args)
        return table(*args)

    monkeypatch.setattr(adjacency, "_block_topology", logged_block)
    monkeypatch.setattr(adjacency, "_topology_table", counted)
    workers(2)
    pooled = two_word_run("topological")
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    [(_, pool)] = tables  # one table for the run's one network, on the run's pool
    assert isinstance(pool, evaluate._RunPool)
    pids = {int(line) for line in log.read_text().split()}
    assert pids and os.getpid() not in pids
    workers(1)
    serial = two_word_run("topological")
    assert len(pools) == 1 and len(tables) == 2
    assert [r.word for r in pooled] == ["bear"] * 3 + ["crane"] * 3
    assert repr(pooled) == repr(serial) and pooled == serial


def test_no_worker_outlives_a_run_whose_topology_raises(workers, pools, monkeypatch):
    monkeypatch.setattr(adjacency, "_block_topology", broken_block)
    workers(2)
    with pytest.raises(RuntimeError, match="^block at source 0 failed$"):
        two_word_run("topological")
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_a_bare_sweep_starts_and_ends_its_own_pool(workers, pools):
    workers(2)
    dataset = far_row_dataset()
    plan = make_fold_plan(dataset.labels, 3)
    for n in (1, 2):
        cv_sweep(dataset, LOWS, GRID, CONFIG, plan)
        assert len(pools) == n
        assert multiprocessing.active_children() == []


def pieces_network(n, seed=0):
    """``n`` nodes cut into pieces of 4, 1, 9, 4, 1, ... nodes, each piece a
    path plus random chords, so blocks of sources cross components and
    isolated nodes."""
    rng = random.Random(seed)
    nodes = [f"v{i:02d}" for i in range(n)]
    weights = {}
    start = 0
    for size in itertools.cycle((4, 1, 9)):
        if start >= n:
            break
        piece = nodes[start:start + size]
        start += len(piece)
        for a, b in zip(piece, piece[1:]):
            weights[(a, b)] = 1
        for a, b in itertools.combinations(piece, 2):
            if rng.random() < 0.3:
                weights[(b, a)] = rng.randint(1, 3)
    return WordAdjacencyNetwork(weights, nodes, {})


def corpus_network():
    """The network of a noisy synthetic corpus: 240 occurrences, 16 blocks
    of sources, betweenness sums that round differently in another order."""
    docs, annotations = make_synthetic_corpus(n_per_sense=120, seed=9, noise=0.35)
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in docs.items()}
    return sensewalk.build_network(streams, annotations)


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33, "corpus"])
def test_pooled_topology_table_has_the_in_process_bits(workers, pools, n):
    # 16 sources per block: 15, 16 and 17 nodes end a block early, on its
    # edge and one past it
    network = corpus_network() if n == "corpus" else pieces_network(n)
    _, matrix = adjacency._projection(network)
    if n in (15, 16, 17, 33):  # isolated nodes beside linked pieces
        degrees = np.diff(matrix.indptr)
        assert 0 in degrees and degrees.any()
    in_process = adjacency._topology_table(matrix)
    for n_workers in (1, 2, 3):  # one worker maps in this process and starts no pool
        workers(n_workers)
        with evaluate._RunPool(10) as pool:
            assert pool.workers == n_workers
            pooled = adjacency._topology_table(matrix, pool)
        assert pooled.shape == in_process.shape == (len(network.nodes), 8)
        assert pooled.tobytes() == in_process.tobytes()
    assert len(pools) == 2
    assert multiprocessing.active_children() == []


def test_node_topology_reads_the_table_the_pool_built(workers, monkeypatch):
    net = pieces_network(33)
    workers(2)
    with evaluate._RunPool(2) as pool:
        index, table = adjacency._topology(net, pool)

    def never(*args):
        raise AssertionError("a second table was built")

    monkeypatch.setattr(adjacency, "_topology_table", never)
    assert adjacency._topology(net) == (index, table)
    for node, row in index.items():
        assert node_topology(net, node).as_vector() == table[row].tolist()


def test_plan_with_a_fallback_agrees_bit_for_bit(workers):
    dataset = far_row_dataset()
    (serial_records, serial_reports), (records, reports) = scored_both_ways(
        workers, dataset, make_fold_plan(dataset.labels, 3))
    assert [r.index for r in records if r.high is None] == [20]
    assert repr(records) == repr(serial_records) and records == serial_records
    assert repr(reports) == repr(serial_reports) and reports == serial_reports


def plan_of(*tests, n=12, untrained=()):
    """Each fold tests ``tests[k]`` and trains on every other row not in
    ``untrained``."""
    return FoldPlan(tuple((tuple(i for i in range(n) if i not in test + untrained), test)
                          for test in tests), 0)


def held_out_overflow():
    """Rows 0 and 7 hold huge values in column 1, and the folds that test
    them (folds 1 and 2) train on neither, so each trains on a column of
    tiny values and its test row's z-score leaves the feature range."""
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=12), rng.normal(size=12) * 1e-50])
    X[0, 1], X[7, 1] = 1e100, 2e100
    dataset = Dataset(range(12), X, [1, 2] * 6, ["a", "b"])
    return dataset, plan_of((0, 1), (6, 7), (2, 3), (4, 5), untrained=(0, 7))


@pytest.mark.parametrize("case", ["z-score", "class-too-small"])
def test_a_fold_error_reaches_the_caller_alike(workers, monkeypatch, case):
    if case == "z-score":
        # folds 1 and 2 both fail, fold 1 last: the first in fold order is
        # the one reported, as the one-process loop stops there
        dataset, plan = held_out_overflow()
        standardize = evaluate.standardize

        def late_for_fold_1(fold_dataset, stats=None):
            if list(fold_dataset.ids) == [0, 1]:
                time.sleep(0.5)
            return standardize(fold_dataset, stats)

        monkeypatch.setattr(evaluate, "standardize", late_for_fold_1)
        want = (ValueError, "feature 'b' in row 0 (id 0), column 1 is 1e+100")
    else:
        # the second fold keeps one training row of class 2 (rows 10, 11);
        # cv_sweep would refuse the plan first, so the fold itself raises
        dataset = Dataset(range(12), np.arange(24.0).reshape(12, 2), [1] * 10 + [2] * 2,
                          ["x", "y"])
        plan = plan_of((0, 1, 2), (3, 4, 10), (5, 6, 7))
        want = (ClassTooSmall, "class 2 has 1 instance(s); need >= 2")
    seen = []
    for n in (1, 2):
        workers(n)
        with pytest.raises(want[0]) as raised:
            evaluate._fold_records(dataset, LOWS, CONFIG, plan)
        seen.append((type(raised.value), str(raised.value)))
        assert multiprocessing.active_children() == []
    assert seen[0] == seen[1]
    assert seen[0][0] is want[0] and seen[0][1].startswith(want[1])


def test_no_worker_outlives_a_sweep(workers):
    workers(2)
    far = far_row_dataset()
    cv_sweep(far, LOWS, GRID, CONFIG, make_fold_plan(far.labels, 3))
    assert multiprocessing.active_children() == []
    dataset, plan = held_out_overflow()
    with pytest.raises(ValueError, match="leaves the range"):
        cv_sweep(dataset, ("knn",), (0.0,), CONFIG, plan)
    assert multiprocessing.active_children() == []


def _sweep_into(conn, dataset, plan):
    conn.send((evaluate._fold_workers(len(plan.folds)),
               cv_sweep(dataset, LOWS, GRID, CONFIG, plan)))
    conn.close()


def test_daemonic_caller_scores_in_its_own_process(monkeypatch):
    # with four usable CPUs a daemonic process could still not start a
    # pool ("daemonic processes are not allowed to have children")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    dataset = far_row_dataset()
    plan = make_fold_plan(dataset.labels, 4)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_sweep_into, args=(send, dataset, plan), daemon=True)
    child.start()
    send.close()
    assert receive.poll(30), "the daemonic sweep sent nothing"
    workers, reports = receive.recv()
    receive.close()
    child.join(10)
    assert not child.is_alive() and child.exitcode == 0
    assert workers == 1
    monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: 1)
    assert reports == cv_sweep(dataset, LOWS, GRID, CONFIG, plan)


BLAS_PROBE = """
import numpy as np
from sensewalk import evaluate
from sensewalk.classify import HighLevelConfig

docs, annotations = evaluate.make_synthetic_corpus(n_per_sense=20, n_docs=3, seed=5, noise=0.35)
streams = {doc_id: doc.content_lemmas() for doc_id, doc in docs.items()}
[(_, dataset)] = evaluate.word_datasets(streams, annotations, "semantic")
plan = evaluate.make_fold_plan(dataset.labels, 4, seed=2)
config = evaluate.PipelineConfig(high=HighLevelConfig(mu_critical=3))
np.ones((256, 256)) @ np.ones((256, 256))  # wake the BLAS threads before the fork
records = []
for workers in (2, 1):
    evaluate._fold_workers = lambda n_folds: workers
    records.append(evaluate._fold_records(dataset, ("knn", "bayes", "c45"), config, plan))
print(len(records[0]), repr(records[0]) == repr(records[1]) and records[0] == records[1])
"""


@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_fold_pool_forks_safely_with_blas_threads(blas_threads):
    # ``fork`` copies only the forking thread; a BLAS lock held by another
    # thread would hang a worker, so the timeout turns a deadlock into a failure
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    env = {"PYTHONPATH": src}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "40 True\n"


DEAD_WORKER_PROBE = """
import multiprocessing, os, time
from concurrent.futures.process import BrokenProcessPool
import numpy as np
from sensewalk import evaluate
from sensewalk.features import Dataset

rng = np.random.default_rng(4)
X = np.vstack([rng.normal(0.0, 0.6, (10, 2)), rng.normal(8.0, 0.6, (10, 2))])
dataset = Dataset(range(20), X, [1] * 10 + [2] * 10, ["x", "y"])
plan = evaluate.make_fold_plan(dataset.labels, 4)
score_fold = evaluate._score_fold

def dies_on_fold_2(dataset, low_levels, config, train_idx, test_idx, need_high):
    if test_idx == plan.folds[1][1]:
        os._exit(1)  # the worker ends as the OOM killer would end it
    return score_fold(dataset, low_levels, config, train_idx, test_idx, need_high)

evaluate._fold_workers = lambda n_folds: 2
evaluate._score_fold = dies_on_fold_2
started = time.monotonic()
try:
    evaluate.cv_sweep(dataset, ("knn",), (0.0, 0.5), fold_plan=plan)
except BrokenProcessPool as exc:
    print(type(exc).__name__, time.monotonic() - started < 10)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # no child left, not even one to reap
    print(multiprocessing.active_children())
"""


def test_a_dead_fold_worker_fails_the_sweep_instead_of_hanging_it():
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", DEAD_WORKER_PROBE], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "BrokenProcessPool True\n[]\n"

FAIL_FAST_PROBE = """
import multiprocessing, os, time
import numpy as np
from sensewalk import evaluate
from sensewalk.features import Dataset

rng = np.random.default_rng(4)
X = np.vstack([rng.normal(0.0, 0.6, (10, 2)), rng.normal(8.0, 0.6, (10, 2))])
dataset = Dataset(range(20), X, [1] * 10 + [2] * 10, ["x", "y"])
plan = evaluate.make_fold_plan(dataset.labels, 6)
score_fold = evaluate._score_fold

def fold_1_fails_first(dataset, low_levels, config, train_idx, test_idx, need_high):
    if test_idx == plan.folds[1][1]:
        time.sleep(0.3)
        raise ValueError("fold 1 failed")
    time.sleep(1.0)
    return score_fold(dataset, low_levels, config, train_idx, test_idx, need_high)

evaluate._fold_workers = lambda n_folds: 2
evaluate._score_fold = fold_1_fails_first
started = time.monotonic()
try:
    evaluate.cv_sweep(dataset, ("knn",), (0.0, 0.5), fold_plan=plan)
except ValueError as exc:
    print(exc, round(time.monotonic() - started, 2))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # no child left, not even one to reap
    print(multiprocessing.active_children())
"""


def test_a_fold_error_ends_the_sweep_without_waiting_for_the_queued_folds():
    # two workers take folds 0 and 1; fold 1 fails at 0.3 s, fold 0 ends at
    # 1 s, and no later fold is handed out: the four queued folds of 1 s
    # each would keep the call past 2 s
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FAIL_FAST_PROBE], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    first, *rest = done.stdout.splitlines()
    message, seconds = first.rsplit(" ", 1)
    assert (message, rest) == ("fold 1 failed", ["[]"])
    assert float(seconds) < 1.5


def test_import_loads_no_multiprocessing():
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    code = ("import sys, sensewalk\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
