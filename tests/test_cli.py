import csv
import multiprocessing
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sensewalk
from sensewalk import adjacency, classify, corpus, evaluate
from sensewalk.attgraph import ClassTooSmall, GraphConfig
from sensewalk.cli import main, parse_config_file
from sensewalk.evaluate import InsufficientClassSize, make_synthetic_corpus
from sensewalk.features import Dataset, MissingNode


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Small on-disk synthetic corpus with its annotation TSV."""
    root = tmp_path_factory.mktemp("corpus")
    docs, annotations = make_synthetic_corpus(n_per_sense=12, n_docs=3, seed=11)
    for doc_id, doc in docs.items():
        (root / f"{doc_id}.txt").write_text(doc.raw_text, encoding="utf-8")
    ann_path = root / "annotations.tsv"
    lines = ["# synthetic two-sense annotations"]
    lines += [f"{a.document_id}\t{a.position}\t{a.word}\t{a.sense_id}" for a in annotations]
    ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root, ann_path


def test_preprocess(corpus_dir, tmp_path, capsys):
    root, ann = corpus_dir
    out = tmp_path / "lemmas"
    assert main(["preprocess", "--in", str(root), "--annotations", str(ann),
                 "--out", str(out)]) == 0
    files = sorted(out.glob("*.lemmas"))
    assert len(files) == 3
    text = files[0].read_text()
    assert "crane" in text.split()
    assert "annotations validated" in capsys.readouterr().out


def test_build_net_matches_bigram_oracle(corpus_dir, tmp_path):
    root, ann = corpus_dir
    out = tmp_path / "net.tsv"
    assert main(["build-net", "--in", str(root), "--annotations", str(ann),
                 "--out", str(out)]) == 0
    weights = {}
    for line in out.read_text().splitlines():
        a, b, w = line.split("\t")
        if b:
            weights[(a, b)] = int(w)
    # oracle: recount bigrams from the emitted lemma streams with
    # occurrence nodes substituted
    from sensewalk import corpus as corpus_mod
    docs = corpus_mod.load_documents(root)
    annotations = corpus_mod.load_annotations(ann, documents=docs)
    ann_by_pos = {(a.document_id, a.position): a for a in annotations}
    counter = {}
    occurrence = Counter()
    for doc_id in sorted(docs):
        seq = []
        for pos, lemma in enumerate(docs[doc_id].content_lemmas()):
            a = ann_by_pos.get((doc_id, pos))
            if a is not None:
                seq.append(f"{a.word}#{occurrence[a.word]}")
                occurrence[a.word] += 1
            else:
                seq.append(lemma)
        for x, y in zip(seq, seq[1:]):
            counter[(x, y)] = counter.get((x, y), 0) + 1
    assert weights == counter


def test_extract_semantic(corpus_dir, tmp_path):
    root, ann = corpus_dir
    out = tmp_path / "features.csv"
    assert main(["extract", "--in", str(root), "--annotations", str(ann),
                 "--paradigm", "semantic", "--window", "5", "--out", str(out)]) == 0
    ds = Dataset.from_csv(out)
    assert len(ds) == 24
    assert ds.class_counts == {1: 12, 2: 12}
    assert (ds.X >= 0).all()


def test_extract_topological(corpus_dir, tmp_path):
    root, ann = corpus_dir
    out = tmp_path / "topo.csv"
    assert main(["extract", "--in", str(root), "--annotations", str(ann),
                 "--paradigm", "topological", "--out", str(out)]) == 0
    ds = Dataset.from_csv(out)
    assert ds.dim == 8
    assert ds.feature_names[0] == "hier_degree_1"


def test_evaluate_on_features(corpus_dir, tmp_path, capsys):
    root, ann = corpus_dir
    feats = tmp_path / "features.csv"
    main(["extract", "--in", str(root), "--annotations", str(ann),
          "--paradigm", "semantic", "--out", str(feats)])
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--features", str(feats), "--low-level", "knn",
                 "--lambda", "0.0", "--folds", "4", "--seed", "1",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out
    rows = list(csv.reader(report.read_text().splitlines()))
    assert rows[0] == ["word", "paradigm", "algorithm", "lambda", "accuracy", "p_value"]
    assert len(rows) == 2

    acc = float(rows[1][4])
    assert acc >= 0.75  # tiny smoke corpus; the full-size bound lives in acceptance


def test_evaluate_on_corpus_with_hybrid(corpus_dir, tmp_path, capsys):
    root, ann = corpus_dir
    assert main(["evaluate", "--in", str(root), "--annotations", str(ann),
                 "--paradigm", "semantic", "--low-level", "bayes",
                 "--lambda", "0.3", "--mu-c", "3", "--folds", "4"]) == 0
    out = capsys.readouterr().out
    assert "crane" in out
    assert "lambda=0.30" in out


def test_evaluate_dumps(corpus_dir, tmp_path):
    root, ann = corpus_dir
    feats = tmp_path / "features.csv"
    main(["extract", "--in", str(root), "--annotations", str(ann),
          "--paradigm", "topological", "--out", str(feats)])
    model = tmp_path / "tree.txt"
    graphs = tmp_path / "graphs.tsv"
    assert main(["evaluate", "--features", str(feats), "--low-level", "c45",
                 "--lambda", "0.0", "--folds", "3",
                 "--dump-model", str(model), "--dump-graphs", str(graphs)]) == 0
    assert "leaf" in model.read_text()
    lines = graphs.read_text().strip().splitlines()
    assert all(len(line.split("\t")) == 4 for line in lines)


@pytest.fixture(scope="module")
def two_word_corpus(tmp_path_factory):
    """Crane and bear, 24 annotated occurrences each, in separate documents."""
    root = tmp_path_factory.mktemp("two_words")
    lines = []
    for word, seed in (("crane", 11), ("bear", 12)):
        docs, annotations = make_synthetic_corpus(word=word, n_per_sense=12, n_docs=3, seed=seed)
        for doc_id, doc in docs.items():
            (root / f"{word}_{doc_id}.txt").write_text(doc.raw_text, encoding="utf-8")
        lines += [f"{word}_{a.document_id}\t{a.position}\t{a.word}\t{a.sense_id}"
                  for a in annotations]
    ann_path = root / "annotations.tsv"
    ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root, ann_path


@pytest.mark.parametrize("flag", ["--dump-model", "--dump-graphs"])
def test_dump_refuses_a_corpus_of_several_words_before_the_sweep(two_word_corpus, tmp_path,
                                                                 monkeypatch, capsys, flag):
    # the senses of different words share class ids, so one dumped model
    # would mix them: the C4.5 tree used to hold all 48 occurrences
    root, ann = two_word_corpus
    args = ["evaluate", "--in", str(root), "--annotations", str(ann), "--low-level", "c45",
            "--lambda", "0.0", "--folds", "3"]
    assert main(args) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == \
        ["bear", "crane"]

    def never(*a, **kw):
        raise AssertionError("features were built or the sweep started")

    # a corpus is swept through _word_sweeps, --features through cv_sweep
    for name in ("word_datasets", "_word_sweeps", "cv_sweep"):
        monkeypatch.setattr(sensewalk.evaluate, name, never)
    dump = tmp_path / "dump.txt"
    assert main(args + [flag, str(dump)]) == 1
    err = capsys.readouterr().err
    assert "fit one word's senses; the annotations hold 2 words: bear, crane" in err
    assert not dump.exists()


def test_extract_refuses_a_corpus_of_several_words(two_word_corpus, tmp_path, monkeypatch,
                                                   capsys):
    # one CSV used to hold both words' 48 rows, their senses sharing class ids
    def never(*a, **kw):
        raise AssertionError("features were built")

    monkeypatch.setattr(sensewalk.evaluate, "word_datasets", never)
    root, ann = two_word_corpus
    out = tmp_path / "features.csv"
    assert main(["extract", "--in", str(root), "--annotations", str(ann),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("sensewalk: error: extract writes one word's senses; "
                   "the annotations hold 2 words: bear, crane\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def shuffled_corpus(tmp_path_factory, corpus_dir):
    """``corpus_dir``'s documents with its annotation rows in a shuffled order."""
    root, ann = corpus_dir
    rows = ann.read_text(encoding="utf-8").splitlines()[1:]
    np.random.default_rng(2).shuffle(rows)
    shuffled = tmp_path_factory.mktemp("shuffled") / "annotations.tsv"
    shuffled.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return root, shuffled


@pytest.mark.parametrize("low_level", ["knn", "bayes", "c45"])
def test_extracted_csv_scores_as_the_corpus(shuffled_corpus, tmp_path, capsys, low_level):
    # extract used to keep the annotation file's order while the sweep sorted
    # each word's rows by (document, position), so the folds differed
    root, ann = shuffled_corpus
    feats = tmp_path / "features.csv"
    assert main(["extract", "--in", str(root), "--annotations", str(ann),
                 "--out", str(feats)]) == 0
    capsys.readouterr()
    fields = []
    for source in (["--features", str(feats)], ["--in", str(root), "--annotations", str(ann)]):
        assert main(["evaluate", *source, "--low-level", low_level, "--lambda", "0",
                     "--folds", "4", "--seed", "0"]) == 0
        fields.append(capsys.readouterr().out.split("\t")[2:])
    assert fields[0] == fields[1]
    assert fields[0][1].startswith("accuracy=") and fields[0][2].startswith("p=")


def test_topological_dump_builds_the_network_once(corpus_dir, tmp_path, monkeypatch):
    # the dump used to extract the features a second time, network and all
    calls = []
    build = adjacency.build_network

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(adjacency, "build_network", counted)
    root, ann = corpus_dir
    model = tmp_path / "tree.txt"
    assert main(["evaluate", "--in", str(root), "--annotations", str(ann),
                 "--paradigm", "topological", "--low-level", "c45", "--lambda", "0",
                 "--folds", "3", "--dump-model", str(model)]) == 0
    assert "leaf" in model.read_text(encoding="utf-8")
    assert len(calls) == 1


def test_evaluate_montecarlo_p_on_a_corpus(corpus_dir, capsys):
    root, ann = corpus_dir
    assert main(["evaluate", "--in", str(root), "--annotations", str(ann), "--lambda", "0.0",
                 "--folds", "3", "--seed", "5", "--p-method", "montecarlo"]) == 0
    docs = corpus.load_documents(root)
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in docs.items()}
    annotations = corpus.load_annotations(ann, documents=docs)
    [(word, dataset)] = sensewalk.word_datasets(streams, annotations)
    plan = sensewalk.make_fold_plan(dataset.labels, 3, 5)
    acc = sensewalk.cv_sweep(dataset, ("knn",), (0.0,), fold_plan=plan)["knn"].accuracy_at(0.0)
    p = sensewalk.p_value(acc, len(dataset), dataset.class_counts, method="montecarlo", seed=5)
    binomial = sensewalk.p_value(acc, len(dataset), dataset.class_counts)
    assert f"{p:.3g}" != f"{binomial:.3g}"
    assert capsys.readouterr().out == \
        f"{word}\tknn\tlambda=0.00\taccuracy={acc:.4f}\tp={p:.3g}\n"


def test_dump_of_a_one_word_corpus_fits_every_occurrence(corpus_dir, tmp_path):
    root, ann = corpus_dir
    model, graphs, want = tmp_path / "tree.txt", tmp_path / "graphs.tsv", tmp_path / "want.tsv"
    assert main(["evaluate", "--in", str(root), "--annotations", str(ann), "--low-level", "c45",
                 "--lambda", "0.0", "--folds", "3", "--dump-model", str(model),
                 "--dump-graphs", str(graphs)]) == 0
    docs = corpus.load_documents(root)
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in docs.items()}
    z = sensewalk.standardize(sensewalk.semantic_features(
        streams, corpus.load_annotations(ann, documents=docs), 5))
    assert model.read_text(encoding="utf-8") == \
        classify.tree_to_text(classify.c45_train(z), z.feature_names) + "\n"
    sensewalk.write_class_graphs(sensewalk.build_training_graph(z, GraphConfig()), want)
    assert graphs.read_text(encoding="utf-8") == want.read_text(encoding="utf-8")


@pytest.mark.parametrize("labels", [(-1, 2), (-2, -3)], ids=["mixed-sign", "all-negative"])
def test_default_epsilon_spans_every_class(tmp_path, labels):
    # same-class gaps {1, 1, 2} and {1, 3, 4}: the median over both classes
    # (1.5) links each class as a path; the second class's alone (3) would
    # also link ids 0 and 2, and negative labels alone used to leave no class
    first, second = labels
    feats = tmp_path / "features.csv"
    feats.write_text("f0,label\n" + "".join(
        f"{x},{label}\n" for x, label in zip([0, 1, 2, 10, 11, 14], [first] * 3 + [second] * 3)))
    graphs = tmp_path / "graphs.tsv"
    assert main(["evaluate", "--features", str(feats), "--kappa", "1", "--folds", "3",
                 "--lambda", "0.5", "--dump-graphs", str(graphs)]) == 0
    edges = {tuple(line.split("\t")[:3]) for line in graphs.read_text().splitlines()}
    assert edges == {(str(first), "0", "1"), (str(first), "1", "2"),
                     (str(second), "3", "4"), (str(second), "4", "5")}


def test_sweep_with_config_file(corpus_dir, tmp_path, capsys):
    root, ann = corpus_dir
    feats = tmp_path / "features.csv"
    main(["extract", "--in", str(root), "--annotations", str(ann),
          "--paradigm", "semantic", "--out", str(feats)])
    config = tmp_path / "run.conf"
    config.write_text(
        "# defaults for the sweep\n"
        "lambda_grid = 0.0,0.5\n"
        "low_levels = knn\n"
        "folds = 4\n"
        "mu_c = 2\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--features", str(feats), "--config", str(config),
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 3  # header + 2 lambdas x 1 classifier
    assert {r[3] for r in rows[1:]} == {"0.00", "0.50"}
    assert "best lambda" in capsys.readouterr().out


def test_config_file_parsing_and_aliases(tmp_path):
    config = tmp_path / "c.conf"
    config.write_text("folds = 9\nlambda = 0.7\nin = corpus/\nmu-c = 4\n")
    values = parse_config_file(config)
    assert values == {"folds": "9", "lam": "0.7", "in_dir": "corpus/", "mu_c": "4"}


def test_config_lambda_reaches_evaluate(corpus_dir, tmp_path, capsys):
    root, ann = corpus_dir
    feats = tmp_path / "features.csv"
    main(["extract", "--in", str(root), "--annotations", str(ann),
          "--paradigm", "semantic", "--out", str(feats)])
    config = tmp_path / "c.conf"
    config.write_text("lambda = 0.0\nfolds = 3\nlow_level = knn\n")
    assert main(["evaluate", "--features", str(feats), "--config", str(config)]) == 0
    assert "lambda=0.00" in capsys.readouterr().out


def test_walk_curves(corpus_dir, tmp_path, capsys):
    root, ann = corpus_dir
    feats = tmp_path / "features.csv"
    main(["extract", "--in", str(root), "--annotations", str(ann),
          "--paradigm", "semantic", "--out", str(feats)])
    out = tmp_path / "curves.csv"
    assert main(["walk-curves", "--features", str(feats), "--mu-max", "6",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["class", "mu", "mean_transient", "mean_cycle", "steady_state_mu"]
    assert len(rows) == 1 + 2 * 7
    assert "steady state" in capsys.readouterr().out


def test_toy_command(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert main(["toy", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "lambda=0.0: probe -> class 2" in printed
    assert "lambda=0.8: probe -> class 1" in printed
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["lambda", "predicted_class", "structured_membership"]
    assert len(rows) == 22


def run_module(*args):
    """``python -m sensewalk.cli`` in a fresh process, which calls ``main()``."""
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "sensewalk.cli", *map(str, args)],
                          capture_output=True, text=True, env={"PYTHONPATH": src})


@pytest.fixture(scope="module")
def overlap_csv(tmp_path_factory):
    """Two overlapping blobs on which kNN with k = 1 and k = 3 disagree."""
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(0.0, 1.0, (15, 2)), rng.normal(1.0, 1.0, (15, 2))])
    path = tmp_path_factory.mktemp("overlap") / "features.csv"
    Dataset(list(range(30)), X, [1] * 15 + [2] * 15, ["x", "y"]).to_csv(path)
    return path


def test_config_typo_is_a_usage_error(overlap_csv, tmp_path):
    config = tmp_path / "c.conf"
    config.write_text("lamda = 0.9\n")
    done = run_module("evaluate", "--features", overlap_csv, "--config", config)
    assert done.returncode == 2
    assert "unknown key 'lamda'" in done.stderr and str(config) in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


@pytest.mark.parametrize("flags, message", [
    (["--knn-k", "0"], "knn_k must be >= 1, got 0"),
    (["--knn-k", "-2"], "knn_k must be >= 1, got -2"),
    (["--folds", "0"], "the fold count must be >= 2, got 0"),
    (["--folds", "1"], "the fold count must be >= 2, got 1"),
])
def test_bad_knn_k_or_fold_count_is_one_line(overlap_csv, flags, message):
    done = run_module("evaluate", "--features", overlap_csv, "--lambda", "0", *flags)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"sensewalk: error: {message}\n"


@pytest.mark.parametrize("source", ["features", "corpus"])
def test_negative_seed_is_one_line(overlap_csv, corpus_dir, capsys, source):
    # numpy used to refuse it with "expected non-negative integer"
    root, ann = corpus_dir
    data = (["--features", str(overlap_csv)] if source == "features"
            else ["--in", str(root), "--annotations", str(ann)])
    assert main(["sweep", *data, "--lambda-grid", "0", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sensewalk: error: the fold seed must be >= 0, got -1\n"


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "nan"], "epsilon must be > 0, got nan"),
    (["--fallback-factor", "nan"], "fallback_factor must be > 0, got nan"),
])
def test_nan_graph_setting_is_one_line(overlap_csv, flags, message):
    # a NaN epsilon links no test instance, so every high-level score
    # would fall back to kNN
    done = run_module("evaluate", "--features", overlap_csv, "--lambda", "1", *flags)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"sensewalk: error: {message}\n"


@pytest.mark.parametrize("window", ["0", "-3"])
def test_window_below_one_is_one_line(corpus_dir, tmp_path, capsys, window):
    root, ann = corpus_dir
    out = tmp_path / "features.csv"
    assert main(["extract", "--in", str(root), "--annotations", str(ann),
                 "--paradigm", "semantic", "--window", window, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"sensewalk: error: the semantic window must be >= 1, got {window}\n"
    assert not out.exists()


def test_negative_mu_max_is_one_line(overlap_csv, tmp_path):
    out = tmp_path / "curves.csv"
    done = run_module("walk-curves", "--features", overlap_csv, "--mu-max", "-1", "--out", out)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "sensewalk: error: mu_max must be >= 0, got -1\n"
    assert not out.exists()


def test_config_value_gets_the_flag_type(overlap_csv, tmp_path, capsys):
    config = tmp_path / "c.conf"
    config.write_text("folds = four\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--features", str(overlap_csv), "--config", str(config)])
    assert exit_info.value.code == 2
    assert "--folds: invalid int value: 'four'" in capsys.readouterr().err


def test_config_out_satisfies_walk_curves(overlap_csv, tmp_path):
    out = tmp_path / "curves.csv"
    config = tmp_path / "c.conf"
    config.write_text(f"out = {out}\nmu-max = 3\nno_standardize = yes\n")
    assert main(["walk-curves", "--features", str(overlap_csv), "--config", str(config)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 4


@pytest.mark.parametrize("value, switched", [
    ("true", True), ("On", True), ("1", True), ("yes", True),
    ("false", False), ("OFF", False), ("0", False), ("no", False),
])
def test_config_switch_value_sets_or_leaves_the_switch(tmp_path, value, switched):
    # y spans a thousand times x's range, so standardizing changes the graphs
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(20, 2)) * [1.0, 1000.0]
    feats = tmp_path / "features.csv"
    Dataset(list(range(20)), X, [1, 2] * 10, ["x", "y"]).to_csv(feats)
    args = ["walk-curves", "--features", str(feats), "--kappa", "2", "--mu-max", "3"]
    curves = {}
    for name, extra in (("unset", []), ("set", ["--no-standardize"])):
        curves[name] = tmp_path / f"{name}.csv"
        assert main(args + extra + ["--out", str(curves[name])]) == 0
    assert curves["unset"].read_bytes() != curves["set"].read_bytes()
    config, got = tmp_path / "c.conf", tmp_path / "got.csv"
    config.write_text(f"no_standardize = {value}\n")
    assert main(args + ["--config", str(config), "--out", str(got)]) == 0
    assert got.read_bytes() == curves["set" if switched else "unset"].read_bytes()


def test_misspelled_config_switch_value_is_a_usage_error(overlap_csv, tmp_path):
    # "ture" used to be read as off: the run exited 0 and standardized
    config, out = tmp_path / "c.conf", tmp_path / "curves.csv"
    config.write_text("no_standardize = ture\n")
    done = run_module("walk-curves", "--features", overlap_csv, "--config", config, "--out", out)
    assert done.returncode == 2 and done.stdout == ""
    assert "switch 'no_standardize'" in done.stderr and "'ture'" in done.stderr
    assert str(config) in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_flag_beats_config_beats_default(overlap_csv, tmp_path, capsys):
    config = tmp_path / "c.conf"
    config.write_text("lambda = 0.0\nfolds = 3\n")
    base = ["evaluate", "--features", str(overlap_csv), "--folds", "3", "--mu-c", "2"]
    assert main(base) == 0
    assert "lambda=0.50" in capsys.readouterr().out
    assert main(base + ["--config", str(config)]) == 0
    assert "lambda=0.00" in capsys.readouterr().out
    assert main(base + ["--config", str(config), "--lambda", "0.3"]) == 0
    assert "lambda=0.30" in capsys.readouterr().out


def test_config_knn_k_reaches_the_classifier(overlap_csv, tmp_path, capsys):
    config = tmp_path / "c.conf"
    config.write_text("knn_k = 3\n")
    base = ["evaluate", "--features", str(overlap_csv), "--lambda", "0", "--folds", "5"]
    accuracies = []
    for extra in ([], ["--config", str(config)], ["--knn-k", "3"]):
        assert main(base + extra) == 0
        accuracies.append(capsys.readouterr().out.split("accuracy=")[1].split()[0])
    assert accuracies[1] == accuracies[2] != accuracies[0]


@pytest.mark.parametrize("args, message", [
    (["--lambda", "2"], "lambda must lie in [0, 1]"),
])
def test_bad_evaluate_request_is_one_line(corpus_dir, monkeypatch, capsys, args, message):
    def never(*a, **k):
        raise AssertionError("work started")

    for name in ("word_datasets", "_word_sweeps", "cv_sweep"):
        monkeypatch.setattr(sensewalk.evaluate, name, never)
    root, ann = corpus_dir
    assert main(["evaluate", "--in", str(root), "--annotations", str(ann)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("sensewalk: error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (["--lambda-grid", "0,2"], "lambda must lie in [0, 1], got 2.0"),
    (["--low-levels", "knn,svm"], "low_level must be one of ('knn', 'bayes', 'c45'), got 'svm'"),
    # a repeated name or lambda used to print its rows twice
    (["--low-levels", "knn,knn", "--lambda-grid", "0,0"],
     "low-level classifier 'knn' is given twice; give each once"),
    (["--lambda-grid", "0,0.5,0"], "lambda 0.0 is given twice; give each once"),
])
def test_bad_sweep_request_is_refused_before_the_corpus_is_read(corpus_dir, monkeypatch, capsys,
                                                                args, message):
    # sweep used to read and preprocess every document first
    def never(*a, **k):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(corpus, "load_documents", never)
    root, ann = corpus_dir
    assert main(["sweep", "--in", str(root), "--annotations", str(ann)] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"sensewalk: error: {message}\n"


def test_missing_features_file_is_one_line(tmp_path):
    done = run_module("sweep", "--features", tmp_path / "absent.csv")
    assert done.returncode == 1
    assert done.stderr.startswith("sensewalk: error: ") and done.stderr.count("\n") == 1
    assert "absent.csv" in done.stderr


def test_overflowing_features_file_is_one_line(tmp_path):
    # standardizing columns of about 1e160 overflowed; the run then scored
    # every row as 0 and printed accuracy=0.5000 instead of refusing it
    # (no dataset holds such values now, so the file is written as text)
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(0.0, 1.0, (20, 2)), rng.normal(3.0, 1.0, (20, 2))]) * 1e160
    path = tmp_path / "huge.csv"
    path.write_text("x,y,label\n" + "".join(f"{a!r},{b!r},{1 + i // 20}\n"
                                            for i, (a, b) in enumerate(X.tolist())))
    done = run_module("evaluate", "--features", path, "--lambda", "0", "--low-level", "knn")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("sensewalk: error: feature 'x' in row 0 ")


@pytest.mark.parametrize("low_level", ["knn", "bayes"])
def test_z_score_outside_the_range_is_one_line(tmp_path, low_level):
    # every value is at most 1e10, but column x is 0 in training save two
    # rows at 1e-150, so row 30's held-out z-score is about 1e160: Bayes
    # used to score NaN memberships and kNN tie every distance at inf,
    # both exiting 0 with an accuracy
    lines = ["x,y,label"]
    for i in range(40):
        x = 1e-150 if i in (1, 25) else 1e10 if i == 30 else 0.0
        lines.append(f"{x!r},{float(i % 7)!r},{1 + i % 2}")
    path = tmp_path / "tiny-spread.csv"
    path.write_text("\n".join(lines) + "\n")
    done = run_module("evaluate", "--features", path, "--lambda", "0", "--low-level", low_level)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("sensewalk: error: feature 'x' in row ")
    assert "(id 30)" in done.stderr
    # the message gives the value the file holds, then the z-score that left the range
    assert f"column 0 is {1e10!r}, whose z-score 6.09e+160 leaves the range" in done.stderr


@pytest.mark.parametrize("error, args, builtin", [
    (ClassTooSmall, ("too small",), ValueError),
    (InsufficientClassSize, ("too few",), ValueError),
    (MissingNode, ("no node",), ValueError),
    (corpus.ParseError, ("bad row", 3), ValueError),
    (corpus.PositionMismatch, ("no lemma",), ValueError),
    (corpus.MissingStopwordList, ("stop.txt",), OSError),
    (corpus.MissingLemmaDictionary, ("lemmas.txt",), OSError),
])
def test_domain_input_errors_are_their_builtin_errors(monkeypatch, capsys, error, args, builtin):
    # the CLI reports any ValueError or OSError as one line, and these with it
    try:
        raise error(*args)
    except builtin as exc:
        message = str(exc)

    def fail(**kwargs):
        raise error(*args)

    monkeypatch.setattr(sensewalk.evaluate, "toy_experiment", fail)
    assert main(["toy"]) == 1
    assert capsys.readouterr().err == f"sensewalk: error: {message}\n"


def test_module_entry_runs_toy():
    done = run_module("toy")
    assert done.returncode == 0
    assert "lambda=0.8: probe -> class 1" in done.stdout


def test_topological_sweep_builds_the_network_once(corpus_dir, monkeypatch, capsys):
    calls = []
    build = adjacency.build_network

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(adjacency, "build_network", counted)
    root, ann = corpus_dir
    assert main(["sweep", "--in", str(root), "--annotations", str(ann),
                 "--paradigm", "topological", "--low-levels", "knn",
                 "--lambda-grid", "0", "--folds", "3"]) == 0
    assert "best lambda" in capsys.readouterr().out
    assert len(calls) == 1


def test_corpus_sweep_shares_one_pool_across_words(two_word_corpus, tmp_path, monkeypatch,
                                                   pools):
    root, ann = two_word_corpus
    outputs = []
    for workers in (2, 1):
        monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: workers)
        out = tmp_path / f"sweep{workers}.csv"
        assert main(["sweep", "--in", str(root), "--annotations", str(ann),
                     "--paradigm", "topological", "--lambda-grid", "0,0.5", "--mu-c", "3",
                     "--folds", "4", "--out", str(out)]) == 0
        assert len(pools) == 1  # one pool for the network's blocks and both words' folds
        assert multiprocessing.active_children() == []
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert {row["word"] for row in csv.DictReader(outputs[0].decode().splitlines())} == {
        "bear", "crane"}


def test_features_sweep_starts_at_most_one_pool(overlap_csv, tmp_path, monkeypatch, pools):
    outputs = []
    for workers in (2, 1):
        monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: workers)
        out = tmp_path / f"sweep{workers}.csv"
        assert main(["sweep", "--features", str(overlap_csv), "--lambda-grid", "0,0.5",
                     "--mu-c", "3", "--folds", "4", "--out", str(out)]) == 0
        assert len(pools) == 1  # the one sweep's pool; none at one worker
        assert multiprocessing.active_children() == []
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + 3 * 2


def test_word_experiments_start_at_most_one_pool(two_word_corpus, monkeypatch, pools):
    root, ann = two_word_corpus
    documents = corpus.load_documents(root, corpus.load_stopwords(), corpus.load_lemma_table())
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in documents.items()}
    annotations = corpus.load_annotations(ann)
    runs = []
    for workers in (2, 1):
        monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: workers)
        runs.append(evaluate.run_word_experiments(
            streams, annotations, lambda_grid=(0.0, 0.5),
            config=evaluate.PipelineConfig(high=sensewalk.HighLevelConfig(mu_critical=3)),
            n_folds=4))
        assert len(pools) == 1  # one pool for both words' folds; none at one worker
        assert multiprocessing.active_children() == []
    assert [r.word for r in runs[0]] == ["bear"] * 3 + ["crane"] * 3
    assert repr(runs[0]) == repr(runs[1]) and runs[0] == runs[1]


def test_corpus_sweep_builds_each_documents_lemmas_once(corpus_dir, monkeypatch, capsys):
    calls = []
    lemmas = corpus.Document.content_lemmas

    def counted(self):
        calls.append(self.id)
        return lemmas(self)

    monkeypatch.setattr(corpus.Document, "content_lemmas", counted)
    root, ann = corpus_dir
    assert main(["sweep", "--in", str(root), "--annotations", str(ann), "--low-levels", "knn",
                 "--lambda-grid", "0", "--folds", "3"]) == 0
    assert "best lambda" in capsys.readouterr().out
    assert sorted(calls) == ["doc0", "doc1", "doc2"]


@pytest.mark.parametrize("command", ["preprocess", "build-net"])
def test_mismatched_annotation_is_refused_before_any_output(corpus_dir, tmp_path, capsys,
                                                            command):
    root, ann = corpus_dir
    first = ann.read_text(encoding="utf-8").splitlines()[1]
    doc_id, position, _, sense = first.split("\t")
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"{doc_id}\t{position}\theron\t{sense}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--in", str(root), "--annotations", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"sensewalk: error: lemma 'crane' at {doc_id}:{position} "
                                       "does not match annotated word 'heron'\n")
    assert not out.exists()


def test_semantic_sweep_is_identical_across_hash_seeds(corpus_dir, tmp_path):
    # string hashing changes set order from one process to the next
    root, ann = corpus_dir
    src = str(Path(sensewalk.__file__).resolve().parents[1])
    report = tmp_path / "report.csv"
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "sensewalk.cli", "sweep", "--paradigm", "semantic",
             "--in", str(root), "--annotations", str(ann), "--out", str(report)],
            capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, report.read_bytes()))
    assert outputs[0][0].count("\n") == 4
    assert outputs[0] == outputs[1]


def test_two_row_class_is_one_line_naming_the_fold(tmp_path):
    path = tmp_path / "two.csv"
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0.0, 1.0, (10, 2)), rng.normal(4.0, 1.0, (2, 2))])
    Dataset(list(range(12)), X, [1] * 10 + [2] * 2, ["x", "y"]).to_csv(path)
    done = run_module("sweep", "--features", path)
    assert done.returncode == 1 and done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if line.startswith("sensewalk: error: ")]
    assert len(errors) == 1 and "Traceback" not in done.stderr
    assert "class 2 keeps 1 training instance(s) in fold 1 of 2" in errors[0]


def test_duplicate_heavy_features_ask_for_epsilon(tmp_path):
    path = tmp_path / "dup.csv"
    X = np.array([[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 6)
    Dataset(list(range(12)), X, [1] * 6 + [2] * 6, ["x", "y"]).to_csv(path)
    done = run_module("evaluate", "--features", path)
    assert done.returncode == 1 and done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if line.startswith("sensewalk: error: ")]
    assert len(errors) == 1 and "Traceback" not in done.stderr
    assert "duplicate points" in errors[0] and "--epsilon" in errors[0]
    assert run_module("evaluate", "--features", path, "--epsilon", "0.5").returncode == 0


def test_evaluate_montecarlo_p_on_features(overlap_csv, tmp_path, capsys):
    # the report CSV used to carry the binomial p-value beside the printed Monte Carlo one
    report = tmp_path / "mc.csv"
    assert main(["evaluate", "--features", str(overlap_csv), "--lambda", "0.0", "--folds", "3",
                 "--seed", "5", "--p-method", "montecarlo", "--report", str(report)]) == 0
    dataset = Dataset.from_csv(overlap_csv)
    plan = sensewalk.make_fold_plan(dataset.labels, 3, 5)
    acc = sensewalk.cv_sweep(dataset, ("knn",), (0.0,), fold_plan=plan)["knn"].accuracy_at(0.0)
    p = sensewalk.p_value(acc, len(dataset), dataset.class_counts, method="montecarlo", seed=5)
    assert f"accuracy={acc:.4f}\tp={p:.3g}\nreport -> {report}\n" in capsys.readouterr().out
    [row] = csv.DictReader(report.read_text(encoding="utf-8").splitlines())
    assert float(row["accuracy"]) == acc and float(row["p_value"]) == p


@pytest.mark.parametrize("low_level", ["bayes", "knn"])
def test_evaluate_dumps_bayes_and_knn_models(overlap_csv, tmp_path, capsys, low_level):
    model = tmp_path / "model.txt"
    assert main(["evaluate", "--features", str(overlap_csv), "--low-level", low_level,
                 "--lambda", "0.0", "--folds", "3", "--dump-model", str(model)]) == 0
    if low_level == "bayes":
        z = sensewalk.standardize(Dataset.from_csv(overlap_csv))
        want = classify.bayes_bandwidths_csv(sensewalk.bayes_train(z))
    else:
        want = "k-nearest neighbors keeps no fitted parameters beyond the training set\n"
    assert model.read_text(encoding="utf-8") == want
    assert f"model dump -> {model}" in capsys.readouterr().out


def test_walk_curves_dump_graphs(overlap_csv, tmp_path, capsys):
    graphs, want = tmp_path / "graphs.tsv", tmp_path / "want.tsv"
    assert main(["walk-curves", "--features", str(overlap_csv), "--kappa", "2", "--mu-max", "3",
                 "--out", str(tmp_path / "curves.csv"), "--dump-graphs", str(graphs)]) == 0
    z = sensewalk.standardize(Dataset.from_csv(overlap_csv))
    sensewalk.write_class_graphs(sensewalk.build_training_graph(z, GraphConfig(kappa=2)), want)
    assert graphs.read_text(encoding="utf-8") == want.read_text(encoding="utf-8")
    assert f"class graphs -> {graphs}" in capsys.readouterr().out
