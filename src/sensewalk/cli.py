"""Command-line front end.

Subcommands mirror the pipeline stages: ``preprocess``, ``build-net``,
``extract``, ``evaluate``, ``sweep``, ``walk-curves`` and ``toy``. Every
option can also be supplied through ``--config FILE`` holding ``key = value``
lines, keyed by flag name without the dashes (``mu-c`` or ``mu_c``;
``lambda``/``lam``, ``in``/``in_dir``). The lines are read as the
subcommand's own flags placed before the command line's: they get the same
type, choice and required checks, explicit flags win over the file and the
file wins over the defaults. A key that names no option of the subcommand
is an error; a switch is set by ``1``, ``true``, ``yes`` or ``on``, left
unset by ``0``, ``false``, ``no`` or ``off``, and any other value is an error.

Exit status: 0 on success; 2 on a usage error (unknown flag or config key,
ill-typed or missing value); 1 on bad input, reported as one
``sensewalk: error: ...`` line on standard error.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import adjacency, corpus, evaluate as ev
from .attgraph import GraphConfig, build_training_graph, write_class_graphs
from .classify import (
    LOW_LEVEL_NAMES, HighLevelConfig, bayes_bandwidths_csv, bayes_train, c45_train, tree_to_text,
)
from .features import Dataset, standardize

# failures caused by the input, reported as one line instead of a traceback;
# every domain input error subclasses one of them
_INPUT_ERRORS = (ValueError, OSError)

# config keys follow the flag names; two flags have differing argparse dests
_CONFIG_ALIASES = {"lambda": "lam", "in": "in_dir"}


def parse_config_file(path):
    """``{dest: text}`` for the file's ``key = value`` lines."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        values[_CONFIG_ALIASES.get(key, key)] = value.strip()
    return values


def _config_tokens(command, path):
    """The config file's lines as option tokens of the ``command`` parser."""
    options = {action.dest: action for action in command._actions
               if action.option_strings and action.dest not in ("help", "config")}
    tokens = []
    for key, value in parse_config_file(path).items():
        action = options.get(key)
        if action is None:
            command.error(f"unknown key {key!r} in config file {path}")
        if action.nargs != 0:
            tokens.append(f"{action.option_strings[0]}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(action.option_strings[0])
        elif value.lower() not in ("0", "false", "no", "off"):
            command.error(f"switch {key!r} in config file {path} is {value!r}; "
                          "give 1, true, yes or on to set it, 0, false, no or off not to")
    return tokens


def _with_config(parser, argv):
    """``argv`` with the ``--config`` file's tokens right after the command."""
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    commands = next(a for a in parser._actions if a.dest == "command").choices
    at = next((k for k, token in enumerate(argv) if token in commands), None)
    if not path or at is None:
        return argv
    return argv[: at + 1] + _config_tokens(commands[argv[at]], path) + argv[at + 1:]


def _names(text):
    return tuple(name.strip() for name in text.split(","))


def _floats(text):
    return tuple(float(value) for value in text.split(","))


def _load_corpus(args, annotated=False, one_word=None):
    """Documents, lemma streams and annotations; ``one_word`` (what needs one
    word's senses) refuses annotations of several words."""
    if not args.in_dir:
        raise ValueError("--in directory is required")
    stopwords = corpus.load_stopwords(args.stopwords)
    lemma_table = corpus.load_lemma_table(args.lemmas)
    documents = corpus.load_documents(args.in_dir, stopwords, lemma_table)
    if not documents:
        raise ValueError(f"no .txt documents found in {args.in_dir}")
    streams = {doc_id: doc.content_lemmas() for doc_id, doc in documents.items()}
    annotations = []
    if args.annotations:
        annotations = corpus.load_annotations(args.annotations)
        corpus.validate_annotations(annotations, streams)
    if annotated and not annotations:
        raise ValueError("--annotations is required to extract features")
    words = sorted({a.word for a in annotations})
    if one_word and len(words) > 1:  # sense ids of different words would share classes
        raise ValueError(f"{one_word} one word's senses; the annotations hold "
                         f"{len(words)} words: {', '.join(words)}")
    return documents, streams, annotations


def _graph_config(args):
    return GraphConfig(epsilon=args.epsilon, kappa=args.kappa,
                       fallback_factor=args.fallback_factor)


def _pipeline_config(args):
    return ev.PipelineConfig(
        graph=_graph_config(args),
        high=HighLevelConfig(alpha_t=args.alpha_t, mu_critical=args.mu_c),
        knn_k=args.knn_k,
    )


def _reports(args, low_levels, grid, config, one_word=None):
    """``(reports, dataset)`` per word of ``--features`` or of a corpus: the
    word's cross-validated reports and the dataset they scored. A corpus
    runs as ``run_word_experiments`` does, through ``evaluate._word_sweeps``."""
    ev._check_choices(low_levels, grid)
    if not args.features:
        _, streams, annotations = _load_corpus(args, annotated=True, one_word=one_word)
        return ev._word_sweeps(streams, annotations, args.paradigm, args.window, low_levels,
                               grid, config, args.folds, args.seed)
    dataset = Dataset.from_csv(args.features)
    plan = ev.make_fold_plan(dataset.labels, args.folds, args.seed)
    swept = ev.cv_sweep(dataset, low_levels, grid, config, plan, "dataset", "features")
    return [([swept[name] for name in low_levels], dataset)]


def cmd_preprocess(args):
    documents, streams, annotations = _load_corpus(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for doc_id, lemmas in streams.items():
        (out_dir / f"{doc_id}.lemmas").write_text(" ".join(lemmas) + "\n", encoding="utf-8")
    total = sum(len(s) for s in streams.values())
    print(f"{len(documents)} document(s), {total} content lemmas -> {out_dir}")
    if annotations:
        print(f"{len(annotations)} annotations validated")
    return 0


def cmd_build_net(args):
    documents, streams, annotations = _load_corpus(args)
    network = adjacency.build_network(streams, annotations)
    adjacency.write_edgelist(network, args.out)
    print(f"{len(network.nodes)} nodes, {len(network.weights)} edges, "
          f"total weight {network.total_weight()} -> {args.out}")
    return 0


def cmd_extract(args):
    _, streams, annotations = _load_corpus(args, annotated=True, one_word="extract writes")
    [(_, dataset)] = ev.word_datasets(streams, annotations, args.paradigm, args.window)
    dataset.to_csv(args.out)
    print(f"{len(dataset)} instances x {dataset.dim} features -> {args.out}")
    return 0


def cmd_evaluate(args):
    config = _pipeline_config(args)
    dump = args.dump_model or args.dump_graphs
    scored = _reports(args, (args.low_level,), (args.lam,), config,
                      one_word="--dump-model and --dump-graphs fit" if dump else None)
    reports = []
    for (report,), dataset in scored:
        row_lam, acc, p = report.rows[0]
        if args.p_method == "montecarlo":
            p = ev.p_value(acc, len(dataset), dataset.class_counts,
                           method="montecarlo", seed=args.seed)
            report = dataclasses.replace(report, rows=((row_lam, acc, p),))
        reports.append(report)
        print(f"{report.word}\t{report.low_level}\tlambda={row_lam:.2f}\t"
              f"accuracy={acc:.4f}\tp={p:.3g}")
    if args.report:
        ev.write_report_csv(reports, args.report)
        print(f"report -> {args.report}")
    if dump:  # the loop's one dataset: several words were refused
        _dump_models(args, dataset, config)
    return 0


def _dump_models(args, dataset, config):
    z = standardize(dataset)
    if args.dump_model:
        if args.low_level == "c45":
            text = tree_to_text(c45_train(z), z.feature_names)
        elif args.low_level == "bayes":
            text = bayes_bandwidths_csv(bayes_train(z))
        else:
            text = "k-nearest neighbors keeps no fitted parameters beyond the training set\n"
        Path(args.dump_model).write_text(text if text.endswith("\n") else text + "\n", "utf-8")
        print(f"model dump -> {args.dump_model}")
    if args.dump_graphs:
        graphs = build_training_graph(z, config.graph)
        write_class_graphs(graphs, args.dump_graphs)
        print(f"class graphs -> {args.dump_graphs}")


def cmd_sweep(args):
    scored = _reports(args, args.low_levels, args.lambda_grid, _pipeline_config(args))
    reports = [report for word_reports, _ in scored for report in word_reports]
    for report in reports:
        print(f"{report.word}\t{report.paradigm}\t{report.low_level}\t"
              f"best lambda={report.best_lambda:.2f}\t"
              f"accuracy={report.best_accuracy:.4f}")
    if args.out:
        ev.write_report_csv(reports, args.out)
        print(f"report -> {args.out}")
    return 0


def cmd_walk_curves(args):
    dataset = Dataset.from_csv(args.features)
    z = dataset if args.no_standardize else standardize(dataset)
    graphs = build_training_graph(z, _graph_config(args))
    rows = ev.walk_curve_rows(graphs, args.mu_max)
    ev.write_walk_curves(rows, args.out)
    onsets = {class_id: steady for class_id, _, _, _, steady in rows}
    for class_id, steady in sorted(onsets.items()):
        print(f"class {class_id}: steady state from mu={steady}")
    print(f"curves -> {args.out}")
    if args.dump_graphs:
        write_class_graphs(graphs, args.dump_graphs)
        print(f"class graphs -> {args.dump_graphs}")
    return 0


def cmd_toy(args):
    report = ev.toy_experiment(mu_critical=args.mu_c)
    names = {report.structured_class: "structured", report.unstructured_class: "unstructured"}
    for lam in (0.0, 0.5, 0.8):
        label = report.predictions_at[lam]
        print(f"lambda={lam:.1f}: probe -> class {label} ({names[label]})")
    if report.flip_lambda is None:
        print("prediction never flips to the structured class")
    else:
        print(f"first structured prediction at lambda={report.flip_lambda:.2f} "
              f"(monotone after: {report.monotone_after_flip})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("lambda,predicted_class,structured_membership\n")
            for lam, label, members in report.rows:
                fh.write(f"{lam:.2f},{label},{members!r}\n")
        print(f"rows -> {args.out}")
    return 0


def _flags(*parents):
    return argparse.ArgumentParser(add_help=False, parents=parents)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sensewalk",
        description="word-sense disambiguation with tourist-walk hybrid classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _flags()
    common.add_argument("--config", help="key = value file supplying defaults")
    corpus_in = _flags(common)
    corpus_in.add_argument("--in", dest="in_dir", help="directory of .txt documents")
    corpus_in.add_argument("--annotations", help="TSV of document, position, word, sense")
    corpus_in.add_argument("--stopwords", help="override the bundled stopword list")
    corpus_in.add_argument("--lemmas", help="override the bundled lemma table")
    features = _flags(corpus_in)
    features.add_argument("--paradigm", choices=ev.PARADIGMS, default="semantic")
    features.add_argument("--window", type=int, default=5,
                          help="context size for semantic features (5, 20 or 50)")
    graph = _flags()
    graph.add_argument("--epsilon", type=float,
                       help="link radius (default: median same-class distance)")
    graph.add_argument("--kappa", type=int, default=GraphConfig.kappa,
                       help="nearest-neighbor count (default %(default)s)")
    graph.add_argument("--fallback-factor", type=float, default=GraphConfig.fallback_factor,
                       help="test-insertion reach in units of epsilon (default %(default)s)")
    memory = _flags()
    memory.add_argument("--mu-c", type=int, default=HighLevelConfig.mu_critical,
                        help="maximum walk memory length")
    cv = _flags(features, graph, memory)
    cv.add_argument("--features", help="feature CSV instead of a corpus")
    cv.add_argument("--alpha-t", type=float, default=HighLevelConfig.alpha_t,
                    help="transient weight; cycle weight is its complement")
    cv.add_argument("--knn-k", type=int, default=ev.PipelineConfig.knn_k,
                    help="neighbors the kNN classifier votes with")
    cv.add_argument("--folds", type=int, default=10)
    cv.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("preprocess", parents=[corpus_in], help="tokenize, filter and lemmatize")
    p.add_argument("--out", required=True, help="output directory for .lemmas files")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-net", parents=[corpus_in], help="build the word-adjacency network")
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=cmd_build_net)

    p = sub.add_parser("extract", parents=[features], help="feature vectors for annotations")
    p.add_argument("--out", required=True, help="feature CSV output path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", parents=[cv], help="cross-validated accuracy at one lambda")
    p.add_argument("--low-level", choices=LOW_LEVEL_NAMES, default="knn")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="compliance term in [0, 1]")
    p.add_argument("--p-method", choices=("binomial", "montecarlo"), default="binomial",
                   help="binomial tail, or a simulated tail with each class's count fixed")
    p.add_argument("--report", help="write the result rows as CSV")
    p.add_argument("--dump-model", help="write model introspection text")
    p.add_argument("--dump-graphs", help="write per-class edge lists")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[cv], help="accuracy across the whole lambda grid")
    p.add_argument("--low-levels", type=_names, default=",".join(LOW_LEVEL_NAMES),
                   help="comma-separated subset of knn,bayes,c45")
    p.add_argument("--lambda-grid", type=_floats, default=ev.LAMBDA_GRID,
                   help="comma-separated lambda values (default 0.00..1.00 step 0.05)")
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("walk-curves", parents=[common, graph],
                       help="per-class walk statistics against memory length")
    p.add_argument("--features", required=True, help="labeled feature CSV")
    p.add_argument("--mu-max", type=int, default=10, help="largest memory length (default 10)")
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out", required=True, help="curves CSV path")
    p.add_argument("--dump-graphs")
    p.set_defaults(func=cmd_walk_curves)

    p = sub.add_parser("toy", parents=[common, memory], help="built-in structured-vs-scatter run")
    p.add_argument("--out", help="per-lambda CSV path")
    p.set_defaults(func=cmd_toy)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
