"""Hybrid high-level classification with deterministic tourist walks, end to
end: text preprocessing, word-adjacency networks, attribute-space class
graphs, walk statistics, classifiers, and a cross-validated experiment
harness for word-sense disambiguation."""

from .adjacency import (
    NodeTopology,
    WordAdjacencyNetwork,
    build_network,
    node_topology,
    write_edgelist,
)
from .attgraph import (
    ClassGraph,
    ClassTooSmall,
    GraphConfig,
    InsertionView,
    build_training_graph,
    insert_test,
    write_class_graphs,
)
from .classify import (
    HighLevelConfig,
    MembershipVector,
    bayes_predict,
    bayes_train,
    c45_predict,
    c45_train,
    high_level_predict,
    hybrid_predict,
    knn_predict,
    tree_to_text,
)
from .corpus import (
    AMBIGUOUS_SENSES,
    Document,
    SenseAnnotation,
    Token,
    lemmatize,
    lemmatize_word,
    load_annotations,
    load_documents,
    load_lemma_table,
    load_stopwords,
    preprocess_document,
    preprocess_text,
    remove_stopwords,
    tokenize,
)
from .evaluate import (
    ExperimentReport,
    FoldPlan,
    PipelineConfig,
    cv_sweep,
    make_fold_plan,
    make_synthetic_corpus,
    p_value,
    run_word_experiments,
    toy_experiment,
    walk_curve_rows,
    word_datasets,
    write_report_csv,
    write_walk_curves,
)
from .features import (
    Dataset,
    Instance,
    semantic_features,
    semantic_vocabulary,
    standardize,
    topological_features,
    window_lemmas,
)
from .tourist import (
    AllViewsEmpty,
    WalkResult,
    component_stats,
    walk,
)

__version__ = "0.1.0"
