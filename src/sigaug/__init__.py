"""Balancing augmentation for signed graphs.

Pipeline: load a signed edge list, train a compact two-branch signed GNN,
derive per-sign edge propensities from the embeddings, selectively perturb the
graph under an edge-utility filter and a perturbation regulator, retrain on the
augmented graph, and evaluate link sign prediction.

`sigaug.augment` is the function: the export binds the name over its
submodule, which `importlib.import_module("sigaug.augment")` returns.
"""

from .graph import (
    EdgeSplit,
    ParseError,
    RatingRecord,
    SignedGraph,
    build_graph,
    graph_stats,
    load_edge_list,
    record_stats,
    split_edges,
)
from .balance import (
    compute_utilities,
    filter_edge,
    pair_utility,
)
from .sgnn import (
    EmbeddingPair,
    ModelParams,
    TrainConfig,
    TrainResult,
    concat,
    forward,
    init_params,
    load_embeddings,
    load_params,
    save_embeddings,
    save_params,
    synth_features,
    train,
)
from .augment import (
    AugmentationState,
    AugmentedGraph,
    EPRConfig,
    LogEntry,
    PerturbationLog,
    augment,
    epr_check,
    perturb_step,
)
from .evaluate import (
    ExperimentConfig,
    MetricReport,
    auc,
    classification_metrics,
    predict_test_edges,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"
