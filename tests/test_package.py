import importlib
import inspect

import sigaug

# what `import sigaug` offers: the names the program runs, not its submodules
PUBLIC_NAMES = [
    "AugmentationState", "AugmentedGraph", "EPRConfig", "EdgeSplit", "EmbeddingPair",
    "ExperimentConfig", "LogEntry", "MetricReport", "ModelParams", "ParseError",
    "PerturbationLog", "RatingRecord", "SignedGraph", "TrainConfig", "TrainResult", "auc",
    "augment", "build_graph", "classification_metrics", "compute_utilities", "concat",
    "epr_check", "filter_edge", "forward", "graph_stats", "init_params", "load_edge_list",
    "load_embeddings", "load_params", "pair_utility", "perturb_step", "predict_test_edges",
    "record_stats", "run_experiment", "save_embeddings", "save_params", "split_edges",
    "sweep", "synth_features", "train",
]


def test_public_surface_is_pinned():
    names = sorted(name for name, value in vars(sigaug).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES
    # the dense oracle, which the program never runs, is read from its module
    # by the tests and the traced benchmark
    module = importlib.import_module("sigaug.augment")
    for name in ("ProbabilityMatrices", "edge_probabilities", "fuse"):
        assert not hasattr(sigaug, name)
        assert callable(getattr(module, name))
