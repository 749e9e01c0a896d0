"""One benchmark pass in a fresh interpreter.

Usage: python3 benchmark/worker.py --workload NAME --seed N --dataset FILE [--trace]

Set-up is timed from the first statement of this file: `import sigaug` plus
loading and building the workload's graph with the program's own parser. A
pass then runs the workload's library entry point once. With --trace, the
public functions of each module are wrapped where their callers look them up
and every call is recorded as a span. The result is printed as one JSON object
on the last line of standard output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload exists is in benchmark/README.md.
WORKLOADS = {
    "congress-sweep": {
        "dataset": "data/congress_synthetic.txt", "nodes": 219, "edges": 520, "neg": 107,
        "augmentation": "sigaug", "runs": 1, "epochs": 25,
        "grid": {"mu": [0.5, 0.7], "theta": [1.0 / 9.0, 4.0], "delta": [0.6]},
    },
    "synth1k-gate": {
        "dataset": None, "nodes": 1000, "edges": 4000, "neg": 800,
        "augmentation": "sigaug", "runs": 1, "epochs": 5,
        "mu": 0.7, "theta": 1.0 / 9.0, "delta": 0.12, "eta": 4,
    },
}


def cell_runs(spec) -> int:
    cells = 1
    for axis in spec.get("grid", {}).values():
        cells *= len(axis)
    return cells * spec["runs"]


def import_program():
    """Import sigaug from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import sigaug
    if SRC.resolve() not in pathlib.Path(sigaug.__file__).resolve().parents:
        raise SystemExit(f"sigaug imported from {sigaug.__file__}, not from {SRC}")
    return sigaug


def install_tracing(rec) -> None:
    """Wrap the module-level names that evaluate and augment call."""
    ev = importlib.import_module("sigaug.evaluate")
    au = importlib.import_module("sigaug.augment")

    def train_counts(args, kwargs, result):
        init = kwargs.get("init", args[4] if len(args) > 4 else None)
        return {"epochs": len(result.loss_trace), "base": int(init is None)}

    def augment_counts(args, kwargs, result):
        gated = [e.euf_verdict for e in result.log.entries if e.euf_verdict != au.NOT_GATED]
        return {"log_entries": len(result.log.entries), "kept": result.log.total_kept,
                "thresholds_unmet": int(result.thresholds_unmet), "gated": len(gated),
                "keep": gated.count(au.KEEP), "discard": gated.count(au.DISCARD)}

    for module, name, span, counts in (
        (ev, "split_edges", "graph.split_edges", None),
        (ev, "train", "sgnn.train", train_counts),
        (ev, "augment", "augment.augment", augment_counts),
        (ev, "predict_test_edges", "evaluate.predict_test_edges", None),
        (ev, "auc", "evaluate.auc", None),
        (ev, "classification_metrics", "evaluate.classification_metrics", None),
        (au, "edge_probabilities", "augment.edge_probabilities",
         lambda a, k, r: {"computed_mb": (r.mpos.nbytes + r.mneg.nbytes) / 2**20}),
        (au, "perturb_step", "augment.perturb_step", None),
        (au, "pair_utility", "balance.pair_utility",
         lambda a, k, r: {"undefined": int(r is None)}),
        (au, "fuse", "augment.fuse", None),
    ):
        setattr(module, name, rec.wrap(span, getattr(module, name), counts))


def reference_s() -> float:
    """Seconds a fixed kernel takes in this process: the host's speed right now.

    The kernel is no part of the program, so a change to the program leaves it
    alone, while a slower or busier host slows it as it slows a pass. It mixes
    what a pass spends its time on: masked argmax scans over a dense matrix,
    a small matrix product, and Python set and dict work. Its arrays are small
    enough to stay below the pass's own peak RSS.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mat = rng.random((600, 600))
    mask = mat > 0.5
    emb = rng.random((600, 32))
    t0 = time.perf_counter()
    for _ in range(18):
        np.where(mask, mat, -np.inf).argmax()
        np.where(mask, mat, np.inf).argmin()
        emb.T @ mat
    adj = [set() for _ in range(600)]
    seen = {}
    for i in range(90000):
        u, v = (i * 7919) % 600, (i * 104729) % 600
        adj[u].add(v)
        seen[(u, v)] = seen.get((u, v), 0) + len(adj[v] & adj[u])
    return time.perf_counter() - t0


def run_pass(sg, spec, dataset: str, seed: int, graph) -> list[str]:
    """The workload's entry point once; its outputs as text lines."""
    cfg = sg.ExperimentConfig(
        dataset=dataset, augmentation=spec["augmentation"], runs=spec["runs"],
        base_seed=seed, train=sg.TrainConfig(epochs=spec["epochs"]),
        **{k: spec[k] for k in ("mu", "theta", "delta", "eta") if k in spec})
    if "grid" in spec:
        rows = sg.sweep(cfg, spec["grid"])
        return [",".join(repr(x) for x in row) for row in rows]
    return sg.run_experiment(cfg, graph=graph).to_machine_lines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark pass in a fresh interpreter")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dataset", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    rec = None
    if args.trace:
        from spans import Recorder
        rec = Recorder()
    sg = import_program()
    with rec.span("graph.load") if rec else contextlib.nullcontext():
        with open(args.dataset, "rb") as fh:
            graph = sg.build_graph(sg.load_edge_list(fh, "signed"))
    setup_s = time.perf_counter() - T0

    import numpy
    import scipy
    out = {"setup_s": setup_s,
           "graph": {"nodes": graph.n, "edges": graph.num_edges, "neg": graph.num_neg},
           "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__}}
    if rec:
        install_tracing(rec)
    ref_before = reference_s()
    t0 = time.perf_counter()
    with rec.span("bench.pass") if rec else contextlib.nullcontext():
        out["lines"] = run_pass(sg, spec, args.dataset, args.seed, graph)
    out["pass_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the host's speed around the pass: the kernel's time before and after it
    out["ref_s"] = (ref_before + reference_s()) / 2
    if rec:
        from spans import layer_metrics, per_span_cost
        out["all_closed"] = rec.all_closed()
        out["spans"] = rec.spans
        out["layers"] = layer_metrics(rec.spans)
        out["layers"]["tracing_overhead_s"] = per_span_cost() * len(rec.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
