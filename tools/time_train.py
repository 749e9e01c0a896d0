#!/usr/bin/env python3
"""Time the trainer stage by stage: set-up, then per epoch sampling, forward, loss, backward.

Usage (from the root of a checkout; one BLAS thread makes runs comparable):

    OPENBLAS_NUM_THREADS=1 python3 tools/time_train.py --n 3783 --m 14124 --epochs 20
    OPENBLAS_NUM_THREADS=1 python3 tools/time_train.py --dataset data/congress_synthetic.txt

The graph is benchmark/gen_graph.generate(seed, n, m) (the defaults give the
Bitcoin-alpha shape), or a signed edge list given with --dataset. Training runs
on its split_edges(graph, test_fraction, seed) train split, with
ExperimentConfig's default test_fraction and TrainConfig(epochs, seed), as
run_experiment's base train does.

The script times one `sigaug.train` call. During that call it wraps the
trainer's functions, which train looks up in its module at call time, with
timers, and restores them afterwards. The per-train set-up, once per call
(`setup_s`, by function):
- `_GraphTensors`, the propagation operators and the layer-0 inputs;
- `_edge_rows`, the supervision's edge rows;
- `_null_pool`, the enumerated non-adjacent pairs, if listed.
The epoch stages, once per epoch (`stage_s` in total, `epoch_stage_s` per call):
- sampling: `_draw_nulls`, the epoch's "?" rows;
- forward: `_forward_cached`, the layer stack;
- loss: `_loss_grads`, the classifier and hinge loss with its gradients;
- backward: `_backward`, backprop through the layer stack.
`other_s` is the rest of `train_s`: the features, the class weights, the
weight-decay terms, the parameter steps and the final forward. The JSON goes
to --out, else to standard output, with the Python, NumPy and SciPy versions,
the BLAS thread variables and the CPU count.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen_graph  # noqa: E402
import sigaug as sg  # noqa: E402
from sigaug import sgnn  # noqa: E402

SETUP = ("_GraphTensors", "_edge_rows", "_null_pool")
STAGES = {"sampling": "_draw_nulls", "forward": "_forward_cached", "loss": "_loss_grads",
          "backward": "_backward"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timed(fn, times: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)
    return wrapper


def timed_train(g, cfg):
    """One sigaug.train call with its set-up and stages timed: (whole seconds,
    {set-up function: per-call seconds}, {stage: per-call seconds})."""
    setup = {name: [] for name in SETUP}
    times = {stage: [] for stage in STAGES}
    timers = {**setup, **{name: times[stage] for stage, name in STAGES.items()}}
    saved = {name: getattr(sgnn, name) for name in timers}
    for name, dts in timers.items():
        setattr(sgnn, name, _timed(saved[name], dts))
    try:
        t0 = time.perf_counter()
        sg.train(g, cfg)
        train_s = time.perf_counter() - t0
    finally:
        for name, fn in saved.items():
            setattr(sgnn, name, fn)
    return train_s, setup, times


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dataset", type=pathlib.Path,
                    help="signed edge list to train on instead of a generated graph")
    ap.add_argument("--n", type=int, default=3783, help="generated graph's node count")
    ap.add_argument("--m", type=int, default=14124, help="generated graph's edge count")
    ap.add_argument("--seed", type=int, default=0, help="graph, split and trainer seed")
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--out", type=pathlib.Path, help="JSON file to write")
    args = ap.parse_args(argv)

    if args.dataset is not None:
        with args.dataset.open("rb") as fh:
            g = sg.build_graph(sg.load_edge_list(fh, "signed"))
        source = args.dataset.name
    else:
        g = sg.SignedGraph(args.n, gen_graph.generate(args.seed, args.n, args.m))
        source = f"gen_graph.generate({args.seed}, {args.n}, {args.m})"
    split = sg.split_edges(g, sg.ExperimentConfig.test_fraction, args.seed)
    cfg = sg.TrainConfig(epochs=args.epochs, seed=args.seed)

    train_s, setup, times = timed_train(split.train, cfg)
    times["forward"].pop()  # the final embeddings' forward, after the last epoch
    setup_s = {name: sum(dts) for name, dts in setup.items()}
    stage_s = {stage: sum(dts) for stage, dts in times.items()}
    result = {
        "graph": {"source": source, "n": g.n, "edges": g.num_edges,
                  "train_edges": split.train.num_edges},
        "epochs": cfg.epochs,
        "seed": args.seed,
        "setup_s": setup_s,
        "stage_s": stage_s,
        "epoch_stage_s": times,
        "other_s": train_s - sum(setup_s.values()) - sum(stage_s.values()),
        "train_s": train_s,
        "provenance": provenance(),
    }
    text = json.dumps(result, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
