#!/usr/bin/env python3
"""Time the trainer and the augmenter stage by stage, on one graph and its split.

Usage (from the root of a checkout; one BLAS thread makes runs comparable):

    OPENBLAS_NUM_THREADS=1 python3 tools/time_stages.py --n 3783 --m 14124 --epochs 20
    OPENBLAS_NUM_THREADS=1 python3 tools/time_stages.py --dataset data/congress_synthetic.txt

The graph is benchmark/gen_graph.generate(seed, n, m) (the defaults give the
Bitcoin-alpha shape), or a signed edge list given with --dataset. As
run_experiment's sigaug run does, it is split with split_edges(graph,
test_fraction, seed) at ExperimentConfig's default test_fraction, one
`sigaug.train` (TrainConfig(epochs, seed)) runs on the train split, and one
`sigaug.augment` on the train split with its embeddings. The augment targets
(theta, delta, mu, eta) and the default --epochs are those of the
`synth1k-gate` benchmark workload, read from benchmark/worker.py's WORKLOADS.
Each call runs with the functions it looks up in its module at call time
wrapped in timers, which are restored afterwards.

"train": `setup_s`, once per call, by function (`_GraphTensors`, the
propagation operators and layer-0 inputs; `_edge_rows`, the supervision's edge
rows; `_null_pool`, the enumerated non-adjacent pairs, if listed); the epoch
stages, in total (`stage_s`) and per epoch (`epoch_stage_s`): sampling
(`_draw_nulls`), forward (`_forward_cached`), loss (`_loss_grads`, with its
gradients) and backward (`_backward`); `other_s`, the rest of `train_s` (the
features, class weights, weight decay, parameter steps and final forward).

"augment": `setup_s`, the `AugmentationState` construction, and `rounds_s`,
the `perturb_step` calls, each with `products` (the propensity row blocks,
`_propensity_rows`' `rows` calls) and `ranking` (`_block_best`): the add pools'
first chunks in the set-up, their refills in the rounds, which are the calls
made while a `perturb_step` runs. The rounds also have `gate`, the utility gate
(`pair_utility`); `other` is the rest of each (the working sets and the remove
pools' sort; pool walks, steering and the log). `final_s` is what the two
leave of `augment_s`: `checks`, the regulator checks (`epr_check`), and
`graph`, building the final graph from the original edges and the log.
`calls` counts the rounds, the refills, the gate calls and the checks.

The JSON goes to --out, else to standard output, with the Python, NumPy and
SciPy versions, the BLAS thread variables and the CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
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
import worker  # noqa: E402
from sigaug import sgnn  # noqa: E402

aug = importlib.import_module("sigaug.augment")  # the module, not the function sigaug exports

SETUP = ("_GraphTensors", "_edge_rows", "_null_pool")
STAGES = {"sampling": "_draw_nulls", "forward": "_forward_cached", "loss": "_loss_grads",
          "backward": "_backward"}
WORKLOAD = worker.WORKLOADS["synth1k-gate"]
TARGETS = {"theta_target": WORKLOAD["theta"], "delta_target": WORKLOAD["delta"],
           "mu": WORKLOAD["mu"], "eta": WORKLOAD["eta"]}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timer(times: list):
    """fn -> fn that appends the seconds of each of its calls to `times`."""
    def wrap(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)
        return timed
    return wrap


@contextlib.contextmanager
def _patched(module, wrappers: dict):
    """Each function `name` of `module` replaced by wrappers[name](function)
    inside the block, and restored after it."""
    saved = {name: getattr(module, name) for name in wrappers}
    try:
        for name, wrap in wrappers.items():
            setattr(module, name, wrap(saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def timed_train(g, cfg):
    """One sigaug.train call with its set-up and stages timed: (result, report)."""
    setup = {name: [] for name in SETUP}
    stages = {stage: [] for stage in STAGES}
    wrappers = {name: _timer(setup[name]) for name in SETUP}
    wrappers.update({name: _timer(stages[stage]) for stage, name in STAGES.items()})
    with _patched(sgnn, wrappers):
        t0 = time.perf_counter()
        result = sg.train(g, cfg)
        train_s = time.perf_counter() - t0
    stages["forward"].pop()  # the final embeddings' forward, after the last epoch
    setup_s = {name: sum(dts) for name, dts in setup.items()}
    stage_s = {stage: sum(dts) for stage, dts in stages.items()}
    return result, {"setup_s": setup_s, "stage_s": stage_s, "epoch_stage_s": stages,
                    "other_s": train_s - sum(setup_s.values()) - sum(stage_s.values()),
                    "train_s": train_s}


def timed_augment(g, pair, cfg):
    """One sigaug.augment call with its phases timed: (result, report). The
    products and rankings made while a perturb_step call runs are the rounds',
    the others the set-up's."""
    times = {"setup": {"whole": [], "products": [], "ranking": []},
             "rounds": {"whole": [], "products": [], "ranking": [], "gate": []}}
    checks = []
    stepping = []  # holds one entry while a perturb_step call runs

    def by_phase(part):  # fn -> fn timed into `part` of the phase open at each call
        def wrap(fn):
            timed = {phase: _timer(parts[part])(fn) for phase, parts in times.items()}
            return lambda *args: timed["rounds" if stepping else "setup"](*args)
        return wrap

    def step(fn):
        def run(state):
            stepping.append(state)
            try:
                return fn(state)
            finally:
                stepping.pop()
        return _timer(times["rounds"]["whole"])(run)

    wrappers = {"AugmentationState": _timer(times["setup"]["whole"]),
                "_propensity_rows": lambda fn: lambda pair: by_phase("products")(fn(pair)),
                "_block_best": by_phase("ranking"), "perturb_step": step,
                "pair_utility": _timer(times["rounds"]["gate"]), "epr_check": _timer(checks)}
    with _patched(aug, wrappers):
        t0 = time.perf_counter()
        result = sg.augment(g, pair, cfg)
        augment_s = time.perf_counter() - t0
    report = {"targets": dict(vars(cfg))}
    for phase, parts in times.items():
        whole = sum(parts["whole"])
        spent = {part: sum(dts) for part, dts in parts.items() if part != "whole"}
        report[f"{phase}_s"] = {**spent, "other": whole - sum(spent.values()), "total": whole}
    final = augment_s - report["setup_s"]["total"] - report["rounds_s"]["total"]
    report["final_s"] = {"checks": sum(checks), "graph": final - sum(checks), "total": final}
    calls = {"rounds": len(times["rounds"]["whole"]), "refills": len(times["rounds"]["ranking"]),
             "gate": len(times["rounds"]["gate"]), "checks": len(checks)}
    report.update(augment_s=augment_s, calls=calls, log_entries=len(result.log),
                  kept=result.log.total_kept)
    return result, report


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dataset", type=pathlib.Path,
                    help="signed edge list to use instead of a generated graph")
    ap.add_argument("--n", type=int, default=3783, help="generated graph's node count")
    ap.add_argument("--m", type=int, default=14124, help="generated graph's edge count")
    ap.add_argument("--seed", type=int, default=0, help="graph, split and trainer seed")
    ap.add_argument("--epochs", type=int, default=WORKLOAD["epochs"], help="the train's epochs")
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
    trained, train = timed_train(split.train, sg.TrainConfig(epochs=args.epochs,
                                                             seed=args.seed))
    _result, augment = timed_augment(split.train, trained.embeddings, sg.EPRConfig(**TARGETS))
    output = {"graph": {"source": source, "n": g.n, "edges": g.num_edges,
                        "train_edges": split.train.num_edges},
              "epochs": args.epochs, "seed": args.seed, "train": train, "augment": augment,
              "provenance": {"python": platform.python_version(), "numpy": np.__version__,
                             "scipy": scipy.__version__,
                             "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
                             "cpu_count": os.cpu_count()}}
    text = json.dumps(output, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
