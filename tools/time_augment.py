#!/usr/bin/env python3
"""Time the augmenter stage by stage: the pools' set-up, the rounds, the final graph.

Usage (from the root of a checkout; one BLAS thread makes runs comparable):

    OPENBLAS_NUM_THREADS=1 python3 tools/time_augment.py --n 3783 --m 14124
    OPENBLAS_NUM_THREADS=1 python3 tools/time_augment.py --n 10000 --m 37336 --epochs 1

The graph is benchmark/gen_graph.generate(seed, n, m) (the defaults give the
Bitcoin-alpha shape). As run_experiment's sigaug run does, it is split with
split_edges(graph, test_fraction, seed) at ExperimentConfig's default
test_fraction, a short `train` (TrainConfig(epochs, seed)) gives the train
split's embeddings, and `sigaug.augment` runs on the train split with them, at
the `synth1k-gate` benchmark workload's targets (theta 1/9, delta 0.12, mu 0.7,
eta 4).

The script times that one `augment` call. During the call it wraps the
augmenter's functions, which augment looks up in its module at call time,
with timers, and restores them afterwards:
- `setup_s`, the `AugmentationState` construction: `products`, the propensity
  row blocks (`_propensity_rows`' `rows` calls); `ranking`, the add pools'
  first chunks (`_block_best`); `other`, the rest (the working sets and the
  remove pools' sort);
- `rounds_s`, the `perturb_step` calls: `products` and `ranking` of the add
  pools' refills, `gate`, the utility gate (`pair_utility`), and `other`, the
  rest (pool walks, steering, the log);
- `final_s`, what the two leave of `augment_s`: `checks`, the regulator
  checks between rounds (`epr_check`), and `graph`, the rest, which is
  building the final graph from the original edges and the log.
`calls` counts the rounds, the refills, the gate calls and the checks. The JSON goes to
--out, else to standard output, with the Python, NumPy and SciPy versions, the
BLAS thread variables and the CPU count.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))
sys.path.insert(0, str(ROOT / "tools"))

import gen_graph  # noqa: E402
import sigaug as sg  # noqa: E402
from time_train import _timed, provenance  # noqa: E402

aug = importlib.import_module("sigaug.augment")  # the module, not the function sigaug exports

TARGETS = {"theta_target": 1.0 / 9.0, "delta_target": 0.12, "mu": 0.7, "eta": 4}
PHASES = ("setup", "rounds")
WRAPPED = ("AugmentationState", "_propensity_rows", "_block_best", "perturb_step",
           "pair_utility", "epr_check")


def timed_augment(g, pair, cfg):
    """One sigaug.augment call with its stages timed: (result, whole seconds,
    {phase: {part: [per-call seconds]}}), the phases "setup" and "rounds", and
    "final" with its regulator checks."""
    times = {"setup": {"whole": [], "products": [], "ranking": []},
             "rounds": {"whole": [], "products": [], "ranking": [], "gate": []},
             "final": {"checks": []}}
    phase = ["setup"]  # whose timers the products and rankings go to
    saved = {name: getattr(aug, name) for name in WRAPPED}
    setup = _timed(saved["AugmentationState"], times["setup"]["whole"])
    ranking = {p: _timed(saved["_block_best"], times[p]["ranking"]) for p in PHASES}

    def state(*args):
        try:
            return setup(*args)
        finally:
            phase[0] = "rounds"

    def propensity_rows(pair):
        products = {p: _timed(saved["_propensity_rows"](pair), times[p]["products"])
                    for p in PHASES}
        return lambda *args: products[phase[0]](*args)

    wrappers = {"AugmentationState": state, "_propensity_rows": propensity_rows,
                "_block_best": lambda *args: ranking[phase[0]](*args),
                "perturb_step": _timed(saved["perturb_step"], times["rounds"]["whole"]),
                "pair_utility": _timed(saved["pair_utility"], times["rounds"]["gate"]),
                "epr_check": _timed(saved["epr_check"], times["final"]["checks"])}
    for name, fn in wrappers.items():
        setattr(aug, name, fn)
    try:
        t0 = time.perf_counter()
        result = sg.augment(g, pair, cfg)
        augment_s = time.perf_counter() - t0
    finally:
        for name, fn in saved.items():
            setattr(aug, name, fn)
    return result, augment_s, times


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3783, help="generated graph's node count")
    ap.add_argument("--m", type=int, default=14124, help="generated graph's edge count")
    ap.add_argument("--seed", type=int, default=0, help="graph, split and trainer seed")
    ap.add_argument("--epochs", type=int, default=5, help="epochs of the embeddings' train")
    ap.add_argument("--out", type=pathlib.Path, help="JSON file to write")
    args = ap.parse_args(argv)

    g = sg.SignedGraph(args.n, gen_graph.generate(args.seed, args.n, args.m))
    split = sg.split_edges(g, sg.ExperimentConfig.test_fraction, args.seed)
    pair = sg.train(split.train, sg.TrainConfig(epochs=args.epochs, seed=args.seed)).embeddings
    result, augment_s, times = timed_augment(split.train, pair, sg.EPRConfig(**TARGETS))

    parts = {phase: {part: sum(dts) for part, dts in times[phase].items()} for phase in PHASES}
    for phase in PHASES:
        whole = parts[phase].pop("whole")
        parts[phase]["other"] = whole - sum(parts[phase].values())
        parts[phase]["total"] = whole
    final = augment_s - parts["setup"]["total"] - parts["rounds"]["total"]
    checks = sum(times["final"]["checks"])
    output = {
        "graph": {"source": f"gen_graph.generate({args.seed}, {args.n}, {args.m})",
                  "n": g.n, "edges": g.num_edges, "train_edges": split.train.num_edges},
        "epochs": args.epochs,
        "seed": args.seed,
        "targets": TARGETS,
        "setup_s": parts["setup"],
        "rounds_s": parts["rounds"],
        "final_s": {"checks": checks, "graph": final - checks, "total": final},
        "augment_s": augment_s,
        "calls": {"rounds": len(times["rounds"]["whole"]),
                  "refills": len(times["rounds"]["ranking"]),
                  "gate": len(times["rounds"]["gate"]),
                  "checks": len(times["final"]["checks"])},
        "log_entries": len(result.log),
        "kept": result.log.total_kept,
        "provenance": provenance(),
    }
    text = json.dumps(output, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
