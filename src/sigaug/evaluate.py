"""Metrics, the multi-run experiment protocol, and sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Optional

import numpy as np

from .augment import EPRConfig, augment
from .balance import ETA_DEFAULT, MU_DEFAULT
from .graph import (FORMATS, EdgeSplit, SignedGraph, _as_edge_array, build_graph,
                    load_edge_list, split_edges)
from .sgnn import TrainConfig, check_supervision, concat, train

# largest (mu, theta, delta) grid a sweep accepts
MAX_CELLS = 200

METRIC_NAMES = ("auc", "f1_binary_avg", "neg_precision", "neg_recall", "neg_f1", "pos_f1")

REPORT_HEADER = (
    "# columns: metric,run,value",
    "# std is the sample standard deviation (ddof=1); 0.0 for a single run",
    "# auc scores are positive-class probabilities renormalized over {pos, neg}",
)


@dataclass
class ExperimentConfig:
    """Everything one evaluation needs: data, pipeline switches, and targets.

    The targets are checked by the EPRConfig they build. Every run replaces
    train.seed with base_seed + run.
    """

    dataset: str
    input_format: str = "signed"
    augmentation: str = "none"
    mu: float = MU_DEFAULT
    theta: float = 1.0 / 9.0
    delta: float = 0.6
    eta: int = ETA_DEFAULT
    runs: int = 5
    base_seed: int = 0
    test_fraction: float = 0.2
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.input_format not in FORMATS:
            raise ValueError(f"unknown format {self.input_format!r}")
        if self.augmentation not in ("none", "sigaug"):
            raise ValueError(f"unknown augmentation {self.augmentation!r}")
        EPRConfig(theta_target=self.theta, delta_target=self.delta, mu=self.mu, eta=self.eta)
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


@dataclass
class MetricReport:
    """Per-run metric values plus any auxiliary per-run counters."""

    per_run: dict
    aux: dict = field(default_factory=dict)

    def mean(self, name: str) -> float:
        return float(np.mean(self.per_run[name]))

    def std(self, name: str) -> float:
        vals = self.per_run[name]
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1))

    def to_machine_lines(self) -> list[str]:
        lines = list(REPORT_HEADER)
        for name in METRIC_NAMES:
            if name not in self.per_run:
                continue
            for r, v in enumerate(self.per_run[name]):
                lines.append(f"{name},{r},{v!r}")
            lines.append(f"{name},mean,{self.mean(name)!r}")
            lines.append(f"{name},std,{self.std(name)!r}")
        for name in sorted(self.aux):
            for r, v in enumerate(self.aux[name]):
                lines.append(f"{name},{r},{v!r}")
        return lines

    def to_table(self) -> str:
        rows = [f"{'metric':<16}{'mean':>12}{'std':>12}  per-run"]
        for name in METRIC_NAMES:
            if name not in self.per_run:
                continue
            per = " ".join(f"{v:.4f}" for v in self.per_run[name])
            rows.append(f"{name:<16}{self.mean(name):>12.4f}{self.std(name):>12.4f}  {per}")
        for name in sorted(self.aux):
            per = " ".join(f"{v:g}" for v in self.aux[name])
            rows.append(f"{name:<16}{'-':>12}{'-':>12}  {per}")
        return "\n".join(rows)


def auc(scores, signs) -> float:
    """Probability that a random positive edge's score beats a random negative
    edge's, ties counted half (rank-statistic form); signs > 0 are positive."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(signs) > 0
    if len(scores) != len(pos) or len(pos) == 0:
        raise ValueError("scores and signs must be equal-length and non-empty")
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    # tie-averaged ranks: a run of equal scores shares the mean of its positions
    _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def classification_metrics(pred, truth) -> dict:
    """Per-class precision/recall/F1 of +-1 predictions against +-1 signs, with
    the 0/0 -> 0 convention. Every value is a Python float."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if len(pred) != len(truth):
        raise ValueError("pred and truth lengths differ")
    if not len(pred):
        raise ValueError("empty prediction list")

    def prf(cls):
        tp = int(np.sum((pred == cls) & (truth == cls)))
        fp = int(np.sum((pred == cls) & (truth != cls)))
        fn = int(np.sum((pred != cls) & (truth == cls)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return prec, rec, f1

    pos_p, pos_r, pos_f1 = prf(1)
    neg_p, neg_r, neg_f1 = prf(-1)
    return {
        "f1_binary_avg": (pos_f1 + neg_f1) / 2.0,
        "neg_precision": neg_p,
        "neg_recall": neg_r,
        "neg_f1": neg_f1,
        "pos_f1": pos_f1,
    }


def predict_test_edges(Z: np.ndarray, classifier: np.ndarray, test):
    """Score held-out edges (u, v, sign): (scores, signs), float64 softmax
    positive-class probabilities renormalized over {pos, neg} on the pair
    feature [Z_min || Z_max], and the edges' +-1 signs."""
    rows = _as_edge_array(test)
    if not len(rows):
        raise ValueError("empty test set")
    ends = np.sort(rows[:, :2], axis=1)
    feats = np.hstack([Z[ends[:, 0]], Z[ends[:, 1]]])
    logits = feats @ classifier.T
    scores = np.array([_expit(t) for t in (logits[:, 0] - logits[:, 1]).tolist()])
    return scores, rows[:, 2]


def _expit(t: float) -> float:
    """The logistic function through libm's exp, which gives scipy.special.expit's
    bits (numpy's exp does not); 0.0 where exp(-t) overflows, as expit gives."""
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


def _load_dataset(cfg: ExperimentConfig) -> SignedGraph:
    with open(cfg.dataset, "rb") as fh:
        records = load_edge_list(fh, cfg.input_format)
    return build_graph(records)


def _run_once(split: EdgeSplit, cfg: ExperimentConfig, seed: int):
    tc = replace(cfg.train, seed=seed)
    result = train(split.train, tc)
    aux = {}
    if cfg.augmentation == "sigaug":
        aug = augment(split.train, result.embeddings,
                      EPRConfig(theta_target=cfg.theta, delta_target=cfg.delta,
                                mu=cfg.mu, eta=cfg.eta))
        # feed the augmented graph back into the model: messages flow over the
        # perturbed topology, supervision stays on the untouched train split so
        # synthetic edges never become labels, and training continues from the
        # first-stage parameters
        result = train(aug.graph, tc, samples_from=split.train, init=result.params)
        test_pairs = {(u, v) for u, v, _ in split.test}
        hits = sum(1 for e in aug.log.entries if (e.u, e.v) in test_pairs)
        aux = {"thresholds_unmet": float(aug.thresholds_unmet),
               "test_pair_hits": float(hits)}
    Z = concat(result.embeddings)
    scores, signs = predict_test_edges(Z, result.params.theta, split.test)
    metrics = classification_metrics(np.where(scores >= 0.5, 1, -1), signs)
    metrics["auc"] = auc(scores, signs)
    return metrics, aux


def run_experiment(cfg: ExperimentConfig, graph: Optional[SignedGraph] = None) -> MetricReport:
    """The full protocol: per run, split -> train -> (augment -> retrain) ->
    predict -> metrics, with seed = base_seed + run index; then aggregate.

    A graph without an edge of either sign, which no split can train on, raises
    the trainer's ValueError (`check_supervision`) before the first split. A
    split that split_edges refuses raises its ValueError before run 0 trains
    (the held-out count does not depend on the seed); any other
    failure of run r raises RuntimeError("run r failed: ...")."""
    g = graph if graph is not None else _load_dataset(cfg)
    check_supervision(g)
    per_run: dict = {name: [] for name in METRIC_NAMES}
    aux: dict = {}
    for r in range(cfg.runs):
        seed = cfg.base_seed + r
        split = split_edges(g, cfg.test_fraction, seed)
        try:
            metrics, run_aux = _run_once(split, cfg, seed)
        except Exception as exc:
            raise RuntimeError(f"run {r} failed: {exc}") from exc
        for name in METRIC_NAMES:
            per_run[name].append(metrics[name])
        for name, value in run_aux.items():
            aux.setdefault(name, []).append(value)
    return MetricReport(per_run=per_run, aux=aux)


def sweep(cfg: ExperimentConfig, grid: dict):
    """Evaluate run_experiment over the (mu, theta, delta) grid, rows in grid
    order. An empty axis, a grid of more than MAX_CELLS cells and any cell's
    rejected value are refused before the dataset loads."""
    for key in ("mu", "theta", "delta"):
        if key not in grid or not grid[key]:
            raise ValueError(f"grid is missing non-empty axis {key!r}")
    count = len(grid["mu"]) * len(grid["theta"]) * len(grid["delta"])
    if count > MAX_CELLS:
        raise ValueError(f"grid has {count} cells, more than the cap of {MAX_CELLS}")
    cells = [replace(cfg, mu=mu, theta=theta, delta=delta)
             for mu, theta, delta in product(grid["mu"], grid["theta"], grid["delta"])]
    g = _load_dataset(cfg)
    rows = []
    for cell in cells:
        report = run_experiment(cell, graph=g)
        rows.append((cell.mu, cell.theta, cell.delta, report.mean("auc"), report.std("auc")))
    return rows
