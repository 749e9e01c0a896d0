"""Reference trainer sample pipeline: tuple samples labelled "+", "-" and "?".

This is the trainer's sample handling as first written, kept as the slow
oracle for the library's int (u, v, class) rows. Each function takes and
returns Python lists of (u, v, label) tuples and tests adjacency one pair at a
time with `SignedGraph.has_edge`, so a faster library path cannot change it.
The library's rows must give the same null draws for equal seeds, the same
hinge triples in the same order (the library keeps them as pairs of sample
rows), the same class weights and a bit-equal hinge value. The classifier
loss is equal within 1e-12 relative, and the gradients with respect to Z and
theta within 1e-12 of their largest entries: the library works at node level
(each node projected once, logit gradients scattered onto nodes, the hinge
gradient as one Laplacian product), so it sums in another order than the
per-row pair features and per-term `np.add.at` scatters below. `train` run on
this `_loss_grads` gives the library's loss trace and embeddings within 1e-12.

`loss` is the full objective value for tuple samples, evaluated by the
library's loss on the rows those tuples convert to; the hand-computed values
in the loss tests go through it.

`plain_loss_grads` is the library's node-level loss as first written: the
logit gradients scattered through two (n x S) csr incidence matrices and the
rows' distances taken from one (S x d) difference of their endpoints. It sums
in the library's order, so the library's loss must equal it bit for bit.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np
import scipy.sparse as sp

from sigaug import sgnn
from sigaug.graph import SignedGraph
from sigaug.sgnn import _NULL_POOL_CUTOFF, CLASSES, _hinge_pairs

logger = logging.getLogger(__name__)

_CLS_INDEX = {c: i for i, c in enumerate(CLASSES)}


def _class_weights(samples, override: Optional[dict]) -> dict:
    """Per-class loss weights: `override` when given, else total / (k * count)
    over the k classes present in `samples`, so every class weighs the same."""
    if override:
        return dict(override)
    counts: dict[str, int] = {}
    for _, _, c in samples:
        counts[c] = counts.get(c, 0) + 1
    total = len(samples)
    k = len(counts)
    return {c: total / (k * cnt) for c, cnt in counts.items()}


def _hinge_triples(samples):
    """Anchor-matched (anchor, edge partner, null partner) triples.

    An edge sample and a "?" sample pair up whenever they share an endpoint;
    the shared node is the anchor. Deterministic in sample order.
    """
    null_at: dict[int, list[int]] = {}
    for u, v, c in samples:
        if c == "?":
            null_at.setdefault(u, []).append(v)
            null_at.setdefault(v, []).append(u)
    pos_triples, neg_triples = [], []
    for u, v, c in samples:
        if c == "?":
            continue
        out = pos_triples if c == "+" else neg_triples
        for k in null_at.get(u, ()):
            out.append((u, v, k))
        for k in null_at.get(v, ()):
            out.append((v, u, k))
    return pos_triples, neg_triples


def _loss_grads(Z, samples, theta, lam, weights, warn_missing=True):
    """Classifier + hinge values with gradients w.r.t. Z and theta.

    Returns (ce, hinge, dZ, dTheta); `hinge` already carries the lam factor.
    Regularization is handled by the callers.
    """
    n, d = Z.shape
    dZ = np.zeros_like(Z)
    dTheta = np.zeros_like(theta)
    ce = 0.0
    count = len(samples)
    if count:
        ii = np.fromiter((min(u, v) for u, v, _ in samples), dtype=np.int64, count=count)
        jj = np.fromiter((max(u, v) for u, v, _ in samples), dtype=np.int64, count=count)
        yy = np.fromiter((_CLS_INDEX[c] for _, _, c in samples), dtype=np.int64, count=count)
        ww = np.fromiter((weights[c] for _, _, c in samples), dtype=np.float64, count=count)
        feats = np.hstack([Z[ii], Z[jj]])
        logits = feats @ theta.T
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)
        picked = np.clip(probs[np.arange(count), yy], 1e-300, None)
        ce = float((ww * -np.log(picked)).sum() / count)
        grad_logits = probs.copy()
        grad_logits[np.arange(count), yy] -= 1.0
        grad_logits *= (ww / count)[:, None]
        dTheta = grad_logits.T @ feats
        dfeats = grad_logits @ theta
        np.add.at(dZ, ii, dfeats[:, :d])
        np.add.at(dZ, jj, dfeats[:, d:])
    hinge = 0.0
    pos_triples, neg_triples = _hinge_triples(samples)
    for triples, flip, name in ((pos_triples, 1.0, "(+,?)"), (neg_triples, -1.0, "(-,?)")):
        if not triples:
            if warn_missing:
                logger.warning("no %s hinge pairs in sample set; term contributes 0", name)
            continue
        a = np.array([t[0] for t in triples])
        j = np.array([t[1] for t in triples])
        k = np.array([t[2] for t in triples])
        dj = Z[a] - Z[j]
        dk = Z[a] - Z[k]
        margin = flip * ((dj * dj).sum(axis=1) - (dk * dk).sum(axis=1))
        hinge += lam * float(np.maximum(margin, 0.0).mean())
        coef = (lam / len(triples)) * (margin > 0.0)
        np.add.at(dZ, a, (coef * flip * 2.0)[:, None] * (dj - dk))
        np.add.at(dZ, j, (coef * flip * -2.0)[:, None] * dj)
        np.add.at(dZ, k, (coef * flip * 2.0)[:, None] * dk)
    return ce, hinge, dZ, dTheta


def plain_loss_grads(Z, rows, theta, lam, weights, warn_missing=True):
    """sgnn._loss_grads with csr incidence scatters and one (S x d) difference."""
    n, d = Z.shape
    count = len(rows)
    ii, jj = np.sort(rows[:, :2], axis=1).T
    ce, dTheta, dZ = 0.0, np.zeros_like(theta), np.zeros_like(Z)
    if count:
        yy = rows[:, 2]
        ww = weights[yy]
        logits = (Z @ theta[:, :d].T)[ii] + (Z @ theta[:, d:].T)[jj]
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)
        picked = np.clip(probs[np.arange(count), yy], 1e-300, None)
        ce = float((ww * -np.log(picked)).sum() / count)
        grad_logits = probs
        grad_logits[np.arange(count), yy] -= 1.0
        grad_logits *= (ww / count)[:, None]
        gi, gj = (sp.csr_matrix((np.ones(count), (end, np.arange(count))), shape=(n, count))
                  @ grad_logits for end in (ii, jj))
        dTheta = np.hstack((gi.T @ Z, gj.T @ Z))
        dZ = gi @ theta[:, :d] + gj @ theta[:, d:]
    diff = Z[ii] - Z[jj]
    dist = (diff * diff).sum(axis=1)
    hinge, coef = 0.0, np.zeros(count)
    for pairs, flip, name in zip(_hinge_pairs(rows), (1.0, -1.0), ("(+,?)", "(-,?)")):
        if not len(pairs):
            if warn_missing:
                logger.warning("no %s hinge pairs in sample set; term contributes 0", name)
            continue
        e, k = pairs.T
        margin = flip * (dist[e] - dist[k])
        hinge += lam * float(np.maximum(margin, 0.0).mean())
        c = (lam / len(pairs)) * flip * (margin > 0.0)
        coef += np.bincount(e, c, minlength=count) - np.bincount(k, c, minlength=count)
    w = 2.0 * coef
    W = sp.csr_matrix((w, (ii, jj)), shape=(n, n))
    deg = np.bincount(ii, w, minlength=n) + np.bincount(jj, w, minlength=n)
    dZ += deg[:, None] * Z - W @ Z - W.T @ Z
    return ce, hinge, dZ, dTheta


def loss(Z, samples, params, cfg) -> float:
    """Full objective value: weighted 3-class CE + lam * hinge terms + L2 reg.

    Samples are (u, v, cls) tuples with cls in CLASSES, converted once into the
    trainer's (u, v, class index) rows; the pair feature is [Z_min(u,v) || Z_max(u,v)].
    """
    rows = np.array([(u, v, _CLS_INDEX[c]) for u, v, c in samples], np.int64).reshape(-1, 3)
    ce, hinge, _, _ = sgnn._loss_grads(np.asarray(Z, dtype=np.float64), rows, params.theta,
                                       cfg.lam, sgnn._class_weights(rows))
    return ce + hinge + sgnn._reg(params, cfg.weight_decay)


def _null_pool(g: SignedGraph):
    """All non-adjacent pairs when cheap to enumerate, else None (use rejection)."""
    total = g.n * (g.n - 1) // 2
    if total - g.num_edges == 0:
        return []
    if total <= _NULL_POOL_CUTOFF:
        return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return None


def _draw_nulls(g: SignedGraph, pool, count: int, rng):
    """`count` uniformly random non-adjacent pairs (with replacement)."""
    if pool is not None:
        if not pool:
            return []
        idx = rng.integers(0, len(pool), size=count)
        return [(pool[i][0], pool[i][1], "?") for i in idx]
    out = []
    while len(out) < count:
        cand = rng.integers(0, g.n, size=(2 * count, 2))
        for u, v in cand:
            if u == v or g.has_edge(int(u), int(v)):
                continue
            a, b = (int(u), int(v)) if u < v else (int(v), int(u))
            out.append((a, b, "?"))
            if len(out) == count:
                break
    return out
