"""Reference trainer sample pipeline: tuple samples labelled "+", "-" and "?".

This is the trainer's sample handling as first written, kept as the slow
oracle for the library's int (u, v, class) rows. Each function takes and
returns Python lists of (u, v, label) tuples and tests adjacency one pair at a
time with `SignedGraph.sign`, so a faster library path cannot change it.
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
logit gradients scattered through two (n x S) csr incidence matrices, the
rows' distances taken from one (S x d) difference of their endpoints, the
endpoints ordered by a row sort, the logits' row max by a reduction, and the
hinge pairs from `hinge_pairs`, which finds each endpoint's run of null rows
by binary search in the sorted anchors. It sums in the library's order, so
the library's loss must equal it bit for bit.

`graph_tensors` builds the trainer's six propagation operators as first
written: adjacency assembled by scipy from coordinates (graph_reference's
`split_adjacency`), each row scaled by a sparse diagonal product, the
transposes by `.T.tocsr()`. The library writes the
csr arrays of rpd and rnd directly and must give the same data, indices (in
entry order) and indptr; its layer-0 inputs must equal those built with rp1
and rn1, and its csc views of rpd and rnd must give the transposes' products
bit for bit. `draw_nulls_isin` is the rejection path's membership test as first
written, `np.isin` against the edge keys; the library's draws must equal its
draws for equal seeds.

`gradient_check` compares the library's hand-derived gradients with central
finite differences. It runs the trainer's own set-up and step (`_GraphTensors`,
`_edge_rows`, `_null_pool`, `_draw_nulls`, `_class_weights`, `_grad_step`) on
one frozen sample batch, so it checks what `train` descends on.

`build_k_hop_ego_tree` unrolls a node's signed neighborhood into a tree
(`EgoTree`): the scaffolding of the check that `forward` embeds the roots of
isomorphic ego trees alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from sigaug import sgnn
from sigaug.graph import SignedGraph
from sigaug.sgnn import (_NULL, _NULL_DRAW_PASSES, _NULL_POOL_CUTOFF, CLASSES, ModelParams,
                         TrainConfig, init_params, synth_features)

from graph_reference import reference_of, split_adjacency

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


def hinge_pairs(rows: np.ndarray):
    """Hinge terms as (edge row, null row) index pairs into `rows`: one (T, 2) array
    for the "+" rows, one for the "-" rows; a term compares its rows' squared distances.
    An edge row and a "?" row pair up whenever they share an endpoint, the anchor. Per
    edge row (u, v) in sample order come pairs anchored at u, then at v, nulls in order."""
    null = np.flatnonzero(rows[:, 2] == _NULL)
    anchors = rows[null, :2].ravel()  # null row (u, v) is incidences at u and at v
    order = np.argsort(anchors, kind="stable")  # the stable sort keeps sample order
    anchors, partners = anchors[order], null[order // 2]
    out = []
    for cls in (0, 1):
        edge = np.flatnonzero(rows[:, 2] == cls)
        a = rows[edge, :2].ravel()
        start = np.searchsorted(anchors, a, side="left")
        count = np.searchsorted(anchors, a, side="right") - start
        first = np.cumsum(count) - count  # where each anchor's run starts in the output
        k = partners[np.arange(count.sum()) + np.repeat(start - first, count)]
        out.append(np.column_stack((np.repeat(np.repeat(edge, 2), count), k)))
    return out


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
    for pairs, flip, name in zip(hinge_pairs(rows), (1.0, -1.0), ("(+,?)", "(-,?)")):
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
    reg = 0.0
    with np.errstate(over="ignore"):  # a diverging run overflows it to inf silently
        for a in params.arrays():
            reg += cfg.weight_decay * float((a * a).sum())
    return ce + hinge + reg


def _null_pool(g: SignedGraph):
    """All non-adjacent pairs when cheap to enumerate, else None (use rejection)."""
    total = g.n * (g.n - 1) // 2
    if total - g.num_edges == 0:
        return []
    if total <= _NULL_POOL_CUTOFF:
        ref = reference_of(g)
        return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if ref.sign(u, v) == 0]
    return None


def _draw_nulls(g: SignedGraph, pool, count: int, rng):
    """`count` uniformly random non-adjacent pairs (with replacement)."""
    if pool is not None:
        if not pool:
            return []
        idx = rng.integers(0, len(pool), size=count)
        return [(pool[i][0], pool[i][1], "?") for i in idx]
    out = []
    ref = reference_of(g)
    while len(out) < count:
        cand = rng.integers(0, g.n, size=(2 * count, 2))
        for u, v in cand:
            if u == v or ref.sign(int(u), int(v)) != 0:
                continue
            a, b = (int(u), int(v)) if u < v else (int(v), int(u))
            out.append((a, b, "?"))
            if len(out) == count:
                break
    return out


def graph_tensors(g: SignedGraph) -> dict:
    """The operators rp1, rn1, rpd, rnd, rpd_t and rnd_t, by name: sgnn._GraphTensors
    keeps rpd and rnd, builds its layer-0 inputs with rp1 and rn1, and views the
    transposes."""
    apos, aneg = (a.astype(np.float64) for a in split_adjacency(g))
    degp = np.asarray(apos.sum(axis=1)).ravel()
    degn = np.asarray(aneg.sum(axis=1)).ravel()

    def row_scale(mat, deg):
        inv = np.zeros_like(deg)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        return (sp.diags(inv) @ mat).tocsr()

    ops = {"rp1": row_scale(apos, degp), "rn1": row_scale(aneg, degn),
           "rpd": row_scale(apos, degp + degn), "rnd": row_scale(aneg, degp + degn)}
    ops["rpd_t"] = ops["rpd"].T.tocsr()
    ops["rnd_t"] = ops["rnd"].T.tocsr()
    return ops


def draw_nulls_isin(keys: np.ndarray, n: int, count: int, rng) -> np.ndarray:
    """sgnn._draw_nulls' rejection path with `np.isin` as its membership test."""
    pairs = np.empty((0, 2), dtype=np.int64)
    for _ in range(_NULL_DRAW_PASSES):
        if len(pairs) == count:
            break
        raw = rng.integers(0, n, size=(2 * count, 2))
        lo, hi = np.minimum(raw[:, 0], raw[:, 1]), np.maximum(raw[:, 0], raw[:, 1])
        keep = np.flatnonzero((lo != hi) & ~np.isin(lo * n + hi, keys))[:count - len(pairs)]
        pairs = np.concatenate((pairs, np.column_stack((lo[keep], hi[keep]))))
    return np.column_stack((pairs, np.full(len(pairs), _NULL, dtype=np.int64)))


def gradient_check(g: SignedGraph, cfg: TrainConfig, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-FD gradients.

    Checks 60 randomly chosen parameter coordinates (all of them if there are
    fewer) on one frozen sample batch at a generic parameter point. Relative
    error is |g_fd - g_an| / max(|g_fd|, |g_an|, 1e-8).
    """
    if not 1e-6 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon must be in [1e-6, 1e-4], got {epsilon}")
    x = synth_features(g.n, cfg.feature_dim, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(x.shape[1], cfg.embed_dim, cfg.layers, rng)
    # zero classifier would silence the CE -> Z path; move to a generic point
    params = ModelParams(params.wpos, params.wneg,
                         rng.uniform(-0.5, 0.5, size=params.theta.shape))
    tensors = sgnn._GraphTensors(g, x)
    edges, keys = sgnn._edge_rows(g), g.pair_keys()
    rows = np.concatenate((edges, sgnn._draw_nulls(keys, g.n, sgnn._null_pool(keys, g.n),
                                                   max(g.num_edges, 1), rng)))
    weights = sgnn._class_weights(rows)

    _, grads = sgnn._grad_step(tensors, params, rows, weights, cfg)
    analytic = np.concatenate([a.ravel() for a in grads])
    arrays = params.arrays()
    flat = np.concatenate([a.ravel() for a in arrays])
    cuts = np.cumsum([a.size for a in arrays])[:-1]

    def value_at(vec):
        p = ModelParams.from_arrays([part.reshape(a.shape)
                                     for part, a in zip(np.split(vec, cuts), arrays)])
        return sgnn._grad_step(tensors, p, rows, weights, cfg, warn_missing=False)[0]

    picks = rng.choice(flat.size, size=min(60, flat.size), replace=False)
    worst = 0.0
    for idx in picks:
        bump = np.zeros_like(flat)
        bump[idx] = epsilon
        fd = (value_at(flat + bump) - value_at(flat - bump)) / (2.0 * epsilon)
        an = analytic[idx]
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class EgoTree:
    """Level-by-level signed unrolling of a node's neighborhood."""

    graph: SignedGraph
    root: int
    sources: tuple


def build_k_hop_ego_tree(g: SignedGraph, root: int, k: int) -> EgoTree:
    """Unroll a node's signed neighborhood into a k-level tree.

    Every node copy at level l < k spawns a fresh copy of each source-graph
    neighbor (including the one it came from) at level l+1, connected by a tree
    edge carrying the source edge's sign. Children are created in (sign,
    source-id) order so structurally matching trees get matching positions.
    """
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    ref = reference_of(g)
    sources = [root]
    edges = []
    frontier = [(0, root)]
    for _level in range(k):
        nxt = []
        for tree_id, src in frontier:
            children = sorted(
                [(-1, w) for w in ref.neg_neighbors(src)] + [(1, w) for w in ref.pos_neighbors(src)]
            )
            for s, w in children:
                new_id = len(sources)
                sources.append(w)
                edges.append((tree_id, new_id, s))
                nxt.append((new_id, w))
        frontier = nxt
    return EgoTree(graph=SignedGraph(len(sources), edges), root=0, sources=tuple(sources))
