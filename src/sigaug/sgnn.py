"""Compact two-branch signed GNN with a hand-derived training objective.

The network keeps separate positive and negative embedding branches. Layer 1
aggregates raw features over each branch's own neighbor set; deeper layers
cross the branches (the positive branch pulls positive embeddings of positive
neighbors and negative embeddings of negative neighbors, the negative branch
the converse). AGGREGATE is the mean over the neighbor set, COMBINE is
concatenate-then-linear-then-tanh. Training is full-batch gradient descent on a
weighted 3-class logistic loss over node pairs plus two hinge terms separating
positive/negative neighbors from non-adjacent pairs; gradients are derived by
hand and validated against central finite differences. Inside the trainer a
sample set is one int64 array of (u, v, class) rows, class indexing CLASSES.
The loss works at node level: the classifier projects each node's embedding
once, its logit gradients are scattered onto the nodes by bincount, and the
hinge gradient reaches Z through one sparse node-by-node weight matrix, never
through a per-row copy of the pair features; the rows' squared distances are
taken in fixed row blocks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .graph import SignedGraph, split_adjacency

logger = logging.getLogger(__name__)

CLASSES = ("+", "-", "?")
_NULL = CLASSES.index("?")  # class index of the non-adjacent pairs

# enumerate all non-adjacent pairs (instead of rejection sampling) below this
_NULL_POOL_CUTOFF = 200_000
# rejection passes before giving up: a pass keeps the free-pair share of its
# 2 * count draws, so graphs with well over 1/32 of their pairs free finish
_NULL_DRAW_PASSES = 16
# sample rows per block of the loss's row distances: each block's (rows x d)
# temporaries stay at 128 KiB for d = 64, and a row's sum does not depend on it
_ROW_BLOCK = 256


@dataclass
class TrainConfig:
    """Hyperparameters of the trainer; defaults are the desk-scale settings."""

    epochs: int = 100
    learning_rate: float = 0.01
    lam: float = 5.0
    weight_decay: float = 1e-4
    seed: int = 0
    embed_dim: int = 64
    feature_dim: int = 64
    layers: int = 2

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and >= 0")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.embed_dim < 2 or self.embed_dim % 2:
            raise ValueError("embed_dim must be an even integer >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ModelParams:
    """Per-layer weights of both branches plus the pair classifier.

    wpos[0]/wneg[0] have shape (d/2, 2*D); deeper layers (d/2, d); theta has one
    weight row per class in (+, -, ?) over the concatenated pair feature (2*d).
    """

    wpos: list
    wneg: list
    theta: np.ndarray

    def __post_init__(self):
        if len(self.wpos) != len(self.wneg) or not self.wpos:
            raise ValueError("branch layer lists must be non-empty and equal length")
        h = self.wpos[0].shape[0]
        for l, (wp, wn) in enumerate(zip(self.wpos, self.wneg)):
            if wp.shape != wn.shape or wp.shape[0] != h:
                raise ValueError(f"layer {l} weight shapes do not chain: {wp.shape} vs {wn.shape}")
            if l > 0 and wp.shape[1] != 2 * h:
                raise ValueError(f"layer {l} expects fan-in {2 * h}, got {wp.shape[1]}")
        if self.theta.shape != (len(CLASSES), 4 * h):
            raise ValueError(f"classifier shape {self.theta.shape} != {(len(CLASSES), 4 * h)}")
        for a in self.arrays():
            if not np.all(np.isfinite(a)):
                raise ValueError("model parameters contain non-finite entries")

    @property
    def layers(self) -> int:
        return len(self.wpos)

    @property
    def half_dim(self) -> int:
        return self.wpos[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return 2 * self.half_dim

    @property
    def feature_dim(self) -> int:
        return self.wpos[0].shape[1] // 2

    def arrays(self) -> list:
        """Every array in the one order the trainer uses: wpos layers, wneg layers, theta."""
        return list(self.wpos) + list(self.wneg) + [self.theta]

    @classmethod
    def from_arrays(cls, arrays) -> "ModelParams":
        """The inverse of arrays()."""
        if len(arrays) % 2 == 0:
            raise ValueError(f"expected 2 * layers + 1 arrays, got {len(arrays)}")
        layers = len(arrays) // 2
        return cls(list(arrays[:layers]), list(arrays[layers:2 * layers]), arrays[-1])


@dataclass
class EmbeddingPair:
    """Positive- and negative-branch embedding matrices, one row per node."""

    zpos: np.ndarray
    zneg: np.ndarray

    def __post_init__(self):
        if self.zpos.shape != self.zneg.shape:
            raise ValueError("branch embeddings must have equal shapes")
        if not (np.all(np.isfinite(self.zpos)) and np.all(np.isfinite(self.zneg))):
            raise ValueError("embeddings contain non-finite entries")


@dataclass
class TrainResult:
    params: ModelParams
    embeddings: EmbeddingPair
    loss_trace: list = field(default_factory=list)


@dataclass(frozen=True)
class EgoTree:
    """Level-by-level signed unrolling of a node's neighborhood."""

    graph: SignedGraph
    root: int
    sources: tuple


def synth_features(n: int, dim: int, seed: int) -> np.ndarray:
    """Fixed-seed uniform features in [-a, a] with a = sqrt(3/dim).

    The bound makes E[||row||^2] = 1, so rows have roughly unit norm at any
    dimension.
    """
    if dim < 1:
        raise ValueError("feature dimension must be >= 1")
    a = math.sqrt(3.0 / dim)
    return np.random.default_rng(seed).uniform(-a, a, size=(n, dim))


def concat(pair: EmbeddingPair) -> np.ndarray:
    """Final embedding: positive-branch columns then negative-branch columns."""
    return np.hstack([pair.zpos, pair.zneg])


def init_params(feature_dim: int, embed_dim: int, layers: int, rng) -> ModelParams:
    """Glorot-uniform branch weights, zero classifier (uniform initial softmax)."""
    h = embed_dim // 2
    wpos, wneg = [], []
    for branch in (wpos, wneg):
        for l in range(layers):
            fan_in = 2 * feature_dim if l == 0 else 2 * h
            limit = math.sqrt(6.0 / (fan_in + h))
            branch.append(rng.uniform(-limit, limit, size=(h, fan_in)))
    theta = np.zeros((len(CLASSES), 2 * embed_dim))
    return ModelParams(wpos, wneg, theta)


class _GraphTensors:
    """Row-normalized propagation operators for one graph, built once."""

    def __init__(self, g: SignedGraph):
        apos, aneg = split_adjacency(g)
        apos = apos.astype(np.float64)
        aneg = aneg.astype(np.float64)
        degp = np.asarray(apos.sum(axis=1)).ravel()
        degn = np.asarray(aneg.sum(axis=1)).ravel()
        degt = degp + degn
        self.rp1 = self._row_scale(apos, degp)
        self.rn1 = self._row_scale(aneg, degn)
        self.rpd = self._row_scale(apos, degt)
        self.rnd = self._row_scale(aneg, degt)
        self.rpd_t = self.rpd.T.tocsr()
        self.rnd_t = self.rnd.T.tocsr()

    @staticmethod
    def _row_scale(mat, deg):
        inv = np.zeros_like(deg)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        return (sp.diags(inv) @ mat).tocsr()


def _forward_cached(tensors: _GraphTensors, params: ModelParams, x: np.ndarray):
    hp = hn = None
    cache = []
    for l in range(params.layers):
        if l == 0:
            ap = tensors.rp1 @ x
            an = tensors.rn1 @ x
            catp = np.hstack([x, ap])
            catn = np.hstack([x, an])
        else:
            ap = tensors.rpd @ hp + tensors.rnd @ hn
            an = tensors.rpd @ hn + tensors.rnd @ hp
            catp = np.hstack([hp, ap])
            catn = np.hstack([hn, an])
        hp = np.tanh(catp @ params.wpos[l].T)
        hn = np.tanh(catn @ params.wneg[l].T)
        cache.append((catp, catn, hp, hn))
    return EmbeddingPair(hp, hn), cache


def forward(g: SignedGraph, params: ModelParams, x: np.ndarray) -> EmbeddingPair:
    """Run the two-branch network; isolated nodes aggregate the zero vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n, params.feature_dim):
        raise ValueError(f"feature shape {x.shape} != {(g.n, params.feature_dim)}")
    pair, _ = _forward_cached(_GraphTensors(g), params, x)
    return pair


def _backward(tensors: _GraphTensors, params: ModelParams, cache, d_hp, d_hn):
    """Backprop through the layer stack; returns the branch weight gradients in
    arrays() order (wpos layers, then wneg layers)."""
    h = params.half_dim
    dwp = [None] * params.layers
    dwn = [None] * params.layers
    for l in range(params.layers - 1, -1, -1):
        catp, catn, hp, hn = cache[l]
        dup = d_hp * (1.0 - hp * hp)
        dun = d_hn * (1.0 - hn * hn)
        dwp[l] = dup.T @ catp
        dwn[l] = dun.T @ catn
        if l == 0:
            break
        dcatp = dup @ params.wpos[l]
        dcatn = dun @ params.wneg[l]
        dap = dcatp[:, h:]
        dan = dcatn[:, h:]
        d_hp = dcatp[:, :h] + tensors.rpd_t @ dap + tensors.rnd_t @ dan
        d_hn = dcatn[:, :h] + tensors.rnd_t @ dap + tensors.rpd_t @ dan
    return dwp + dwn


def _edge_rows(g: SignedGraph) -> np.ndarray:
    """g's edges as labelled (u, v, class) rows in g.edges() order; sign +1 is "+"."""
    rows = np.array(g.edges(), dtype=np.int64).reshape(-1, 3)
    rows[:, 2] = (1 - rows[:, 2]) // 2
    return rows


def _class_weights(rows: np.ndarray) -> np.ndarray:
    """Per-class loss weights indexed by class: total / (k * count) over the k
    classes present, 0 for an absent class."""
    counts = np.bincount(rows[:, 2], minlength=len(CLASSES))
    weights = np.zeros(len(CLASSES))
    np.divide(len(rows), np.count_nonzero(counts) * counts, out=weights, where=counts > 0)
    return weights


def _hinge_pairs(rows: np.ndarray):
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


def _loss_grads(Z, rows, theta, lam, weights, warn_missing=True):
    """Classifier + hinge values with gradients w.r.t. Z and theta.

    Returns (ce, hinge, dZ, dTheta); `hinge` already carries the lam factor.
    Regularization is handled by the callers. A row's pair feature is
    [Z_i || Z_j] with i < j, so its logits are P[i] + Q[j] for the node
    projections P = Z theta_1^T and Q = Z theta_2^T. The logit gradients are
    scattered onto the nodes as G_i and G_j, one (n x 3) bincount per endpoint
    (it adds the rows in sample order), so dTheta = [G_i^T Z, G_j^T Z] and the
    CE part of dZ is G_i theta_1 + G_j theta_2. The hinge terms reach Z only
    through the rows' squared distances, computed _ROW_BLOCK rows at a time so
    that no (rows x d) array is built: with W holding 2 * (d hinge / d dist) at
    (i, j), their part of dZ is the Laplacian product (D - W - W^T) Z, D the
    diagonal of W's row plus column sums.
    """
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
        grad_logits = probs  # probs has no further reader
        grad_logits[np.arange(count), yy] -= 1.0
        grad_logits *= (ww / count)[:, None]
        gi, gj = (np.column_stack([np.bincount(end, col, minlength=n) for col in grad_logits.T])
                  for end in (ii, jj))
        dTheta = np.hstack((gi.T @ Z, gj.T @ Z))
        dZ = gi @ theta[:, :d] + gj @ theta[:, d:]
    dist = np.empty(count)
    for b in range(0, count, _ROW_BLOCK):
        blk = slice(b, b + _ROW_BLOCK)
        diff = Z[ii[blk]]
        diff -= Z[jj[blk]]
        diff *= diff
        diff.sum(axis=1, out=dist[blk])
    hinge, coef = 0.0, np.zeros(count)  # coef: d hinge / d dist per row
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
    w = 2.0 * coef  # d hinge / d Z_i = w (Z_i - Z_j) on row (i, j), and its negative on j
    W = sp.csr_matrix((w, (ii, jj)), shape=(n, n))
    deg = np.bincount(ii, w, minlength=n) + np.bincount(jj, w, minlength=n)
    dZ += deg[:, None] * Z - W @ Z - W.T @ Z
    return ce, hinge, dZ, dTheta


def _reg(params: ModelParams, weight_decay: float) -> float:
    """L2 regularization value, summed over params.arrays() in order."""
    reg = 0.0
    for a in params.arrays():
        reg += weight_decay * float((a * a).sum())
    return reg


def _null_pool(edges: np.ndarray, n: int):
    """Pairs not in `edges` as (P, 2) row-major rows, or None if too many to list."""
    if n * (n - 1) // 2 > max(_NULL_POOL_CUTOFF, len(edges)):  # a complete graph lists none
        return None
    u, v = np.triu_indices(n, k=1)
    free = ~np.isin(u * n + v, edges[:, 0] * n + edges[:, 1])
    return np.column_stack((u[free], v[free]))


def _draw_nulls(edges: np.ndarray, n: int, pool, count: int, rng) -> np.ndarray:
    """`count` uniformly random pairs not in `edges` (with replacement), as "?" rows."""
    if pool is not None:
        pairs = pool[rng.integers(0, len(pool), size=count)] if len(pool) else pool
    else:
        keys = edges[:, 0] * n + edges[:, 1]
        pairs = np.empty((0, 2), dtype=np.int64)
        for _ in range(_NULL_DRAW_PASSES):
            if len(pairs) == count:
                break
            cand = np.sort(rng.integers(0, n, size=(2 * count, 2)), axis=1)
            cand = cand[(cand[:, 0] != cand[:, 1]) & ~np.isin(cand[:, 0] * n + cand[:, 1], keys)]
            pairs = np.concatenate((pairs, cand[:count - len(pairs)]))
        if len(pairs) < count:
            share = 1.0 - len(edges) / (n * (n - 1) // 2)
            raise ValueError(f"cannot draw {count} non-adjacent pairs in {_NULL_DRAW_PASSES} "
                             f"rejection passes: n={n}, {len(edges)} edges, "
                             f"free-pair share {share:.3g}")
    return np.column_stack((pairs, np.full(len(pairs), _NULL, dtype=np.int64)))


def _grad_step(tensors, params, x, rows, weights, cfg, warn_missing=True):
    """One full-batch evaluation: loss value and the gradients in params.arrays() order."""
    pair, cache = _forward_cached(tensors, params, x)
    ce, hinge, dZ, dTheta = _loss_grads(concat(pair), rows, params.theta, cfg.lam, weights,
                                        warn_missing=warn_missing)
    h = params.half_dim
    grads = _backward(tensors, params, cache, dZ[:, :h], dZ[:, h:]) + [dTheta]
    wd = cfg.weight_decay
    for a, ga in zip(params.arrays(), grads):
        ga += 2.0 * wd * a
    return ce + hinge + _reg(params, wd), grads


def train(g: SignedGraph, cfg: TrainConfig, samples_from: Optional[SignedGraph] = None,
          init: Optional[ModelParams] = None) -> TrainResult:
    """Full-batch gradient descent for cfg.epochs steps; deterministic per seed.

    Messages propagate over g from the fixed-seed synth_features(g.n,
    cfg.feature_dim, cfg.seed). Supervision comes from `samples_from` (default
    g): its edges are the labeled pairs, and "?" samples are redrawn every
    epoch as uniformly random pairs non-adjacent in it, |edges| of them. An
    epoch's samples are one int array of (u, v, class) rows. An augmented graph
    is trained with supervision from the unperturbed one so synthetic edges
    steer propagation but never become labels. Returns the final parameters,
    final embeddings and the per-epoch loss trace; raises ValueError at the
    first epoch whose objective is not finite.
    """
    sup = samples_from if samples_from is not None else g
    if sup.n != g.n:
        raise ValueError(f"supervision graph has {sup.n} nodes, expected {g.n}")
    if sup.num_pos == 0:
        raise ValueError("training requires at least one positive edge")
    if sup.num_neg == 0:
        raise ValueError("training requires at least one negative edge")
    x = synth_features(g.n, cfg.feature_dim, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(x.shape[1], cfg.embed_dim, cfg.layers, rng)
    if init is not None:
        params = init  # warm start; rng stream position stays identical
    tensors = _GraphTensors(g)
    edges = _edge_rows(sup)
    pool = _null_pool(edges, sup.n)
    lr = cfg.learning_rate
    trace = []
    for epoch in range(cfg.epochs):
        rows = np.concatenate((edges, _draw_nulls(edges, sup.n, pool, len(edges), rng)))
        if epoch == 0:  # every epoch draws the same number of samples per class
            weights = _class_weights(rows)
        value, grads = _grad_step(tensors, params, x, rows, weights, cfg,
                                  warn_missing=epoch == 0)
        if not math.isfinite(value):
            raise ValueError(f"training diverged: the objective is {value} at epoch "
                             f"{epoch + 1} of {cfg.epochs}")
        trace.append(value)
        params = ModelParams.from_arrays([a - lr * ga for a, ga in zip(params.arrays(), grads)])
    pair, _ = _forward_cached(tensors, params, x)
    return TrainResult(params=params, embeddings=pair, loss_trace=trace)


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
    tensors = _GraphTensors(g)
    edges = _edge_rows(g)
    rows = np.concatenate((edges, _draw_nulls(edges, g.n, _null_pool(edges, g.n),
                                              max(g.num_edges, 1), rng)))
    weights = _class_weights(rows)

    _, grads = _grad_step(tensors, params, x, rows, weights, cfg)
    analytic = np.concatenate([a.ravel() for a in grads])
    arrays = params.arrays()
    flat = np.concatenate([a.ravel() for a in arrays])
    cuts = np.cumsum([a.size for a in arrays])[:-1]

    def value_at(vec):
        p = ModelParams.from_arrays([part.reshape(a.shape)
                                     for part, a in zip(np.split(vec, cuts), arrays)])
        return _grad_step(tensors, p, x, rows, weights, cfg)[0]

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


PARAMS_MAGIC = b"SIGAUG-PARAMS-1\n"


def save_params(params: ModelParams, path):
    """Write parameters as a versioned binary blob (magic header + arrays)."""
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(f"layers={params.layers}\n".encode("ascii"))
        for a in params.arrays():
            np.lib.format.write_array(fh, np.ascontiguousarray(a))


def load_params(path) -> ModelParams:
    """Read a parameter blob written by save_params; validates the magic."""
    with open(path, "rb") as fh:
        magic = fh.read(len(PARAMS_MAGIC))
        if magic != PARAMS_MAGIC:
            raise ValueError(f"{path}: not a parameter blob (bad magic {magic!r})")
        header = fh.readline().decode("ascii").strip()
        if not header.startswith("layers="):
            raise ValueError(f"{path}: malformed parameter header {header!r}")
        layers = int(header.split("=", 1)[1])
        arrays = [np.lib.format.read_array(fh) for _ in range(2 * layers + 1)]
    return ModelParams.from_arrays(arrays)


def save_embeddings(pair: EmbeddingPair, path):
    """One node per line: node id then the concatenated embedding values."""
    Z = concat(pair)
    with open(path, "w") as fh:
        for i, row in enumerate(Z):
            fh.write(" ".join([str(i)] + [repr(float(v)) for v in row]) + "\n")


def load_embeddings(path) -> EmbeddingPair:
    """Read an embedding text matrix back into the two branch halves."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                node = int(fields[0])
            except ValueError:
                node = None
            if node != len(rows):
                raise ValueError(f"{path}:{lineno}: node ids must be dense and ordered "
                                 f"integers, got {fields[0]!r}")
            if len(fields) == 1:
                raise ValueError(f"{path}:{lineno}: node {node} has no embedding values")
            try:
                rows.append([float(v) for v in fields[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite embedding value")
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: {len(rows[-1])} values, "
                                 f"the first row has {len(rows[0])}")
    Z = np.array(rows, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] % 2:
        raise ValueError(f"{path}: expected an even embedding dimension, got shape {Z.shape}")
    half = Z.shape[1] // 2
    return EmbeddingPair(Z[:, :half].copy(), Z[:, half:].copy())


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
    sources = [root]
    edges = []
    frontier = [(0, root)]
    for _level in range(k):
        nxt = []
        for tree_id, src in frontier:
            children = sorted(
                [(-1, w) for w in g.neg_neighbors(src)] + [(1, w) for w in g.pos_neighbors(src)]
            )
            for s, w in children:
                new_id = len(sources)
                sources.append(w)
                edges.append((tree_id, new_id, s))
                nxt.append((new_id, w))
        frontier = nxt
    return EgoTree(graph=SignedGraph(len(sources), edges), root=0, sources=tuple(sources))
