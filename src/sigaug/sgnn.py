"""Compact two-branch signed GNN with a hand-derived training objective.

The network keeps separate positive and negative embedding branches. Layer 1
aggregates raw features over each branch's own neighbor set; deeper layers
cross the branches (the positive branch pulls positive embeddings of positive
neighbors and negative embeddings of negative neighbors, the negative branch
the converse). AGGREGATE is the mean over the neighbor set, COMBINE is
concatenate-then-linear-then-tanh. Training is full-batch gradient descent on a
weighted 3-class logistic loss over node pairs plus two hinge terms separating
positive/negative neighbors from non-adjacent pairs; gradients are derived by
hand, and the tests check them against central finite differences. Inside the
trainer a sample set is one int64 array of (u, v, class) rows, class indexing
CLASSES.
The loss works at node level: the classifier projects each node's embedding
once, its logit gradients are scattered onto the nodes by bincount, and the
hinge gradient reaches Z through one sparse node-by-node weight matrix, never
through a per-row copy of the pair features; the rows' squared distances are
taken in fixed row blocks. The loss sorts once per epoch: `graph._by_node`
groups the null rows' endpoints by node, and each hinge pair's null rows are
found from its per-node offsets, without a search. A row's endpoints are
ordered, and the logits' row max taken, by elementwise min/max rather than by
a sort or a reduction along a short axis.
Each `train` and `forward` call builds one `_GraphTensors` from its graph and
features: the layer-0 inputs [x || R+ x] and [x || R- x] and the two
cross-branch operators, whose transposes are csc views of them that sum in the
order a transposed copy would. The operators' csr arrays are written straight
from each sign's neighbor runs (`graph._neighbor_runs`). `train`
also builds the supervision's edge rows and the null pool once; an epoch draws
only its "?" rows, and a rejection draw is looked up in the ascending edge
keys after sorting only the draws.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .graph import (_FLOAT, _INT, _SPACE, NEG, POS, SignedGraph, _by_node, _int_value,
                    _neighbor_runs)

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
    """What every forward and backward on one graph and feature matrix reads:
    the layer-0 inputs x0 = ([x || R+ x], [x || R- x]), R+ and R- the
    own-degree operators, and the deeper layers' operators rpd and rnd with
    their transposes rpd_t and rnd_t.

    rpd and rnd are csr arrays written from each sign's neighbor runs over the
    reversed edge rows (`graph._neighbor_runs`), so each row's columns descend,
    the entry order `sp.diags(1 / deg) @ A` leaves, and their products sum in
    that order. rpd_t and rnd_t are their csc views: a csc product adds into each
    output row in ascending column order, as a csr copy of the transpose would.
    """

    def __init__(self, g: SignedGraph, x: np.ndarray):
        edges = g.edge_array()[::-1]
        adj = [_neighbor_runs(edges, sign, g.n) for sign in (POS, NEG)]
        degp, degn = (np.diff(indptr).astype(np.float64) for _, indptr in adj)
        degt = degp + degn
        rp1, self.rpd = self._scaled(*adj[0], degp, degt)
        rn1, self.rnd = self._scaled(*adj[1], degn, degt)
        self.rpd_t, self.rnd_t = self.rpd.T, self.rnd.T
        self.x0 = np.hstack([x, rp1 @ x]), np.hstack([x, rn1 @ x])

    @staticmethod
    def _scaled(cols, indptr, deg, degt):
        """diag(1 / deg) A and diag(1 / degt) A; A's row i is cols[indptr[i]:indptr[i + 1]]."""
        inv, invt = np.zeros_like(deg), np.zeros_like(degt)
        np.divide(1.0, deg, out=inv, where=deg > 0)
        np.divide(1.0, degt, out=invt, where=degt > 0)
        row = np.repeat(np.arange(len(deg)), np.diff(indptr))
        shape = (len(deg), len(deg))
        return (sp.csr_matrix((inv[row], cols, indptr), shape=shape),
                sp.csr_matrix((invt[row], cols, indptr), shape=shape))


def _forward_cached(tensors: _GraphTensors, params: ModelParams):
    """The layer stack from the layer-0 inputs tensors.x0: the final embeddings
    and each layer's (catp, catn, hp, hn) for _backward."""
    catp, catn = tensors.x0
    cache = []
    for l in range(params.layers):
        if l > 0:
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
    pair, _ = _forward_cached(_GraphTensors(g, x), params)
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
    """g's edges as labelled (u, v, class) rows in its edge array's order; sign
    +1 is "+". A copy of the edge array with the sign column mapped to the class."""
    rows = g.edge_array().copy()
    rows[:, 2] = (1 - rows[:, 2]) // 2
    return rows


def _class_weights(rows: np.ndarray) -> np.ndarray:
    """Per-class loss weights indexed by class: total / (k * count) over the k
    classes present, 0 for an absent class."""
    counts = np.bincount(rows[:, 2], minlength=len(CLASSES))
    weights = np.zeros(len(CLASSES))
    np.divide(len(rows), np.count_nonzero(counts) * counts, out=weights, where=counts > 0)
    return weights


def _hinge_pairs(rows: np.ndarray, n: int):
    """Hinge terms as (edge row, null row) index pairs into `rows`, whose endpoints
    are below n: one (T, 2) int64 array for the "+" rows, one for the "-" rows; a
    term compares its rows' squared distances. An edge row and a "?" row pair up
    whenever they share an endpoint, the anchor. Per edge row (u, v) in sample order
    come pairs anchored at u, then at v, nulls in order.

    The null rows' incidences are grouped by anchor (`graph._by_node`), and an
    endpoint's run in that order is found from the per-node offsets: it starts at
    the count of incidences at smaller nodes and is as long as the count at the
    node, so no lookup searches the sorted anchors."""
    null = np.flatnonzero(rows[:, 2] == _NULL)
    anchors = rows[null, :2].ravel()  # null row (u, v) is incidences at u and at v
    order, off = _by_node(anchors, n)  # the stable sort keeps sample order
    partners = null[order // 2]
    out = []
    for cls in (0, 1):
        edge = np.flatnonzero(rows[:, 2] == cls)
        a = rows[edge, :2].ravel()
        start, count = off[a], off[a + 1] - off[a]
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
    count = len(rows)  # never 0: the rows hold an edge of each sign (check_supervision)
    ii, jj = np.minimum(rows[:, 0], rows[:, 1]), np.maximum(rows[:, 0], rows[:, 1])
    yy = rows[:, 2]
    ww = weights[yy]
    logits = (Z @ theta[:, :d].T).take(ii, axis=0) + (Z @ theta[:, d:].T).take(jj, axis=0)
    logits -= np.maximum(np.maximum(logits[:, 0], logits[:, 1]), logits[:, 2])[:, None]
    expl = np.exp(logits)
    # the three-term sum in the order expl.sum(axis=1) adds them
    probs = expl / ((expl[:, 0] + expl[:, 1]) + expl[:, 2])[:, None]
    truth = 3 * np.arange(count) + yy  # each row's true class in the flat probs
    picked = np.clip(probs.take(truth), 1e-300, None)
    ce = float((ww * -np.log(picked)).sum() / count)
    grad_logits = probs  # probs has no further reader
    grad_logits.ravel()[truth] -= 1.0
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
    for pairs, flip, name in zip(_hinge_pairs(rows, n), (1.0, -1.0), ("(+,?)", "(-,?)")):
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
    """L2 regularization value, summed over params.arrays() in order.

    A diverging run overflows it to inf silently: `train` reports that itself.
    """
    reg = 0.0
    with np.errstate(over="ignore"):
        for a in params.arrays():
            reg += weight_decay * float((a * a).sum())
    return reg


def _null_pool(keys: np.ndarray, n: int):
    """Pairs not among the edges' ascending pair keys u * n + v (`pair_keys`) as
    (P, 2) row-major rows, or None if too many to list. The listed pairs' keys
    ascend too, so one search places every edge among them."""
    if n * (n - 1) // 2 > max(_NULL_POOL_CUTOFF, len(keys)):  # a complete graph lists none
        return None
    u, v = np.triu_indices(n, k=1)
    free = np.ones(len(u), dtype=bool)
    free[np.searchsorted(u * n + v, keys)] = False
    return np.column_stack((u[free], v[free]))


def _draw_nulls(keys: np.ndarray, n: int, pool, count: int, rng) -> np.ndarray:
    """`count` uniformly random pairs not among the edges' ascending pair keys
    (with replacement), as "?" rows. A rejection pass sorts only its draws and
    looks them up in the keys (`_is_edge`)."""
    if pool is not None:
        pairs = pool[rng.integers(0, len(pool), size=count)] if len(pool) else pool
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
        for _ in range(_NULL_DRAW_PASSES):
            if len(pairs) == count:
                break
            raw = rng.integers(0, n, size=(2 * count, 2))
            lo, hi = np.minimum(raw[:, 0], raw[:, 1]), np.maximum(raw[:, 0], raw[:, 1])
            keep = np.flatnonzero((lo != hi) & ~_is_edge(keys, lo * n + hi))[:count - len(pairs)]
            pairs = np.concatenate((pairs, np.column_stack((lo[keep], hi[keep]))))
        if len(pairs) < count:
            share = 1.0 - len(keys) / (n * (n - 1) // 2)
            raise ValueError(f"cannot draw {count} non-adjacent pairs in {_NULL_DRAW_PASSES} "
                             f"rejection passes: n={n}, {len(keys)} edges, "
                             f"free-pair share {share:.3g}")
    return np.column_stack((pairs, np.full(len(pairs), _NULL, dtype=np.int64)))


def _is_edge(keys: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Whether each of `draws` is in the ascending `keys`, as np.isin would say.

    The draws are searched in sorted order, so each search starts from the
    previous one's result; a draw above the last key gets the index past the
    end, which is clamped onto the last key."""
    found = np.zeros(len(draws), dtype=bool)
    if len(keys):
        order = np.argsort(draws)
        ranked = draws[order]
        at = np.minimum(np.searchsorted(keys, ranked), len(keys) - 1)
        found[order] = keys[at] == ranked
    return found


def _grad_step(tensors, params, rows, weights, cfg, warn_missing=True):
    """One full-batch evaluation: loss value and the gradients in params.arrays() order."""
    pair, cache = _forward_cached(tensors, params)
    ce, hinge, dZ, dTheta = _loss_grads(concat(pair), rows, params.theta, cfg.lam, weights,
                                        warn_missing=warn_missing)
    h = params.half_dim
    grads = _backward(tensors, params, cache, dZ[:, :h], dZ[:, h:]) + [dTheta]
    wd = cfg.weight_decay
    for a, ga in zip(params.arrays(), grads):
        ga += 2.0 * wd * a
    return ce + hinge + _reg(params, wd), grads


def check_supervision(g: SignedGraph) -> None:
    """Refuse a supervision graph without an edge of each sign, which the loss needs."""
    if g.num_pos == 0:
        raise ValueError("training requires at least one positive edge")
    if g.num_neg == 0:
        raise ValueError("training requires at least one negative edge")


def train(g: SignedGraph, cfg: TrainConfig, samples_from: Optional[SignedGraph] = None,
          init: Optional[ModelParams] = None) -> TrainResult:
    """Full-batch gradient descent for cfg.epochs steps; deterministic per seed.

    Messages propagate over g from the fixed-seed synth_features(g.n,
    cfg.feature_dim, cfg.seed). Supervision comes from `samples_from` (default
    g): its edges are the labeled pairs, and "?" samples are redrawn every
    epoch as uniformly random pairs non-adjacent in it, |edges| of them. An
    epoch's samples are one int array of (u, v, class) rows. An augmented graph
    is trained with supervision from the unperturbed one so synthetic edges
    steer propagation but never become labels. `init` warm-starts from given
    parameters, which must have cfg's feature_dim, embed_dim and layers.

    What does not change between epochs is built once per call: one
    `_GraphTensors`, holding the layer-0 inputs [x || R+ x] and [x || R- x] and
    the cross-branch operators (their transposes are csc views, which sum in
    the same order as transposed copies, so every bit is kept), the
    supervision's edge rows and, on graphs small enough to list them, the pool
    of non-adjacent pairs the "?" rows are drawn from.

    Returns the final parameters, final embeddings and the per-epoch loss
    trace; raises ValueError before the first epoch if the supervision lacks
    an edge of either sign (`check_supervision`) or `init` does not match cfg,
    and at the first epoch whose objective is not finite.
    """
    sup = samples_from if samples_from is not None else g
    if sup.n != g.n:
        raise ValueError(f"supervision graph has {sup.n} nodes, expected {g.n}")
    check_supervision(sup)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.feature_dim, cfg.embed_dim, cfg.layers, rng)
    if init is not None:
        for name in ("feature_dim", "embed_dim", "layers"):
            if getattr(init, name) != getattr(cfg, name):
                raise ValueError(f"init has {name}={getattr(init, name)}, "
                                 f"cfg has {name}={getattr(cfg, name)}")
        params = init  # warm start; rng stream position stays identical
    tensors = _GraphTensors(g, synth_features(g.n, cfg.feature_dim, cfg.seed))
    edges, keys = _edge_rows(sup), sup.pair_keys()
    pool = _null_pool(keys, sup.n)
    lr = cfg.learning_rate
    trace = []
    for epoch in range(cfg.epochs):
        rows = np.concatenate((edges, _draw_nulls(keys, sup.n, pool, len(edges), rng)))
        if epoch == 0:  # every epoch draws the same number of samples per class
            weights = _class_weights(rows)
        value, grads = _grad_step(tensors, params, rows, weights, cfg, warn_missing=epoch == 0)
        if not math.isfinite(value):
            raise ValueError(f"training diverged: the objective is {value} at epoch "
                             f"{epoch + 1} of {cfg.epochs}")
        trace.append(value)
        params = ModelParams.from_arrays([a - lr * ga for a, ga in zip(params.arrays(), grads)])
    pair, _ = _forward_cached(tensors, params)
    return TrainResult(params=params, embeddings=pair, loss_trace=trace)


PARAMS_MAGIC = b"SIGAUG-PARAMS-1\n"


def save_params(params: ModelParams, path):
    """Write parameters as a versioned binary blob (magic header + arrays)."""
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(f"layers={params.layers}\n".encode("ascii"))
        for a in params.arrays():
            np.lib.format.write_array(fh, np.ascontiguousarray(a))


def load_params(path) -> ModelParams:
    """Read a parameter blob written by save_params.

    The magic, then `layers=` and a layer count of at least 1 in ASCII digits
    (`graph._INT`), then exactly 2 * layers + 1 arrays; every refusal is a
    ValueError that names the file."""
    with open(path, "rb") as fh:
        magic = fh.read(len(PARAMS_MAGIC))
        if magic != PARAMS_MAGIC:
            raise ValueError(f"{path}: not a parameter blob (bad magic {magic!r})")
        header = fh.readline().decode("ascii", errors="replace").strip(_SPACE + "\n")
        key, _, count = header.partition("=")
        # past 18 digits, leading zeros aside, no blob holds that many arrays
        layers = _int_value(count, 18) if key == "layers" and _INT.fullmatch(count) else None
        if layers is None or layers < 1:
            raise ValueError(f"{path}: malformed parameter header {header!r}")
        try:
            params = ModelParams.from_arrays(
                [np.lib.format.read_array(fh) for _ in range(2 * layers + 1)])
        except ValueError as exc:  # a short or malformed array, or weights that do not chain
            raise ValueError(f"{path}: {exc}") from None
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the last array")
    return params


def save_embeddings(pair: EmbeddingPair, path):
    """One node per line: node id then the concatenated embedding values."""
    Z = concat(pair)
    with open(path, "w") as fh:
        for i, row in enumerate(Z):
            fh.write(" ".join([str(i)] + [repr(float(v)) for v in row]) + "\n")


def load_embeddings(path) -> EmbeddingPair:
    """Read an embedding text matrix back into the two branch halves.

    Read as bytes, as `graph.load_edge_list` reads: lines end at line feeds
    only, fields part at ASCII whitespace, a node id is an optionally signed
    run of ASCII digits (`graph._INT`) and a value an ASCII decimal or exponent
    number (`graph._FLOAT`); bytes that are not UTF-8 show as U+FFFD in a
    message.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rows = []
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        fields = line.split()
        if not fields:
            continue
        texts = [f.decode(errors="replace") for f in fields]
        # past 18 digits, leading zeros aside, no id is dense
        node = _int_value(texts[0], 18) if _INT.fullmatch(texts[0]) else None
        if node != len(rows):
            raise ValueError(f"{path}:{lineno}: node ids must be dense and ordered "
                             f"integers, got {texts[0]!r}")
        if len(fields) == 1:
            raise ValueError(f"{path}:{lineno}: node {node} has no embedding values")
        for text in texts[1:]:  # the non-finite words pass here, refused below
            if not _FLOAT.fullmatch(text):
                raise ValueError(f"{path}:{lineno}: could not convert string to float: "
                                 f"{text!r}")
        rows.append([float(v) for v in fields[1:]])
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

