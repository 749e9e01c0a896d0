"""Selective signed-graph augmenter.

Scores node pairs by the branch embeddings' edge propensities, then repeatedly
perturbs the extreme pairs: the best non-edge is added and the worst existing
edge removed, per sign. The propensities are computed one fixed block of rows at
a time (`_propensity_rows`), and no n x n matrix is kept. They are fixed for the
run and a spent pair never returns, so each (sign, action) slot's picks are its
candidates in one fixed order, walked from the front, and each pick carries its
value into the log. The remove pools (the original edges) are sorted up front.
The add pools span all n^2/2 pairs, of which a run reads few, so they are ranked
lazily, a chunk of the best remaining pairs at a time.
Negative candidates pass through the edge-utility filter, a one-pair walk
count (`balance.pair_utility`) evaluated on the current working graph: set
intersections of the pair's neighbor sets count its walks of lengths 2 and 3,
and only longer walks (eta 5 and 6) grow walk-count dicts.
`LogEntry.performed` is the one place its verdict decides: additions need a
keep verdict, removals a discard verdict (high-utility negatives are retained,
noise negatives go). A regulator steers the running ratio of
positive to negative perturbations toward theta_target and stops once the
perturbed-edge share reaches delta_target.

Finally the two perturbed adjacencies are fused back into one signed graph.
`fuse` is the general rule, with a tie-break for pairs present in both; it reads
the dense matrices of `edge_probabilities`. Within `augment` no pair ever is in
both: additions of both signs take original non-edges, never the same pair
twice, and removals only take original edges of their own sign, so the working
sets stay disjoint and fusion is their union.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .balance import DISCARD, ETA_DEFAULT, KEEP, check_eta, check_mu, filter_edge, pair_utility
from .graph import SignedGraph
from .sgnn import EmbeddingPair

logger = logging.getLogger(__name__)

CONTINUE = "continue"
STOP = "stop"

ADD = "add"
REMOVE = "remove"
NOT_GATED = "n/a"

_RECIPROCAL_GUARD = 1e-8
_RATIO_TOL = 1e-9

# rows per propensity block, and pairs ranked by an add pool's first refill
_ROW_BLOCK = 128
_FIRST_CHUNK = 1024


@dataclass(frozen=True)
class ProbabilityMatrices:
    """Dense edge-propensity matrices per sign, for `fuse`; only pairs u < v are
    ever read. `augment` reads the same values block by block instead."""

    mpos: np.ndarray
    mneg: np.ndarray


@dataclass(frozen=True)
class EPRConfig:
    """Perturbation-regulator targets plus the utility gate threshold."""

    theta_target: float
    delta_target: float
    mu: float
    eta: int = ETA_DEFAULT

    def __post_init__(self):
        check_mu(self.mu)
        if not 0 < self.theta_target < math.inf:
            raise ValueError("theta must be positive and finite")
        if not 0.0 <= self.delta_target <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        check_eta(self.eta)


@dataclass(frozen=True)
class LogEntry:
    action: str
    sign: int
    u: int
    v: int
    probability: float
    euf_verdict: str

    @property
    def performed(self) -> bool:
        """Whether the edge change actually happened.

        The utility verdict describes the edge itself: a "discard" edge cannot
        be added (gated addition), a "keep" edge cannot be removed (vetoed
        removal). Ungated actions carry "n/a" and always happen.
        """
        if self.euf_verdict == NOT_GATED:
            return True
        return self.euf_verdict == (KEEP if self.action == ADD else DISCARD)


class PerturbationLog:
    """Ordered perturbation record with running kept-counters per sign."""

    def __init__(self):
        self.entries: list[LogEntry] = []
        self.pos_kept = 0
        self.neg_kept = 0

    def append(self, entry: LogEntry):
        self.entries.append(entry)
        if entry.performed:
            if entry.sign > 0:
                self.pos_kept += 1
            else:
                self.neg_kept += 1

    @property
    def total_kept(self) -> int:
        return self.pos_kept + self.neg_kept

    def to_lines(self) -> list[str]:
        return [f"{i} {e.action} {e.sign} {e.u} {e.v} {e.probability!r} {e.euf_verdict}"
                for i, e in enumerate(self.entries)]

    def __len__(self):
        return len(self.entries)


@dataclass
class AugmentedGraph:
    """Fused result plus the full action log."""

    graph: SignedGraph
    log: PerturbationLog
    thresholds_unmet: bool = False


def _blocks(n: int):
    """The fixed row blocks (r0, r1) of an n-node propensity matrix.

    Every reader cuts at these rows: BLAS may round an entry of a product
    differently in a block of another shape, and the values must not depend on
    who reads them.
    """
    return ((r0, min(r0 + _ROW_BLOCK, n)) for r0 in range(0, n, _ROW_BLOCK))


def _normalize(z: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; a row whose norm overflows is divided by its
    largest magnitude first, and a zero-norm row stays zero (with a warning)."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowed norm is handled below
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    huge = ~np.isfinite(norms[:, 0])
    if huge.any():  # bring those rows into range
        z = z.copy()
        z[huge] /= np.abs(z[huge]).max(axis=1, keepdims=True)
        norms[huge] = np.linalg.norm(z[huge], axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-300
    if bad.any():
        logger.warning("%d zero-norm embedding rows; similarities guarded", int(bad.sum()))
    safe = np.where(norms > 0, norms, 1.0)
    return z / safe


def _propensity_rows(pair: EmbeddingPair):
    """The one definition of a propensity: `rows(sign, r0, r1)`, the scores of
    nodes r0:r1 against every node, an (r1 - r0) x n array.

    Rows of both branches are normalized once (`_normalize`). A block is
    `zu[r0:r1] @ zu.T`, full width: cosine similarities for sign +1, and for
    sign -1 their reciprocals. The reciprocal keeps its sign; magnitudes below
    1e-8 are clamped to +-1e-8 (zeros to +1e-8) before dividing, in place, so
    the block stays finite. Readers call it with the boundaries of `_blocks`.
    """
    z = {1: _normalize(pair.zpos), -1: _normalize(pair.zneg)}

    def rows(sign: int, r0: int, r1: int) -> np.ndarray:
        zu = z[sign]
        block = zu[r0:r1] @ zu.T
        if sign < 0:
            small = (block < _RECIPROCAL_GUARD) & (block > -_RECIPROCAL_GUARD)
            block[small] = np.where(block[small] < 0, -_RECIPROCAL_GUARD, _RECIPROCAL_GUARD)
            np.divide(1.0, block, out=block)
        return block

    return rows


def edge_probabilities(pair: EmbeddingPair) -> ProbabilityMatrices:
    """Cosine scores per branch as dense matrices: mpos = Zp Zp^T, mneg = 1 / (Zn Zn^T).

    The entries are those of `_propensity_rows`, bit for bit: each row block
    fills its upper triangle, and the lower triangle is mirrored from it block
    by block, so both matrices are exactly symmetric. A zero-norm row yields
    zero similarity and falls under the reciprocal guard. The diagonals hold
    each node's score with itself, which no pool reads: candidates are pairs
    u < v.
    """
    rows = _propensity_rows(pair)
    n = pair.zpos.shape[0]
    mats = {1: np.empty((n, n)), -1: np.empty((n, n))}
    for r0, r1 in _blocks(n):
        lower = np.tril_indices(r1 - r0, -1)
        for sign, m in mats.items():
            m[r0:r1, r0:] = rows(sign, r0, r1)[:, r0:]
            m[r0:r1, :r0] = m[:r0, r0:r1].T
            square = m[r0:r1, r0:r1]
            square[lower] = square.T[lower]
    return ProbabilityMatrices(mpos=mats[1], mneg=mats[-1])


def _ratio_error(pos: int, neg: int, theta: float) -> float:
    """Distance to the target sign ratio, in edges (numerator or denominator)."""
    return min(abs(pos - theta * neg), abs(neg - pos / theta))


def _ratio_ok(pos: int, neg: int, theta: float) -> bool:
    return _ratio_error(pos, neg, theta) <= 1.0 + _RATIO_TOL


def epr_check(log: PerturbationLog, cfg: EPRConfig, original_edge_count: int) -> str:
    """Stop once the perturbed share reaches delta_target and the realized
    sign ratio sits within one edge of theta_target."""
    if original_edge_count <= 0:
        raise ValueError("original_edge_count must be positive")
    share = log.total_kept / original_edge_count
    if share >= cfg.delta_target - _RATIO_TOL and _ratio_ok(log.pos_kept, log.neg_kept,
                                                            cfg.theta_target):
        return STOP
    return CONTINUE


def _top(vals: np.ndarray, k: int) -> np.ndarray:
    """The k largest of vals, unordered (all of them if there are fewer)."""
    return vals if vals.size <= k else np.partition(vals, vals.size - k)[vals.size - k:]


def _ranked_pairs(block, n: int):
    """Upper-triangle pairs (u * n + v, value) of the n x n matrix whose rows
    r0:r1 are block(r0, r1), highest value first and ties in key order: the
    order of a stable sort by descending value.

    Ranked lazily, a chunk at a time. Each refill computes every row block of
    `_blocks` once and keeps its top `chunk` entries among those not yet ranked;
    the chunk-th largest kept value is the new threshold. Every unranked entry
    at or above it is ranked in this refill, so a tie run goes in whole. Only a
    block whose own cut equals the threshold can hold such entries beyond the
    ones it kept, and only that block is computed again. Each refill doubles the
    chunk, so no array of all n^2/2 pairs is built unless the pool is walked
    that far. Values must not be NaN.
    """
    chunk = _FIRST_CHUNK
    below = math.inf  # every entry ranked so far is >= below, every other one < below

    def unranked(r0, r1):
        """Keys and values of the block's upper entries not yet ranked."""
        vals = block(r0, r1)
        mask = (np.arange(n) > np.arange(r0, r1)[:, None]) & (vals < below)
        return np.flatnonzero(mask) + r0 * n, vals[mask]

    while True:
        kept = []  # per block: (r0, r1, keys, values, cut); cut None if nothing was left out
        for r0, r1 in _blocks(n):
            keys, vals = unranked(r0, r1)
            cut = None
            if vals.size > chunk:
                top = np.argpartition(vals, vals.size - chunk)[vals.size - chunk:]
                keys, vals = keys[top], vals[top]
                cut = vals.min()
            kept.append((r0, r1, keys, vals, cut))
        tops = np.concatenate([vals for _r0, _r1, _keys, vals, _cut in kept])
        if tops.size == 0:
            return
        kth = _top(tops, chunk).min()
        ranked_keys, ranked_vals = [], []
        for r0, r1, keys, vals, cut in kept:
            if cut == kth:  # a tie run crosses the block's cut
                keys, vals = unranked(r0, r1)
            at_least = vals >= kth
            ranked_keys.append(keys[at_least])
            ranked_vals.append(vals[at_least])
        keys, vals = np.concatenate(ranked_keys), np.concatenate(ranked_vals)
        order = np.lexsort((keys, -vals))
        yield from zip(keys[order].tolist(), vals[order].tolist())
        below = kth
        chunk *= 2


def _edge_values(block, n: int, keys: np.ndarray) -> np.ndarray:
    """Values of the pairs with sorted row-major keys, read from the row blocks."""
    u, v = np.divmod(keys, n)
    vals = np.empty(keys.size)
    for r0, r1 in _blocks(n):
        lo, hi = np.searchsorted(u, (r0, r1))
        if lo < hi:
            vals[lo:hi] = block(r0, r1)[u[lo:hi] - r0, v[lo:hi]]
    return vals


class AugmentationState:
    """Mutable working state of one augmentation run (single-owner).

    `rows(sign, r0, r1)` gives the propensities of nodes r0:r1 against every
    node (`_propensity_rows`). The candidates of each (sign, action) slot form
    one pool of (key, value) pairs, each ranked in one fixed order: add pools
    hold every upper-triangle pair, highest value first, ranked lazily by
    `_ranked_pairs`; remove pools hold the original edges of their sign,
    lowest value first, sorted here. Both orders break ties by row-major key,
    as an argmax/argmin scan would. Walking the pools equals rescanning the
    remaining candidates before every action because the values never change
    during a run and a pair that leaves a pool never comes back. `taken` holds
    the original edges plus every pair already picked; add pools skip those
    pairs. Remove pools never need to: no other slot can take an original edge.
    """

    def __init__(self, g: SignedGraph, rows, cfg: EPRConfig):
        n = g.n
        self.n = n
        self.cfg = cfg
        self.original_edge_count = g.num_edges
        self.pos_adj = [set(g.pos_neighbors(u)) for u in range(n)]
        self.neg_adj = [set(g.neg_neighbors(u)) for u in range(n)]
        self.log = PerturbationLog()
        # pairs as row-major flat keys u * n + v, u < v; g.edges() is in that order
        self.taken = {u * n + v for u, v, _ in g.edges()}
        self.pools = {}
        for sign in (1, -1):
            block = partial(rows, sign)
            edges = np.array([u * n + v for u, v, s in g.edges() if s == sign], dtype=np.intp)
            vals = _edge_values(block, n, edges)
            order = np.argsort(vals, kind="stable")
            self.pools[sign, ADD] = _ranked_pairs(block, n)
            self.pools[sign, REMOVE] = zip(edges[order].tolist(), vals[order].tolist())

    def _pick(self, sign: int, action: str):
        """The slot's best pair not yet taken, as (u, v, value), or None once its
        pool is empty."""
        for key, value in self.pools[sign, action]:
            if action == REMOVE or key not in self.taken:
                self.taken.add(key)
                return (*divmod(key, self.n), value)
        return None

    def _steer_allows(self, sign: int) -> bool:
        """Skip an action when it would drift the running sign ratio past the
        target by more than one edge (and would not move it closer)."""
        p, m = self.log.pos_kept, self.log.neg_kept
        p2, m2 = (p + 1, m) if sign > 0 else (p, m + 1)
        theta = self.cfg.theta_target
        return _ratio_ok(p2, m2, theta) or (
            _ratio_error(p2, m2, theta) < _ratio_error(p, m, theta) - _RATIO_TOL)


# (sign, action) slots of one round, in the order they are tried
_SLOTS = ((1, ADD), (1, REMOVE), (-1, ADD), (-1, REMOVE))


def perturb_step(state: AugmentationState) -> int:
    """One perturbation round: up to four actions, one per (sign, action) slot
    in the order +add, +remove, -add, -remove. Returns the number of actions
    logged; 0 means every slot's pool is empty or steered away, which is the
    stop signal to the driver.

    Each slot takes the next pair of its pool in its fixed order: the pair a fresh
    argmax/argmin scan would pick (AugmentationState says why). The pair's
    value comes with it from the pool and is the entry's probability. Positive
    actions are ungated. Negative candidates pass through the utility filter
    on the current working graph, and the logged entry's `performed` decides
    whether the change is applied: an addition only when the filter keeps the
    edge, a removal only when it discards it (noise negatives go, load-bearing
    ones are retained). Gated-away candidates are still logged and spent.
    """
    cfg = state.cfg
    actions = 0
    for sign, action in _SLOTS:
        if not state._steer_allows(sign):
            continue
        pick = state._pick(sign, action)
        if pick is None:
            continue
        u, v, value = pick
        verdict = NOT_GATED
        if sign < 0:
            util = pair_utility(state.pos_adj, state.neg_adj, u, v, cfg.eta)
            verdict = filter_edge(util, cfg.mu)
        entry = LogEntry(action, sign, u, v, value, verdict)
        if entry.performed:
            adj = state.pos_adj if sign > 0 else state.neg_adj
            change = set.add if action == ADD else set.discard
            change(adj[u], v)
            change(adj[v], u)
        state.log.append(entry)
        actions += 1
    return actions


def fuse(apos_aug, aneg_aug, probs: ProbabilityMatrices) -> SignedGraph:
    """Merge the perturbed per-sign adjacencies into one signed graph.

    Per pair: both zero -> no edge; exactly one nonzero -> that sign; both
    nonzero -> +1 iff mpos > mneg, else -1.
    """
    apos = sp.csr_matrix(apos_aug)
    aneg = sp.csr_matrix(aneg_aug)
    if apos.shape != aneg.shape or apos.shape[0] != apos.shape[1]:
        raise ValueError("adjacency shapes differ or are not square")
    pos, neg = set(), set()  # each sign's nonzero (u, v) pairs with u < v
    for name, m, pairs in (("positive", apos, pos), ("negative", aneg, neg)):
        if (m != m.T).nnz != 0:
            raise ValueError(f"{name} adjacency is not symmetric")
        rows, cols = sp.triu(m, k=1).nonzero()
        pairs.update(zip(rows.tolist(), cols.tolist()))
    edges = []
    for u, v in sorted(pos | neg):
        if (u, v) in pos and (u, v) in neg:
            sign = 1 if probs.mpos[u, v] > probs.mneg[u, v] else -1
        else:
            sign = 1 if (u, v) in pos else -1
        edges.append((u, v, sign))
    return SignedGraph(apos.shape[0], edges)


def augment(g: SignedGraph, pair: EmbeddingPair, cfg: EPRConfig) -> AugmentedGraph:
    """Drive perturbation rounds to the regulator's fixed point, then fuse.

    Deterministic for identical inputs. When the candidate pools run dry before
    both regulator targets are met, the best-effort result is returned with
    thresholds_unmet set.
    """
    if g.num_edges == 0:
        raise ValueError("cannot augment a graph without edges")
    if pair.zpos.shape[0] != g.n:
        raise ValueError("embeddings do not match the graph size")
    state = AugmentationState(g, _propensity_rows(pair), cfg)
    unmet = False
    while epr_check(state.log, cfg, state.original_edge_count) == CONTINUE:
        if perturb_step(state) == 0:
            unmet = True
            break
    # the working sets are disjoint (module docstring), so fusion is their union
    edges = sorted((u, v, sign) for sign, adj in ((1, state.pos_adj), (-1, state.neg_adj))
                   for u in range(g.n) for v in adj[u] if u < v)
    return AugmentedGraph(graph=SignedGraph(g.n, edges), log=state.log,
                          thresholds_unmet=unmet)
