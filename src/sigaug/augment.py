"""Selective signed-graph augmenter.

Scores node pairs by the branch embeddings' edge propensities, then repeatedly
perturbs the extreme pairs: the best non-edge is added and the worst existing
edge removed, per sign. The propensities are computed one fixed block of rows at
a time (`_propensity_rows`), and no n x n matrix is kept. They are fixed for the
run and a spent pair never returns, so each (sign, action) slot's picks are its
candidates in one fixed order, walked from the front, and each pick carries its
value into the log. The remove pools (the original edges) are sorted up front.
The add pools span all n^2/2 pairs, of which a run reads few, so each row block
is ranked lazily on its own, a chunk of its best remaining pairs at a time, and
the blocks are merged. A ranking reads only the columns r0 and up of a block
starting at row r0, where its pairs u < v lie, and gathers only the pairs at or
above a lower bound on the chunk's last value that a sample of them gives
(`_block_best`). Each (sign, row block) product is computed once at the start
for both pools: the remove pool reads its edges' values from it and the add
pool ranks its first chunk from it. A block is multiplied again only when its
add pool refills, and the first chunks are ranked even when no round runs
(delta 0).
Negative candidates pass through the edge-utility filter, a one-pair walk
count (`balance.pair_utility`) evaluated on the current working graph: set
intersections of the pair's neighbor sets count its walks of lengths 2 and 3,
and only longer walks (eta 5 and 6) grow walk-count dicts.
`LogEntry.performed` is the one place its verdict decides: additions need a
keep verdict, removals a discard verdict (high-utility negatives are retained,
noise negatives go). A regulator steers the running ratio of
positive to negative perturbations toward theta_target and stops once the
perturbed-edge share reaches delta_target.

The result is the original graph less the removals performed plus the
additions performed, read off the log. No pair is ever in both working sets:
additions take original non-edges, never the same pair twice, and removals
only original edges of their own sign. So the result is the union of the final
working sets, and no tie between the signs is ever broken.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .balance import DISCARD, ETA_DEFAULT, KEEP, check_eta, check_mu, filter_edge, pair_utility
from .graph import SignedGraph, neighbor_sets
from .sgnn import EmbeddingPair

logger = logging.getLogger(__name__)

ADD = "add"
REMOVE = "remove"
NOT_GATED = "n/a"

_RECIPROCAL_GUARD = 1e-8
_RATIO_TOL = 1e-9

# rows per propensity block, and pairs ranked by a row block's first refill
_ROW_BLOCK = 128
_FIRST_CHUNK = 256


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
    """The augmented graph plus the full action log."""

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


def _ratio_error(pos: int, neg: int, theta: float) -> float:
    """Distance to the target sign ratio, in edges (numerator or denominator)."""
    return min(abs(pos - theta * neg), abs(neg - pos / theta))


def _ratio_ok(pos: int, neg: int, theta: float) -> bool:
    return _ratio_error(pos, neg, theta) <= 1.0 + _RATIO_TOL


def epr_check(log: PerturbationLog, cfg: EPRConfig, original_edge_count: int) -> bool:
    """Whether both regulator targets are met: the perturbed share has reached
    delta_target and the realized sign ratio sits within one edge of
    theta_target."""
    if original_edge_count <= 0:
        raise ValueError("original_edge_count must be positive")
    share = log.total_kept / original_edge_count
    return share >= cfg.delta_target - _RATIO_TOL and _ratio_ok(log.pos_kept, log.neg_kept,
                                                                cfg.theta_target)


def _block_best(vals: np.ndarray, n: int, r0: int, after, k: int):
    """Keys u * n + v and values of the best k pool pairs of the row block
    `vals`, rows r0:r0 + len(vals) of the matrix, in pool order: value
    descending, then key. The pool holds the pairs u < v that come after
    `after`, the last (value, key) taken, or all of them when `after` is None.
    They come sorted, and so does every pair tied with the k-th, so the cut is
    exact.

    Only the view `vals[:, r0:]` is read, since no pair has a column below r0,
    and `vals` is never written. Any k pool values bound the k-th best from
    below: when every 4th row, right of the r0 square, holds at least k pool
    pairs, the k-th best of those is the bound, and only the pairs at or above
    it are gathered. One partition of them finds the k-th value; the pairs
    tied with it stay in (`>=`) and the sort orders them.
    """
    live = vals[:, r0:]
    rows, width = live.shape
    if after is None:
        pool = None
        sample = live[::4, rows:].flatten()  # a copy, partitioned in place below
    else:
        value, key = after
        pool = live < value
        tied = np.flatnonzero(live == value)
        i, c = np.divmod(tied, width)
        pool.flat[tied] = (i + r0) * n + (c + r0) > key
        sample = live[::4, rows:][pool[::4, rows:]]
    if sample.size >= k:
        sample.partition(sample.size - k)
        hit = live >= sample[sample.size - k]
        if pool is not None:
            hit &= pool
    else:
        hit = np.ones(live.shape, dtype=bool) if pool is None else pool
    hit[:, :rows] &= ~np.tri(rows, dtype=bool)  # the r0 square's strict upper triangle
    i, c = np.divmod(np.flatnonzero(hit), width)
    vals = live[i, c]
    if vals.size > k:
        top = vals >= np.partition(vals, vals.size - k)[vals.size - k]
        i, c, vals = i[top], c[top], vals[top]
    keys = (i + r0) * n + (c + r0)
    order = np.lexsort((keys, -vals))[:k]
    return keys[order], vals[order]


def _block_pairs(block, n: int, r0: int, r1: int, first):
    """The upper-triangle pairs (key, value) of rows r0:r1 in pool order, ranked a
    chunk at a time from `first`, the block's best `_FIRST_CHUNK` pairs
    (`_block_best` with `after` None). The chunk doubles from `_FIRST_CHUNK` up
    to max(n, `_FIRST_CHUNK`) pairs, so a block waiting between refills holds
    at most that many; a refill multiplies the block again (full width, the
    shape every reader cuts) and ranks the pairs after the last one yielded
    from its columns r0 on, with its temporaries in `_block_best` only."""
    keys, vals = first
    chunk = _FIRST_CHUNK
    while keys.size:
        yield from zip(keys.tolist(), vals.tolist())
        chunk = min(2 * chunk, max(n, _FIRST_CHUNK))
        keys, vals = _block_best(block(r0, r1), n, r0, (vals[-1], keys[-1]), chunk)


def _ranked_pairs(block, n: int, firsts):
    """Upper-triangle pairs (u * n + v, value) of the n x n matrix whose rows
    r0:r1 are block(r0, r1), highest value first and ties in key order: the
    order of a stable sort by descending value.

    Each row block of `_blocks` is ranked lazily on its own (`_block_pairs`),
    and the blocks are merged on (-value, key). Keys are unique, so that order
    is strict and the merge equals one stable sort of all pairs. No array of
    all n^2/2 pairs is built, however far the pool is walked. `firsts` holds
    each block's first chunk (`_block_pairs`' `first`) in `_blocks` order,
    ranked by the caller from the product it reads anyway. Values must not be
    NaN.
    """
    return heapq.merge(*(_block_pairs(block, n, r0, r1, first)
                         for (r0, r1), first in zip(_blocks(n), firsts)),
                       key=lambda pair: (-pair[1], pair[0]))


class AugmentationState:
    """Mutable working state of one augmentation run (single-owner).

    `rows(sign, r0, r1)` gives the propensities of nodes r0:r1 against every
    node (`_propensity_rows`). The candidates of each (sign, action) slot form
    one pool of (key, value) pairs, each ranked in one fixed order: add pools
    hold every upper-triangle pair, highest value first, ranked lazily per row
    block and merged by `_ranked_pairs`; remove pools hold the original edges
    of their sign, lowest value first, sorted here. Both orders break ties by row-major key,
    as an argmax/argmin scan would. Walking the pools equals rescanning the
    remaining candidates before every action because the values never change
    during a run and a pair that leaves a pool never comes back. `taken` holds
    the original edges plus every pair already picked; add pools skip those
    pairs. Remove pools never need to: no other slot can take an original edge.
    `taken` and the remove pools' keys come from g's pair keys, which ascend;
    the working sets `pos_adj` and `neg_adj`, which the utility gate reads,
    are this state's own, built from g's edge array (`neighbor_sets`).

    Each (sign, row block) product is computed once here, for both pools: the
    remove pool reads its edges' values from it, and the add pool's first
    chunk is ranked from its columns r0 on, the only ones that hold pairs
    u < v. Neither writes into it. A block is multiplied again only when its
    add pool refills. So the first chunks are ranked even when no round runs
    (delta_target = 0).
    """

    def __init__(self, g: SignedGraph, rows, cfg: EPRConfig):
        n = g.n
        self.n = n
        self.cfg = cfg
        self.pos_adj, self.neg_adj = neighbor_sets(g)
        self.log = PerturbationLog()
        # pairs as row-major flat keys u * n + v, u < v, ascending
        keys, signs = g.pair_keys(), g.edge_array()[:, 2]
        self.taken = set(keys.tolist())
        self.pools = {}
        for sign in (1, -1):
            block = partial(rows, sign)
            edges = keys[signs == sign]
            u, v = np.divmod(edges, n)
            vals = np.empty(edges.size)
            firsts = []
            for r0, r1 in _blocks(n):
                values = block(r0, r1)
                lo, hi = np.searchsorted(u, (r0, r1))
                vals[lo:hi] = values[u[lo:hi] - r0, v[lo:hi]]
                firsts.append(_block_best(values, n, r0, None, _FIRST_CHUNK))
            order = np.argsort(vals, kind="stable")
            self.pools[sign, ADD] = _ranked_pairs(block, n, firsts)
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


def augment(g: SignedGraph, pair: EmbeddingPair, cfg: EPRConfig) -> AugmentedGraph:
    """Drive perturbation rounds to the regulator's fixed point, then build the graph.

    Deterministic for identical inputs. When the candidate pools run dry before
    both regulator targets are met, the best-effort result is returned with
    thresholds_unmet set. The result's graph is built from g's edge array: its
    rows less the removals the log records as performed, plus the performed
    additions, which equals the union of the final working sets.
    """
    if g.num_edges == 0:
        raise ValueError("cannot augment a graph without edges")
    if pair.zpos.shape[0] != g.n:
        raise ValueError("embeddings do not match the graph size")
    state = AugmentationState(g, _propensity_rows(pair), cfg)
    unmet = False
    while not epr_check(state.log, cfg, g.num_edges):
        if perturb_step(state) == 0:
            unmet = True
            break
    done = [e for e in state.log.entries if e.performed]
    removed = np.isin(g.pair_keys(), [e.u * g.n + e.v for e in done if e.action == REMOVE])
    added = np.array([(e.u, e.v, e.sign) for e in done if e.action == ADD],
                     dtype=np.int64).reshape(-1, 3)
    edges = np.concatenate((g.edge_array()[~removed], added))
    return AugmentedGraph(graph=SignedGraph(g.n, edges), log=state.log,
                          thresholds_unmet=unmet)


# The dense oracle, which the program never runs: `ProbabilityMatrices`,
# `edge_probabilities` and `fuse`. They stay here only because the benchmark's
# traced mode looks them up in this module by name; the tests import them from
# here as the dense oracles of `_propensity_rows` and of `augment`'s union.
# ROADMAP item 5 moves them to tests/augment_reference.py.
@dataclass(frozen=True)
class ProbabilityMatrices:
    """Dense edge-propensity matrices per sign, for `fuse`; only pairs u < v are
    ever read. `augment` reads the same values block by block instead."""

    mpos: np.ndarray
    mneg: np.ndarray


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
