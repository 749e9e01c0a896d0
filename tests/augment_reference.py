"""Reference augmenter and reference walk counters.

The augmenter as first written, kept as the oracle for the library's
`augment`. One block per (sign, action) slot, each with its own gate check,
and the result built as two sparse adjacencies merged by `fuse`. It holds its
own masks, selection and utility gate (`reference_pair_utility`, one frontier
grown eta-1 hops out from u) so that a faster library path cannot change it.

The all-pairs walk counters live here too: `count_cycles`, the sparse product
recursion, and `oracle_count_cycles`, its enumeration oracle. `edge_utility`
reads a pair's share off either one's counts; it is the oracle for the
library's one walk counter, `pair_utility`, and for `compute_utilities`.

`reference_block_best` ranks one row block's add-pool pairs by masking and
gathering the whole block: the oracle for the library's `_block_best`, which
reads only the block's columns from r0 on. The start of a pool is
`after` = (inf, -1) here, and None in the library.

`expected_entropy_after_perturbation` is the entropy bound of the paper's
analysis, the subject of the entropy inequality check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from sigaug.augment import (_RATIO_TOL, ADD, NOT_GATED, REMOVE, LogEntry,
                            PerturbationLog, _ratio_error, _ratio_ok, edge_probabilities,
                            epr_check, fuse)
from sigaug.balance import DISCARD, ETA_DEFAULT, KEEP, check_eta, filter_edge
from sigaug.graph import SignedGraph

from graph_reference import reference_of, split_adjacency

# hard cap for the exhaustive enumeration oracle
_ORACLE_MAX_NODES = 14


def count_cycles(g: SignedGraph, eta: int = ETA_DEFAULT) -> tuple[dict, dict]:
    """Signed walk-closure counts of every node pair of g, as (cb, cu).

    cb[k][u, v] counts the length-(k-1) walks u -> v with an odd number of
    negative edges: with a negative edge {u, v} they close balanced length-k
    cycles. cu[k] counts the even-sign walks, which close unbalanced ones. Both
    are keyed by cycle length k = 3..eta and hold symmetric int64 csr matrices;
    cb[k] + cu[k] is the unsigned walk count (A+ + A-)^(k-1).

    The recursion runs on g's `split_adjacency` matrices. Base case (length-2
    walks): cb(3) = Apos*Aneg + Aneg*Apos and cu(3) = Apos^2 + Aneg^2. Each
    further step appends one edge: a positive edge preserves walk sign, a
    negative edge flips it, so cb(n) = cb(n-1)*Apos + cu(n-1)*Aneg and
    cu(n) = cb(n-1)*Aneg + cu(n-1)*Apos. Diagonals are retained but carry no
    meaning for edge scoring.

    The matrices fill in as the walks grow (on an n=1000, m=4000 graph at
    eta=6, a 76 MB peak rise and about 0.45 s with one BLAS thread on a 2-core
    VM), which is why the library scores one pair at a time with pair_utility.
    """
    check_eta(eta)
    ap, an = split_adjacency(g)
    cb = {3: ap @ an + an @ ap}
    cu = {3: ap @ ap + an @ an}
    for k in range(4, eta + 1):
        cb[k] = cb[k - 1] @ ap + cu[k - 1] @ an
        cu[k] = cb[k - 1] @ an + cu[k - 1] @ ap
    return cb, cu


def oracle_count_cycles(g: SignedGraph, eta: int = ETA_DEFAULT) -> tuple[dict, dict]:
    """Reference counter: (cb, cu) as count_cycles gives them, from explicit
    enumeration of signed walks, no matrix products.

    Walks may revisit nodes, matching the product semantics of count_cycles.
    Refuses graphs with more than 14 nodes.
    """
    if g.n > _ORACLE_MAX_NODES:
        raise ValueError(f"enumeration oracle refuses n={g.n} > {_ORACLE_MAX_NODES}")
    check_eta(eta)
    n = g.n
    ref = reference_of(g)
    adj = [sorted([(w, 1) for w in ref.pos_neighbors(u)] + [(w, -1) for w in ref.neg_neighbors(u)])
           for u in range(n)]
    # counts[length][parity] with parity 1 = odd number of negative edges
    counts = {length: (np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64))
              for length in range(2, eta)}
    max_len = eta - 1

    def walk(start, node, length, neg_parity):
        for nxt, s in adj[node]:
            parity = neg_parity ^ (s < 0)
            if length + 1 >= 2:
                counts[length + 1][parity][start, nxt] += 1
            if length + 1 < max_len:
                walk(start, nxt, length + 1, parity)

    for start in range(n):
        walk(start, start, 0, 0)
    cb = {k: sp.csr_matrix(counts[k - 1][1]) for k in range(3, eta + 1)}
    cu = {k: sp.csr_matrix(counts[k - 1][0]) for k in range(3, eta + 1)}
    return cb, cu


def reference_pair_utility(pos_adj, neg_adj, u, v, eta):
    """Balanced share of the walks u -> v of lengths 2..eta-1, from one frontier
    of (odd, even) walk counts grown a hop at a time out from u."""
    check_eta(eta)
    odd: dict[int, int] = {}
    even: dict[int, int] = {}
    for w in pos_adj[u]:
        even[w] = even.get(w, 0) + 1
    for w in neg_adj[u]:
        odd[w] = odd.get(w, 0) + 1
    num = 0
    den = 0
    for _length in range(2, eta):
        odd2: dict[int, int] = {}
        even2: dict[int, int] = {}
        for w, cnt in odd.items():
            for x in pos_adj[w]:
                odd2[x] = odd2.get(x, 0) + cnt
            for x in neg_adj[w]:
                even2[x] = even2.get(x, 0) + cnt
        for w, cnt in even.items():
            for x in pos_adj[w]:
                even2[x] = even2.get(x, 0) + cnt
            for x in neg_adj[w]:
                odd2[x] = odd2.get(x, 0) + cnt
        odd, even = odd2, even2
        num += odd.get(v, 0)
        den += odd.get(v, 0) + even.get(v, 0)
    if den == 0:
        return None
    return num / den


def edge_utility(counts, u, v):
    """Share of balanced cycles among all cycles through the pair (u, v), summed
    over the cycle lengths of the (cb, cu) count families; None when the pair
    sits in no cycle."""
    cb, cu = counts
    num = 0
    den = 0
    for k in cb:
        num += int(cb[k][u, v])
        den += int(cb[k][u, v]) + int(cu[k][u, v])
    if den == 0:
        return None
    return num / den


def reference_block_best(vals: np.ndarray, n: int, r0: int, after, k: int):
    """Keys u * n + v and values of the best k upper-triangle pairs of the row
    block `vals`, rows r0:r0 + len(vals) of the matrix, that come after `after`,
    the last (value, key) taken, in pool order: value descending, then key.
    They come sorted, and so does every pair tied with the k-th, so the cut is
    exact."""
    value, key = after
    later = vals < value
    tied = np.flatnonzero(vals == value)
    later.flat[tied] = tied > key - r0 * n
    later &= np.arange(n) > np.arange(r0, r0 + len(vals))[:, None]
    keys, vals = np.flatnonzero(later) + r0 * n, vals[later]
    if vals.size > k:
        top = vals >= np.partition(vals, vals.size - k)[vals.size - k]
        keys, vals = keys[top], vals[top]
    order = np.lexsort((keys, -vals))[:k]
    return keys[order], vals[order]


class ReferenceState:
    """Working state of one reference run: masks, working adjacency, log."""

    def __init__(self, g, probs, cfg):
        n = g.n
        self.n = n
        self.cfg = cfg
        self.probs = probs
        self.original_edge_count = g.num_edges
        ref = reference_of(g)
        self.pos_adj = [set(ref.pos_neighbors(u)) for u in range(n)]
        self.neg_adj = [set(ref.neg_neighbors(u)) for u in range(n)]
        self.log = PerturbationLog()
        self.last_round_actions = 0
        self.addable = np.triu(np.ones((n, n), dtype=bool), k=1)
        self.pos_removable = np.zeros((n, n), dtype=bool)
        self.neg_removable = np.zeros((n, n), dtype=bool)
        for u, v, s in ref.edges():
            self.addable[u, v] = False
            (self.pos_removable if s > 0 else self.neg_removable)[u, v] = True

    def mark_spent(self, u, v):
        self.addable[u, v] = False
        self.pos_removable[u, v] = False
        self.neg_removable[u, v] = False

    def steer_allows(self, sign):
        p, m = self.log.pos_kept, self.log.neg_kept
        p2, m2 = (p + 1, m) if sign > 0 else (p, m + 1)
        theta = self.cfg.theta_target
        return _ratio_ok(p2, m2, theta) or (
            _ratio_error(p2, m2, theta) < _ratio_error(p, m, theta) - _RATIO_TOL)

    def apos_matrix(self):
        return self._matrix(self.pos_adj, 1)

    def aneg_matrix(self):
        return self._matrix(self.neg_adj, -1)

    def _matrix(self, adj, value):
        rows, cols = [], []
        for u in range(self.n):
            for v in adj[u]:
                rows.append(u)
                cols.append(v)
        data = np.full(len(rows), value, dtype=np.int64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


def argbest(matrix, mask, maximize):
    if not mask.any():
        return None
    fill = -np.inf if maximize else np.inf
    vals = np.where(mask, matrix, fill)
    flat = int(vals.argmax() if maximize else vals.argmin())
    return divmod(flat, matrix.shape[1])


def reference_perturb_step(state):
    cfg = state.cfg
    mp, mn = state.probs.mpos, state.probs.mneg
    actions = 0

    if state.steer_allows(1):
        pick = argbest(mp, state.addable, maximize=True)
        if pick is not None:
            u, v = pick
            state.mark_spent(u, v)
            state.pos_adj[u].add(v)
            state.pos_adj[v].add(u)
            state.log.append(LogEntry(ADD, 1, u, v, float(mp[u, v]), NOT_GATED))
            actions += 1

    if state.steer_allows(1):
        pick = argbest(mp, state.pos_removable, maximize=False)
        if pick is not None:
            u, v = pick
            state.mark_spent(u, v)
            state.pos_adj[u].discard(v)
            state.pos_adj[v].discard(u)
            state.log.append(LogEntry(REMOVE, 1, u, v, float(mp[u, v]), NOT_GATED))
            actions += 1

    if state.steer_allows(-1):
        pick = argbest(mn, state.addable, maximize=True)
        if pick is not None:
            u, v = pick
            state.mark_spent(u, v)
            util = reference_pair_utility(state.pos_adj, state.neg_adj, u, v, cfg.eta)
            verdict = filter_edge(util, cfg.mu)
            if verdict == KEEP:
                state.neg_adj[u].add(v)
                state.neg_adj[v].add(u)
            state.log.append(LogEntry(ADD, -1, u, v, float(mn[u, v]), verdict))
            actions += 1

    if state.steer_allows(-1):
        pick = argbest(mn, state.neg_removable, maximize=False)
        if pick is not None:
            u, v = pick
            state.mark_spent(u, v)
            util = reference_pair_utility(state.pos_adj, state.neg_adj, u, v, cfg.eta)
            verdict = filter_edge(util, cfg.mu)
            if verdict == DISCARD:
                state.neg_adj[u].discard(v)
                state.neg_adj[v].discard(u)
            state.log.append(LogEntry(REMOVE, -1, u, v, float(mn[u, v]), verdict))
            actions += 1

    state.last_round_actions = actions
    return state


def reference_augment(g, pair, cfg):
    """(fused graph, log, thresholds_unmet) of the reference augmenter."""
    probs = edge_probabilities(pair)
    state = ReferenceState(g, probs, cfg)
    unmet = False
    while not epr_check(state.log, cfg, state.original_edge_count):
        reference_perturb_step(state)
        if state.last_round_actions == 0:
            unmet = True
            break
    return fuse(state.apos_matrix(), state.aneg_matrix(), probs), state.log, unmet


def expected_entropy_after_perturbation(p, delta: float) -> float:
    """Expected entropy after perturbing an edge share delta of the graph.

    E = -delta*log(delta) + (1-delta) * sum_i -p_i*log((1-delta)*p_i), with the
    0*log(0) = 0 convention so delta = 0 returns the plain entropy of p.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    p = np.asarray(p, dtype=np.float64)
    # written so that a NaN anywhere in p fails it
    if p.ndim != 1 or not (np.all(p >= -1e-12) and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("p is not a probability distribution")
    pz = p[p > 0]
    h = float(-(pz * np.log(pz)).sum())
    if delta == 0.0:
        return h
    tail = float(-(pz * np.log((1.0 - delta) * pz)).sum())
    return -delta * math.log(delta) + (1.0 - delta) * tail
