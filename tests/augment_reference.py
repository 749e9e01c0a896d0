"""Reference augmenter: the four-block perturbation round and the fused result.

This is the augmenter as first written, kept as the oracle for the library's
`augment`. One block per (sign, action) slot, each with its own gate check,
and the result built as two sparse adjacencies merged by `fuse`. It holds its
own masks, selection and utility gate (`reference_pair_utility`, one frontier
grown eta-1 hops out from u) so that a faster library path cannot change it.

`edge_utility` reads the same share off the all-pairs walk counts of
`count_cycles` or `oracle_count_cycles`; it is the oracle for the library's
`pair_utility` and `compute_utilities`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from sigaug.augment import (_RATIO_TOL, ADD, NOT_GATED, REMOVE, LogEntry,
                            PerturbationLog, _ratio_error, _ratio_ok, edge_probabilities,
                            epr_check, fuse)
from sigaug.balance import DISCARD, KEEP, check_eta, filter_edge


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


class ReferenceState:
    """Working state of one reference run: masks, working adjacency, log."""

    def __init__(self, g, probs, cfg):
        n = g.n
        self.n = n
        self.cfg = cfg
        self.probs = probs
        self.original_edge_count = g.num_edges
        self.pos_adj = [set(g.pos_neighbors(u)) for u in range(n)]
        self.neg_adj = [set(g.neg_neighbors(u)) for u in range(n)]
        self.log = PerturbationLog()
        self.last_round_actions = 0
        self.addable = np.triu(np.ones((n, n), dtype=bool), k=1)
        self.pos_removable = np.zeros((n, n), dtype=bool)
        self.neg_removable = np.zeros((n, n), dtype=bool)
        for u, v, s in g.edges():
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
