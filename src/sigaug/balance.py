"""Structural-balance engine.

Counts balanced/unbalanced signed walks closing through each node pair, scores
edges by the share of balanced cycles they sit in, gates edges on that score,
and bounds the expected message entropy after perturbation
(`expected_entropy_after_perturbation`).

Counting semantics are walk-based: the length-n matrices are built from
adjacency products, so for n >= 4 they include degenerate back-and-forth walks.
The enumeration oracle reproduces exactly the same semantics.

One pair's counts (`pair_utility`) come from its neighbor sets: walks of
lengths 2 and 3 from set intersections taken from the endpoint of lower
degree, and longer walks from walk counts grown out of both endpoints that
meet in the middle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import SignedGraph

KEEP = "keep"
DISCARD = "discard"

MU_MAX = 0.9
MU_DEFAULT = 0.7
ETA_MIN = 3
ETA_MAX = 6
ETA_DEFAULT = 4

# hard cap for the exhaustive enumeration oracle
_ORACLE_MAX_NODES = 14


@dataclass(frozen=True)
class CycleCountSet:
    """Per-pair walk-closure counts for every cycle length 3..eta.

    cb[n][u, v] counts length-(n-1) walks u -> v with an odd number of negative
    edges (these close into balanced cycles through a negative edge {u, v});
    cu[n] counts the even-sign walks; c[n] = cb[n] + cu[n]. All matrices are
    symmetric int64 csr for symmetric inputs.
    """

    eta: int
    cb: dict[int, sp.csr_matrix]
    cu: dict[int, sp.csr_matrix]
    c: dict[int, sp.csr_matrix]


@dataclass(frozen=True)
class UtilityScores:
    """Balanced-cycle share per requested edge; None marks a zero-cycle edge."""

    mu: float
    scores: dict[tuple[int, int], Optional[float]]

    @property
    def kept(self) -> int:
        return sum(1 for s in self.scores.values() if filter_edge(s, self.mu) == KEEP)

    @property
    def discarded(self) -> int:
        return len(self.scores) - self.kept

    @property
    def undefined(self) -> int:
        return sum(1 for s in self.scores.values() if s is None)


def check_eta(eta) -> None:
    """Refuse a walk-length cap that is not an integer in [ETA_MIN, ETA_MAX]."""
    if not isinstance(eta, int) or not ETA_MIN <= eta <= ETA_MAX:
        raise ValueError(f"eta must be an integer in [{ETA_MIN}, {ETA_MAX}], got {eta}")


def check_mu(mu) -> None:
    """Refuse a utility threshold outside [0, MU_MAX]."""
    if not 0.0 <= mu <= MU_MAX:
        raise ValueError(f"mu must be in [0, {MU_MAX}], got {mu}")


def _check_adjacency_inputs(apos, aneg, eta):
    apos = sp.csr_matrix(apos, dtype=np.int64)
    aneg = sp.csr_matrix(aneg, dtype=np.int64)
    if apos.shape != aneg.shape or apos.shape[0] != apos.shape[1]:
        raise ValueError(f"adjacency shapes differ or are not square: {apos.shape} vs {aneg.shape}")
    check_eta(eta)
    for name, m in (("positive", apos), ("negative", aneg)):
        if (m != m.T).nnz != 0:
            raise ValueError(f"{name} adjacency is not symmetric")
        if m.nnz and not np.all(m.data == 1):
            raise ValueError(f"{name} adjacency must be 0/1")
    if apos.multiply(aneg).nnz != 0:
        raise ValueError("positive and negative adjacency supports overlap")
    return apos, aneg


def count_cycles(apos, aneg, eta: int = ETA_DEFAULT) -> CycleCountSet:
    """Signed walk-closure counting via the adjacency-product recursion.

    Base case (length-2 walks): cb(3) = Apos*Aneg + Aneg*Apos and
    cu(3) = Apos^2 + Aneg^2. Each further step appends one edge: a positive
    edge preserves walk sign, a negative edge flips it, so
    cb(n) = cb(n-1)*Apos + cu(n-1)*Aneg and cu(n) = cb(n-1)*Aneg + cu(n-1)*Apos.
    The products stay sparse csr at every size. Diagonals are retained but
    carry no meaning for edge scoring.

    Not on the program's path: compute_utilities and the augmenter's gate
    count the same walks per pair with pair_utility. This all-pairs form is
    the one the enumeration oracle checks.
    """
    ap, an = _check_adjacency_inputs(apos, aneg, eta)
    cb = {3: ap @ an + an @ ap}
    cu = {3: ap @ ap + an @ an}
    for k in range(4, eta + 1):
        cb[k] = cb[k - 1] @ ap + cu[k - 1] @ an
        cu[k] = cb[k - 1] @ an + cu[k - 1] @ ap
    c = {k: cb[k] + cu[k] for k in cb}
    return CycleCountSet(eta=eta, cb=cb, cu=cu, c=c)


def oracle_count_cycles(g: SignedGraph, eta: int = ETA_DEFAULT) -> CycleCountSet:
    """Reference counter: explicit enumeration of signed walks, no matrix products.

    Walks may revisit nodes, matching the product semantics of count_cycles.
    Refuses graphs with more than 14 nodes.
    """
    if g.n > _ORACLE_MAX_NODES:
        raise ValueError(f"enumeration oracle refuses n={g.n} > {_ORACLE_MAX_NODES}")
    check_eta(eta)
    n = g.n
    adj = [sorted([(w, 1) for w in g.pos_neighbors(u)] + [(w, -1) for w in g.neg_neighbors(u)])
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
    c = {k: (cb[k] + cu[k]).tocsr() for k in cb}
    return CycleCountSet(eta=eta, cb=cb, cu=cu, c=c)


def filter_edge(utility: Optional[float], mu: float) -> str:
    """Keep iff utility is undefined (cycle-free) or >= mu."""
    check_mu(mu)
    if utility is None:
        return KEEP
    return KEEP if utility >= mu else DISCARD


def _hops(pos_adj: Sequence[set], neg_adj: Sequence[set], start: int,
          hops: int) -> list[tuple[dict, dict]]:
    """(even, odd) walk counts by end node for each length 0..hops from start;
    odd means an odd number of negative edges."""
    even: dict[int, int] = {start: 1}
    odd: dict[int, int] = {}
    out = [(even, odd)]
    for _length in range(hops):
        even2: dict[int, int] = {}
        odd2: dict[int, int] = {}
        for same, flip, counts in ((even2, odd2, even), (odd2, even2, odd)):
            for w, cnt in counts.items():
                for x in pos_adj[w]:
                    same[x] = same.get(x, 0) + cnt
                for x in neg_adj[w]:
                    flip[x] = flip.get(x, 0) + cnt
        even, odd = even2, odd2
        out.append((even, odd))
    return out


def _dot(a: dict, b: dict) -> int:
    """Sum over shared nodes of the product of two walk-count dicts."""
    if len(a) > len(b):
        a, b = b, a
    return sum(cnt * b.get(w, 0) for w, cnt in a.items())


def _short_walks(pos_adj: Sequence[set], neg_adj: Sequence[set], u: int, v: int,
                 eta: int) -> tuple[int, int]:
    """(odd, all) counts of the walks u -> v of lengths 2..min(3, eta - 1).

    Each count is a sum of set intersection sizes, taken from the endpoint of
    lower degree a towards the other, b: a length-2 walk is a common neighbor
    of a and b, and a length-3 walk is a neighbor w of a followed by a common
    neighbor of w and b. A walk's parity is that of its negative edges, so a
    first step a -> w over a negative edge swaps even and odd. Walk counts are
    symmetric, so either orientation gives the same integers.
    """
    a, b = u, v
    if len(pos_adj[a]) + len(neg_adj[a]) > len(pos_adj[b]) + len(neg_adj[b]):
        a, b = b, a
    pos_a, neg_a, pos_b, neg_b = pos_adj[a], neg_adj[a], pos_adj[b], neg_adj[b]
    even = len(pos_a & pos_b) + len(neg_a & neg_b)
    odd = len(pos_a & neg_b) + len(neg_a & pos_b)
    if eta > 3:
        for w in pos_a:
            pos_w, neg_w = pos_adj[w], neg_adj[w]
            even += len(pos_w & pos_b) + len(neg_w & neg_b)
            odd += len(pos_w & neg_b) + len(neg_w & pos_b)
        for w in neg_a:
            pos_w, neg_w = pos_adj[w], neg_adj[w]
            odd += len(pos_w & pos_b) + len(neg_w & neg_b)
            even += len(pos_w & neg_b) + len(neg_w & pos_b)
    return odd, odd + even


def pair_utility(pos_adj: Sequence[set], neg_adj: Sequence[set], u: int, v: int,
                 eta: int = ETA_DEFAULT) -> Optional[float]:
    """Balanced-cycle share of the pair (u, v) on neighbor-set adjacency.

    The one walk counter on the program's path: the augmenter's utility gate
    and compute_utilities both score with it. It sums the pair's entries of
    count_cycles' cb and c matrices over lengths 3..eta, in local work, so a
    candidate edge is scored against the current working graph without any
    count matrix. The candidate edge itself is not assumed present. Returns
    None when the pair sits in no cycle at all (zero denominator).

    Walks of lengths 2 and 3 are counted by set intersections, taken from the
    endpoint of lower degree (`_short_walks`). Longer walks (eta 5 and 6) meet
    in the middle: walk counts by end node and sign parity grow eta // 2 hops
    from u and (eta - 1) // 2 hops from v, and a length-L walk u -> v splits
    at its node w after ceil(L/2) hops. Its parity is the sum of the two
    halves' parities (odd = even*odd + odd*even). The counts are exact
    integers, so the share is the same float as from the count matrices.
    """
    check_eta(eta)
    return _share(pos_adj, neg_adj, u, v, eta, _long_hops(pos_adj, neg_adj, u, eta))


def _long_hops(pos_adj: Sequence[set], neg_adj: Sequence[set], u: int, eta: int):
    """u's half of the meet-in-the-middle join, or None when eta <= 4 needs none."""
    return _hops(pos_adj, neg_adj, u, eta // 2) if eta > 4 else None


def _share(pos_adj: Sequence[set], neg_adj: Sequence[set], u: int, v: int, eta: int,
           from_u: Optional[list]) -> Optional[float]:
    """pair_utility's score of (u, v), given u's `_long_hops`."""
    num, den = _short_walks(pos_adj, neg_adj, u, v, eta)
    if from_u is not None:
        from_v = _hops(pos_adj, neg_adj, v, (eta - 1) // 2)
        for length in range(4, eta):
            even_u, odd_u = from_u[(length + 1) // 2]
            even_v, odd_v = from_v[length // 2]
            odd = _dot(even_u, odd_v) + _dot(odd_u, even_v)
            num += odd
            den += odd + _dot(even_u, even_v) + _dot(odd_u, odd_v)
    if den == 0:
        return None
    return num / den


def compute_utilities(g: SignedGraph, eta: int = ETA_DEFAULT,
                      mu: float = MU_DEFAULT) -> UtilityScores:
    """Score the negative edges of g by balanced-cycle share, in g.edges() order.

    This is what `sigaug balance` runs. Each edge gets pair_utility's score on
    g's neighbor sets, so no n x n count matrix is built. g.edges() is sorted
    by u, so for eta >= 5 u's walk counts are grown once per run of edges that
    share it.
    """
    check_mu(mu)
    check_eta(eta)
    pos_adj = [g.pos_neighbors(u) for u in range(g.n)]
    neg_adj = [g.neg_neighbors(u) for u in range(g.n)]
    scores = {}
    last_u, from_u = None, None
    for u, v, s in g.edges():
        if s > 0:
            continue
        if u != last_u:
            last_u, from_u = u, _long_hops(pos_adj, neg_adj, u, eta)
        scores[(u, v)] = _share(pos_adj, neg_adj, u, v, eta, from_u)
    return UtilityScores(mu=mu, scores=scores)


def expected_entropy_after_perturbation(p, delta: float) -> float:
    """Expected entropy after perturbing an edge share delta of the graph.

    E = -delta*log(delta) + (1-delta) * sum_i -p_i*log((1-delta)*p_i), with the
    0*log(0) = 0 convention so delta = 0 returns the plain entropy of p.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p is not a probability distribution")
    pz = p[p > 0]
    h = float(-(pz * np.log(pz)).sum())
    if delta == 0.0:
        return h
    tail = float(-(pz * np.log((1.0 - delta) * pz)).sum())
    return -delta * math.log(delta) + (1.0 - delta) * tail
