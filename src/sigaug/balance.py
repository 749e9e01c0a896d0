"""Structural-balance engine.

Scores node pairs by the share of balanced cycles they sit in and gates edges
on that score.

The share of a pair (u, v) is counted over the signed walks u -> v of lengths
2..eta-1. A walk with an odd number of negative edges closes, together with a
negative edge {u, v}, a balanced cycle one edge longer; a walk with an even
number closes an unbalanced one. The share is odd walks over all walks, and
None when there is no walk. Walks may revisit nodes, so from length 3 on they
include degenerate back-and-forth walks (such as u -> v -> u -> v over the
edge itself).

`pair_utility` is the one walk counter: the augmenter's utility gate calls it
on the working graph, and `compute_utilities` returns its scores over a
graph's negative edges as a {(u, v): share} dict that `filter_edge` turns
into verdicts for a given mu.

One pair's counts come from its neighbor sets: walks of lengths 2 and 3 from
set intersections taken from the endpoint of lower degree, and longer walks
from walk counts grown out of both endpoints that meet in the middle.
"""

from __future__ import annotations

import numbers
from typing import Optional, Sequence

from .graph import SignedGraph

KEEP = "keep"
DISCARD = "discard"

MU_MAX = 0.9
MU_DEFAULT = 0.7
ETA_MIN = 3
ETA_MAX = 6
ETA_DEFAULT = 4


def check_eta(eta) -> None:
    """Refuse a walk-length cap that is not an integer in [ETA_MIN, ETA_MAX]."""
    if not isinstance(eta, numbers.Integral) or not ETA_MIN <= eta <= ETA_MAX:
        raise ValueError(f"eta must be an integer in [{ETA_MIN}, {ETA_MAX}], got {eta}")


def check_mu(mu) -> None:
    """Refuse a utility threshold outside [0, MU_MAX]."""
    if not 0.0 <= mu <= MU_MAX:
        raise ValueError(f"mu must be in [0, {MU_MAX}], got {mu}")


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
    and compute_utilities both score with it. The share is the number of
    signed walks u -> v of lengths 2..eta-1 with an odd number of negative
    edges over the number of all of them, degenerate back-and-forth walks
    included. The work is local, so a candidate edge is scored against the
    current working graph without any count matrix. The candidate edge itself
    is not assumed present. Returns None when the pair sits in no cycle at all
    (no walk, zero denominator).

    Walks of lengths 2 and 3 are counted by set intersections, taken from the
    endpoint of lower degree (`_short_walks`). Longer walks (eta 5 and 6) meet
    in the middle: walk counts by end node and sign parity grow eta // 2 hops
    from u and (eta - 1) // 2 hops from v, and a length-L walk u -> v splits
    at its node w after ceil(L/2) hops. Its parity is the sum of the two
    halves' parities (odd = even*odd + odd*even). The counts are exact
    integers, so the share is the same float however the walks are counted.
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


def compute_utilities(g: SignedGraph, eta: int = ETA_DEFAULT) -> dict:
    """Balanced-cycle share of each negative edge of g, as {(u, v): share},
    in g.edges() order; None marks an edge that sits in no cycle.

    This is what `sigaug balance` runs. Each edge gets pair_utility's score on
    g's neighbor sets, so no n x n count matrix is built. g.edges() is sorted
    by u, so for eta >= 5 u's walk counts are grown once per run of edges that
    share it.
    """
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
    return scores

