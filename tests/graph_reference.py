"""Reference signed graph and edge split.

`ReferenceGraph` is `SignedGraph` as first written: it checks and stores the
edges one at a time, in a `(u, v) -> sign` dict, a sorted tuple and per-node
frozensets, and reports the first bad edge in input order. It is the oracle for
the library's `SignedGraph`, which keeps one sorted (m, 3) array and checks all
edges at once. `reference_split_edges` is `split_edges` over the tuple form: it
is the oracle for the library's split, which masks the parent's array.
"""

from __future__ import annotations

import math

import numpy as np

from sigaug.graph import NEG, POS


class ReferenceGraph:
    """Undirected signed graph built edge by edge (the oracle of SignedGraph)."""

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n
        sign: dict[tuple[int, int], int] = {}
        pos = [set() for _ in range(n)]
        neg = [set() for _ in range(n)]
        for u, v, s in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a node id outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if s not in (POS, NEG):
                raise ValueError(f"edge ({u}, {v}) has sign {s}, expected +1 or -1")
            key = (u, v) if u < v else (v, u)
            if key in sign:
                raise ValueError(f"duplicate edge {key}")
            sign[key] = s
            (pos if s == POS else neg)[u].add(v)
            (pos if s == POS else neg)[v].add(u)
        self._sign = sign
        self._pos = [frozenset(x) for x in pos]
        self._neg = [frozenset(x) for x in neg]
        self._edges = tuple((u, v, sign[(u, v)]) for (u, v) in sorted(sign))
        self.num_pos = sum(1 for s in sign.values() if s == POS)
        self.num_neg = len(sign) - self.num_pos

    @property
    def num_edges(self) -> int:
        return len(self._sign)

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return self._edges

    def sign(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._sign.get(key, 0)

    def pos_neighbors(self, u: int) -> frozenset:
        return self._pos[u]

    def neg_neighbors(self, u: int) -> frozenset:
        return self._neg[u]

    def __eq__(self, other):
        if not isinstance(other, ReferenceGraph):
            return NotImplemented
        return self.n == other.n and self._sign == other._sign

    def __hash__(self):
        return hash((self.n, self._edges))


def reference_split_edges(g, test_fraction: float, seed: int):
    """(train edges, test edges) of split_edges(g, test_fraction, seed), both in
    g.edges() order, from the same draw of row indices."""
    m = g.num_edges
    k = int(math.floor(test_fraction * m + 0.5))
    rng = np.random.default_rng(seed)
    picked = set(rng.choice(m, size=k, replace=False).tolist())
    edges = g.edges()
    test = tuple(edges[i] for i in sorted(picked))
    train = ReferenceGraph(g.n, (edges[i] for i in range(m) if i not in picked))
    return train, test
