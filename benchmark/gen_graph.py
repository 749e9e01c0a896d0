#!/usr/bin/env python3
"""Deterministic synthetic signed graph for the synth1k-gate benchmark workload.

Usage: python3 benchmark/gen_graph.py --seed N --out FILE

Builds a degree-skewed graph (a preferential-attachment spanning tree plus
wedge closures and degree-preferential extra edges) over two factions. Edges
across the factions are hostile and edges inside a faction friendly, topped up
or trimmed to an exact negative count; then a fixed share of negative signs is
swapped with random positives as noise. That plants unbalanced cycles for the
utility gate to find, in the style of tools/gen_congress_fixture.py. The file
is a plain `u v sign` edge list that the program parses itself.
"""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

N_NODES = 1000
N_EDGES = 4000
NEG_SHARE = 0.2
MINORITY_SHARE = 0.12  # two factions whose cross edges come to about NEG_SHARE
CLOSURE_PROB = 0.4
FLIP_RATE = 0.1        # share of negative signs swapped with positives as noise


def generate(seed: int, n: int = N_NODES, m: int = N_EDGES, neg_share: float = NEG_SHARE):
    """Edges (u, v, sign) over node ids 0..n-1, in shuffled order; same seed, same list."""
    rng = np.random.default_rng(seed)
    faction = rng.random(n) < MINORITY_SHARE
    deg = np.zeros(n)
    adj = [set() for _ in range(n)]
    pairs = []

    def connect(u, v):
        pairs.append((u, v))
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1

    # every node joins through a degree-preferential parent, so hubs emerge
    # and no node is isolated
    for i in range(1, n):
        w = deg[:i] + 1.0
        connect(i, int(rng.choice(i, p=w / w.sum())))
    while len(pairs) < m:
        u = v = -1
        if rng.random() < CLOSURE_PROB:
            a, b = pairs[int(rng.integers(0, len(pairs)))]
            nbrs = sorted(adj[b] - {a})
            if nbrs:
                u, v = a, nbrs[int(rng.integers(0, len(nbrs)))]
        if u < 0:
            w = deg + 1.0
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False, p=w / w.sum()))
        if u == v or v in adj[u]:
            continue
        connect(u, v)
    n_neg = int(round(neg_share * m))
    cross = [i for i, (u, v) in enumerate(pairs) if faction[u] != faction[v]]
    within = [i for i, (u, v) in enumerate(pairs) if faction[u] == faction[v]]
    rng.shuffle(cross)
    rng.shuffle(within)
    neg_idx = set(cross[:n_neg])
    if len(neg_idx) < n_neg:
        neg_idx |= set(within[:n_neg - len(neg_idx)])
    flips = int(round(FLIP_RATE * n_neg))
    neg_list = sorted(neg_idx)
    pos_list = sorted(set(range(m)) - neg_idx)
    for i in rng.choice(len(neg_list), size=flips, replace=False):
        neg_idx.discard(neg_list[i])
    for i in rng.choice(len(pos_list), size=flips, replace=False):
        neg_idx.add(pos_list[i])
    edges = [(u, v, -1 if i in neg_idx else 1) for i, (u, v) in enumerate(pairs)]
    return [edges[i] for i in rng.permutation(m)]


def check(edges, n: int = N_NODES, m: int = N_EDGES, neg_share: float = NEG_SHARE):
    """Raise ValueError unless the edges span n nodes, m distinct undirected
    pairs without self-loops, and the negative share is neg_share."""
    nodes = {x for u, v, _ in edges for x in (u, v)}
    keys = {(min(u, v), max(u, v)) for u, v, _ in edges}
    neg = sum(1 for *_, s in edges if s < 0)
    if len(nodes) != n or len(keys) != m or len(edges) != m:
        raise ValueError(f"generated {len(nodes)} nodes / {len(keys)} pairs, expected {n} / {m}")
    if any(u == v for u, v, _ in edges):
        raise ValueError("generated a self-loop")
    if neg != int(round(neg_share * m)):
        raise ValueError(f"generated {neg} negative edges, expected share {neg_share}")


def write(edges, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# synthetic two-faction signed graph, {len(edges)} edges\n")
        for u, v, s in edges:
            fh.write(f"{u} {v} {s}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    args = ap.parse_args(argv)
    edges = generate(args.seed)
    check(edges)
    write(edges, args.out)


if __name__ == "__main__":
    main()
