#!/usr/bin/env python3
"""Regenerate data/congress_synthetic.txt.

Deterministic stand-in for the published Congress mention network, built to the
same summary statistics (219 nodes, 413 positive and 107 negative directed
edges, no reciprocal pairs), without copying any real data. Structure is
hub-centric (a few leaders get mentioned across the chamber, keeping path
lengths short) with wedge closure for clustering. Signs follow a contrarian
minority: edges between the minority and the mainstream are hostile, edges
inside either group are friendly, and a fixed share of signs is flipped as
noise, which is what plants unbalanced structures for a denoiser to find.
"""

import pathlib

import numpy as np

N_NODES = 219
N_EDGES = 520
N_NEG = 107
SEED = 20260809

CLOSURE_PROB = 0.75
HUB_MAIN = 0.8      # tree-parent probability mass on the top hub
HUB_SECOND = 0.92    # ... cumulative mass through the three secondary hubs
PARIAH_SHARE = 0.2
PARIAH_WEIGHT = 0.5  # attachment damping: contrarians live on the periphery
FLIP_RATE = 0.1     # share of negative signs swapped with positives as noise


def generate(rng):
    faction = (rng.random(N_NODES) < PARIAH_SHARE).astype(int)
    faction[:4] = 0  # the leadership hubs below are mainstream
    pairs = []
    seen = set()
    adj = [set() for _ in range(N_NODES)]

    def connect(u, v):
        pairs.append((u, v))
        seen.add((u, v))
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1

    # spanning tree with hub-heavy parent choice: mention networks concentrate
    # on a few leaders, which keeps most node pairs within two or three hops
    deg = np.ones(N_NODES)
    for i in range(4, N_NODES):
        r = rng.random()
        if r < HUB_MAIN:
            parent = 0
        elif r < HUB_SECOND:
            parent = int(rng.integers(1, 4))
        else:
            parent = int(rng.integers(0, i))
        connect(i, parent)
    connect(1, 0)
    connect(2, 0)
    connect(3, 0)
    connect(1, 2)  # the leadership clique keeps secondary neighborhoods close
    connect(1, 3)
    connect(2, 3)
    # second mention for every leaf so no node hinges on a single edge
    for i in rng.permutation(N_NODES):
        i = int(i)
        if deg[i] > 2.0:  # deg starts at 1, so this means >= 2 edges
            continue
        while True:
            target = int(rng.integers(0, 4)) if rng.random() < 0.7 else int(rng.integers(0, N_NODES))
            if target != i and (i, target) not in seen and (target, i) not in seen:
                connect(i, target)
                break
    # extra edges: mostly wedge closures (real mention networks cluster hard),
    # otherwise degree-preferential pairs; never duplicates or reciprocals
    while len(pairs) < N_EDGES:
        u = v = -1
        if rng.random() < CLOSURE_PROB:
            a, b = pairs[int(rng.integers(0, len(pairs)))]
            nbrs = [c for c in adj[b] if c != a] or [c for c in adj[a] if c != b]
            if nbrs:
                u, v = a, nbrs[int(rng.integers(0, len(nbrs)))]
        if u < 0:
            w = deg ** 2.0  # hub-dominated attachment keeps path lengths short
            w = w * np.where(faction == 1, PARIAH_WEIGHT, 1.0)
            p = w / w.sum()
            u, v = (int(x) for x in rng.choice(N_NODES, size=2, replace=False, p=p))
        if u == v or (u, v) in seen or (v, u) in seen:
            continue
        connect(u, v)
    # exact sign counts: cross-group edges form the negative pool (topped up or
    # trimmed at random to N_NEG), then a fixed share of negatives swaps signs
    # with random positives, planting label noise and unbalanced triangles
    cross = [i for i, (u, v) in enumerate(pairs) if faction[u] != faction[v]]
    within = [i for i, (u, v) in enumerate(pairs) if faction[u] == faction[v]]
    rng.shuffle(cross)
    rng.shuffle(within)
    neg_idx = set(cross[:N_NEG])
    if len(neg_idx) < N_NEG:
        neg_idx |= set(within[:N_NEG - len(neg_idx)])
    flips = int(round(FLIP_RATE * N_NEG))
    neg_list = sorted(neg_idx)
    pos_list = sorted(set(range(len(pairs))) - neg_idx)
    for i in rng.choice(len(neg_list), size=flips, replace=False):
        neg_idx.discard(neg_list[i])
    for i in rng.choice(len(pos_list), size=flips, replace=False):
        neg_idx.add(pos_list[i])
    edges = [(u, v, -1 if i in neg_idx else 1) for i, (u, v) in enumerate(pairs)]
    order = rng.permutation(len(edges))
    return [edges[i] for i in order]


def render(edges) -> str:
    """The fixture file's text for an edge list: two comment lines, then `u v sign` lines."""
    lines = ["# synthetic stand-in for the Congress mention network",
             "# 219 nodes, 413 positive / 107 negative directed edges, no reciprocal pairs"]
    lines += [f"{u} {v} {s}" for u, v, s in edges]
    return "\n".join(lines) + "\n"


def main():
    rng = np.random.default_rng(SEED)
    edges = generate(rng)
    out = pathlib.Path(__file__).resolve().parent.parent / "data" / "congress_synthetic.txt"
    with out.open("w") as fh:
        fh.write(render(edges))
    pos = sum(1 for _, _, s in edges if s > 0)
    print(f"wrote {out}: {len(edges)} edges, {pos} positive, {len(edges) - pos} negative")


if __name__ == "__main__":
    main()
