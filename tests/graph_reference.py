"""Reference signed graph and edge split.

`ReferenceGraph` is `SignedGraph` as first written: it checks and stores the
edges one at a time, in a `(u, v) -> sign` dict, a sorted tuple and per-node
frozensets, and reports the first bad edge in input order. It is the oracle for
the library's `SignedGraph`, which keeps one sorted (m, 3) array and checks all
edges at once. `reference_split_edges` is `split_edges` over the tuple form: it
is the oracle for the library's split, which masks the parent's array.

`reference_load_edge_list` is the edge-list format written out on bytes: lines
part at b"\n", fields at commas or runs of ASCII whitespace, and each field is
matched whole by a regular expression. It is the oracle for `load_edge_list`.
"""

from __future__ import annotations

import math
import re

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


def reference_of(g) -> ReferenceGraph:
    """The oracle graph over a library graph's edges: the tests ask it for a
    pair's sign, a node's neighbor frozensets or the edges as tuples."""
    return ReferenceGraph(g.n, g.edge_array().tolist())


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


_BOM = "\ufeff".encode("utf-8")
_SPACE = b" \t\r\v\f"  # the ASCII whitespace that parts fields; \n ends lines
_SPACES = re.compile(rb"[ \t\r\v\f]+")
_WEIGHT = re.compile(rb"([+-]?)0*([0-9]+)")
_TIMESTAMP = re.compile(rb"[+-]?[0-9]+(\.[0-9]+)?")
_RANGE = {"rating": range(-10, 11), "signed": (1, -1)}


class ReferenceParseError(ValueError):
    """A refused edge list: the 1-based line and the kind of the fault, one of
    "utf8", "fields", "label", "weight", "range" and "timestamp"."""

    def __init__(self, lineno: int, kind: str):
        super().__init__(f"line {lineno}: {kind}")
        self.lineno, self.kind = lineno, kind


def reference_load_edge_list(data: bytes, format: str) -> list[tuple[str, str, int]]:
    """The (source, target, weight) records of an edge list, or the first fault.

    Every line must be UTF-8 before any is parsed. A leading byte-order mark
    is dropped. A line stripped of ASCII whitespace that is empty or starts
    with "#" or "%" is skipped. Fields part at commas, each stripped, if the
    line holds one, else at runs of ASCII whitespace. A record has 3 or 4
    fields: two non-empty labels, an ASCII integer weight in the format's
    range (leading zeros and length allowed), and an ASCII timestamp with an
    optional decimal fraction. The first fault of a line, in that order, is
    reported."""
    lines = data.removeprefix(_BOM).split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            raise ReferenceParseError(lineno, "utf8") from None
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip(_SPACE)
        if not line or line[:1] in (b"#", b"%"):
            continue
        if b"," in line:
            fields = [f.strip(_SPACE) for f in line.split(b",")]
        else:
            fields = _SPACES.split(line)
        if len(fields) not in (3, 4):
            raise ReferenceParseError(lineno, "fields")
        if not fields[0] or not fields[1]:
            raise ReferenceParseError(lineno, "label")
        weight = _WEIGHT.fullmatch(fields[2])
        if weight is None:
            raise ReferenceParseError(lineno, "weight")
        sign, digits = weight.groups()
        if len(digits) > 2 or int(sign + digits) not in _RANGE[format]:
            raise ReferenceParseError(lineno, "range")
        if len(fields) == 4 and not _TIMESTAMP.fullmatch(fields[3]):
            raise ReferenceParseError(lineno, "timestamp")
        records.append((fields[0].decode(), fields[1].decode(), int(sign + digits)))
    return records
