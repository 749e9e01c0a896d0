"""Signed-graph data model: edge-list ingestion, symmetrization, splits, adjacency."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np
import scipy.sparse as sp

POS = 1
NEG = -1

FORMATS = ("rating", "signed")

# number fields in ASCII digits only: int() alone would also take "1_0" and "\u0661" (1)
_WEIGHT = re.compile(r"[+-]?[0-9]+")
_TIMESTAMP = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")


class ParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class RatingRecord:
    """One directed record as read from an edge-list file, labels kept verbatim."""

    source: str
    target: str
    rating: int


class SignedGraph:
    """Undirected signed graph over dense node ids 0..n-1.

    Edges are unordered pairs carrying a sign in {+1, -1}; an absent pair means
    no edge. Instances are immutable after construction and safe to share across
    threads. Neighbor lookup split by sign is O(1) per node.
    """

    __slots__ = ("n", "_sign", "_pos", "_neg", "_edges", "num_pos", "num_neg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
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
        """All edges as (u, v, sign) with u < v, sorted by (u, v)."""
        return self._edges

    def sign(self, u: int, v: int) -> int:
        """Sign of edge {u, v}, or 0 when absent."""
        key = (u, v) if u < v else (v, u)
        return self._sign.get(key, 0)

    def pos_neighbors(self, u: int) -> frozenset:
        return self._pos[u]

    def neg_neighbors(self, u: int) -> frozenset:
        return self._neg[u]

    def __eq__(self, other):
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.n == other.n and self._sign == other._sign

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"SignedGraph(n={self.n}, pos={self.num_pos}, neg={self.num_neg})"


@dataclass(frozen=True)
class EdgeSplit:
    """Disjoint train/test partition of a graph's edges."""

    train: SignedGraph
    test: tuple[tuple[int, int, int], ...]


def _split_fields(line: str) -> list[str]:
    """A stripped line's fields: comma-separated, else parted by runs of ASCII
    whitespace (space, \\t, \\r, \\v, \\f). Other characters that str.split()
    takes as whitespace (\\x1c-\\x1f, \\x85, \\xa0, U+2028, ...) stay in labels."""
    if "," in line:
        return [f.strip(" \t\r\v\f") for f in line.split(",")]
    if line.isascii() and line.isprintable():  # its only whitespace is the space
        return line.split()
    return re.split(r"[ \t\r\v\f]+", line)


def _parse_number(field: str, pattern: re.Pattern, lineno: int, what: str) -> int:
    """The integer part of `field`, which `pattern` must match in full."""
    try:
        if pattern.fullmatch(field):
            return int(field.partition(".")[0])
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(lineno, f"non-numeric {what} {field!r}")


def load_edge_list(source, format: str = "signed") -> list[RatingRecord]:
    """Parse an edge-list stream into records.

    Each data line holds `source target weight [timestamp]`, comma- or
    whitespace-separated; lines starting with '#' or '%' are comments. The
    weight is an optionally signed run of ASCII digits: with format="rating" an
    integer rating in [-10, 10], with format="signed" +1 or -1. A timestamp is
    such an integer, optionally with a decimal fraction (as in SNAP's
    Bitcoin-OTC file), and is not kept. `source` may be a file object (text or
    binary), bytes, or str content, in UTF-8; a leading byte-order mark is
    dropped. Lines end at line feeds only (a CRLF's CR is stripped with the
    line's other edge whitespace), so line numbers count the line feed bytes,
    as the UTF-8 error's does. Whitespace means ASCII whitespace (space, \\t,
    \\r, \\v, \\f): other Unicode spaces and separators are label characters.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                             f"not UTF-8 text ({exc.reason})") from None
    records = []
    for lineno, raw in enumerate(data.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip(" \t\r\v\f")  # ASCII whitespace only, as _split_fields
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        fields = _split_fields(line)
        if len(fields) not in (3, 4):
            raise ParseError(lineno, f"expected 3 or 4 fields, got {len(fields)}")
        src, dst = fields[0], fields[1]
        if not src or not dst:
            raise ParseError(lineno, "empty node label")
        rating = _parse_number(fields[2], _WEIGHT, lineno, "weight")
        if format == "rating" and not -10 <= rating <= 10:
            raise ParseError(lineno, f"rating {rating} outside [-10, 10]")
        if format == "signed" and rating not in (POS, NEG):
            raise ParseError(lineno, f"sign {rating} not in {{+1, -1}}")
        if len(fields) == 4:
            _parse_number(fields[3], _TIMESTAMP, lineno, "timestamp")
        records.append(RatingRecord(src, dst, rating))
    return records


def build_graph(records: list[RatingRecord]) -> SignedGraph:
    """Symmetrize directed records into a SignedGraph.

    Labels are mapped to dense ids in first-appearance order (source before
    target, record order). Ratings > 0 become +1 edges, ratings <= 0 become -1.
    Self-loops are dropped. Duplicate and reciprocal records over the same
    unordered pair collapse to one edge, negative if any of them is negative:
    negative information is scarcer and more informative.
    """
    ids: dict[str, int] = {}
    for rec in records:
        for label in (rec.source, rec.target):
            if label not in ids:
                ids[label] = len(ids)
    pair_sign: dict[tuple[int, int], int] = {}
    for rec in records:
        u, v = ids[rec.source], ids[rec.target]
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if pair_sign.get(key) != NEG:  # a negative record wins
            pair_sign[key] = POS if rec.rating > 0 else NEG
    return SignedGraph(len(ids), ((u, v, s) for (u, v), s in pair_sign.items()))


def split_edges(g: SignedGraph, test_fraction: float, seed: int) -> EdgeSplit:
    """Hold out round(test_fraction * |edges|) edges uniformly at random.

    Refuses a fraction that rounds to no held-out edge or to every edge.
    Deterministic for a given seed. The train graph keeps all n nodes.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    m = g.num_edges
    if m < 2:
        raise ValueError("graph needs at least 2 edges to split")
    k = int(math.floor(test_fraction * m + 0.5))
    if k == 0:
        raise ValueError(f"test_fraction={test_fraction} holds out no edge of m={m}")
    if k == m:
        raise ValueError(f"test_fraction={test_fraction} holds out every edge of m={m}")
    rng = np.random.default_rng(seed)
    picked = set(rng.choice(m, size=k, replace=False).tolist())
    edges = g.edges()
    test = tuple(edges[i] for i in sorted(picked))
    train = SignedGraph(g.n, (edges[i] for i in range(m) if i not in picked))
    return EdgeSplit(train=train, test=test)


def _edge_array(edges) -> np.ndarray:
    """A sequence of (u, v, sign) triples as a fresh (m, 3) int64 array.

    np.fromiter over the flattened triples makes the same integers as np.array
    of the tuples, without np.array's shape and type discovery over them."""
    return np.fromiter(chain.from_iterable(edges), np.int64, count=3 * len(edges)).reshape(-1, 3)


def split_adjacency(g: SignedGraph):
    """Decompose into symmetric 0/1 csr matrices (Apos, Aneg) with disjoint supports."""
    edges = _edge_array(g.edges())
    mats = []
    for sign in (POS, NEG):
        u, v, _ = edges[edges[:, 2] == sign].T
        ends = (np.concatenate((u, v)), np.concatenate((v, u)))
        mats.append(sp.csr_matrix((np.ones(2 * len(u), dtype=np.int64), ends),
                                  shape=(g.n, g.n)))
    return tuple(mats)


def graph_stats(g: SignedGraph) -> dict:
    """Node/edge counts and the negative-edge share of a built graph."""
    m = g.num_edges
    return {
        "n": g.n,
        "pos_edges": g.num_pos,
        "neg_edges": g.num_neg,
        "neg_ratio": g.num_neg / m if m else 0.0,
    }


def record_stats(records: list[RatingRecord]) -> dict:
    """Raw (pre-symmetrization) counts straight off the record list."""
    labels = set()
    pos = 0
    for rec in records:
        labels.add(rec.source)
        labels.add(rec.target)
        if rec.rating > 0:
            pos += 1
    neg = len(records) - pos
    total = len(records)
    return {
        "n": len(labels),
        "pos_edges": pos,
        "neg_edges": neg,
        "neg_ratio": neg / total if total else 0.0,
    }
