"""Signed-graph data model: edge-list ingestion, symmetrization, splits, adjacency.

A `SignedGraph` is its edges in one form: a sorted read-only (m, 3) int64
array of (u, v, sign) rows with u < v, beside the rows' ascending pair keys.
`build_graph` and `split_edges` hand the constructor such arrays, a split's
test edges are rows of its parent's array, and `split_adjacency` and
`neighbor_sets` are built from the array for the readers that need them.
"""

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

# numbers in ASCII only, for every reader of numbers in text: int() and float()
# alone would also take "1_0" and "\u0661" (1). The float words inf, infinity and
# nan match, so that range checks refuse them by name.
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                    r"|inf|infinity|nan)", re.ASCII | re.IGNORECASE)
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
    no edge. The edges are kept as a read-only (m, 3) int64 array of rows
    (u, v, sign) with u < v, sorted by (u, v) (`edge_array`), and the rows'
    read-only pair keys u * n + v, ascending (`pair_keys`). Instances are
    immutable after construction.
    """

    __slots__ = ("n", "_edges", "_keys", "num_pos", "num_neg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] | np.ndarray = ()):
        """`edges` is an iterable of (u, v, sign) triples or an (m, 3) integer
        array, each pair in either endpoint order. A non-integer entry is
        refused first; then the first edge in input order that references a
        node outside 0..n-1, is a self-loop, has a sign other than +1 and -1,
        or repeats an earlier pair (in either order) is refused."""
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n
        rows = _as_edge_array(edges)
        u, v, s = rows.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        # in a run of equal keys the stable order is the input order: all but
        # the first are duplicates. A row with an id out of range may share a key
        # with another, but only ever marks a later row or a row bad anyway, so
        # the first flagged row is still the first bad one.
        dup = np.zeros(len(rows), dtype=bool)
        dup[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
        flags = ((lo < 0) | (hi >= n), u == v, (s != POS) & (s != NEG), dup)
        bad = np.logical_or.reduce(flags)
        if bad.any():
            i = int(bad.argmax())
            a, b, sign = rows[i].tolist()
            messages = (f"edge ({a}, {b}) references a node id outside 0..{n - 1}",
                        f"self-loop on node {a}",
                        f"edge ({a}, {b}) has sign {sign}, expected +1 or -1",
                        f"duplicate edge {(int(lo[i]), int(hi[i]))}")
            raise ValueError(next(m for m, flag in zip(messages, flags) if flag[i]))
        self._edges = np.column_stack((lo[order], hi[order], s[order]))
        self._keys = keys[order]
        self._edges.flags.writeable = self._keys.flags.writeable = False
        self.num_neg = int(np.count_nonzero(s == NEG))
        self.num_pos = len(rows) - self.num_neg

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edge_array(self) -> np.ndarray:
        """All edges as a read-only (m, 3) int64 array of rows (u, v, sign), u < v,
        sorted by (u, v)."""
        return self._edges

    def pair_keys(self) -> np.ndarray:
        """The edges' pairs as a read-only array of row-major keys u * n + v,
        ascending: one per row of `edge_array`, in its order."""
        return self._keys

    def __eq__(self, other):
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self.n, self._edges.tobytes()))

    def __repr__(self):
        return f"SignedGraph(n={self.n}, pos={self.num_pos}, neg={self.num_neg})"


def neighbor_sets(g: SignedGraph) -> tuple[list[set], list[set]]:
    """Each node's neighbors of each sign, as fresh (pos, neg) lists of sets
    indexed by node, built from g's edge array; the caller owns them."""
    edges = g.edge_array()
    sets = []
    for sign in (POS, NEG):
        u, v, _ = edges[edges[:, 2] == sign].T
        ends = np.concatenate((u, v))
        others = np.concatenate((v, u))[np.argsort(ends, kind="stable")].tolist()
        bounds = np.cumsum(np.bincount(ends, minlength=g.n)).tolist()
        sets.append([set(others[a:b]) for a, b in zip([0] + bounds, bounds)])
    return sets[0], sets[1]


@dataclass(frozen=True, eq=False)
class EdgeSplit:
    """Disjoint train/test partition of a graph's edges: the train graph and the
    held-out rows of the parent's edge array, a read-only (k, 3) int64 array."""

    train: SignedGraph
    test: np.ndarray


def _split_fields(line: str) -> list[str]:
    """A stripped line's fields: comma-separated, else parted by runs of ASCII
    whitespace (space, \\t, \\r, \\v, \\f). Other characters that str.split()
    takes as whitespace (\\x1c-\\x1f, \\x85, \\xa0, U+2028, ...) stay in labels."""
    if "," in line:
        return [f.strip(" \t\r\v\f") for f in line.split(",")]
    if line.isascii() and line.isprintable():  # its only whitespace is the space
        return line.split()
    return re.split(r"[ \t\r\v\f]+", line)


def load_edge_list(source, format: str = "signed") -> list[RatingRecord]:
    """Parse an edge-list stream into records.

    Each data line holds `source target weight [timestamp]`, comma- or
    whitespace-separated; lines starting with '#' or '%' are comments. The
    weight is an optionally signed run of ASCII digits, of any length: with
    format="rating" an integer rating in [-10, 10], with format="signed" +1 or
    -1; a range error quotes it as written. A timestamp is such an integer,
    optionally with a decimal fraction (as in SNAP's Bitcoin-OTC file), and is
    not kept. `source` may be a file object (text or
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
        weight = fields[2]
        if not _INT.fullmatch(weight):
            raise ParseError(lineno, f"non-numeric weight {weight!r}")
        # past two digits, leading zeros aside, a weight is out of either range;
        # int() would refuse more than sys.get_int_max_str_digits() of them
        sign, magnitude = "-" if weight[0] == "-" else "", weight.lstrip("+-").lstrip("0")
        rating = int(sign + (magnitude or "0")) if len(magnitude) <= 2 else None
        if format == "rating" and (rating is None or not -10 <= rating <= 10):
            raise ParseError(lineno, f"rating {weight} outside [-10, 10]")
        if format == "signed" and rating not in (POS, NEG):
            raise ParseError(lineno, f"sign {weight} not in {{+1, -1}}")
        if len(fields) == 4 and not _TIMESTAMP.fullmatch(fields[3]):
            raise ParseError(lineno, f"non-numeric timestamp {fields[3]!r}")
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
    rows = np.empty((len(pair_sign), 3), dtype=np.int64)
    rows[:, :2] = np.fromiter(chain.from_iterable(pair_sign), np.int64,
                              count=2 * len(pair_sign)).reshape(-1, 2)
    rows[:, 2] = np.fromiter(pair_sign.values(), np.int64, count=len(pair_sign))
    return SignedGraph(len(ids), rows)


def split_edges(g: SignedGraph, test_fraction: float, seed: int) -> EdgeSplit:
    """Hold out round(test_fraction * |edges|) edges uniformly at random.

    Refuses a fraction that rounds to no held-out edge or to every edge.
    Deterministic for a given seed. The train graph keeps all n nodes. The draw
    picks row indices of g's edge array; the test array and the train graph's
    array are its picked and unpicked rows, each in the parent's row order.
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
    picked = np.zeros(m, dtype=bool)
    picked[rng.choice(m, size=k, replace=False)] = True
    edges = g.edge_array()
    test = edges[picked]
    test.flags.writeable = False
    return EdgeSplit(train=SignedGraph(g.n, edges[~picked]), test=test)


def _as_edge_array(edges) -> np.ndarray:
    """(u, v, sign) triples, or an (m, 3) array of them, as an (m, 3) int64 array.

    Every entry must be an integer: a float, even 1.0, a string or any other
    value is refused with a ValueError naming the first such entry, never
    truncated. Integers outside int64 are refused too."""
    source = edges if isinstance(edges, np.ndarray) else list(edges)
    rows = np.asarray(source)
    if rows.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"edges must be (u, v, sign) triples, got shape {rows.shape}")
    if rows.dtype.kind in "biu":
        return rows.astype(np.int64, copy=False)
    for row in source.tolist() if isinstance(source, np.ndarray) else source:
        row = tuple(x.item() if isinstance(x, np.generic) else x for x in row)
        for j, x in enumerate(row):
            if not isinstance(x, int):
                what = "sign" if j == 2 else "node id"
                raise ValueError(f"edge {row} has a non-integer {what} {x!r}")
    raise ValueError("edge entries must fit in int64")


def split_adjacency(g: SignedGraph):
    """Decompose into symmetric 0/1 csr matrices (Apos, Aneg) with disjoint supports."""
    edges = g.edge_array()
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
