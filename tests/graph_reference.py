"""Reference signed graph and edge split.

`ReferenceGraph` is `SignedGraph` as first written: it checks and stores the
edges one at a time, in a `(u, v) -> sign` dict, a sorted tuple and per-node
frozensets, and reports the first bad edge in input order. It is the oracle for
the library's `SignedGraph`, which keeps one sorted (m, 3) array and checks all
edges at once. `reference_split_edges` is `split_edges` over the tuple form: it
is the oracle for the library's split, which masks the parent's array.
`split_adjacency` is each sign's symmetric 0/1 adjacency assembled by scipy
from coordinates, apart from the library's grouping of endpoints by node
(`graph._by_node`): the trainer's operator oracle scales it, and the walk-count
oracles multiply it.

`reference_load_edge_list` is the edge-list format written out on bytes: lines
part at b"\n", fields at commas or runs of ASCII whitespace, and each field is
matched whole by a regular expression. It is the oracle for `load_edge_list`.
`reference_load_embeddings` and `reference_parse_config` write out the other
two input formats the same way: they are the oracles for `sgnn.load_embeddings`
and `cli.parse_config_text`.
"""

from __future__ import annotations

import math
import re

import numpy as np
import scipy.sparse as sp

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


def split_adjacency(g):
    """Decompose into symmetric 0/1 int64 csr matrices (Apos, Aneg) with disjoint
    supports, assembled by scipy from each edge's two coordinates."""
    edges = g.edge_array()
    mats = []
    for sign in (POS, NEG):
        u, v, _ = edges[edges[:, 2] == sign].T
        ends = (np.concatenate((u, v)), np.concatenate((v, u)))
        mats.append(sp.csr_matrix((np.ones(2 * len(u), dtype=np.int64), ends),
                                  shape=(g.n, g.n)))
    return tuple(mats)


_BOM = "\ufeff".encode("utf-8")
_SPACE = b" \t\r\v\f"  # the ASCII whitespace that parts fields; \n ends lines
_SPACES = re.compile(rb"[ \t\r\v\f]+")
_WEIGHT = re.compile(rb"([+-]?)0*([0-9]+)")
_TIMESTAMP = re.compile(rb"[+-]?[0-9]+(\.[0-9]+)?")
_RANGE = {"rating": range(-10, 11), "signed": (1, -1)}


class ReferenceParseError(ValueError):
    """A refused input: the 1-based line (None for a fault of the whole input)
    and the kind of the fault, each reference parser naming its own kinds."""

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


_ID = re.compile(rb"([+-]?)0*([0-9]+)")
_NUMBER = (r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?"
           r"|inf|infinity|nan)")
_VALUE = re.compile(_NUMBER.encode(), re.IGNORECASE)


def reference_load_embeddings(data: bytes) -> list[list[float]]:
    """The rows of an embedding text matrix, or the first fault.

    Lines part at b"\n" and fields at runs of ASCII whitespace; a line without
    a field is skipped. A row's first field is its node id, the count of rows
    before it: an optional sign (a minus only on zero) and ASCII digits, leading
    zeros allowed. The rest are ASCII decimal or exponent numbers, all finite,
    as many as in the first row. A line's faults, in order: "id", "empty" (no
    value), "value", "nonfinite" and "width"; then "dimension" (line None) if
    there is no row or the rows' width is odd."""
    rows = []
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        fields = _SPACES.split(line.strip(_SPACE))
        if fields == [b""]:
            continue
        node = _ID.fullmatch(fields[0])
        if node is None or node[2] != str(len(rows)).encode() or (node[1] == b"-" and rows):
            raise ReferenceParseError(lineno, "id")
        if len(fields) == 1:
            raise ReferenceParseError(lineno, "empty")
        if not all(_VALUE.fullmatch(f) for f in fields[1:]):
            raise ReferenceParseError(lineno, "value")
        values = [float(f) for f in fields[1:]]
        if not all(map(math.isfinite, values)):
            raise ReferenceParseError(lineno, "nonfinite")
        if rows and len(values) != len(rows[0]):
            raise ReferenceParseError(lineno, "width")
        rows.append(values)
    if not rows or len(rows[0]) % 2:
        raise ReferenceParseError(None, "dimension")
    return rows


_TEXT_SPACE = _SPACE.decode()  # a config's text is str: its ASCII whitespace
_BLANK = r"[ \t\r\v\f]*"
_CONFIG_INT = re.compile(r"([+-]?)0*([0-9]+)")
_CONFIG_RATIO = re.compile(rf"{_BLANK}({_NUMBER}){_BLANK}(?:/{_BLANK}({_NUMBER}){_BLANK})?",
                           re.ASCII | re.IGNORECASE)
_CONFIG_BOOL = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _config_ratio(text: str) -> float:
    """A number or a fraction a/b of two, each with ASCII blanks around it."""
    match = _CONFIG_RATIO.fullmatch(text)
    if match is None or match[2] is not None and float(match[2]) == 0:
        raise ValueError(text)
    value = float(match[1])
    return value if match[2] is None else value / float(match[2])


def _config_value(default, text: str):
    """`text` as a value of the default's type, or ValueError."""
    if isinstance(default, bool):
        word = text.encode().lower().decode()  # ASCII letters only change case
        if word not in _CONFIG_BOOL:
            raise ValueError(text)
        return _CONFIG_BOOL[word]
    if isinstance(default, int):
        match = _CONFIG_INT.fullmatch(text)
        if match is None:
            raise ValueError(text)
        # the digits past the leading zeros; int() refuses more than 4300 of them
        return int(match[1] + match[2])
    if isinstance(default, float):
        return _config_ratio(text)
    if isinstance(default, tuple):
        return tuple(_config_ratio(f) for f in text.split(",") if f.strip(_TEXT_SPACE))
    return text


def reference_parse_config(text: str, keys: dict) -> dict:
    """The `key = value` settings of a config text, or the first fault, for a
    subcommand whose keys and defaults are `keys`.

    Lines part at "\n" and are stripped of ASCII whitespace; an empty line or one
    starting with "#" is skipped. A line parts at its first "=" into a key and a
    value, each stripped of ASCII whitespace. A value is read by its key's
    default's type: an ASCII boolean word, an ASCII integer of at most 4300
    digits past its leading zeros, a number or a/b fraction of ASCII numbers
    (not over zero), a comma list of such with blank items skipped, or the
    text itself. A later line sets a key again. Faults:
    "syntax" (no "="), "key" (not in `keys`) and "value"."""
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(_TEXT_SPACE)
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ReferenceParseError(lineno, "syntax")
        key, _, value = line.partition("=")
        key = key.strip(_TEXT_SPACE)
        if key not in keys:
            raise ReferenceParseError(lineno, "key")
        try:
            values[key] = _config_value(keys[key], value.strip(_TEXT_SPACE))
        except ValueError:
            raise ReferenceParseError(lineno, "value") from None
    return values
