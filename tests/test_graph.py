import importlib.util
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigaug as sg
from sigaug.graph import ParseError, neighbor_sets
from sigaug.graph import _by_node as by_node

from conftest import LINE_BREAKS, REPO, graph_past_16_bit_ids, load_tool, random_signed_graph
from graph_reference import (ReferenceGraph, ReferenceParseError, reference_load_edge_list,
                             reference_of, reference_split_edges, split_adjacency)


class TestLoadEdgeList:
    def test_rating_line_with_timestamp(self):
        recs = sg.load_edge_list(io.BytesIO(b"7188,1,10,1407470400"), "rating")
        assert recs == [sg.RatingRecord("7188", "1", 10)]
        # SNAP's Bitcoin-OTC file writes epoch seconds with a fraction
        recs = sg.load_edge_list("6,2,4,1289241911.72836\n6,5,-2,-1.5\n", "rating")
        assert recs == [sg.RatingRecord("6", "2", 4), sg.RatingRecord("6", "5", -2)]
        for stamp in ("noon", "1.", ".5", "1_0", "\u0661", "1e9"):
            with pytest.raises(ParseError, match="line 1: non-numeric timestamp"):
                sg.load_edge_list(f"7188,1,10,{stamp}", "rating")

    def test_empty_stream(self):
        assert sg.load_edge_list(io.BytesIO(b""), "rating") == []

    def test_whitespace_fields(self):
        recs = sg.load_edge_list("a b -3", "rating")
        assert recs == [sg.RatingRecord("a", "b", -3)]

    def test_comments_and_blank_lines(self):
        text = "# header\n% other comment\n\n1 2 1\n"
        assert len(sg.load_edge_list(text, "signed")) == 1

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            sg.load_edge_list("1 2 1\n3 4\n", "signed")

    def test_non_numeric_weight_reports_line(self):
        with pytest.raises(ParseError, match="line 1.*weight"):
            sg.load_edge_list("a b heavy", "rating")
        # int() would take a digit separator and non-ASCII digits ("\u0661" is 1)
        for weight in ("1_0", "\u0661", "1.0"):
            with pytest.raises(ParseError, match=f"line 2: non-numeric weight '{weight}'"):
                sg.load_edge_list(f"a b 1\nb c {weight}\n", "rating")
        assert sg.load_edge_list("a b +1\nb c -10\n", "rating") == [
            sg.RatingRecord("a", "b", 1), sg.RatingRecord("b", "c", -10)]

    @pytest.mark.parametrize("header", ["", "# header\n"], ids=["data_first", "header_first"])
    @pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "str"])
    def test_leading_byte_order_mark_dropped(self, header, as_bytes):
        # the mark ("\ufeff", bytes EF BB BF in UTF-8) is not part of the first
        # label, and line numbers do not move
        def encoded(text):
            return text.encode("utf-8") if as_bytes else text

        text = "\ufeff" + header + "a b 1\nb c -1\n"
        assert sg.load_edge_list(encoded(text), "signed") == [sg.RatingRecord("a", "b", 1),
                                                              sg.RatingRecord("b", "c", -1)]
        lineno = 4 if header else 3
        with pytest.raises(ParseError, match=f"line {lineno}: expected 3 or 4 fields"):
            sg.load_edge_list(encoded(text + "c d\n"), "signed")

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"{ord(c):#x}" for c in LINE_BREAKS])
    def test_lines_end_at_line_feeds_only(self, brk):
        # a break inside a comment moves no later line number, as the file's
        # line feeds count them
        text = f"# a{brk}b\na b 1\nc d x\n".encode("utf-8")
        with pytest.raises(ParseError, match="^line 3: non-numeric weight 'x'$"):
            sg.load_edge_list(text, "signed")
        # records parted only by such a break are one line, which is refused; the
        # break parts fields only if it is ASCII whitespace, else it joins "1" and "c"
        fields = 6 if brk in "\r\x0b\x0c" else 5
        with pytest.raises(ParseError, match=f"^line 1: expected 3 or 4 fields, got {fields}$"):
            sg.load_edge_list(f"a b 1{brk}c d -1\n".encode("utf-8"), "signed")

    def test_crlf_and_lf_parse_alike(self):
        lf = "# header\na b 1\nb c -1 1407470400\n\nc,d,1\n"
        records = sg.load_edge_list(lf.encode("ascii"), "signed")
        assert len(records) == 3
        assert sg.load_edge_list(lf.replace("\n", "\r\n").encode("ascii"), "signed") == records
        with pytest.raises(ParseError, match="^line 2: non-numeric weight 'x'$"):
            sg.load_edge_list(b"a b 1\r\nc d x\r\n", "signed")

    def test_fields_part_at_ascii_whitespace_only(self):
        assert sg.load_edge_list("a\x1cb c 1", "signed") == [sg.RatingRecord("a\x1cb", "c", 1)]
        for sep in ("\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029", "\u3000"):
            assert sg.load_edge_list(f"a b{sep}x -1\n", "signed") == \
                [sg.RatingRecord("a", f"b{sep}x", -1)]
            assert sg.load_edge_list(f"a, b{sep} ,-1\n", "signed") == \
                [sg.RatingRecord("a", f"b{sep}", -1)]
            # nor is it stripped from the line's ends
            assert sg.load_edge_list(f"{sep}a b 1", "signed") == \
                [sg.RatingRecord(f"{sep}a", "b", 1)]
            with pytest.raises(ParseError, match="^line 1: non-numeric weight"):
                sg.load_edge_list(f"a b 1{sep}", "signed")
        # space, tab, CR, VT and FF part fields, in runs, and are stripped at the ends
        assert sg.load_edge_list("\ta \t b\x0b\x0c1 \r\n", "signed") == \
            [sg.RatingRecord("a", "b", 1)]

    def test_rating_range_enforced(self):
        with pytest.raises(ParseError, match="line 1"):
            sg.load_edge_list("a b 11", "rating")

    def test_signed_requires_unit_weights(self):
        with pytest.raises(ParseError, match="line 1"):
            sg.load_edge_list("a b 3", "signed")

    def test_non_utf8_bytes_report_line(self):
        with pytest.raises(ParseError, match="line 2: not UTF-8"):
            sg.load_edge_list(io.BytesIO(b"1 2 1\n\xff\xfe 3 1\n"), "signed")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            sg.load_edge_list("a b 1", "csv")


# pieces of edge-list lines. Valid ones: labels that hold Unicode digits,
# spaces, separators and marks, ASCII separators, weights with leading zeros
# or of thousands of digits, timestamps with fractions. A line is mutated now
# and then: Unicode digits and spaces, NaN/inf text, huge integers, line breaks
# other than the line feed, comment starts, missing or extra fields.
_LABEL_CHARS = list("ab7#%") + ["\u0661", "\xa0", "\u3000", "\u2028", "\x1c", "\x85",
                                "\ufeff", "\u0301", "\x00"]
_SEPARATORS = [" ", "\t", "  ", " \x0b", "\x0c", "\r", ",", ", ", " ,\t"]
_WEIGHTS = ["1", "-1", "+1", "01", "-0001", "0" * 4400 + "1", "-" + "0" * 4301 + "1"]
_TIMESTAMPS = ["1407470400", "1289241911.72836", "-1.5", "+0", "1" * 5000, "1." + "0" * 5000]
_EDGES = ["", "", " ", "\t", "\r", "\x0b\x0c"]
_ENDS = ["\n", "\n", "\r\n", "\n\n"]
_OTHER_LINES = ["", "  ", "# a b x", "% x", " # 1 2 x", "\t%"]
_BAD = {
    "weight": ["0", "-0", "10", "-10", "11", "100", "9" * 5000, "1_0", "\u0661", "\uff11",
               "1.0", "1e0", "nan", "NaN", "inf", "-Infinity", "", "x"],
    "timestamp": ["1.", ".5", "1e9", "nan", "inf", "1_0", "\u0661", "", "x"],
    "separator": [",,", "\xa0", "\u3000", "\x1c", "\u2028", "\x85"],
    "edge": ["\xa0", "\x85", "\ufeff", "\u2028"],
    "break": LINE_BREAKS,
    "label": ["", ",", "#", "a b"],
    "count": [2, 5],
}
_BAD_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80", b"\xf4\x90\x80\x80"]


@st.composite
def edge_list_bytes(draw):
    """An edge list of up to 6 lines, mostly records and mostly valid, as bytes."""
    data = b""
    for _ in range(draw(st.integers(0, 6))):
        bad = draw(st.sampled_from([None] * 5 + sorted(_BAD)))
        if draw(st.integers(0, 5)) == 0:
            line = draw(st.sampled_from(_OTHER_LINES))
        else:
            label = st.text(st.sampled_from(_LABEL_CHARS), max_size=3).map(lambda t: "n" + t)
            fields = [draw(label), draw(label), draw(st.sampled_from(_WEIGHTS)),
                      draw(st.sampled_from(_TIMESTAMPS)), "x"]
            count = draw(st.sampled_from((3, 4)))
            if bad in ("weight", "timestamp"):
                fields[2 if bad == "weight" else 3] = draw(st.sampled_from(_BAD[bad]))
                count = max(count, 4) if bad == "timestamp" else count
            elif bad == "label":
                fields[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD[bad]))
            elif bad == "count":
                count = draw(st.sampled_from(_BAD[bad]))
            commas = draw(st.booleans())  # one comma makes the line a comma line
            seps = [x for x in _SEPARATORS if ("," in x) == commas]
            seps = _BAD["separator"] + seps if bad == "separator" else seps
            line = fields[0]
            for field in fields[1:count]:
                line += draw(st.sampled_from(seps)) + field
            edges = _BAD["edge"] if bad == "edge" else _EDGES
            line = draw(st.sampled_from(edges)) + line + draw(st.sampled_from(_EDGES))
        if bad == "break":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(LINE_BREAKS)) + line[at:]
        data += line.encode() + draw(st.sampled_from(_ENDS)).encode()
    if data and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_UTF8)) + data[at:]
    if draw(st.booleans()):
        data = "\ufeff".encode() + data
    return data


_KINDS = {"not UTF-8": "utf8", "expected 3 or 4 fields": "fields", "empty node label": "label",
          "non-numeric weight": "weight", "rating ": "range", "sign ": "range",
          "non-numeric timestamp": "timestamp"}


def _loaded(load, data, format):
    """("ok", records) or ("error", line, kind) from either loader."""
    try:
        return "ok", [tuple(r) if isinstance(r, tuple) else (r.source, r.target, r.rating)
                      for r in load(data, format)]
    except ReferenceParseError as exc:
        return "error", exc.lineno, exc.kind
    except ParseError as exc:
        message = str(exc).split(": ", 1)[1]
        (kind,) = [k for prefix, k in _KINDS.items() if message.startswith(prefix)]
        return "error", exc.lineno, kind


class TestLoadEdgeListMatchesReference:
    """load_edge_list against the bytes-and-regex reference parser: the same
    verdict, records, error line and error kind."""

    @given(data=edge_list_bytes(), format=st.sampled_from(sg.graph.FORMATS))
    @settings(max_examples=400, deadline=None)
    def test_generated_files(self, data, format):
        want = _loaded(reference_load_edge_list, data, format)
        assert _loaded(sg.load_edge_list, data, format) == want
        assert _loaded(sg.load_edge_list, io.BytesIO(data), format) == want

    @pytest.mark.parametrize("text,format,want", [
        ("a b " + "0" * 4400 + "1\n", "signed", ("ok", [("a", "b", 1)])),
        ("a b -" + "0" * 4301 + "10\n", "rating", ("ok", [("a", "b", -10)])),
        ("a b " + "9" * 5000 + "\n", "rating", ("error", 1, "range")),
        ("a b +07\nc d 100\n", "rating", ("error", 2, "range")),
        ("a b 1 " + "1" * 5000 + "\n", "signed", ("ok", [("a", "b", 1)])),
        ("a b 1 1." + "0" * 5000 + "\n", "signed", ("ok", [("a", "b", 1)])),
        (b"a b x\n\xff\n", "signed", ("error", 2, "utf8")),
    ], ids=["zeros_then_one", "zeros_then_ten", "huge_weight", "three_digits",
            "huge_timestamp", "long_fraction", "utf8_first"])
    def test_cases(self, text, format, want):
        data = text if isinstance(text, bytes) else text.encode()
        assert _loaded(reference_load_edge_list, data, format) == want
        assert _loaded(sg.load_edge_list, data, format) == want

    def test_range_message_quotes_the_weight(self):
        with pytest.raises(ParseError, match=r"^line 1: rating \+011 outside \[-10, 10\]$"):
            sg.load_edge_list("a b +011", "rating")
        with pytest.raises(ParseError, match=r"^line 1: sign 9{5000} not in \{\+1, -1\}$"):
            sg.load_edge_list("a b " + "9" * 5000, "signed")


class TestBuildGraph:
    def test_single_positive_rating(self):
        g = sg.build_graph([sg.RatingRecord("a", "b", 10)])
        assert g.n == 2 and g.edge_array().tolist() == [[0, 1, 1]]

    def test_negative_wins_policy(self):
        recs = [sg.RatingRecord("a", "b", 5), sg.RatingRecord("b", "a", -2)]
        g = sg.build_graph(recs)
        assert g.edge_array().tolist() == [[0, 1, -1]]
        assert sg.build_graph(recs[::-1]).edge_array().tolist() == [[0, 1, -1]]

    def test_zero_rating_maps_negative(self):
        g = sg.build_graph([sg.RatingRecord("a", "b", 0)])
        assert g.edge_array().tolist() == [[0, 1, -1]]

    def test_self_loops_dropped(self):
        g = sg.build_graph([sg.RatingRecord("a", "a", 3), sg.RatingRecord("a", "b", 3)])
        assert g.num_edges == 1
        # a label seen only in a self-loop still gets its id, in first-appearance order
        g = sg.build_graph([sg.RatingRecord("c", "c", 1), sg.RatingRecord("a", "b", 1)])
        assert g.n == 3 and g.edge_array().tolist() == [[1, 2, 1]]

    def test_first_appearance_ids(self):
        recs = [sg.RatingRecord("z", "m", 1), sg.RatingRecord("a", "z", 1)]
        g = sg.build_graph(recs)
        # z -> 0, m -> 1, a -> 2
        assert g.n == 3 and g.edge_array()[:, :2].tolist() == [[0, 1], [0, 2]]

    def test_rebuild_of_own_output_is_lossless(self):
        # re-serializing a built graph and building again relabels nodes by
        # first appearance but must not merge, drop or re-sign any edge
        rng = np.random.default_rng(5)
        g = random_signed_graph(rng, 12, 0.4, 0.4)
        text = "\n".join(f"{u} {v} {s}" for u, v, s in g.edge_array().tolist())
        records = sg.load_edge_list(text, "signed")
        g2 = sg.build_graph(records)
        label_map = {}
        for rec in records:
            for lab in (rec.source, rec.target):
                label_map.setdefault(lab, len(label_map))
        assert g2.n == g.n and g2.num_edges == g.num_edges
        ref2 = reference_of(g2)
        for u, v, s in g.edge_array().tolist():
            assert ref2.sign(label_map[str(u)], label_map[str(v)]) == s

    def test_empty_records(self):
        g = sg.build_graph([])
        assert g.n == 0 and g.num_edges == 0


class TestSignedGraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="self-loop"):
            sg.SignedGraph(3, [(1, 1, 1)])
        with pytest.raises(ValueError, match="node id"):
            sg.SignedGraph(2, [(0, 5, 1)])
        with pytest.raises(ValueError, match="sign"):
            sg.SignedGraph(2, [(0, 1, 2)])
        with pytest.raises(ValueError, match="duplicate"):
            sg.SignedGraph(2, [(0, 1, 1), (1, 0, -1)])

    def test_neighbor_lookup_split_by_sign(self):
        g = sg.SignedGraph(4, [(0, 1, 1), (0, 2, -1), (2, 3, -1)])
        pos, neg = neighbor_sets(g)
        assert pos == [{1}, {0}, set(), set()]
        assert neg == [{2}, set(), {0, 3}, {2}]
        assert neighbor_sets(sg.SignedGraph(2)) == ([set(), set()], [set(), set()])

    def test_neighbor_sets_are_fresh_and_owned(self):
        g = random_signed_graph(np.random.default_rng(4), 9, 0.5, 0.4)
        ref = reference_of(g)
        first, second = neighbor_sets(g), neighbor_sets(g)
        for sets, other, want in ((first[0], second[0], ref.pos_neighbors),
                                  (first[1], second[1], ref.neg_neighbors)):
            assert [type(x) for x in sets] == [set] * g.n
            assert sets == [want(u) for u in range(g.n)]
            assert all(a is not b for a, b in zip(sets, other))
        first[0][0].add(8)
        first[1][3].clear()
        assert neighbor_sets(g) == second
        assert second[0][0] == ref.pos_neighbors(0) and second[1][3] == ref.neg_neighbors(3)

    def test_non_integer_entries_refused(self):
        # np.fromiter(..., np.int64) would truncate 1.5 to 1 and read "1" as 1; the
        # per-edge reference stores a float sign and fails on a float id with a TypeError
        assert ReferenceGraph(3, [(0, 1, 1.0)]).edges() == ((0, 1, 1.0),)
        with pytest.raises(TypeError):
            ReferenceGraph(3, [(0, 1, 1), (0.5, 2, 1)])
        cases = [([(0, 1, 1), (0.5, 2, 1)], "non-integer node id 0.5"),
                 ([(0, 1.5, 1)], "non-integer node id 1.5"),
                 ([(0, "1", 1)], "non-integer node id '1'"),
                 ([(0, 1, 1.0)], "non-integer sign 1.0"),
                 ([(0, None, 1)], "non-integer node id None"),
                 (np.array([[0.0, 1.0, 1.0]]), "non-integer node id 0.0"),
                 (np.array([["0", "1", "1"]]), "non-integer node id '0'")]
        for edges, message in cases:
            with pytest.raises(ValueError, match=message):
                sg.SignedGraph(3, edges)
            with pytest.raises(ValueError, match=message):
                sg.SignedGraph(3, iter(edges))
        # refused before any other check, whatever comes first in input order
        with pytest.raises(ValueError, match="non-integer node id 2.0"):
            sg.SignedGraph(3, [(0, 0, 1), (1, 2.0, 1)])
        with pytest.raises(ValueError, match="fit in int64"):
            sg.SignedGraph(3, [(0, 2**70, 1)])

    def test_integer_arrays_of_any_width(self):
        want = sg.SignedGraph(4, [(0, 1, 1), (2, 3, -1)])
        for dtype in (np.int8, np.int32, np.int64):
            assert sg.SignedGraph(4, np.array([[3, 2, -1], [1, 0, 1]], dtype=dtype)) == want
        want = sg.SignedGraph(4, [(0, 1, 1), (2, 3, 1)])
        for dtype in (np.uint16, np.uint64):
            assert sg.SignedGraph(4, np.array([[3, 2, 1], [1, 0, 1]], dtype=dtype)) == want
        assert sg.SignedGraph(2, np.array([[True, False, True]])).edge_array().tolist() == [[0, 1, 1]]
        with pytest.raises(ValueError, match="triples"):
            sg.SignedGraph(4, [(0, 1), (2, 3)])

    def test_stored_array_is_read_only_and_sorted(self):
        g = sg.SignedGraph(4, np.array([[3, 2, -1], [1, 0, 1], [3, 0, 1]]))
        rows = g.edge_array()
        assert rows.dtype == np.int64 and rows.shape == (3, 3)
        assert rows.tolist() == [[0, 1, 1], [0, 3, 1], [2, 3, -1]]
        with pytest.raises(ValueError):
            rows[0, 2] = -1
        assert g.pair_keys().tolist() == [1, 3, 11]
        with pytest.raises(ValueError):
            g.pair_keys()[0] = 2


_FORMS = ("tuples", "generator", "array", "lists")


def _as_form(edges, form):
    """The same edges as a list of tuples, a generator, an int64 array or a
    list of lists."""
    if form == "tuples":
        return list(edges)
    if form == "generator":
        return (e for e in edges)
    if form == "array":
        return np.array(edges, dtype=np.int64).reshape(-1, 3)
    return [list(e) for e in edges]


@st.composite
def edge_lists(draw, min_n=0, max_n=10):
    """(n, edges): distinct pairs with random signs, shuffled, each in a random
    endpoint order."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        s = draw(st.sampled_from((1, -1)))
        edges.append((v, u, s) if draw(st.booleans()) else (u, v, s))
    return n, edges


def _message(build):
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


class TestSignedGraphMatchesReference:
    """The library's one-array SignedGraph against the per-edge reference."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_graph(self, data):
        n, edges = data.draw(edge_lists())
        form = data.draw(st.sampled_from(_FORMS))
        g, ref = sg.SignedGraph(n, _as_form(edges, form)), ReferenceGraph(n, edges)
        assert g.edge_array().tolist() == [list(e) for e in ref.edges()]
        assert g.pair_keys().tolist() == [u * n + v for u, v, _ in ref.edges()]
        assert (g.num_edges, g.num_pos, g.num_neg) == (ref.num_edges, ref.num_pos, ref.num_neg)
        pos, neg = neighbor_sets(g)
        assert pos == [ref.pos_neighbors(u) for u in range(n)]
        assert neg == [ref.neg_neighbors(u) for u in range(n)]
        # another order and form of the same edges, and a graph one edge away
        other = data.draw(st.permutations(edges))
        other_form = data.draw(st.sampled_from(_FORMS))
        same = sg.SignedGraph(n, _as_form(other, other_form))
        assert same == g and hash(same) == hash(g)
        if edges:
            i = data.draw(st.integers(0, len(edges) - 1))
            u, v, s = edges[i]
            changed = edges[:i] + data.draw(st.sampled_from([[], [(u, v, -s)]])) + edges[i + 1:]
            assert (sg.SignedGraph(n, changed) == g) == (ReferenceGraph(n, changed) == ref)
            assert sg.SignedGraph(n, changed) != g

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_first_error(self, data):
        # bad edges inserted anywhere: out-of-range ids, self-loops, bad signs
        # and repeats of an earlier pair (either endpoint order, either sign)
        n, edges = data.draw(edge_lists(min_n=2))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(edges)))
            kind = data.draw(st.sampled_from(("range", "loop", "sign", "duplicate")))
            u = data.draw(st.integers(0, n - 1))
            v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
            s = data.draw(st.sampled_from((1, -1)))
            if kind == "range":
                bad = data.draw(st.sampled_from((-1, -5, n, n + 3)))
                edge = (u, bad, s) if data.draw(st.booleans()) else (bad, u, s)
            elif kind == "loop":
                edge = (u, u, data.draw(st.sampled_from((1, -1, 0))))
            elif kind == "sign":
                edge = (u, v, data.draw(st.sampled_from((0, 2, -2, 7))))
            elif not edges:
                edge = (u, u, s)
            else:
                at = max(at, 1)
                a, b, _ = edges[data.draw(st.integers(0, at - 1))]
                edge = (b, a, s) if data.draw(st.booleans()) else (a, b, s)
            edges.insert(at, edge)
        form = data.draw(st.sampled_from(_FORMS))
        want = _message(lambda: ReferenceGraph(n, edges))
        assert _message(lambda: sg.SignedGraph(n, _as_form(edges, form))) == want

    def test_first_error_messages(self):
        cases = [(3, [(0, 1, 1), (0, 5, 1)], "edge (0, 5) references a node id outside 0..2"),
                 (3, [(2, -1, 1)], "edge (2, -1) references a node id outside 0..2"),
                 (3, [(1, 1, 1)], "self-loop on node 1"),
                 (3, [(1, 1, 9)], "self-loop on node 1"),
                 (3, [(0, 1, 2)], "edge (0, 1) has sign 2, expected +1 or -1"),
                 (3, [(0, 1, 1), (1, 2, 1), (1, 0, -1)], "duplicate edge (0, 1)"),
                 (3, [(2, 1, 1), (0, 2, 0), (1, 2, 1)], "edge (0, 2) has sign 0"),
                 (3, [(2, 1, 1), (1, 2, 1), (0, 2, 0)], "duplicate edge (1, 2)")]
        for n, edges, message in cases:
            assert _message(lambda: ReferenceGraph(n, edges)).startswith(message)
            for form in _FORMS:
                assert _message(lambda: sg.SignedGraph(n, _as_form(edges, form))).startswith(message)


@pytest.fixture(scope="module")
def synth1k_graph():
    """The benchmark's generated n=1000, m=4000 graph, loaded without bytecode."""
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("graph_tests_gen_graph",
                                                      REPO / "benchmark" / "gen_graph.py")
        gen_graph = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_graph)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return sg.SignedGraph(1000, gen_graph.generate(0))


class TestSplitMatchesReference:
    @pytest.mark.parametrize("name", ["congress", "synth1k"])
    def test_seeds_0_to_20(self, name, congress_graph, synth1k_graph):
        g = congress_graph if name == "congress" else synth1k_graph
        ref = reference_of(g)
        for seed in range(21):
            split = sg.split_edges(g, 0.2, seed)
            train, test = reference_split_edges(ref, 0.2, seed)
            assert split.test.dtype == np.int64 and not split.test.flags.writeable
            assert split.test.tolist() == [list(e) for e in test]
            assert split.train.edge_array().tolist() == [list(e) for e in train.edges()]
            assert split.train.n == g.n
        with pytest.raises(ValueError, match="read-only"):
            split.test[0, 2] = -split.test[0, 2]


class TestSplitEdges:
    def test_counts(self):
        rng = np.random.default_rng(0)
        g = random_signed_graph(rng, 8, 0.5, 0.3)
        while g.num_edges != 10:
            g = random_signed_graph(rng, 8, 0.5, 0.3)
        split = sg.split_edges(g, 0.2, seed=1)
        assert len(split.test) == 2 and split.train.num_edges == 8

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        g = random_signed_graph(rng, 10, 0.4)
        a = sg.split_edges(g, 0.3, seed=42)
        b = sg.split_edges(g, 0.3, seed=42)
        assert np.array_equal(a.test, b.test) and a.train == b.train

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            g = random_signed_graph(rng, 12, 0.4, 0.4)
            if g.num_edges < 2:
                continue
            frac = rng.uniform(0.1, 0.9)
            split = sg.split_edges(g, frac, seed=int(rng.integers(1 << 30)))
            train = set(map(tuple, split.train.edge_array().tolist()))
            test = set(map(tuple, split.test.tolist()))
            assert train | test == set(map(tuple, g.edge_array().tolist()))
            assert not train & test
            assert len(test) == int(math.floor(frac * g.num_edges + 0.5))
            assert split.train.n == g.n

    def test_fraction_out_of_range(self):
        g = sg.SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sg.split_edges(g, frac, 0)

    def test_refuses_an_empty_test_set(self, congress_graph):
        # round(0.0005 * 520) == 0: refused before any training sees the split
        with pytest.raises(ValueError, match="test_fraction=0.0005 .* m=520"):
            sg.split_edges(congress_graph, 0.0005, 0)
        assert len(sg.split_edges(congress_graph, 0.001, 0).test) == 1

    def test_refuses_an_empty_train_set(self, congress_graph):
        # round(0.9995 * 520) == 520: no edge would be left to train on
        with pytest.raises(ValueError, match="test_fraction=0.9995 holds out every edge of m=520"):
            sg.split_edges(congress_graph, 0.9995, 0)
        assert len(sg.split_edges(congress_graph, 0.999, 0).test) == 519

    def test_congress_test_size(self, congress_graph):
        split = sg.split_edges(congress_graph, 0.2, seed=0)
        assert len(split.test) == round(0.2 * congress_graph.num_edges) == 104


class TestSplitAdjacency:
    """graph_reference's scipy-built adjacency, the oracle behind the trainer's
    operators (trainer_reference.graph_tensors) and the walk counts."""

    def test_triangle(self):
        g = sg.SignedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
        apos, aneg = split_adjacency(g)
        assert apos.nnz == 4 and aneg.nnz == 2
        assert (apos != apos.T).nnz == 0 and (aneg != aneg.T).nnz == 0
        assert apos.multiply(aneg).nnz == 0

    def test_empty(self):
        apos, aneg = split_adjacency(sg.SignedGraph(4))
        assert apos.nnz == 0 and aneg.nnz == 0

    def test_refusing_reconstructs_signs(self):
        rng = np.random.default_rng(3)
        g = random_signed_graph(rng, 10, 0.4, 0.4)
        apos, aneg = split_adjacency(g)
        a = (apos - aneg).toarray()
        ref = reference_of(g)
        for u in range(g.n):
            for v in range(g.n):
                assert a[u, v] == ref.sign(u, v)

    def test_congress_nnz_identity(self, congress_graph):
        apos, aneg = split_adjacency(congress_graph)
        assert apos.nnz // 2 + aneg.nnz // 2 == congress_graph.num_edges


class TestByNode:
    """graph._by_node against a dict of lists of each node's entries in input
    order. The sizes cross the 8-, 16- and 32-bit sort keys: a key one width too
    narrow for n would wrap node n - 1 onto a small id and reorder the runs."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 65536, 65537])
    def test_matches_dict_of_lists(self, n):
        rng = np.random.default_rng(n)
        inputs = [np.empty(0, np.int64)]
        if n:  # long runs at both ends of the id range and in the middle
            hubs = np.repeat([0, n // 2, n - 1], 30)
            inputs.append(rng.permutation(np.concatenate((rng.integers(0, n, 200), hubs))))
        for ends in inputs:
            want = {}
            for i, node in enumerate(ends.tolist()):
                want.setdefault(node, []).append(i)
            order, indptr = by_node(ends, n)
            assert order.tolist() == [i for node in sorted(want) for i in want[node]]
            counts = [len(want.get(node, ())) for node in range(n)]
            assert indptr.dtype == np.int64
            assert indptr.tolist() == np.concatenate(([0], np.cumsum(counts))).tolist()

    def test_neighbor_sets_past_16_bit_ids(self):
        g = graph_past_16_bit_ids()
        ref = reference_of(g)
        pos, neg = neighbor_sets(g)
        assert pos == [ref.pos_neighbors(u) for u in range(g.n)]
        assert neg == [ref.neg_neighbors(u) for u in range(g.n)]
        assert pos[65_599] | neg[65_599] and pos[0] | neg[0]


class TestStats:
    @pytest.mark.skipif("SIGAUG_BITCOIN_ALPHA" not in __import__("os").environ,
                        reason="set SIGAUG_BITCOIN_ALPHA to the published rating file")
    def test_bitcoin_alpha_raw_counts(self):
        import os
        with open(os.environ["SIGAUG_BITCOIN_ALPHA"], "rb") as fh:
            recs = sg.load_edge_list(fh, "rating")
        stats = sg.record_stats(recs)
        assert (stats["n"], stats["pos_edges"], stats["neg_edges"]) == (3783, 12769, 1312)

    def test_congress_raw_counts(self, congress_path):
        with congress_path.open("rb") as fh:
            recs = sg.load_edge_list(fh, "signed")
        stats = sg.record_stats(recs)
        assert (stats["n"], stats["pos_edges"], stats["neg_edges"]) == (219, 413, 107)

    def test_congress_fixture_regenerates_byte_for_byte(self, congress_path):
        # renders in memory; nothing is written under data/
        gen = load_tool("gen_congress_fixture")
        text = gen.render(gen.generate(np.random.default_rng(gen.SEED)))
        assert text.encode() == congress_path.read_bytes()

    def test_empty_graph(self):
        for stats in (sg.graph_stats(sg.SignedGraph(0)), sg.record_stats([])):
            assert stats == {"n": 0, "pos_edges": 0, "neg_edges": 0, "neg_ratio": 0.0}

    def test_single_negative_edge(self):
        stats = sg.graph_stats(sg.SignedGraph(2, [(0, 1, -1)]))
        assert stats["neg_ratio"] == 1.0
