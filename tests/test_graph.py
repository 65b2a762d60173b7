import base64
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesign import graph
from edgesign.errors import DataError, EdgeListParseError
from edgesign.graph import (EdgeSplit, SignedDigraph, degree_stats, load_edge_list,
                            sample_split, sorted_unique, write_edge_list)

from conftest import random_graph
from oracles import load_edge_list_reference

# "a\0" differs from "a" by a trailing NUL; the "node-id-" ids share their first 8 bytes;
# ":" makes runs of colons that "::" matches in overlapping places
TOKENS = ["a", "b", "c", "d", "é", "1", "-1", "#h", "a\x00", "node-id-0123", "node-id-0124",
          "ü" * 5, ":", "x y"]
#: Tokens with a lone surrogate, which a str holds and UTF-8 cannot encode.
SURROGATES = ["a\ud800", "\udc80"]
SIGNS = ["1", "+1", "-1"]
BAD_SIGNS = ["2", "+", "--1", "1.0"]
#: What ``str.splitlines`` ends a line at, below U+0080.
LINE_ENDS = ["\n", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text with comments, blank lines, mixed separators and line
    ends, self-loops, duplicates and conflicts, plus its delimiter. About half
    the texts also hold malformed records, about a quarter hold U+00A0 or
    U+2028, and about a quarter hold lone surrogates, which make the text not UTF-8."""
    delimiter = draw(st.sampled_from([None, None, ",", "\t", "::"]))
    malformed = draw(st.booleans())
    unicode = draw(st.sampled_from([False, False, False, True]))
    surrogates = draw(st.sampled_from([False, False, False, True]))
    spaces = ["", " ", "\t", "\x1f"] + ["\u00a0"] * unicode
    line_ends = LINE_ENDS + ["\u2028"] * unicode
    if delimiter is None:
        separators = [" ", "\t", "  ", " \t ", "\x1f", "\t\x1f "] + ["\u00a0"] * unicode
        if malformed:  # a line break inside a record cuts it in two
            separators += LINE_ENDS[2:]
    else:
        separators = [delimiter]
    # with whitespace fields, "x y" is two fields: keep it for malformed texts
    tokens = ((TOKENS if malformed or delimiter is not None else TOKENS[:-1])
              + SURROGATES * surrogates)
    kinds = ["record"] * 6 + ["blank", "comment"]
    if malformed:
        kinds += ["short", "long", "bad sign"]
    text = ""
    for k in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if k:
            text += draw(st.sampled_from(line_ends))
        if kind == "blank":
            text += draw(st.sampled_from(spaces))
        elif kind == "comment":
            text += draw(st.sampled_from(["# note", "  #indented", "#"]))
        else:
            fields = [draw(st.sampled_from(tokens)) for _ in range(2)]
            fields.append(draw(st.sampled_from(BAD_SIGNS if kind == "bad sign" else SIGNS)))
            if kind == "short":
                fields.pop(draw(st.integers(0, 2)))
            elif kind == "long":
                fields.append(draw(st.sampled_from(tokens)))
            text += draw(st.sampled_from(spaces)) + fields[0]
            for field in fields[1:]:
                text += draw(st.sampled_from(separators)) + field
            text += draw(st.sampled_from(spaces))
    return text + draw(st.sampled_from(["", *line_ends])), delimiter


def graph_over(ids):
    """A graph on ``ids`` whose edges name the nodes in index order (a path
    plus a closing edge), so an edge-list reader interns them in that order."""
    n = len(ids)
    edges = [(k, k + 1) for k in range(n - 1)] + ([(n - 1, 0)] if n > 2 else [])
    src, dst = np.array(edges).T
    return SignedDigraph(n, src, dst, [(-1) ** k for k in range(len(edges))], node_ids=ids)


def assert_reads_as_reference(text, delimiter, directory):
    """``load_edge_list`` reads ``text`` as a StringIO, and as a UTF-8 file in ``directory``,
    as :func:`load_edge_list_reference` reads it: the same graph and counts, or the same
    error at the same line. A text holding a lone surrogate, which UTF-8 cannot encode, is
    refused as a file that is not UTF-8 is, at the line of its first one."""
    sources = [io.StringIO(text)]
    lone = re.search("[\ud800-\udfff]", text)
    if not lone:
        path = directory / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        sources.append(path)
    try:
        if lone:
            line = len((text[:lone.start()] + "x").splitlines())
            raise EdgeListParseError(line, "not UTF-8 text: byte 0xed "
                                           "(invalid continuation byte)")
        node_ids, edges, counts = load_edge_list_reference(text, delimiter)
    except EdgeListParseError as expected:
        for source in sources:
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(source, delimiter=delimiter)
            assert err.value.line_number == expected.line_number
            assert str(err.value) == str(expected)
        return
    for source in sources:
        g = load_edge_list(source, delimiter=delimiter)
        assert g.node_ids == node_ids and g.node_count == len(node_ids)
        assert list(zip(g.src.tolist(), g.dst.tolist(), g.labels.tolist())) == edges
        report = g.load_report
        assert (report.self_loops_dropped, report.duplicates_merged,
                report.conflicts_dropped) == counts


class TestLoadEdgeList:
    def test_merge_and_self_loop(self):
        g = load_edge_list("a\tb\t+1\na\tb\t+1\na\ta\t-1\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.labels.tolist() == [1]
        assert g.load_report.duplicates_merged == 1
        assert g.load_report.self_loops_dropped == 1

    def test_conflicting_duplicate_dropped(self):
        g = load_edge_list("a\tb\t+1\na\tb\t-1\n")
        assert g.node_count == 2
        assert g.edge_count == 0
        assert g.load_report.conflicts_dropped == 1

    def test_space_dialect_and_comments(self):
        g = load_edge_list("# header\n\na b 1\nb c -1\n")
        assert g.edge_count == 2
        assert g.labels.tolist() == [1, -1]

    def test_malformed_record_reports_line(self):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list("a\tb\t+1\na\tb\n")
        assert err.value.line_number == 2

    def test_bad_sign_token(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list("a\tb\t2\n")

    def test_file_like_source(self):
        g = load_edge_list(io.StringIO("x\ty\t-1\n"))
        assert g.edge_count == 1
        assert g.node_ids == ["x", "y"]

    def test_binary_file_source(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes("x\té\t-1\n".encode("utf-8"))
        with open(path, "rb") as f:
            g = load_edge_list(f)
        assert g.edge_count == 1
        assert g.node_ids == ["x", "é"]

    def test_binary_file_that_is_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"a\tb\t1\nb\t\xff\t-1\n")
        with open(path, "rb") as f, pytest.raises(EdgeListParseError, match="not UTF-8") as err:
            load_edge_list(f)
        assert err.value.line_number == 2

    def test_roundtrip_identical(self, tmp_path, hand_graph):
        path = tmp_path / "g.tsv"
        write_edge_list(hand_graph, path)
        again = load_edge_list(path)
        assert again == hand_graph

    def test_odd_legal_ids_round_trip_through_a_tab_separated_file(self, tmp_path):
        g = graph_over(["a,b", 'q"x', '"', "x y", "ü", "日本", "a#", "'s", "-1", "é\u00a0é"])
        path = tmp_path / "g.tsv"
        write_edge_list(g, path)
        assert load_edge_list(path, delimiter="\t") == g

    def test_lines_beyond_one_block_match_the_per_row_text(self, tmp_path):
        g = random_graph(300, 3 * graph._ROW_BLOCK, seed=24)
        path = tmp_path / "g.tsv"
        write_edge_list(g, path)
        ids = g.node_ids
        assert path.read_text(encoding="utf-8") == "".join(
            f"{ids[u]}\t{ids[v]}\t{y}\n" for u, v, y in zip(g.src, g.dst, g.labels.tolist()))

    @pytest.mark.parametrize("bad", ["", "#a", "a\tb", "a\nb", "a\rb", "a\x0bb", "a\x85b",
                                     "a\u2028b", " a", "a ", "a\u00a0", "\u3000a"])
    def test_ids_the_reader_would_change_are_refused(self, tmp_path, bad):
        path = tmp_path / "g.tsv"
        with pytest.raises(DataError, match="cannot be written"):
            write_edge_list(graph_over(["b", bad, "c"]), path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.sampled_from(["a", "#", " ", "\t", "\n", "\x85", "ü", ",", '"',
                                             "\u00a0"]), max_size=3),
                    min_size=2, max_size=6, unique=True))
    def test_written_edge_lists_read_back_or_are_refused(self, ids):
        g, out = graph_over(ids), io.StringIO()
        try:
            write_edge_list(g, out)
        except DataError:
            return
        assert load_edge_list(io.StringIO(out.getvalue()), delimiter="\t") == g

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts())
    def test_matches_record_by_record_reference(self, tmp_path_factory, case):
        text, delimiter = case
        assert_reads_as_reference(text, delimiter, tmp_path_factory.mktemp("edges"))

    # overlapping "::" and "aa" matches, repeated U+0085 line breaks, an id holding U+3000
    @pytest.mark.parametrize("text, delimiter", [
        ("a b 1\r\nb\x1fc -1\x0c", None),
        ("a,b,1\nb,c,-1\n", ","),
        ("é ü 1\n", None),
        ("a b 1\nb\u00a0c -1\n", None),
        ("a b 1\u2028b c -1\n", None),
        ("a::b::1\n", "::"),
        ("aébé1\n", "é"),
        ("a\ud800 b 1\n", None),
        ("a:::b::1", "::"),
        ("a::::b::1", "::"),
        ("aaaabaa1", "aa"),
        ("a\x85\x85b 1", None),
        ("x\u3000y\tb\t1\n\u3000b\tx\u3000y\t-1\u3000", "\t"),
    ])
    def test_cases_match_the_reference(self, tmp_path, text, delimiter):
        assert_reads_as_reference(text, delimiter, tmp_path)

    def test_unicode_spaces_are_every_space_beyond_ascii(self):
        spaces = [c for c in map(chr, range(0x80, 0x110000)) if c.isspace()]
        assert sorted(graph.UNICODE_SPACES) == spaces

    def test_a_file_that_is_not_utf8_names_the_line_of_its_first_bad_byte(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes("a b 1\r\né c -1\rc\x1ed 1\n".encode("utf-8") + b"\xffa 1\n")
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(path)
        assert str(err.value) == "line 5: not UTF-8 text: byte 0xff (invalid start byte)"

    def test_cleaning_counts_on_a_busy_pair(self):
        # pair (a, b): +, +, -, +, - ; pair (b, c): -, -, - ; one self-loop
        text = "a b 1\na b +1\nb c -1\na b -1\nc c 1\nb c -1\na b 1\nb c -1\na b -1\n"
        g = load_edge_list(text)
        assert (g.load_report.self_loops_dropped, g.load_report.duplicates_merged,
                g.load_report.conflicts_dropped) == (1, 3, 1)
        assert g.node_ids == ["a", "b", "c"]
        assert g.edge_count == 1 and (g.src[0], g.dst[0], g.labels[0]) == (1, 2, -1)

    def test_first_error_wins(self):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list("a b 1\n# c\na b x\na b\n")
        assert err.value.line_number == 3 and "bad sign token 'x'" in str(err.value)
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list("a b 1\n\na b c 1\na b x\n")
        assert err.value.line_number == 3 and "expected 3 fields, got 4" in str(err.value)

    def test_json_container_roundtrip(self, tmp_path, hand_graph):
        path = tmp_path / "g.json"
        hand_graph.save(path)
        again = SignedDigraph.load(path)
        assert again == hand_graph
        payload = json.loads(path.read_text())
        assert payload["format"] == "edgesign-graph"
        assert payload["version"] == 2

    def test_version_1_container_still_loads(self, tmp_path):
        g = random_graph(30, 100, seed=12)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format": "edgesign-graph", "version": 1, "node_count": g.node_count,
            "src": g.src.tolist(), "dst": g.dst.tolist(), "labels": g.labels.tolist(),
            "node_ids": g.node_ids}))
        again = SignedDigraph.load(path)
        assert again == g
        assert again.src.dtype == np.int64 and again.labels.dtype == np.int8


class TestByteSpans:
    """The byte kernel under both readers: span keys, sign tokens and id interning."""

    @staticmethod
    def spans(pieces):
        lengths = np.fromiter(map(len, pieces), np.int64, len(pieces))
        ends = np.cumsum(lengths)
        return b"".join(pieces), ends - lengths, ends

    # no span; short spans only; the first that folds; one and two folds; many folds
    @pytest.mark.parametrize("longest", [0, 1, 7, 8, 9, 16, 300])
    def test_keys_are_equal_exactly_where_the_bytes_are(self, longest):
        rng = np.random.default_rng(longest)
        # few byte values, so spans repeat and differ by trailing NULs
        pieces = [bytes(rng.integers(0, 3, size=rng.integers(0, longest + 1), dtype=np.uint8))
                  for _ in range(300)] + [bytes(longest), b"\x01" * longest]
        keys = graph.span_keys(*self.spans(pieces))
        ids = np.array([{p: k for k, p in enumerate(dict.fromkeys(pieces))}[p] for p in pieces])
        assert np.array_equal(keys[:, None] == keys[None, :], ids[:, None] == ids[None, :])

    @pytest.mark.parametrize("twins", [1, 2])
    def test_a_long_span_costs_its_own_words(self, monkeypatch, twins):
        # one 20 KB span (or two equal ones) among thousands of short ones: only the
        # spans of 8 bytes or more are ranked, and only while a twin prefix remains
        ranked = []
        rank = graph._dense_rank
        monkeypatch.setattr(graph, "_dense_rank", lambda keys: ranked.append(keys.size) or rank(keys))
        rng = np.random.default_rng(twins)
        short = [b"n%d" % k for k in rng.integers(0, 3000, size=6000)]
        long = bytes(rng.integers(97, 123, size=20_000, dtype=np.uint8))
        pieces = short[:3000] + [long] * twins + short[3000:] + [long[:-1], long[:8], long[:9]]
        keys = graph.span_keys(*self.spans(pieces)).tolist()
        # equal keys exactly where the bytes are equal
        assert len(set(zip(keys, pieces))) == len(set(keys)) == len(set(pieces))
        # the first fold ranks the 3 + twins long spans; it leaves the twins alone only
        # when there is one, else they fold on through their other 2499 words
        assert sum(ranked) == (4 if twins == 1 else 5 + 2 * 2499)

    def test_signs_are_read_from_their_bytes(self):
        tokens = ["1", "+1", "-1", "", "11", "+", "-", "1 ", "+1\x00", "-10", "0", "-1-1"]
        signs = graph.span_signs(*self.spans([t.encode() for t in tokens]))
        assert signs.tolist() == [graph.SIGN_TOKENS.get(t, 0) for t in tokens]

    def test_intern_spans_numbers_each_text_at_its_first_span(self):
        asked = ["a", "a\x00", "", "node-id-0124", "node-id-012", "x" * 300, "x" * 299, "é",
                 "c", "b", "a", "1", "-1", "+1", "node-id-0123", "", "é", "x" * 300, "a\x00"]
        data, starts, ends = self.spans([t.encode() for t in asked])
        ids, names = graph.intern_spans(data, starts, ends)
        assert names == list(dict.fromkeys(asked))
        assert [names[k] for k in ids.tolist()] == asked
        ids, names = graph.intern_spans(data, starts[:0], ends[:0])
        assert ids.size == 0 and names == []


def _v2_payload(g):
    return json.loads(json.dumps(g.to_json_dict()))


def _packed(values, tag):
    return {"dtype": tag, "data": base64.b64encode(np.asarray(values, dtype=tag).tobytes()).decode()}


class TestGraphContainerChecks:
    """Every malformed version-2 container is a DataError on load that names the damaged key."""

    def corrupt_cases(self, g):
        n, m = g.node_count, g.edge_count
        src = g.src.copy()
        dst = g.dst.copy()
        labels = g.labels.copy()
        loop = dst.copy()
        loop[3] = src[3]
        dup_src, dup_dst = src.copy(), dst.copy()
        dup_src[1], dup_dst[1] = src[0], dst[0]
        zero = labels.copy()
        zero[2] = 0
        return {
            "wrong dtype tag": {"src": _packed(src, "<i8")},
            "short array": {"dst": _packed(dst[:-1], "<i4")},
            "long array": {"labels": _packed(np.append(labels, 1), "<i1")},
            "bad base64": {"src": {"dtype": "<i4", "data": "!!!!"}},
            "non-ascii base64": {"src": {"dtype": "<i4", "data": "é"}},
            "not packed": {"src": src.tolist()},
            "out of range": {"dst": _packed(np.where(np.arange(m) == 0, n, dst), "<i4")},
            "negative id": {"src": _packed(np.where(np.arange(m) == 0, -1, src), "<i4")},
            "self-loop": {"dst": _packed(loop, "<i4")},
            "duplicate pair": {"src": _packed(dup_src, "<i4"), "dst": _packed(dup_dst, "<i4")},
            "zero label": {"labels": _packed(zero, "<i1")},
            "edge_count mismatch": {"edge_count": m + 1},
            "negative edge_count": {"edge_count": -1},
            "missing edge_count": {"edge_count": None},
            "node_count not a count": {"node_count": "12"},
            "node_ids too short": {"node_ids": g.node_ids[:-1]},
            "repeated node id": {"node_ids": [g.node_ids[0]] * n},
            "non-string node id": {"node_ids": list(range(n))},
            "lone-surrogate node id": {"node_ids": ["\ud800", *g.node_ids[1:]]},
            "missing labels": {"labels": None},
            "unknown version": {"version": 3},
            "other format": {"format": "edgesign-split"},
        }

    def test_each_corruption_is_a_data_error(self, tmp_path):
        g = random_graph(12, 40, seed=6)
        assert SignedDigraph.from_json_dict(_v2_payload(g)) == g
        for name, change in self.corrupt_cases(g).items():
            payload = _v2_payload(g)
            payload.update(change)
            payload = {k: v for k, v in payload.items() if v is not None}
            path = tmp_path / "g.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(DataError) as err:
                SignedDigraph.load(path)
                pytest.fail(name)
            assert re.search(rf"\b(?:{'|'.join(change)})\b", str(err.value)), name

    def test_node_count_beyond_int32_is_refused_on_save(self):
        g = SignedDigraph(2, [0], [1], [1])
        g.node_count = 2 ** 31
        with pytest.raises(DataError):
            g.to_json_dict()

    def test_version_1_values_are_validated(self):
        g = random_graph(12, 40, seed=6)
        base = {"format": "edgesign-graph", "version": 1, "node_count": 12,
                "src": g.src.tolist(), "dst": g.dst.tolist(), "labels": g.labels.tolist(),
                "node_ids": g.node_ids}
        for change in ({"labels": [2] + g.labels.tolist()[1:]},
                       {"labels": [257] + g.labels.tolist()[1:]},
                       {"src": [0.5] + g.src.tolist()[1:]},
                       {"dst": [[1]] + g.dst.tolist()[1:]},
                       {"src": g.src.tolist()[:-1]},
                       {"labels": [True] + g.labels.tolist()[1:]}):
            (key,) = change
            with pytest.raises(DataError, match=rf"\b{key}\b"):
                SignedDigraph.from_json_dict({**base, **change})

    def test_truncated_or_non_object_file(self, tmp_path, hand_graph):
        path = tmp_path / "g.json"
        hand_graph.save(path)
        text = path.read_text()
        for broken in (text[: len(text) // 2], "[1, 2]", "\xff"):
            path.write_text(broken, encoding="latin-1")
            with pytest.raises(DataError):
                SignedDigraph.load(path)


class TestSignedDigraph:
    def test_rejects_duplicates_and_self_loops(self):
        with pytest.raises(DataError):
            SignedDigraph(2, [0, 0], [1, 1], [1, 1])
        with pytest.raises(DataError):
            SignedDigraph(2, [0], [0], [1])

    def test_immutable(self, hand_graph):
        with pytest.raises(ValueError):
            hand_graph.labels[0] = -1
        for name in ("src", "dst"):
            with pytest.raises(ValueError):
                getattr(hand_graph, name)[0] = 1

    @pytest.mark.parametrize("seed", range(4))
    def test_sorted_unique_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-50, 50, size=rng.integers(0, 300))
        assert np.array_equal(sorted_unique(keys), np.unique(keys))

    def test_degrees_are_counted_once_and_read_only(self, hand_graph):
        out, into = hand_graph.degrees
        assert np.array_equal(out, [2, 1, 1]) and np.array_equal(into, [0, 2, 2])
        assert out.dtype == into.dtype == np.int64
        assert hand_graph.degrees[0] is out and hand_graph.degrees[1] is into
        with pytest.raises(ValueError):
            out[0] = 0
        g = random_graph(25, 100, seed=4)
        for counts, ends in zip(g.degrees, (g.src, g.dst)):
            assert np.array_equal(counts, np.bincount(ends, minlength=g.node_count))


class TestDegreeStats:
    def test_hand_graph_counts(self, hand_graph):
        out, into = degree_stats(hand_graph)
        # columns: (negative, positive); rows: nodes a, b, c
        assert np.array_equal(out, [[1, 1], [0, 1], [1, 0]])
        assert np.array_equal(into, [[0, 0], [1, 1], [1, 1]])

    def test_empty_mask_all_zero(self, hand_graph):
        for table in degree_stats(hand_graph, np.zeros(4, dtype=bool)):
            assert table.shape == (3, 2) and not table.any()

    def test_signed_counts_are_consistent(self):
        g = random_graph(25, 100, seed=1)
        out, into = degree_stats(g)
        negatives = np.count_nonzero(g.labels == -1)
        for table in (out, into):
            assert table.shape == (g.node_count, 2)
            assert table[:, 0].sum() == negatives
            assert table[:, 1].sum() == g.edge_count - negatives

    def test_handshake(self):
        g = random_graph(25, 100, seed=2)
        out, into = degree_stats(g)
        assert np.array_equal(out.sum(axis=1), np.bincount(g.src, minlength=g.node_count))
        assert np.array_equal(into.sum(axis=1), np.bincount(g.dst, minlength=g.node_count))
        assert out.sum() == into.sum() == g.edge_count

    def test_mask_partition_additivity(self):
        g = random_graph(20, 80, seed=3)
        rng = np.random.default_rng(0)
        m1 = rng.random(g.edge_count) < 0.4
        for whole, part1, part2 in zip(degree_stats(g), degree_stats(g, m1),
                                       degree_stats(g, ~m1)):
            assert np.array_equal(part1 + part2, whole)

    def test_shape_mismatch(self, hand_graph):
        with pytest.raises(DataError):
            degree_stats(hand_graph, np.zeros(3, dtype=bool))


class TestSampleSplit:
    def test_exact_count(self):
        g = random_graph(40, 100, seed=7)
        split = sample_split(g, 0.15, seed=0)
        assert split.n_training == 15

    def test_two_seeds_same_size(self):
        g = random_graph(10, 4, seed=9)
        a = sample_split(g, 0.5, seed=1)
        b = sample_split(g, 0.5, seed=2)
        assert a.n_training == b.n_training == 2

    def test_fraction_bounds(self, hand_graph):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sample_split(hand_graph, bad, seed=0)

    def test_reproducible(self):
        g = random_graph(40, 100, seed=8)
        a = sample_split(g, 0.3, seed=123)
        b = sample_split(g, 0.3, seed=123)
        assert np.array_equal(a.training_mask, b.training_mask)

    def test_splits_compare_by_mask_fraction_and_seed(self):
        g = random_graph(30, 100, seed=8)
        a = sample_split(g, 0.5, seed=1)
        assert a == sample_split(g, 0.5, seed=1)
        assert a != sample_split(g, 0.5, seed=2)
        assert a != EdgeSplit(a.training_mask, 0.5, 2)
        assert a != EdgeSplit(a.training_mask, 0.25, 1)

    def test_uniformity_monte_carlo(self):
        # 3-sigma binomial band on per-edge inclusion over 10000 seeds
        g = random_graph(10, 4, seed=11)
        counts = np.zeros(4)
        trials = 10000
        for seed in range(trials):
            counts += sample_split(g, 0.5, seed=seed).training_mask
        sigma = np.sqrt(trials * 0.25)
        assert np.all(np.abs(counts - trials / 2) <= 3 * sigma)

    def test_split_container_rejects_bad_indices(self, tmp_path):
        base = {"format": "edgesign-split", "version": 1, "edge_count": 10,
                "fraction": 0.3, "seed": 1, "training_edges": [0, 4, 9]}
        assert EdgeSplit.from_json_dict(base).training_indices().tolist() == [0, 4, 9]
        for change in ({"training_edges": [0, 4, 10]}, {"training_edges": [-1, 4]},
                       {"training_edges": [4, 0, 4]}, {"edge_count": -1},
                       {"edge_count": 2.5}, {"training_edges": [0.5]},
                       {"training_edges": "0,4"}, {"training_edges": [True, 5]},
                       {"version": 3}, {"seed": "x"},
                       {"seed": 1.7}, {"seed": True}, {"fraction": None}, {"fraction": "0.3"}):
            (key,) = change
            with pytest.raises(DataError, match=rf"\b{key}\b"):
                EdgeSplit.from_json_dict({**base, **change})
        path = tmp_path / "split.json"
        path.write_text('{"format": "edgesign-split", "version": 1, "edge_c')
        with pytest.raises(DataError):
            EdgeSplit.load(path)

    def test_split_container_roundtrip(self, tmp_path):
        g = random_graph(20, 60, seed=4)
        split = sample_split(g, 0.25, seed=5)
        path = tmp_path / "split.json"
        split.save(path)
        assert json.loads(path.read_text())["version"] == 2
        assert EdgeSplit.load(path) == split
        v1 = {"format": "edgesign-split", "version": 1, "edge_count": g.edge_count,
              "fraction": 0.25, "seed": 5, "training_edges": split.training_indices().tolist()}
        assert EdgeSplit.from_json_dict(v1) == split
        # edge e is bit 7 - e % 8 of byte e // 8; the pad bits are 0
        mask = EdgeSplit(np.arange(10) % 9 == 0, 0.2, 1).to_json_dict()["training_mask"]
        assert base64.b64decode(mask) == bytes([0b10000000, 0b01000000])

    def test_damaged_version_2_split_is_a_data_error_naming_its_key(self):
        g = random_graph(20, 61, seed=4)  # 61 edges: 8 bytes, the last with 3 pad bits
        split = sample_split(g, 0.25, seed=5)
        d = split.to_json_dict()
        raw = base64.b64decode(d["training_mask"])

        def packed(data):
            return base64.b64encode(data).decode("ascii")

        cases = {"bad base64": {"training_mask": "!" + d["training_mask"][1:]},
                 "one byte short": {"training_mask": packed(raw[:-1])},
                 "a pad bit set": {"training_mask": packed(raw[:-1] + bytes([raw[-1] | 1]))},
                 "unpacked": {"training_mask": split.training_mask.tolist()},
                 "edge_count past the mask": {"edge_count": g.edge_count + 8}}
        for name, change in cases.items():
            with pytest.raises(DataError, match=r"\btraining_mask\b"):
                EdgeSplit.from_json_dict({**d, **change})
                pytest.fail(name)
        # a split of another edge count is refused before its mask is decoded
        with pytest.raises(DataError, match="split does not match the graph's edge count"):
            EdgeSplit.from_json_dict({**d, "training_mask": "!!!!"}, g.edge_count + 1)
