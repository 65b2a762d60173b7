"""Signed directed graphs: ingestion, degree statistics, splits.

The central type is :class:`SignedDigraph`, an immutable directed graph whose
edges carry a ±1 label. It is nothing but three edge arrays (``src``,
``dst``, ``labels``); per-node quantities are ``bincount``s over them.
Node ids are compacted to ``0..n-1`` at ingestion; the original identifiers
are kept in ``node_ids`` so graphs can be persisted and cross-referenced
with their source files.

Graph container, version 2 (what :meth:`SignedDigraph.save` writes), is one
JSON object::

    {"format": "edgesign-graph", "version": 2,
     "node_count": n, "edge_count": m,
     "src":    {"dtype": "<i4", "data": base64 of m little-endian int32},
     "dst":    {"dtype": "<i4", "data": base64 of m little-endian int32},
     "labels": {"dtype": "<i1", "data": base64 of m int8, each +1 or -1},
     "node_ids": [n distinct strings UTF-8 can encode; index = compact id]}

so it holds at most 2³¹−1 nodes. The reader checks each array's dtype tag
and that it holds exactly m values, then validates the graph: endpoints in
``[0, n)``, no self-loop, ±1 labels and no repeated (src, dst) pair.
Version 1 stored ``src``, ``dst`` and ``labels`` as JSON integer lists (no
``edge_count``); it is still read.
"""

from __future__ import annotations

import base64
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, EdgeListParseError

GRAPH_FORMAT = "edgesign-graph"
SPLIT_FORMAT = "edgesign-split"

#: Accepted sign tokens of edge lists and prediction files.
SIGN_TOKENS = {"1": 1, "+1": 1, "-1": -1}

#: dtype tag of each packed array in a version-2 graph container.
_PACKED = {"src": "<i4", "dst": "<i4", "labels": "<i1"}


def _node_ids_ok(ids):
    """Whether a graph container's ``node_ids`` is a list of distinct strings. An id
    UTF-8 cannot encode, one holding a lone surrogate as JSON allows, is a DataError."""
    if not isinstance(ids, list):
        return False
    try:
        "".join(ids).encode()
    except TypeError:  # an id that is not a str
        return False
    except UnicodeEncodeError as exc:
        bad = ids[np.searchsorted(np.cumsum([len(t) for t in ids]), exc.start, side="right")]
        raise DataError(f"{GRAPH_FORMAT} container: node_ids must be strings UTF-8 can "
                        f"encode, got {bad!r}") from None
    return len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# JSON containers


def write_text(path_or_file, data):
    """Write UTF-8 bytes to a path opened ``"wb"`` (every ``\\n`` as is), or decoded
    to a text file object."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(data.decode())
        return
    with open(path_or_file, "wb") as f:
        f.write(data)


def write_json(payload, path):
    """Write a container as compact JSON.

    ``json.dumps`` encodes the whole payload in C; ``json.dump`` to a file
    runs the pure-Python encoder chunk by chunk, several times slower.
    """
    write_text(path, json.dumps(payload, separators=(",", ":")).encode("ascii"))


#: Rows per block of :func:`write_rows`. A block's byte positions take 8 bytes
#: per output byte, about 0.5 MB for prediction-file rows of 32 bytes: near a
#: core's L2 cache, where larger blocks measured slower.
_ROW_BLOCK = 1 << 11


def write_rows(path_or_file, columns, sep, head=b""):
    """Write ``head``, then one line per row, assembled as bytes.

    ``columns`` are ``(fields, index)`` pairs, a list of bytes and an integer
    array over the rows: row r is each column's ``fields[index[r]]`` in turn,
    joined by ``sep`` and ended by ``\\n``. The fields are laid out once in
    one byte table, each with the separator or line end after it; a block of
    rows is one ``take`` from it, at positions made from the pieces' lengths
    by a ``cumsum`` and an ``np.repeat``. Only the output grows with the rows.
    """
    ends = [sep] * (len(columns) - 1) + [b"\n"]
    table = b"".join(end.join([*f, b""]) for (f, _), end in zip(columns, ends))
    sizes = np.concatenate([np.fromiter(map(len, f), np.intp, len(f)) + len(end)
                            for (f, _), end in zip(columns, ends)])
    starts = np.cumsum(sizes) - sizes
    bases = np.cumsum([0] + [len(f) for f, _ in columns[:-1]])
    chunks = [head]
    for first in range(0, len(columns[0][1]), _ROW_BLOCK):
        pieces = np.stack([index[first:first + _ROW_BLOCK] for _, index in columns], axis=1) + bases
        size = sizes[pieces.ravel()]
        # each output byte's table position: its piece's start, shifted by its offset in the piece
        at = np.repeat(starts[pieces.ravel()] - np.cumsum(size) + size, size)
        at += np.arange(at.size)
        chunks.append(np.frombuffer(table, np.uint8).take(at, mode="wrap"))
    write_text(path_or_file, b"".join(chunks))


def json_number(value):
    """``value``, or None (JSON ``null``) for NaN, which strict JSON cannot write."""
    return None if math.isnan(value) else value


def read_json(path):
    """The JSON object stored at ``path``; anything else is a DataError."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        d = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a JSON container ({exc})") from exc
    if not isinstance(d, dict):
        raise DataError(f"{path}: not a JSON container (top level is not an object)")
    return d


def is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_number(value):
    """A float but NaN, or an int (not a bool) that ``float`` converts without overflow."""
    return (isinstance(value, float) and not np.isnan(value)
            or type(value) is int and abs(value) <= sys.float_info.max)


#: ``(ok, kind)`` checks of :func:`check_values`: a count, a number.
COUNT = (is_count, "a non-negative integer")
NUMBER = (is_number, "a number")


def check_values(d, what, checks):
    """Raise DataError ``<what>: <key> must be <kind>, got <value>`` at the first key of
    ``checks`` that ``d`` holds whose value fails ``ok``, where ``checks`` maps a key to
    an ``(ok, kind)`` pair. A long value is shown abridged."""
    for key, (ok, kind) in checks.items():
        if key in d and not ok(d[key]):
            raise DataError(f"{what}: {key} must be {kind}, got {reprlib.repr(d[key])}")


def check_container(d, fmt, versions=(1,), keys=(), values=None):
    """Check a container's format tag and version, that it holds ``keys`` and the
    keys of ``values``, and those keys' values (:func:`check_values`); return the version."""
    if d.get("format") != fmt:
        raise DataError(f"not a {fmt} container (format {d.get('format')!r})")
    version = d.get("version")
    if version not in versions:
        raise DataError(f"unsupported {fmt} container version {version!r}")
    values = values or {}
    check_keys(d, f"{fmt} container", (*keys, *values))
    check_values(d, f"{fmt} container", values)
    return version


def check_keys(d, what, keys):
    """Raise DataError unless ``d`` is a JSON object holding every key in ``keys``."""
    if not isinstance(d, dict):
        raise DataError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise DataError(f"{what} lacks {', '.join(missing)}")


def check_known_keys(d, what, known):
    """Raise DataError naming every key of the JSON object ``d`` that ``known`` lacks."""
    unknown = [k for k in d if k not in known]
    if unknown:
        raise DataError(f"{what}: unknown key {', '.join(map(repr, unknown))}")


class JsonContainer:
    """``save`` and ``load`` for a class with ``to_json_dict`` and ``from_json_dict``."""

    def save(self, path):
        write_json(self.to_json_dict(), path)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(read_json(path))


def _pack(array, tag):
    data = np.ascontiguousarray(array, dtype=tag).tobytes()
    return {"dtype": tag, "data": base64.b64encode(data).decode("ascii")}


def _b64decode(what, name, text, kind):
    """The bytes of the base64 ``text`` of container key ``name``, decoded strictly."""
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataError(f"{what}: {name} must be {kind}, got bad base64 ({exc})") from exc


def _unpack(d, name, tag):
    """A read-only array of ``edge_count`` values from the packed entry ``d[name]``, checked."""
    what, entry, length = f"{GRAPH_FORMAT} container", d[name], d["edge_count"]
    if not (isinstance(entry, dict) and entry.get("dtype") == tag
            and isinstance(entry.get("data"), str)):
        raise DataError(f"{what}: {name} must be packed {tag} data, got {reprlib.repr(entry)}")
    raw = _b64decode(what, name, entry["data"], f"packed {tag} data")
    if len(raw) != length * np.dtype(tag).itemsize:
        raise DataError(f"{what}: {name} must be edge_count = {length} {tag} values, "
                        f"got {len(raw)} bytes")
    return np.frombuffer(raw, dtype=tag)


def number_lists(d, keys, dtype=np.float64):
    """The lists ``d[k]`` of a checked container as ``dtype`` arrays (int64: integers,
    float64: numbers), all of one length. Anything else, a bool or NaN entry included,
    is a DataError ``<format> container: <key> must be <kind>, got <value>``."""
    what = f"{d['format']} container"
    kinds, kind = (("iu", "a list of integers") if dtype == np.int64
                   else ("iuf", "a list of numbers"))
    arrays = []
    for key in keys:
        v = d[key]
        try:  # np.asarray reads a JSON true/false as 1/0
            a = np.asarray(v) if isinstance(v, list) and bool not in map(type, v) else np.empty(())
        except ValueError:  # ragged nesting
            a = np.empty(())
        if a.ndim != 1 or a.size and (a.dtype.kind not in kinds or np.isnan(a).any()):
            raise DataError(f"{what}: {key} must be {kind}, got {reprlib.repr(v)}")
        if arrays and a.size != arrays[0].size:
            raise DataError(f"{what}: {key} must be {kind} as long as {keys[0]} "
                            f"({arrays[0].size}), got {a.size}")
        arrays.append(a.astype(dtype, copy=False))
    return arrays


def sorted_unique(keys):
    """Sorted distinct values of a 1-D array, like ``np.unique(keys)``.

    A sort and an adjacent-difference mask; for int64 keys this is many
    times faster than ``np.unique`` under NumPy 2.x, with the same result.
    Callers: :func:`genmodel.sample_topology` (deduplicating drawn pairs),
    the graph's duplicate-pair check and the split's repeated-edge check.
    """
    keys = np.sort(keys)
    return keys[run_heads(keys)]


# ---------------------------------------------------------------------------
# The graph


def _read_only(array):
    array.setflags(write=False)
    return array


class SignedDigraph(JsonContainer):
    """Immutable directed graph with ±1 edge labels.

    Attributes
    ----------
    node_count : int
    src, dst : read-only int64 arrays of length |E|
    labels : read-only int8 array of ±1, one per edge
    node_ids : list of original node identifiers (index = compact id)
    degrees : (out, in) read-only int64 arrays of per-node edge counts, counted once
    """

    def __init__(self, node_count, src, dst, labels, node_ids=None, validate=True):
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        labels = np.asarray(labels)
        if src.ndim != 1 or src.shape != dst.shape or src.shape != labels.shape:
            raise DataError("src, dst and labels must be 1-D with identical length")
        m = src.size
        if validate:
            for name, ends in (("src", src), ("dst", dst)):
                if m and (ends.min() < 0 or ends.max() >= node_count):
                    raise DataError(f"graph: {name} must be node ids in [0, {node_count}), "
                                    f"got ids {ends.min()} to {ends.max()}")
            loop = src == dst
            if loop.any():
                raise DataError(f"graph: dst must differ from src, got a self-loop at edge "
                                f"{loop.argmax()}; clean the edge list first")
            if not np.all((labels == 1) | (labels == -1)):
                raise DataError("labels must be +1 or -1")
            if sorted_unique(src * np.int64(node_count) + dst).size != m:
                raise DataError("duplicate (src, dst) pair")
        self.node_count = int(node_count)
        self.src = _read_only(src)
        self.dst = _read_only(dst)
        self.labels = _read_only(np.ascontiguousarray(labels, dtype=np.int8))
        self.node_ids = list(node_ids) if node_ids is not None else [str(i) for i in range(node_count)]
        if len(self.node_ids) != node_count:
            raise DataError("node_ids length must equal node_count")

    @property
    def edge_count(self):
        return self.src.size

    @cached_property
    def degrees(self):
        # np.bincount copies a read-only index array on every call, so the
        # counts are kept rather than recounted by each caller
        return tuple(_read_only(np.bincount(ends, minlength=self.node_count))
                     for ends in (self.src, self.dst))

    @property
    def positive_fraction(self):
        if self.edge_count == 0:
            return float("nan")
        return float(np.count_nonzero(self.labels == 1) / self.edge_count)

    def with_labels(self, labels):
        """Same topology, different labeling."""
        return SignedDigraph(self.node_count, self.src, self.dst, labels,
                             node_ids=self.node_ids, validate=False)

    def __eq__(self, other):
        if not isinstance(other, SignedDigraph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst)
                and np.array_equal(self.labels, other.labels)
                and self.node_ids == other.node_ids)

    def __repr__(self):
        return f"SignedDigraph(|V|={self.node_count}, |E|={self.edge_count})"

    def to_json_dict(self):
        if self.node_count > np.iinfo(np.int32).max:
            raise DataError(f"{self.node_count} nodes do not fit a version-2 graph container")
        return {
            "format": GRAPH_FORMAT,
            "version": 2,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            **{name: _pack(getattr(self, name), tag) for name, tag in _PACKED.items()},
            "node_ids": self.node_ids,
        }

    @classmethod
    def from_json_dict(cls, d):
        """Read a version-1 or version-2 container and validate the graph."""
        ids = (_node_ids_ok, "a list of distinct strings")
        version = check_container(d, GRAPH_FORMAT, (1, 2), ("src", "dst", "labels"),
                                  values={"node_count": COUNT, "node_ids": ids})
        n, node_ids = d["node_count"], d["node_ids"]
        if version == 1:
            arrays = number_lists(d, tuple(_PACKED), np.int64)
        else:
            check_container(d, GRAPH_FORMAT, (2,), values={"edge_count": COUNT})
            arrays = [_unpack(d, name, tag) for name, tag in _PACKED.items()]
        return cls(n, *arrays, node_ids=node_ids)


@dataclass
class LoadReport:
    """Ingestion diagnostics for :func:`load_edge_list`."""

    self_loops_dropped: int = 0
    duplicates_merged: int = 0
    conflicts_dropped: int = 0


# ---------------------------------------------------------------------------
# Text fields as byte spans

#: The characters beyond ASCII that ``str.split`` and ``str.strip`` take as
#: whitespace; U+0085, U+2028 and U+2029 also end a line for ``str.splitlines``.
UNICODE_SPACES = ("\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
                  + "\u2028\u2029\u202f\u205f\u3000")
#: Mask of the low k bytes of a uint64 word, k = 0..8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def run_heads(ordered):
    """True at each entry of a sorted 1-D array that differs from the entry before it."""
    head = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return head


def _dense_rank(keys):
    """Rank of each key among the distinct keys, as uint64 (0 for the smallest)."""
    order = np.argsort(keys)
    rank = np.empty(keys.size, dtype=np.uint64)
    rank[order] = np.cumsum(run_heads(keys[order])) - 1
    return rank


def _word_window(data):
    """A uint64 view of the 8 bytes from each position of ``data`` followed by 8 zero bytes,
    so every read of 8 bytes from inside a span stays in the buffer."""
    buf = data + bytes(8)
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _span_word(window, starts, length, w):
    """Bytes 8w to 8w+7 of each span as a little-endian uint64, zero past the span's end.

    A word that starts past its span's end is masked to 0 wherever its clipped read lands.
    """
    at = np.minimum(starts + 8 * w, window.size - 1)
    return window[at] & _LOW_BYTES.take(length - 8 * w, mode="clip")


def span_keys(data, starts, ends):
    """One uint64 key per byte span ``data[s:e]``, equal exactly where the spans' bytes are.

    A span of at most 7 bytes is its own key: its bytes as a little-endian
    uint64 word, with its length in the top byte, so ``a`` and ``a\\0`` differ.
    A longer span's key is 2**63 plus an id that its words fold into one at a
    time. Fold w ranks each span still taking part by the pair (its rank so
    far, its word w), the first rank being its length. A span leaves the fold
    when its words run out or no other span shares its rank, since then no
    other span can equal it; each fold's leavers take ids from a range of
    their own. The work thus follows the words of the spans that share their
    length and a prefix with another span, never the longest span times the
    span count.
    """
    length = ends - starts
    window = _word_window(data)
    keys = _span_word(window, starts, length, 0)
    short = length < 8
    keys |= np.where(short, length, 0).astype(np.uint64) << np.uint64(56)
    at = np.flatnonzero(~short)  # where in keys each long span goes
    ids = np.empty(at.size, dtype=np.uint64)
    place = np.arange(at.size)  # where in ids each one goes
    begin, size = starts[at], length[at]
    rank, offset, w = size.astype(np.uint64), 0, 0
    while place.size:
        pair = rank * np.uint64(place.size) + _dense_rank(_span_word(window, begin, size, w))
        order = np.argsort(pair)
        head = run_heads(pair[order])
        rank[order] = np.cumsum(head) - 1
        alone = np.empty(place.size, dtype=bool)
        alone[order] = head & np.append(head[1:], True)
        done = alone | (size <= 8 * (w + 1))
        ids[place[done]] = np.uint64(offset) + rank[done]
        offset += int(np.count_nonzero(head))
        if done.any():
            keep = ~done
            place, begin, size, rank = place[keep], begin[keep], size[keep], rank[keep]
        w += 1
    keys[at] = ids | np.uint64(1 << 63)
    return keys


#: The :func:`span_keys` key of each :data:`SIGN_TOKENS` token, a span of under 8 bytes.
_SIGN_KEYS = {int.from_bytes(token.encode("ascii"), "little") | len(token) << 56: sign
              for token, sign in SIGN_TOKENS.items()}


def span_signs(data, starts, ends):
    """The :data:`SIGN_TOKENS` value of each byte span ``data[s:e]``, 0 for any other token.

    Each span's value is read from its :func:`span_keys` key.
    """
    keys = span_keys(data, starts, ends)
    signs = np.zeros(keys.size, dtype=np.int8)
    for key, sign in _SIGN_KEYS.items():
        signs[keys == np.uint64(key)] = sign
    return signs


def _runs(mask):
    """Start and end positions of the runs of True in a 1-D bool array."""
    bounds = np.concatenate(([0], np.flatnonzero(mask[1:] != mask[:-1]) + 1, [mask.size]))
    first = 0 if mask.size and mask[0] else 1
    return bounds[first:-1:2], bounds[first + 1::2]


def intern_spans(data, starts, ends):
    """``(ids, names)`` of byte spans of the UTF-8 text ``data``: each span's compact
    id in first-seen order, and the text of each id.

    The spans' :func:`span_keys` keys are sorted once; each distinct span is
    decoded once, at its first occurrence. A span must be whole UTF-8 text.
    """
    keys = span_keys(data, starts, ends)
    order = np.argsort(keys)
    head = run_heads(keys[order])
    first = np.minimum.reduceat(order, np.flatnonzero(head)) if keys.size else order
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    ids = np.empty(keys.size, dtype=np.int64)
    ids[order] = rank[np.cumsum(head) - 1]
    first = np.sort(first)
    return ids, [data[s:e].decode() for s, e in zip(starts[first].tolist(), ends[first].tolist())]


def _edge_list_input(source):
    """An edge list's bytes, checked to be UTF-8: a path's, a file's, or a str's."""
    if isinstance(source, str) and "\n" in source:
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as f:
            data = f.read()
    if isinstance(data, str):  # a lone surrogate gets bytes that fail the check, as in a file
        data = data.encode("utf-8", "surrogatepass")
    exc = utf8_error(data)
    if exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise EdgeListParseError(line, f"not UTF-8 text: byte {data[exc.start]:#04x} "
                                       f"({exc.reason})")
    return data


def utf8_error(data):
    """The :class:`UnicodeDecodeError` of bytes that are not UTF-8, None for UTF-8."""
    try:
        data.isascii() or data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc
    return None


def _edge_records_bytes(data, sep):
    """(u, v, signs, node_ids) of an edge list's records, read from its UTF-8 bytes.

    Tokens are the runs of bytes that are not whitespace: ASCII 9–13 and 28–32,
    and the bytes of each :data:`UNICODE_SPACES` character (U+0085, U+00A0,
    U+1680, U+2000–U+200A, U+2028, U+2029, U+202F, U+205F, U+3000). Lines end at
    each ``\\n``, ``\\v``, ``\\f``, ``\\r``, 28–30 byte, U+0085, U+2028 and
    U+2029, ``\\r\\n`` counting once, as ``str.split`` and ``str.splitlines``
    define them. A record line's first token does not start with ``#``; its
    fields are its tokens, or the cuts of the span from its first token to its
    last at each match of the bytes ``sep`` (None: whitespace fields), which may
    be any number of bytes. A match counts only when it ends inside that span,
    and of overlapping matches (``::`` in ``a:::b``) the leftmost that do not
    overlap count, as in ``str.split``. Signs are read by :func:`span_signs` and
    ids numbered by :func:`intern_spans`.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    in_token = ((b - 9) > 4) & ((b - 28) > 4)
    breaks = np.flatnonzero(((b - 10) <= 3) | ((b - 28) <= 2))
    # each UNICODE_SPACES character starts at a lead byte 0xC2 or 0xE1–0xE3, and UTF-8 is
    # self-synchronizing: a match there is always a whole character. A byte search (memchr)
    # for the four skips the mask on text that holds none, such as ASCII or Latin-1 ids.
    if not data.isascii() and any(byte in data for byte in b"\xc2\xe1\xe2\xe3"):
        lead = np.flatnonzero((b == 0xC2) | ((b - 0xE1) <= 2))
        word = _word_window(data)[lead]
        for c in UNICODE_SPACES:
            code = c.encode()
            at = lead[(word & _LOW_BYTES[len(code)]) == int.from_bytes(code, "little")]
            in_token[at[:, None] + np.arange(len(code))] = False
            if at.size and c in "\x85\u2028\u2029":
                breaks = np.sort(np.concatenate((breaks, at)))
    starts, ends = _runs(in_token)
    del in_token  # one byte per input byte: free it before the id work allocates
    head = np.zeros(starts.size + 1, dtype=bool)
    head[np.searchsorted(starts, breaks)] = True  # the first token after each line break
    head[0] = True
    head = np.flatnonzero(head[:-1])  # first token of each non-blank line
    width = np.diff(head, append=starts.size)
    record = b[starts[head]] != ord("#")
    first = starts[head[record]]  # where each record line's text starts
    if sep is None:
        counts = width[record]
        fields = np.repeat(record, width)
        starts, ends = starts[fields], ends[fields]
    else:
        last = ends[(head + width - 1)[record]]
        step = np.zeros(b.size + 1, dtype=np.int8)
        step[first], step[last] = 1, -1
        # no UTF-8 text holds byte 0xFE or 0xFF: 0xFE outside the record spans stops every
        # match there, and bytes.replace marks with 0xFF where str.split would cut each span
        spans = np.where(np.cumsum(step[:-1], dtype=np.int8) > 0, b, 0xFE).tobytes()
        marked = spans.replace(sep, b"\xff".ljust(len(sep), b"\0"))
        cuts = np.flatnonzero(np.frombuffer(marked, dtype=np.uint8) == 0xFF)
        counts = np.bincount(np.searchsorted(first, cuts, side="right") - 1,
                             minlength=first.size) + 1
        starts = np.sort(np.concatenate((first, cuts + len(sep))))
        ends = np.sort(np.concatenate((cuts, last)))

    def line_number(k):
        """1-based line of record k: one more than the line breaks before it, \\r\\n once."""
        before = breaks[:np.searchsorted(breaks, first[k])]
        crlf = (b[before] == 10) & (b[before - 1] == 13) & (before > 0)
        return before.size - int(np.count_nonzero(crlf)) + 1

    bad_count = np.flatnonzero(counts != 3)
    whole = int(bad_count[0]) if bad_count.size else counts.size
    at = (np.cumsum(counts) - counts)[:whole] + 2  # sign field of each whole record
    signs = span_signs(data, starts[at], ends[at])
    bad_sign = np.flatnonzero(signs == 0)
    if bad_sign.size:
        k = int(bad_sign[0])
        token = data[starts[at[k]]:ends[at[k]]].decode()
        raise EdgeListParseError(line_number(k), f"bad sign token {token!r}")
    if whole < counts.size:
        raise EdgeListParseError(line_number(whole), f"expected 3 fields, got {counts[whole]}")

    starts, ends = (a.reshape(-1, 3)[:, :2].ravel() for a in (starts, ends))
    ids, node_ids = intern_spans(data, starts, ends)
    return ids[0::2], ids[1::2], signs, node_ids


def load_edge_list(source, delimiter=None):
    """Parse a signed edge list into a cleaned :class:`SignedDigraph`.

    One edge per line, ``src dst sign`` with sign token ``1``, ``+1`` or
    ``-1``; fields separated by tabs or spaces (``delimiter=None`` accepts any
    whitespace run). Lines starting with ``#`` and blank lines are skipped.
    Lines and whitespace are those of ``str.splitlines`` and ``str.split``,
    the Unicode ones included: U+0085, U+2028 and U+2029 end a line, and
    they, U+00A0, U+1680, U+2000–U+200A, U+202F, U+205F and U+3000 separate
    fields (:data:`UNICODE_SPACES`). A ``delimiter`` of any length, such as
    ``::`` or ``é``, cuts the fields as ``str.split`` does; one UTF-8 cannot
    encode is a ValueError. A source that is not UTF-8 text, a str or text
    file holding a lone surrogate included, is an :class:`EdgeListParseError`
    naming the line of the first character that does not decode.

    Cleaning rules: self-loops are dropped; duplicate (src, dst) records of
    the same sign are merged into one edge; (src, dst) pairs recorded with
    *both* signs are dropped entirely and counted as conflicts. Node ids are
    compacted to ``0..n-1`` in first-seen order; endpoints of dropped records
    still register as nodes.

    The text is read as bytes, with no Python object per field: masks of the
    whitespace and line-break bytes give the tokens and lines, signs are read
    from their bytes, and each id span is packed into a uint64 key
    (:func:`span_keys`) whose one sort interns the ids in first-seen order.
    An id of at most 7 bytes is its own key; a longer one adds two sorts of
    the longer ids per 8 bytes it shares with another id of its length.
    Merges and conflicts are found by a stable sort of the ``src·n+dst`` keys.

    Parameters
    ----------
    source : path, text or binary file object, or str content. A str holding
        a line break is content and any other str a path, so a one-record
        ``"a b 1"`` is opened as a file. A binary file's bytes are checked
        to be UTF-8 as a path's are.
    delimiter : explicit field separator, not empty, or None for any whitespace

    Returns
    -------
    SignedDigraph with a ``load_report`` attribute (:class:`LoadReport`).
    """
    if delimiter == "":
        raise ValueError("delimiter must not be empty")
    try:
        sep = None if delimiter is None else delimiter.encode()
    except UnicodeEncodeError:  # argv bytes that are not UTF-8 arrive as lone surrogates
        raise ValueError(f"delimiter must be UTF-8 text, got {delimiter!r}") from None
    u, v, signs, node_ids = _edge_records_bytes(_edge_list_input(source), sep)
    n = len(node_ids)

    report = LoadReport()
    loop = u == v
    report.self_loops_dropped = int(np.count_nonzero(loop))
    rec = np.flatnonzero(~loop)
    keys = u[rec] * np.int64(n) + v[rec]
    order = np.argsort(keys, kind="stable")  # a pair's records stay in file order
    keys, sign = keys[order], signs[rec[order]]
    first = run_heads(keys)
    group = np.cumsum(first) - 1
    differs = sign != sign[first][group]  # differs from the pair's first sign
    seen = np.cumsum(differs)
    before = seen - differs  # differing records strictly before this one ...
    before -= before[first][group]  # ... counted within its pair
    # a repeat merges until the pair's first differing sign; from then on
    # the pair is a conflict and later records change nothing
    report.duplicates_merged = int(np.count_nonzero(~first & ~differs & (before == 0)))
    conflicted = np.zeros(first.sum(), dtype=bool)
    conflicted[group[differs]] = True
    report.conflicts_dropped = int(np.count_nonzero(conflicted))
    kept = np.sort(rec[order[first][~conflicted]])  # each kept pair at its first record

    g = SignedDigraph(n, u[kept], v[kept], signs[kept], node_ids=node_ids, validate=False)
    g.load_report = report
    return g


def load_graph(path):
    """A graph container when the file starts with ``{``, else an edge list."""
    with open(path, "rb") as f:
        head = f.read(256).lstrip()
    if head.startswith(b"{"):
        return SignedDigraph.load(path)
    return load_edge_list(path)


def write_edge_list(g, path_or_file):
    """Write ``src<TAB>dst<TAB>sign`` lines, one per edge, in edge order.

    The file reads back with ``load_edge_list(path, delimiter="\\t")``. A
    node id that reader cannot return intact raises :class:`DataError`: an
    empty id, one starting with ``#``, one holding a tab or any character
    ``str.splitlines`` breaks on, and one with whitespace at either end. The
    lines are assembled as bytes (:func:`write_rows`).
    """
    names = list(map(str, g.node_ids))
    for name in names:
        if (name.splitlines() != [name] or name != name.strip()
                or name.startswith("#") or "\t" in name):
            raise DataError(f"node id {name!r} cannot be written to a tab-separated edge list")
    names = [name.encode() for name in names]
    signs = ([b"-1", b"1"], (g.labels > 0).view(np.int8))
    write_rows(path_or_file, [(names, g.src), (names, g.dst), signs], b"\t")


@dataclass(frozen=True, eq=False)
class EdgeSplit(JsonContainer):
    """Training/test partition of edge indices, sampled without replacement.

    The split keeps a read-only copy of the mask it is given (the caller's
    array is left as it was), and computes the training and test edge
    indices once, at construction: :meth:`training_indices` and
    :meth:`test_indices` return the same read-only arrays on every call.

    Split container, version 2 (what :meth:`save` writes), is one JSON object::

        {"format": "edgesign-split", "version": 2, "edge_count": m,
         "fraction": f, "seed": s,
         "training_mask": base64 of the mask's ⌈m/8⌉ packed bytes}

    Edge e is bit ``7 - e % 8`` of byte ``e // 8`` (``np.packbits`` order:
    the first edge is the most significant bit), 1 for a training edge; the
    pad bits after edge m-1 are 0. Version 1 listed the training edges as
    ``training_edges``, a JSON integer list; it is still read.
    """

    training_mask: np.ndarray
    fraction: float
    seed: int
    _training: np.ndarray = field(init=False, repr=False, compare=False)
    _test: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mask = _read_only(np.array(self.training_mask, dtype=bool))
        object.__setattr__(self, "training_mask", mask)
        object.__setattr__(self, "_training", _read_only(np.flatnonzero(mask)))
        object.__setattr__(self, "_test", _read_only(np.flatnonzero(~mask)))

    @property
    def n_training(self):
        return self._training.size

    def training_indices(self):
        return self._training

    def test_indices(self):
        return self._test

    def __eq__(self, other):
        if not isinstance(other, EdgeSplit):
            return NotImplemented
        return (np.array_equal(self.training_mask, other.training_mask)
                and self.fraction == other.fraction and self.seed == other.seed)

    def to_json_dict(self):
        packed = np.packbits(self.training_mask).tobytes()
        return {
            "format": SPLIT_FORMAT,
            "version": 2,
            "edge_count": int(self.training_mask.size),
            "fraction": self.fraction,
            "seed": self.seed,
            "training_mask": base64.b64encode(packed).decode("ascii"),
        }

    @classmethod
    def load(cls, path, edge_count=None):
        """Read a split file (:meth:`from_json_dict`)."""
        return cls.from_json_dict(read_json(path), edge_count)

    @classmethod
    def from_json_dict(cls, d, edge_count=None):
        """Read a version-1 or version-2 split container.

        With ``edge_count``, a split of another edge count is a DataError,
        raised before the mask is decoded or allocated. A version-2 mask must
        be strict base64 of exactly ⌈m/8⌉ bytes with zero pad bits; version-1
        training indices must be distinct and in range.
        """
        what = f"{SPLIT_FORMAT} container"
        version = check_container(d, SPLIT_FORMAT, (1, 2), values={
            "edge_count": COUNT, "seed": COUNT, "fraction": NUMBER})
        m = d["edge_count"]
        if edge_count is not None and m != edge_count:
            raise DataError("split does not match the graph's edge count")
        if version == 1:
            check_keys(d, what, ("training_edges",))
            (train,) = number_lists(d, ("training_edges",), np.int64)
            if train.size and (train.min() < 0 or train.max() >= m):
                raise DataError(f"{what}: training_edges index out of range [0, {m})")
            if sorted_unique(train).size != train.size:
                raise DataError(f"{what}: training_edges lists an edge twice")
            mask = np.zeros(m, dtype=bool)
            mask[train] = True
        else:
            kind = "base64 of packed bits"
            check_container(d, SPLIT_FORMAT, (2,), values={
                "training_mask": (lambda v: isinstance(v, str), kind)})
            raw = _b64decode(what, "training_mask", d["training_mask"], kind)
            if len(raw) != -(-m // 8):
                raise DataError(f"{what}: training_mask must be {kind} of edge_count = {m} "
                                f"edges, {-(-m // 8)} bytes, got {len(raw)} bytes")
            if m % 8 and raw[-1] & 0xFF >> m % 8:
                raise DataError(f"{what}: training_mask must end in zero pad bits, "
                                f"got last byte {raw[-1]:#010b} for {m} edges")
            mask = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=m).view(bool)
        return cls(mask, float(d["fraction"]), d["seed"])


def sample_split(g, fraction, seed):
    """Draw a training set of round(fraction·|E|) edges uniformly without replacement.

    Implemented as a seeded full permutation (Fisher-Yates) truncated to the
    first k entries, so every k-subset is equally likely and the draw is
    reproducible given the seed. A graph with no edges is a DataError.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly in (0, 1), got {fraction}")
    m = g.edge_count
    if m < 1:
        raise DataError("graph has no edges to split")
    k = int(round(fraction * m))
    rng = np.random.default_rng(seed)
    mask = np.zeros(m, dtype=bool)
    mask[rng.permutation(m)[:k]] = True
    return EdgeSplit(mask, float(fraction), int(seed))


def degree_stats(g, mask=None):
    """Signed (out, into) degree counts over the masked edge set (None = all edges).

    The masked edges are gathered by index, and each side is one (n, 2)
    ``bincount`` over the key ``2·node + (label == 1)``: column 0 counts the
    node's negative edges on that side, column 1 its positive ones.
    """
    n, m = g.node_count, g.edge_count
    if mask is None:
        src, dst, labels = g.src, g.dst, g.labels
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (m,):
            raise DataError(f"mask length {mask.size} != edge count {m}")
        edges = np.flatnonzero(mask)
        src, dst, labels = g.src[edges], g.dst[edges], g.labels[edges]
    pos = labels == 1
    return tuple(np.bincount(2 * ends + pos, minlength=2 * n).reshape(n, 2) for ends in (src, dst))
