"""Entry-point index codecs: range-tree, interpolative, Elias-gamma, raw 32-bit.

The index is the list of per-segment byte counts; decoders find segment j
at the cumulative sum of the first j counts.  All codecs here roundtrip
exactly for counts >= 0 and need only the entry count (plus, for the
interpolative codec, the known total) on the decode side.
"""

from __future__ import annotations

from itertools import chain
from operator import ge
from typing import Sequence

from .bitio import (
    WINDOW_BITS,
    BitReader,
    BitWriter,
    bounded_code,
    elias_gamma_decode,
    elias_gamma_encode,
    pack_bounded,
    unpack_bounded,
)

#: exclusive bound on segment sizes used by the container format (16 MiB);
#: the one-time cost of coding the tree root against it replaces a header field.
RTC_CONTAINER_BOUND = 1 << 24


class CorruptIndexError(ValueError):
    """Decoded index data is internally impossible."""


def build_range_tree(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Running-maxima tree over a power-of-two value array.

    Returns (maxima, selection): maxima[i] = max of the two children for
    internal nodes 1..N-1 (leaves at N..2N-1), selection[i] = 1 when the
    left child attains the maximum (ties select left).
    """
    maxima = _tree_maxima(values)
    selection = [0, *map(int, map(ge, maxima[2::2], maxima[3::2]))]
    return maxima, selection


def _tree_maxima(values: Sequence[int]) -> list[int]:
    """`build_range_tree`'s maxima: slot 0 unused, then the nodes in heap
    order, which is level order, so each level is built from the one below."""
    n = len(values)
    if n < 1 or n & (n - 1):
        raise ValueError("tree size must be a power of two")
    levels = [list(values)]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([a if a >= b else b
                       for a, b in zip(below[0::2], below[1::2])])
    maxima = [0]
    for level in reversed(levels):
        maxima += level
    return maxima


def _padded_length(count: int) -> int:
    return 1 << (count - 1).bit_length() if count > 1 else 1


#: `rtc_encode` joins and writes the codewords of this many nodes at a time
_CHUNK_NODES = 1 << 12
#: `_NodeCodes` keeps at most this many codewords: on sizes that differ
#: widely nearly every pair is new, and keeping them all would cost ~200
#: bytes an entry
_NODE_CODES_KEPT = 1 << 12


class _NodeCodes(dict):
    """An internal node's codeword as a '0'/'1' string, keyed by the maxima
    of its (left, right) children; a new pair runs `bounded_code` once."""

    __slots__ = ("smallest",)

    def __init__(self, smallest: int) -> None:
        super().__init__()
        self.smallest = smallest

    def __missing__(self, pair: tuple[int, int]) -> str:
        left, right = pair
        # the selection bit y is 1 when the left child attains the maximum
        # (ties select left); the other child is coded below the maximum
        if left >= right:
            top, y, offset = left, 1, left - right
        else:
            top, y, offset = right, 0, right - left - 1
        if top == self.smallest:
            word = ""
        else:
            code, nbits = bounded_code(offset, top - self.smallest + y)
            word = bin((2 | y) << nbits | code)[3:]
        if len(self) < _NODE_CODES_KEPT:
            self[pair] = word
        return word


def rtc_encode(sizes: Sequence[int], bound: int, sink: BitWriter) -> int:
    """Range-tree code the sizes; returns the bit count written.

    The array is padded to the next power of two with its minimum.  The root
    is coded against `bound`, the minimum against root+1 (root+1 keeps the
    all-equal case codable), then each internal node in heap order costs one
    selection bit plus the `bounded_code` of the non-maximal child's offset
    below the maximum; subtrees whose maximum equals the minimum cost
    nothing.  Equal child pairs share their codeword, so each distinct pair
    is coded once.
    """
    count = len(sizes)
    if count < 1:
        raise ValueError("need at least one size")
    smallest = min(sizes)
    if smallest < 0:
        raise ValueError("sizes must be nonnegative")
    if max(sizes) >= bound:
        raise ValueError(f"size {max(sizes)} >= bound {bound}")
    n = _padded_length(count)
    maxima = _tree_maxima(list(sizes) + [smallest] * (n - count))

    start = sink.bit_length
    pack_bounded(maxima[1], bound, sink)
    pack_bounded(smallest, maxima[1] + 1, sink)
    codes = _NodeCodes(smallest)
    for first in range(1, n, _CHUNK_NODES):
        stop = 2 * min(first + _CHUNK_NODES, n)
        pairs = zip(maxima[2 * first:stop:2], maxima[2 * first + 1:stop:2])
        bits = "".join(map(codes.__getitem__, pairs))
        if bits:
            sink.write_bits(int(bits, 2), len(bits))
    return sink.bit_length - start


#: nodes whose span (maximum minus the minimum) is at least this are decoded
#: bit by bit; below it a span's table has at most 4 * span entries
RTC_TABLE_SPAN_CAP = 1 << 12
#: table entries one `rtc_decode` call may build, besides one per payload
#: bit, so a hostile index cannot make the decoder build unbounded tables
RTC_TABLE_ENTRIES = 1 << 12
#: the widest table index: a selection bit plus the longest offset code
_TABLE_BITS = 1 + (RTC_TABLE_SPAN_CAP - 1).bit_length()
#: take a new window once the read offset passes this
_REFILL = WINDOW_BITS - _TABLE_BITS


def _span_table(span: int) -> list[tuple[int, int, int]]:
    """Decode table of a node whose maximum is `span` above the minimum.

    Indexed by the node's next 1 + bitlen(span) bits, the selection bit y
    first; each entry is (left decrement, right decrement, code length),
    from the `bounded_code` of every offset against span + y.
    """
    k = 1 + span.bit_length()
    table: list = [None] * (1 << k)
    for y in (0, 1):
        bound = span + y
        for offset in range(bound):
            code, nbits = bounded_code(offset, bound)
            entry = (0, offset, nbits + 1) if y else (offset + 1, 0, nbits + 1)
            first = ((y << nbits) | code) << (k - 1 - nbits)
            run = 1 << (k - 1 - nbits)
            table[first:first + run] = [entry] * run
    return table


def rtc_decode(count: int, bound: int, source: BitReader) -> list[int]:
    """Inverse of rtc_encode; returns the first `count` sizes.

    A node whose span is below `RTC_TABLE_SPAN_CAP` is decoded with one
    lookup in its span's `_span_table`, built on first use, over
    `BitReader.window`s of the payload.  Other nodes, and those whose table
    would take the entries built past `RTC_TABLE_ENTRIES` plus one per
    payload bit, read their bits one at a time with `unpack_bounded`.
    """
    if count < 1:
        raise ValueError("need at least one size")
    n = _padded_length(count)
    root = unpack_bounded(bound, source)
    smallest = unpack_bounded(root + 1, source)
    if n == 1:
        return [root]
    budget = RTC_TABLE_ENTRIES + source.bits_remaining
    # per node maximum below cap: (table, shift, mask), or None to read
    # bit by bit
    cap = smallest + RTC_TABLE_SPAN_CAP
    tables: dict[int, tuple | None] = {}
    # in-place array decoding: tree slots are reused for decoded leaves;
    # node i's children go to 2i (upper levels) or 2i - n (leaves)
    values = [0] * n
    values[1] = root
    window, pos = source.window()
    start = pos
    for i, j in zip(range(1, n), chain(range(2, n, 2), range(0, n, 2))):
        v = values[i]
        if v == smallest:
            values[j] = values[j + 1] = v
            continue
        lookup = None
        if v < cap:
            try:
                lookup = tables[v]
            except KeyError:
                k = 1 + (v - smallest).bit_length()
                if 1 << k <= budget:
                    budget -= 1 << k
                    lookup = (_span_table(v - smallest), WINDOW_BITS - k,
                              (1 << k) - 1)
                tables[v] = lookup
        if lookup is None:
            if pos != start:
                source.window(pos - start)
            left = right = v
            if source.read_bit():
                right -= unpack_bounded(v - smallest + 1, source)
            else:
                left -= unpack_bounded(v - smallest, source) + 1
            # past _REFILL: the next table lookup takes a new window
            pos = start = WINDOW_BITS
        else:
            if pos > _REFILL:
                window, pos = source.window(pos - start)
                start = pos
            table, shift, mask = lookup
            dl, dr, nbits = table[(window >> (shift - pos)) & mask]
            left, right = v - dl, v - dr
            pos += nbits
        values[j] = left
        values[j + 1] = right
    source.window(pos - start)
    return values[:count]


def _minimal_binary_encode(value: int, width: int, sink: BitWriter) -> None:
    # truncated binary: shorter codewords go to the numerically lower values
    nbits = width.bit_length()
    short = (1 << nbits) - width
    if value < short:
        sink.write_bits(value, nbits - 1)
    else:
        sink.write_bits(value + short, nbits)


def _minimal_binary_decode(width: int, source: BitReader) -> int:
    nbits = width.bit_length()
    short = (1 << nbits) - width
    value = source.read_bits(nbits - 1)
    if value < short:
        return value
    return ((value << 1) | source.read_bit()) - short


def bic_encode(sizes: Sequence[int], total: int, sink: BitWriter) -> int:
    """Interpolative-code the entry points; `total` is known to both sides.

    Cumulative positions are made strictly increasing with g_n = h_n + n
    (legal even with zero-size segments); the middle element of each span is
    coded within its feasible interval, singleton intervals costing nothing.
    """
    n = len(sizes)
    points = [0] * (n + 1)
    acc = 0
    for i, s in enumerate(sizes, 1):
        if s < 0:
            raise ValueError("sizes must be nonnegative")
        acc += s
        points[i] = acc + i
    if acc != total:
        raise ValueError(f"sizes sum to {acc}, expected {total}")

    start = sink.bit_length
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        lo_val = points[lo] + (mid - lo)
        hi_val = points[hi] - (hi - mid)
        width = hi_val - lo_val + 1
        if width > 1:
            _minimal_binary_encode(points[mid] - lo_val, width, sink)
        # pop order: code middle, then the left span, then the right
        stack.append((mid, hi))
        stack.append((lo, mid))
    return sink.bit_length - start


def bic_decode(count: int, total: int, source: BitReader) -> list[int]:
    """Inverse of bic_encode given the entry count and total."""
    points = [0] * (count + 1)
    points[count] = total + count
    stack = [(0, count)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        lo_val = points[lo] + (mid - lo)
        hi_val = points[hi] - (hi - mid)
        width = hi_val - lo_val + 1
        if width < 1:
            raise CorruptIndexError("empty feasible interval")
        value = lo_val
        if width > 1:
            value += _minimal_binary_decode(width, source)
        if not lo_val <= value <= hi_val:
            raise CorruptIndexError("decoded point outside feasible interval")
        points[mid] = value
        stack.append((mid, hi))
        stack.append((lo, mid))
    return [points[i] - points[i - 1] - 1 for i in range(1, count + 1)]


def gamma_encode_sizes(sizes: Sequence[int], sink: BitWriter) -> int:
    """Elias-gamma code each size + 1 (sizes may be zero)."""
    start = sink.bit_length
    for s in sizes:
        elias_gamma_encode(s + 1, sink)
    return sink.bit_length - start


def gamma_decode_sizes(count: int, source: BitReader) -> list[int]:
    return [elias_gamma_decode(source) - 1 for _ in range(count)]


def i32_encode_sizes(sizes: Sequence[int], sink: BitWriter) -> int:
    """Fixed 32-bit little-endian entries; exactly 32 bits each."""
    start = sink.bit_length
    for s in sizes:
        if not 0 <= s < (1 << 32):
            raise ValueError(f"size {s} does not fit in 32 bits")
        sink.write_bits(int.from_bytes(s.to_bytes(4, "little"), "big"), 32)
    return sink.bit_length - start


def i32_decode_sizes(count: int, source: BitReader) -> list[int]:
    return [int.from_bytes(source.read_bits(32).to_bytes(4, "big"), "little")
            for _ in range(count)]


def encode_index(codec: str, sizes: Sequence[int], total: int,
                 sink: BitWriter) -> int:
    """Encode sizes with a named codec; returns bits written."""
    if codec == "i32":
        return i32_encode_sizes(sizes, sink)
    if codec == "rtc":
        return rtc_encode(sizes, RTC_CONTAINER_BOUND, sink)
    if codec == "bic":
        return bic_encode(sizes, total, sink)
    if codec == "gamma":
        return gamma_encode_sizes(sizes, sink)
    raise ValueError(f"unknown index codec: {codec!r}")


def decode_index(codec: str, count: int, total: int,
                 source: BitReader) -> list[int]:
    if codec == "i32":
        return i32_decode_sizes(count, source)
    if codec == "rtc":
        return rtc_decode(count, RTC_CONTAINER_BOUND, source)
    if codec == "bic":
        return bic_decode(count, total, source)
    if codec == "gamma":
        return gamma_decode_sizes(count, source)
    raise ValueError(f"unknown index codec: {codec!r}")
