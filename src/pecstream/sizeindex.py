"""Entry-point index codecs: range-tree, interpolative, Elias-gamma, raw 32-bit.

The index is the list of per-segment byte counts; decoders find segment j
at the cumulative sum of the first j counts.  All codecs here roundtrip
exactly for counts >= 0 and need only the entry count (plus, for the
interpolative codec, the known total) on the decode side.

`rtc_encode` has two forms that write the same bits.  An index of 512
entries or more, against a bound of at most 2**32, is coded with numpy: the
tree of maxima is built a level at a time and its nodes' codewords worked
out and written a chunk at a time.  Such an index has at least 512 streams,
the lockstep engines' edge, so the process has loaded numpy already.  A
narrower index, or one against a larger bound, is coded in pure Python one
node at a time: the scalar engines never import numpy.  The pure coder is
also the tests' reference.  All decoders are pure Python.
"""

from __future__ import annotations

from typing import Sequence

from .bitio import (
    BitReader,
    BitWriter,
    TruncatedStreamError,
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


def _tree_maxima(values: Sequence[int]) -> list[int]:
    """Running-maxima tree over a power-of-two value array: slot 0 unused,
    then maxima[i] = max of the two children for internal nodes 1..N-1 and
    the values as leaves N..2N-1.  Heap order is level order, so each level
    is built from the one below."""
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


#: `_rtc_encode_array` joins and writes the codewords of this many nodes at
#: a time.  It coded a 32768-entry index in 4.78 ms at 2**13, against 5.23,
#: 5.30 and 6.11 ms at 2**12, 2**14 and 2**15 (medians of 41 interleaved
#: rounds, 2-vCPU VM)
_CHUNK_NODES = 1 << 13
#: `rtc_encode` codes an index of this many entries or more with numpy.
#: Such an index has at least 512 streams, where the pipeline's lockstep
#: engines have loaded numpy already (`LOCKSTEP_MIN_STREAMS`); a narrower
#: one comes from the scalar engines, whose processes never import it
_ARRAY_ENTRIES = 512


def as_ints(sizes: Sequence[int]) -> Sequence[int]:
    """sizes as a sequence of Python ints: an array as a list, since its
    items are numpy scalars, which the pure-Python coders would read slowly
    and which wrap at their width; other sequences as they are."""
    return sizes.tolist() if hasattr(sizes, "tolist") else sizes


def _check_range(smallest: int, root: int, bound: int) -> None:
    if smallest < 0:
        raise ValueError("sizes must be nonnegative")
    if root >= bound:
        if bound == RTC_CONTAINER_BOUND:
            raise ValueError("rtc-coded containers cap segments at 16 MiB")
        raise ValueError(f"size {root} >= bound {bound}")


def rtc_encode(sizes: Sequence[int], bound: int, sink: BitWriter) -> int:
    """Range-tree code the sizes; returns the bit count written.

    The array is padded to the next power of two with its minimum.  The root
    is coded against `bound`, the minimum against root+1 (root+1 keeps the
    all-equal case codable), then each internal node in heap order costs one
    selection bit plus the `bounded_code` of the non-maximal child's offset
    below the maximum; subtrees whose maximum equals the minimum cost
    nothing.

    From `_ARRAY_ENTRIES` entries on, with a bound of at most 2**32, the
    tree and the codewords are numpy arrays (`_rtc_encode_array`).
    Otherwise each node's selection bit and code go to `sink` in one write.
    Both write the same bits.
    """
    count = len(sizes)
    if count < 1:
        raise ValueError("need at least one size")
    if count >= _ARRAY_ENTRIES and bound <= 1 << 32:
        return _rtc_encode_array(sizes, bound, sink)
    sizes = as_ints(sizes)
    smallest = min(sizes)
    n = _padded_length(count)
    maxima = _tree_maxima(list(sizes) + [smallest] * (n - count))
    _check_range(smallest, maxima[1], bound)

    start = sink.bit_length
    pack_bounded(maxima[1], bound, sink)
    pack_bounded(smallest, maxima[1] + 1, sink)
    for left, right in zip(maxima[2::2], maxima[3::2]):
        # the selection bit y is 1 when the left child attains the maximum
        # (ties select left); the other child is coded below the maximum
        if left < right:
            code, nbits = bounded_code(right - left - 1, right - smallest)
            sink.write_bits(code, nbits + 1)
        elif left != smallest:
            code, nbits = bounded_code(left - right, left - smallest + 1)
            sink.write_bits(1 << nbits | code, nbits + 1)
    return sink.bit_length - start


def _rtc_encode_array(sizes: Sequence[int], bound: int,
                      sink: BitWriter) -> int:
    """`rtc_encode` on numpy arrays, for a bound of at most 2**32.

    The tree is one heap-order array of the narrowest unsigned type that
    holds the bound, built a level at a time.  Its internal nodes are coded
    `_CHUNK_NODES` at a time in int64: a node's codeword is at most 33 bits,
    so it spans at most two 32-bit words of the chunk's bits, and the
    chunk goes to `sink` in one write.  An int64 array of sizes is read
    as it is, with no copy.
    """
    import numpy as np
    count = len(sizes)
    leaves = np.asarray(sizes, dtype=np.int64)
    smallest = int(leaves.min())
    root = int(leaves.max())
    _check_range(smallest, root, bound)
    n = _padded_length(count)
    maxima = np.empty(2 * n, np.min_scalar_type(bound - 1))
    maxima[n:n + count] = leaves
    maxima[n + count:] = smallest
    del leaves
    half = n
    while half > 1:
        half >>= 1
        np.maximum(maxima[2 * half:4 * half:2], maxima[2 * half + 1:4 * half:2],
                   out=maxima[half:2 * half])

    start = sink.bit_length
    pack_bounded(root, bound, sink)
    pack_bounded(smallest, root + 1, sink)
    for first in range(1, n, _CHUNK_NODES):
        stop = min(first + _CHUNK_NODES, n)
        top = maxima[first:stop]
        coded = top != smallest
        if not coded.any():
            continue
        top = top[coded].astype(np.int64)
        left = maxima[2 * first:2 * stop:2][coded]
        right = maxima[2 * first + 1:2 * stop:2][coded]
        # the selection bit y is 1 when the left child attains the maximum
        y = left >= right
        # `bounded_code` of each offset below its bound, all nodes at once:
        # the bisection halves [0, width) until one value is left
        offset = top - np.minimum(left, right) - 1 + y
        width = top - smallest + y
        steps = (int(width.max()) - 1).bit_length()
        code = np.zeros_like(width)
        nbits = np.zeros_like(width)
        for _ in range(steps):
            half_width = width >> 1
            below = offset < half_width
            nbits += width > 1
            code <<= 1
            code |= below
            offset -= np.where(below, 0, half_width)
            width = np.where(below, half_width, width - half_width)
        # a finished node shifted in zeros for the steps it did not take
        code >>= steps - nbits
        code |= y.astype(np.int64) << nbits
        _write_words(code.view(np.uint64), nbits + 1, sink)
    return sink.bit_length - start


def _write_words(words, lengths, sink: BitWriter) -> None:
    """Write codewords of at most 33 bits, each `lengths` bits long, in
    order: their bits are summed into big-endian 32-bit words, where no two
    codewords share a bit, and written in one call."""
    import numpy as np
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    words_32 = -(-total // 32)
    # the 32-bit word holding each codeword's last bit, and the bits after it
    last = (ends - 1) >> 5
    shift = (((last + 1) << 5) - ends).astype(np.uint64)
    low = np.bincount(last, (words << shift) & 0xFFFFFFFF, words_32)
    # the bits that spill into the word before; in float64 every sum of
    # disjoint 32-bit pieces is exact
    high = np.bincount(last, words >> (32 - shift), words_32)
    low[:-1] += high[1:]
    packed = int.from_bytes(low.astype(">u4").tobytes(), "big")
    sink.write_bits(packed >> (32 * words_32 - total), total)


#: nodes whose span (maximum minus the minimum) is at least this are decoded
#: bit by bit, so no node table has more than 2 * RTC_TABLE_SPAN_CAP slots
RTC_TABLE_SPAN_CAP = 1 << 12
#: table slots one `rtc_decode` call may allocate per node it decodes: a
#: node maximum's table of 2**k slots is allocated on its 2**k / 4-th
#: sighting.  A node above the minimum reads at least its selection bit, so
#: the payload's bit count bounds them too
_ENTRIES_PER_NODE = 4
#: whole bytes a window refill loads, unless the longest node code needs more
_REFILL_BYTES = 7


def _empty_table(size: int) -> list:
    return [None] * size


def rtc_decode(count: int, bound: int, source: BitReader) -> list[int]:
    """Inverse of rtc_encode; returns the first `count` sizes.

    The tree is decoded a level at a time: each node of a level appends
    its (left, right) pair of child maxima to the next.  Node codes are
    read from a window of the payload held as an int, topped up by whole
    bytes whenever fewer bits than the longest node code are left, and
    decoded by the bisection of `bounded_code` one window bit at a time.
    A node maximum v whose span v - minimum is below `RTC_TABLE_SPAN_CAP`
    gets a table of empty slots, indexed by its next k = 1 + bitlen(span)
    bits, once it has been seen often enough that the slots allocated stay
    within `_ENTRIES_PER_NODE` per node.  The first bisection read under a
    key fills its slot with the child pair and the code length, and later
    reads of that key take them from the slot.  Reading past the payload's
    end raises `TruncatedStreamError` at the next refill.
    """
    if count < 1:
        raise ValueError("need at least one size")
    n = _padded_length(count)
    root = unpack_bounded(bound, source)
    smallest = unpack_bounded(root + 1, source)
    if n == 1:
        return [root]
    # the longest node code: a selection bit and a code below the root's span
    need = 1 + (root - smallest).bit_length()
    fill = max(_REFILL_BYTES, -(-need // 8))
    data, pos = source.advance()
    # bits of the first byte before the read position, and the window's
    # read offset past which the payload has ended
    skew = pos & 7
    limit = skew + source.bits_remaining
    # zeros after the payload's bytes: a refill starts before `limit` plus
    # `need` bits, so it always finds `fill` bytes
    buf = data[pos >> 3:(pos + source.bits_remaining + 7) >> 3]
    buf += bytes(2 * fill)
    window = int.from_bytes(buf[:fill], "big")
    at = fill
    left = 8 * fill - skew  # unread bits, the low end of `window`
    cap = smallest + RTC_TABLE_SPAN_CAP
    tables: dict[int, tuple] = {}  # node maximum -> (table, k, mask)
    seen: dict[int, int] = {}  # node maximum without a table -> sightings
    same = (smallest, smallest)
    level = [root]
    for _ in range(n.bit_length() - 1):
        below = []
        for v in level:
            if v == smallest:
                below += same
                continue
            if left < need:
                if 8 * at - left > limit:
                    raise TruncatedStreamError("bit source exhausted")
                window = ((window & ((1 << left) - 1)) << 8 * fill
                          | int.from_bytes(buf[at:at + fill], "big"))
                at += fill
                left += 8 * fill
            lookup = tables.get(v)
            if lookup is not None:
                table, k, mask = lookup
                key = (window >> (left - k)) & mask
                slot = table[key]
                if slot is not None:
                    pair, nbits = slot
                    left -= nbits
                    below += pair
                    continue
            elif v < cap:
                k = 1 + (v - smallest).bit_length()
                sightings = seen.get(v, 0) + 1
                if sightings * _ENTRIES_PER_NODE >= 1 << k:
                    mask = (1 << k) - 1
                    table = _empty_table(1 << k)
                    lookup = tables[v] = (table, k, mask)
                    key = (window >> (left - k)) & mask
                else:
                    seen[v] = sightings
            # the selection bit y first: y = 0 codes the left child below
            # span, y = 1 the right below span + 1
            start = left
            left -= 1
            y = (window >> left) & 1
            a, b = 0, v - smallest + y
            m = b >> 1
            while a != m:
                left -= 1
                if (window >> left) & 1:
                    b = m
                else:
                    a = m
                m = (a + b) >> 1
            pair = (v, v - m) if y else (v - 1 - m, v)
            if lookup is not None:
                table[key] = (pair, start - left)
            below += pair
        level = below
    source.advance(8 * at - left - skew)
    del level[count:]
    return level


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
    """Encode sizes with a named codec; returns bits written.

    sizes is a sequence of ints or an integer array.  `rtc_encode` codes an
    array of `_ARRAY_ENTRIES` entries or more as it is; the pure-Python
    coders read sizes as a list.
    """
    if codec == "rtc":
        return rtc_encode(sizes, RTC_CONTAINER_BOUND, sink)
    sizes = as_ints(sizes)
    if codec == "i32":
        return i32_encode_sizes(sizes, sink)
    if codec == "bic":
        return bic_encode(sizes, total, sink)
    if codec == "gamma":
        return gamma_encode_sizes(sizes, sink)
    raise ValueError(f"unknown index codec: {codec!r}")


def decode_index(codec: str, count: int, total: int,
                 source: BitReader) -> list[int]:
    """Decode `count` sizes that `encode_index` wrote with the same codec."""
    if codec == "i32":
        return i32_decode_sizes(count, source)
    if codec == "rtc":
        return rtc_decode(count, RTC_CONTAINER_BOUND, source)
    if codec == "bic":
        return bic_decode(count, total, source)
    if codec == "gamma":
        return gamma_decode_sizes(count, source)
    raise ValueError(f"unknown index codec: {codec!r}")
