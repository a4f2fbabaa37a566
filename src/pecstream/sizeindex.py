"""Entry-point index codecs: range-tree, interpolative, Elias-gamma, raw 32-bit.

The index is the list of per-segment byte counts; decoders find segment j
at the cumulative sum of the first j counts.  All codecs here roundtrip
exactly for counts >= 0 and need only the entry count (plus, for the
interpolative codec, the known total) on the decode side.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .bitio import (
    BitReader,
    BitWriter,
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


def entry_points(sizes: Sequence[int]) -> list[int]:
    """Cumulative sums h_1..h_N of the segment sizes."""
    return list(accumulate(sizes))


def build_range_tree(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Running-maxima tree over a power-of-two value array.

    Returns (maxima, selection): maxima[i] = max of the two children for
    internal nodes 1..N-1 (leaves at N..2N-1), selection[i] = 1 when the
    left child attains the maximum (ties select left).
    """
    n = len(values)
    if n < 1 or n & (n - 1):
        raise ValueError("tree size must be a power of two")
    maxima = [0] * (2 * n)
    maxima[n:] = values
    selection = [0] * n
    for i in range(n - 1, 0, -1):
        if maxima[2 * i] >= maxima[2 * i + 1]:
            selection[i] = 1
            maxima[i] = maxima[2 * i]
        else:
            maxima[i] = maxima[2 * i + 1]
    return maxima, selection


def _padded_length(count: int) -> int:
    return 1 << (count - 1).bit_length() if count > 1 else 1


def rtc_encode(sizes: Sequence[int], bound: int, sink: BitWriter) -> int:
    """Range-tree code the sizes; returns the bit count written.

    The array is padded to the next power of two with its minimum.  The root
    is coded against `bound`, the minimum against root+1 (root+1 keeps the
    all-equal case codable), then each internal node costs one selection bit
    plus a bounded offset for the non-maximal child; subtrees whose maximum
    equals the minimum cost nothing.
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
    values = list(sizes) + [smallest] * (n - count)
    maxima, selection = build_range_tree(values)

    start = sink.bit_length
    pack_bounded(maxima[1], bound, sink)
    pack_bounded(smallest, maxima[1] + 1, sink)
    for i in range(1, n):
        if maxima[i] != smallest:
            y = selection[i]
            sink.write_bit(y)
            pack_bounded(maxima[i] - maxima[2 * i + y] + y - 1,
                         maxima[i] - smallest + y, sink)
    return sink.bit_length - start


def rtc_decode(count: int, bound: int, source: BitReader) -> list[int]:
    """Inverse of rtc_encode; returns the first `count` sizes."""
    if count < 1:
        raise ValueError("need at least one size")
    n = _padded_length(count)
    root = unpack_bounded(bound, source)
    smallest = unpack_bounded(root + 1, source)
    if n == 1:
        return [root]
    # in-place array decoding: tree slots are reused for decoded leaves
    values = [0] * n
    values[1] = root
    for i in range(1, n):
        j = 2 * i if 2 * i < n else 2 * i - n
        values[j] = values[j + 1] = values[i]
        if values[i] != smallest:
            y = source.read_bit()
            values[j + y] -= unpack_bounded(values[i] - smallest + y, source) - y + 1
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
