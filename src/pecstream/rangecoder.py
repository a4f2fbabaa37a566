"""Byte-oriented 32-bit range coder writing into a plain bytearray.

The encoder keeps the interval as (low, range) with 2**24 <= range < 2**32
after every renormalization, i.e. the final interval [u, v) with u = low/2**32
and v - u = range/2**32 satisfies 2**-8 <= v - u < 1.  Renormalization appends
the top byte of low to the stream.  Every stream stays in memory until it is
terminated, so an addition carry out of low is propagated in place: the
trailing run of 0xFF bytes becomes zeros and the byte before the run, which
is below 0xFF by definition, is incremented.  That byte always exists.  The
produced bytes followed by low are the coder's lower bound, and coding only
narrows the interval inside [0, 1), so that bound stays below 1 after the
carry; an output of nothing but 0xFF bytes would have carried to 1.0.

Probabilities use a 16-bit scale.  The interval split gives the top symbol
the rounding remainder, so both branches of any legal model are nonzero and
range never collapses.

The scalar `Encoder` and `Decoder` are the reference.  The lockstep engines
of `pipeline` and `bench`'s replay code uint32 arrays of (low or value,
range), one lane per stream, with array forms of the rules: a sum past
2**32 wraps as the scalar coder masks it, and a Python int operand is
always a nonnegative value that fits, so old and new numpy promotion rules
(NEP 50) keep every lane uint32.  Only `cdf_tables` loads numpy.  Under a
skewed binary model `Encoder.encode_bits` and `Decoder.decode_bits` code
up to eight zeros of a run a lookup, both in the same `_run_tables`, with
the output and state of their per-bit loops.  `check_symbols` turns every
encoder input into bytes: bytes as they are, integer or bool arrays in the
alphabet as their bytes, other iterables of integers read once.

1. Split: `split_bits` (p0 shared or one per lane) and `split_symbols` (over
   `cdf_tables`) narrow each range in place and return the offset that the
   encoder adds to low.  The decoder's `pick_bits` and `pick_symbols` find
   each lane's symbol from its value, narrow the same way and take the
   offset from the value, with one r0 = (range >> 16) * p0, or one
   range >> 16, for both.
2. Renormalization: `renormalize`, one step of 0-2 bytes a lane.
3. Carry: `carry_lanes`, `_carry` on many lanes at once.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from operator import index
from typing import Iterable, Sequence

PROB_BITS = 16
PROB_ONE = 1 << PROB_BITS
TOP = 1 << 24
MASK32 = (1 << 32) - 1


class BinaryModel:
    """Static binary model: probability of symbol 0 as p0/65536."""

    __slots__ = ("p0",)

    def __init__(self, p0: int) -> None:
        if not 1 <= p0 <= PROB_ONE - 1:
            raise ValueError(f"p0 must be in [1, {PROB_ONE - 1}], got {p0}")
        self.p0 = p0

    @classmethod
    def from_probability(cls, p: float) -> "BinaryModel":
        return cls(min(PROB_ONE - 1, max(1, round(p * PROB_ONE))))

    def __repr__(self) -> str:
        return f"BinaryModel(p0={self.p0})"

    def widths(self) -> list[int]:
        return [self.p0, PROB_ONE - self.p0]


class CdfModel:
    """Static 256-symbol model as a cumulative frequency table over 2**16.

    cdf has 257 entries with cdf[0] == 0 and cdf[256] == 65536.  A symbol is
    codable iff its width cdf[s+1] - cdf[s] is nonzero.  A table giving the
    whole scale to one symbol is rejected: every other symbol would have zero
    width and the model could never have been built from real frequencies
    plus an escape.  `codable` lists the symbols of nonzero width as bytes,
    found once per model for `check_symbols`.
    """

    __slots__ = ("cdf", "codable")

    def __init__(self, cdf: Sequence[int]) -> None:
        cdf = tuple(cdf)
        if len(cdf) != 257:
            raise ValueError("cdf must have 257 entries")
        if cdf[0] != 0 or cdf[256] != PROB_ONE:
            raise ValueError("cdf must run from 0 to 65536")
        for i in range(256):
            if cdf[i + 1] < cdf[i]:
                raise ValueError("cdf must be nondecreasing")
            if cdf[i + 1] - cdf[i] >= PROB_ONE:
                raise ValueError("single-symbol model with full width rejected")
        self.cdf = cdf
        self.codable = bytes(s for s in range(256) if cdf[s + 1] > cdf[s])

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "CdfModel":
        """Quantize symbol counts to 16-bit widths.

        Every symbol with a nonzero count gets width >= 1; if one symbol
        holds all the mass, one scale unit is moved to its neighbour so the
        table stays legal.
        """
        counts = list(counts)
        if len(counts) != 256:
            raise ValueError("need 256 symbol counts")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        total = sum(counts)
        if total <= 0:
            raise ValueError("at least one count must be positive")

        widths = [0] * 256
        remainders = []
        assigned = 0
        for s, c in enumerate(counts):
            if not c:
                continue
            w = c * PROB_ONE // total
            if w == 0:
                w = 1
            widths[s] = w
            assigned += w
            remainders.append((c * PROB_ONE % total, s))

        spare = PROB_ONE - assigned
        if spare > 0:
            remainders.sort(key=lambda t: (-t[0], t[1]))
            i = 0
            while spare:
                widths[remainders[i % len(remainders)][1]] += 1
                i += 1
                spare -= 1
        elif spare < 0:
            order = sorted(range(256), key=lambda s: (-widths[s], s))
            i = 0
            while spare:
                s = order[i % len(order)]
                i += 1
                if widths[s] > 1:
                    widths[s] -= 1
                    spare += 1

        if PROB_ONE in widths:
            s = widths.index(PROB_ONE)
            widths[s] -= 1
            widths[(s + 1) % 256] += 1

        return cls(accumulate(widths, initial=0))

    def widths(self) -> list[int]:
        return [self.cdf[s + 1] - self.cdf[s] for s in range(256)]


def _carry(out: bytearray) -> None:
    """Add one to the bytes produced so far, in place.

    The trailing 0xFF run becomes zeros and the byte before it absorbs the
    carry.  An all-0xFF output would mean the coded value crossed 1.0, which
    the coder's invariant rules out (see the module docstring).
    """
    i = len(out) - 1
    while i >= 0 and out[i] == 0xFF:
        out[i] = 0
        i -= 1
    if i < 0:
        raise AssertionError("carry cannot ripple past the first byte")
    out[i] += 1


def carry_lanes(flat, last, first) -> None:
    """`_carry` on many lanes at once, in place, raising as it does: lane i's
    bytes run from flat[first[i]] to flat[last[i]] of the flat byte matrix."""
    while len(last):
        if (last < first).any():
            raise AssertionError("carry cannot ripple past the first byte")
        ripple = flat[last] == 0xFF
        flat[last] += 1
        last, first = last[ripple] - 1, first[ripple]


def cdf_tables(model: CdfModel):
    """(c_lo, width, keep, lookup) of a `CdfModel` for the array forms.

    c_lo, width and keep are uint32 arrays indexed by symbol; keep[s] is
    0xFFFF for the symbol ending at 65536, which keeps rng & 0xFFFF, and 0
    for the others.  lookup[t] is the uint8 symbol `Decoder` picks for
    target t: the one whose nonempty [cdf[s], cdf[s + 1]) holds t.
    """
    import numpy as np

    cdf = np.asarray(model.cdf, dtype=np.uint32)
    c_lo = cdf[:-1]
    width = cdf[1:] - c_lo
    keep = np.where(cdf[1:] == PROB_ONE, np.uint32(0xFFFF), np.uint32(0))
    lookup = np.repeat(np.arange(256, dtype=np.uint8), width)
    return c_lo, width, keep, lookup


def _narrow_bits(rng, r0, bits):
    """Narrow each range to its bit's subinterval, r0 being the zero's
    width; return the subinterval's offset."""
    rng -= r0 + r0  # r0 + (rng - 2*r0)*bit: rng - r0 on a one, r0 on a zero
    rng *= bits
    rng += r0
    return r0 * bits


def _narrow_symbols(rng, r, tables, symbols):
    """Narrow each range to its symbol's subinterval, r being rng >> 16;
    return the subinterval's offset."""
    c_lo, width, keep, _ = tables
    rng &= keep.take(symbols)
    rng += r * width.take(symbols)
    return r * c_lo.take(symbols)


def split_bits(rng, p0, bits):
    """Narrow each lane's range to its bit's subinterval and return the
    subinterval's offset; p0 is one for all lanes or one per lane."""
    return _narrow_bits(rng, (rng >> 16) * p0, bits)


def split_symbols(rng, tables, symbols):
    """Narrow each lane's range to its symbol's subinterval under the
    `cdf_tables` tables; return its offset."""
    return _narrow_symbols(rng, rng >> 16, tables, symbols)


def pick_bits(val, rng, p0):
    """The bit each lane's value val lies in, as bools; narrow range to it
    and take its offset from val, in place, with one r0 for both."""
    r0 = (rng >> 16) * p0
    bits = val >= r0
    val -= _narrow_bits(rng, r0, bits)
    return bits


def pick_symbols(val, rng, tables):
    """The symbol each lane's value val lies in, as intp; narrow range to
    it and take its offset from val, in place, with one rng >> 16 for
    both."""
    r = rng >> 16
    # a target past 65535 (a value in the top symbol's remainder
    # rng & 0xFFFF, or a corrupted stream's value at or past its range)
    # clips to the top symbol, as `Decoder` clamps it.  The lookup table is
    # uint8 to stay small, the symbols intp to gather fast
    symbols = tables[3].take(val // r, mode="clip").astype("intp")
    val -= _narrow_symbols(rng, r, tables, symbols)
    return symbols


def renormalize(state, rng):
    """Scale each lane's range back to at least 2**24 in one step, in place.

    A split leaves range at least 2**8, so lane i moves k = (rng < 2**24)
    + (rng < 2**16) bytes: its state (the encoder's low or the decoder's
    value) and range shift left by 8k bits, and the bytes shifted out of
    a uint32 state drop.  Returns 8k per lane as uint8, for an encoder to
    advance past the k top bytes of low it wrote first and a decoder to
    shift in k bytes.
    """
    shift = (rng < TOP).view("u1")
    shift += (rng < 1 << 16).view("u1")
    shift <<= 3
    state <<= shift
    rng <<= shift
    return shift


#: the bytes `check_symbols` checks at a time under a `BinaryModel`.  The
#: translate that deletes the legal bits copies its input first: 2**23
#: bits checked whole peaked at 8.0 MiB under tracemalloc, and at 0.13 MiB
#: in slices of 2**16 bytes, which took 1.14x as long (3.8-4.6 ms against
#: 3.3-4.0 ms, 2-vCPU VM)
_CHECK_BYTES = 1 << 16


def check_symbols(model: BinaryModel | CdfModel,
                  symbols: Iterable[int]) -> bytes | bytearray:
    """`symbols` as the bytes the coders read under `model`, or the error
    coding them raises, before any symbol is coded.

    Bytes and bytearrays are used as they are, integer or bool arrays
    within the alphabet as their bytes, and any other iterable of integers
    is read once (a binary model codes each value's truth, so 0.0 and 1.0
    code too).  A value outside the alphabet anywhere in the input raises
    first; then, under a `CdfModel`, the first symbol in input order that
    has zero width (coding it would renormalize forever) or is not an
    integer (the `TypeError` of a float).
    """
    if not isinstance(symbols, (bytes, bytearray)):
        dtype = getattr(symbols, "dtype", None)
        if dtype is not None and dtype.kind in "iub" and (not len(symbols) or
                0 <= symbols.min() and symbols.max() <= 255):
            return check_symbols(model, symbols.astype("u1").tobytes())
        symbols = list(symbols)
        if isinstance(model, BinaryModel):
            if set(symbols).difference((0, 1)):
                raise ValueError("binary models code 0/1 symbols only")
            return bytes(map(bool, symbols))
        if set(symbols).difference(range(256)):
            # a negative symbol would index the cdf table from its end
            raise ValueError("256-symbol models code 0..255 symbols only")
        cdf = model.cdf
        # as Python ints: a numpy int8/uint8 symbol would wrap at s + 1
        for s in map(index, symbols):
            if cdf[s + 1] <= cdf[s]:
                raise ValueError(f"symbol {s} has zero width in this model")
        return bytes(symbols)
    if isinstance(model, BinaryModel):
        # deleting the legal values checks bytes ~30x faster than a set does
        if any(symbols[k:k + _CHECK_BYTES].translate(None, b"\x00\x01")
               for k in range(0, len(symbols), _CHECK_BYTES)):
            raise ValueError("binary models code 0/1 symbols only")
    elif len(model.codable) < 256:
        # bytes fit the alphabet; keep only the zero-width ones, in order.
        # Without any, skip the translate: on 16-byte shards it costs 5% of
        # the coding
        rest = symbols.translate(None, model.codable)
        if rest:
            raise ValueError(f"symbol {rest[0]} has zero width in this model")
    return symbols


class FinalCoderState:
    """Exact final interval [low, low+range) plus the emission continuation.

    `pending_info` is frozen at construction: it is the intrinsic pending
    information -log2(v - u) = 32 - log2(range) of the state as finalized,
    before any termination-time renormalization mutates low/range.
    """

    __slots__ = ("low", "range", "direction", "bit_reversed", "chain",
                 "pending_info")

    def __init__(self, low: int, range_: int, chain: bytearray | None = None,
                 direction: str = "forward", bit_reversed: bool = False) -> None:
        if not 0 <= low <= MASK32:
            raise ValueError("low out of 32-bit range")
        if not TOP <= range_ <= MASK32:
            raise ValueError("range must satisfy 2**24 <= range < 2**32")
        if direction not in ("forward", "backward"):
            raise ValueError(f"bad direction: {direction!r}")
        self.low = low
        self.range = range_
        self.chain = chain if chain is not None else bytearray()
        self.direction = direction
        self.bit_reversed = bit_reversed
        self.pending_info = 32.0 - math.log2(range_)

    def push_renorm_byte(self) -> None:
        """Emit the top byte of low and rescale the interval by 2**8.

        Used by termination when no whole byte step fits in [u, v); the
        rescaled width is capped at the representable maximum, which only
        shrinks the interval and so preserves the decoding guarantee.
        """
        self.chain.append(self.low >> 24)
        self.low = (self.low << 8) & MASK32
        self.range = min(self.range << 8, MASK32)

    def finish(self, value: int) -> bytes:
        """Apply the chosen termination value and return the full stream.

        Values >= 256 carry one into the bytes already produced; the stored
        final byte is value mod 256 and is never carry-modified.
        """
        if value >= 256:
            _carry(self.chain)
        self.chain.append(value & 0xFF)
        return bytes(self.chain)


#: the lowest p0 whose bits `Encoder.encode_bits` and `Decoder.decode_bits`
#: code through `_zero_runs`: p(one) = 0.2.  On 2**17 bits in one process
#: (2-vCPU VM) the per-bit loop took this many times the run loop's time,
#: lowest and highest of three runs:
#:
#:   p(one)          0.01  0.05  0.1   0.15  0.2   0.25  0.3
#:   decode lowest   4.03  2.23  1.51  1.23  1.00  0.77  0.82
#:   decode highest  4.55  2.67  1.53  1.27  1.06  0.94  0.89
#:   encode lowest   3.63  2.08  1.54  1.26  1.15  0.98  1.00
#:   encode highest  3.98  2.63  1.80  1.33  1.17  1.01  1.04
_RUN_GATE = 52429
#: the most zeros one `_run_tables` lookup codes
_RUN_MAX = 8
#: the bits `Encoder.encode_bits` splits into runs at a time.  A split
#: holds an object per run: 2**22 bits split at once peaked at 21 MB
#: (p(one) = 0.1) to 51 MB (a one in three) under tracemalloc, and a slice
#: of 2**16 bits holds about 1 MB at most
_SPLIT_BITS = 1 << 16


def _zero_runs(p0: int) -> tuple[array, ...] | None:
    """The run tables of p0, or None below `_RUN_GATE`."""
    return _run_tables(p0) if p0 >= _RUN_GATE else None


@lru_cache(maxsize=2)
def _run_tables(p0: int) -> tuple[array, ...]:
    """(Z_1, ..., Z_8): Z_L[h] is the range after L zeros from any range r
    with r >> 16 == h, or 0 where one of them leaves it below 2**24.

    A zero sets the range to (range >> 16) * p0 and leaves low alone, so
    the L ranges depend on h alone and fall strictly.  The encoder codes L
    zeros with no renormalization by setting the range to a nonzero
    Z_L[h].  A value v decodes eight zeros with no renormalization exactly
    when v < Z_8[h], and leaves the range at Z_8[h]; failing that, four
    when v < Z_4[h].

    The 65536 h are the 32-bit fields of one int (an "I" array item), so
    each step is a few operations on that int: h * p0 < 2**32 fits a field,
    and a shift by 16 with a mask of 0xFFFF per field is each field's own
    shift.  The ranges rise with h, so the entries below 2**24 are a
    prefix.  Each table takes 256 KiB, so a p0 takes 2 MiB and the cache of
    two p0 at most 4 MiB.  The build took about 6.5 ms on a 2-vCPU VM
    and peaks below the tables plus 1 MiB.  Every caller shares the tables
    and only reads them.
    """
    order = sys.byteorder
    fields = int.from_bytes(array("I", range(PROB_ONE)), order)
    mask = int.from_bytes(b"\xff\xff\x00\x00" * PROB_ONE, "little")
    tables = []
    for _ in range(_RUN_MAX):
        if tables:
            fields >>= 16
            fields &= mask
        fields *= p0
        table = array("I", fields.to_bytes(4 * PROB_ONE, order))
        low = bisect_left(table, TOP)
        table[:low] = array("I", bytes(4 * low))
        tables.append(table)
    return tuple(tables)


class Encoder:
    """Range encoder producing bytes in decode order into a bytearray.

    `encode_bits` and `encode_symbols` read each batch as bytes through
    `check_symbols` (bytes as they are, integer or bool arrays in the
    alphabet as their bytes, other iterables of integers once), so a batch
    the model cannot code raises before any of it is coded and leaves the
    encoder as it was.
    """

    __slots__ = ("_low", "_range", "_out")

    def __init__(self) -> None:
        self._low = 0
        # 2**32 itself is unrepresentable; the 1-ulp deficiency is absorbed
        # by the coder inefficiency bound.
        self._range = MASK32
        self._out = bytearray()

    @property
    def state(self) -> tuple[int, int]:
        return self._low, self._range

    def encode_bits(self, model: BinaryModel, bits: Iterable[int]) -> None:
        """Encode bits under model.

        Under a model whose p0 is at least `_RUN_GATE` the bits are coded
        one run of zeros at a time through `_zero_runs`; under other models
        they go through the per-bit loop.  Both paths write the same bytes
        and leave the same state.
        """
        bits = check_symbols(model, bits)
        p0 = model.p0
        tables = _zero_runs(p0)
        if tables is not None:
            self._encode_runs(p0, tables, bits)
            return
        # hot path: the coder state lives in locals for the whole batch
        low = self._low
        rng = self._range
        out = self._out
        push = out.append
        for bit in bits:
            r0 = (rng >> 16) * p0
            if bit:
                low += r0
                rng -= r0
                if low > MASK32:
                    _carry(out)
                    low -= MASK32 + 1
            else:
                rng = r0
            while rng < TOP:
                push(low >> 24)
                low = (low << 8) & MASK32
                rng <<= 8
        self._low = low
        self._range = rng

    def _encode_runs(self, p0: int, tables: tuple[array, ...],
                     bits: bytes | bytearray) -> None:
        """`encode_bits` of checked bits, one run of zeros and the one after
        it at a time.

        A run of n zeros takes the range from Z_L[range >> 16], L = min(n,
        8), while that entry is nonzero.  A 0 entry means a renormalization
        comes within those L zeros, so the zeros up to and including it are
        coded one at a time.  A zero leaves low alone, so no byte and no
        carry can come from a run that has no renormalization.
        """
        zeros = (None, *tables)  # zeros[L] is Z_L
        longest = tables[-1]
        top = TOP
        mask = MASK32
        most = _RUN_MAX
        low = self._low
        rng = self._range
        out = self._out
        push = out.append
        # the runs of zeros before each one, split from _SPLIT_BITS bits
        # at a time; a slice's last run goes on into the next slice, and
        # the last run of all, which has no one after it, is marked by -1
        size = len(bits)
        last = 0
        for start in range(0, size, _SPLIT_BITS):
            piece = bits[start:start + _SPLIT_BITS]
            runs = list(map(len, piece.split(b"\x01")))
            runs[0] += last
            last = runs.pop()
            if start + _SPLIT_BITS >= size:
                runs.append(-1)
            for n in runs:
                if n < 0:
                    n, last = last, -1
                while n:
                    if n >= most:
                        r = longest[rng >> 16]
                        if r:
                            rng = r
                            n -= most
                            continue
                    else:
                        r = zeros[n][rng >> 16]
                        if r:
                            rng = r
                            break
                    r0 = (rng >> 16) * p0
                    while r0 >= top:
                        rng = r0
                        n -= 1
                        r0 = (rng >> 16) * p0
                    rng = r0
                    n -= 1
                    while rng < top:
                        push(low >> 24)
                        low = (low << 8) & mask
                        rng <<= 8
                if last < 0:
                    break
                r0 = (rng >> 16) * p0
                low += r0
                rng -= r0
                if low > mask:
                    _carry(out)
                    low -= mask + 1
                while rng < top:
                    push(low >> 24)
                    low = (low << 8) & mask
                    rng <<= 8
        self._low = low
        self._range = rng

    def encode_symbols(self, model: CdfModel, symbols: Iterable[int]) -> None:
        symbols = check_symbols(model, symbols)
        cdf = model.cdf
        low = self._low
        rng = self._range
        out = self._out
        push = out.append
        for s in symbols:
            r = rng >> 16
            c_lo = cdf[s]
            c_hi = cdf[s + 1]
            base = r * c_lo
            if c_hi == PROB_ONE:
                rng -= base
            else:
                rng = r * (c_hi - c_lo)
            low += base
            if low > MASK32:
                _carry(out)
                low -= MASK32 + 1
            while rng < TOP:
                push(low >> 24)
                low = (low << 8) & MASK32
                rng <<= 8
        self._low = low
        self._range = rng

    def finalize(self, direction: str = "forward",
                 bit_reversed: bool = False) -> FinalCoderState:
        """Capture the final interval; the encoder must not be used again."""
        out = self._out
        self._out = None  # type: ignore[assignment]
        return FinalCoderState(self._low, self._range, out,
                               direction, bit_reversed)


class Decoder:
    """Range decoder over one stream's bytes in decode order.

    Reads past the end of `data` yield 0x00, a clamped continuation; by the
    termination guarantee any continuation decodes the coded symbols
    exactly, so a stream needs no length framing.
    """

    __slots__ = ("_data", "_pos", "_val", "_range")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 4
        self._val = int.from_bytes(data[:4].ljust(4, b"\x00"), "big")
        self._range = MASK32

    def decode_bits(self, model: BinaryModel, count: int) -> bytes:
        """Decode count bits under model.

        Under a model whose p0 is at least `_RUN_GATE`, while eight or more
        bits remain, a value v < Z_8[h] of `_zero_runs` (h = range >> 16)
        decodes eight zeros with no renormalization and v < Z_4[h] four;
        then the bits up to the next one or renormalization, which comes
        within eight bits, are decoded one at a time.  The rest, and every
        bit of other models, go through the per-bit loop.  Both paths read
        the same bytes and leave the same state, on corrupted streams too.
        """
        p0 = model.p0
        val = self._val
        rng = self._range
        data = self._data
        end = len(data)
        pos = self._pos
        out = bytearray(count)
        i = 0
        top = TOP
        mask = MASK32
        tables = _zero_runs(p0) if count >= _RUN_MAX else None
        if tables is not None:
            fours = tables[3]
            eights = tables[7]
            last = count - _RUN_MAX
            while i <= last:
                h = rng >> 16
                r = eights[h]
                if val < r:
                    rng = r
                    i += 8
                    continue
                r = fours[h]
                if val < r:
                    rng = r
                    i += 4
                    h = r >> 16
                # a one or a renormalization comes within the next four
                # bits, so the bits up to it stay within count
                r0 = h * p0
                while val < r0 >= top:
                    rng = r0
                    i += 1
                    r0 = (rng >> 16) * p0
                if val < r0:
                    rng = r0
                else:
                    out[i] = 1
                    val -= r0
                    rng -= r0
                i += 1
                while rng < top:
                    val = ((val << 8) | (data[pos] if pos < end else 0)) & mask
                    pos += 1
                    rng <<= 8
        for i in range(i, count):
            r0 = (rng >> 16) * p0
            if val < r0:
                rng = r0
            else:
                out[i] = 1
                val -= r0
                rng -= r0
            while rng < top:
                val = ((val << 8) | (data[pos] if pos < end else 0)) & mask
                pos += 1
                rng <<= 8
        self._val = val
        self._range = rng
        self._pos = pos
        return bytes(out)

    def decode_symbols(self, model: CdfModel, count: int) -> bytes:
        cdf = model.cdf
        val = self._val
        rng = self._range
        data = self._data
        end = len(data)
        pos = self._pos
        out = bytearray(count)
        limit = PROB_ONE - 1
        for i in range(count):
            r = rng >> 16
            target = val // r
            if target > limit:
                target = limit
            s = bisect_right(cdf, target) - 1
            c_lo = cdf[s]
            c_hi = cdf[s + 1]
            base = r * c_lo
            if c_hi == PROB_ONE:
                rng -= base
            else:
                rng = r * (c_hi - c_lo)
            val -= base
            while rng < TOP:
                val = ((val << 8) | (data[pos] if pos < end else 0)) & MASK32
                pos += 1
                rng <<= 8
            out[i] = s
        self._val = val
        self._range = rng
        self._pos = pos
        return bytes(out)
