"""Byte-oriented 32-bit range coder with a deferred-carry byte chain.

The encoder keeps the interval as (low, range) with 2**24 <= range < 2**32
after every renormalization, i.e. the final interval [u, v) with u = low/2**32
and v - u = range/2**32 satisfies 2**-8 <= v - u < 1.  Addition carries are
never applied to already-flushed bytes: produced bytes pass through a chain
holding one absorption byte (`cache`, always < 0xFF) followed by a run of
pending 0xFF bytes, so a carry increments `cache` and zeroes the run.

Probabilities use a 16-bit scale.  The interval split gives the top symbol
the rounding remainder, so both branches of any legal model are nonzero and
range never collapses.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

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


class CdfModel:
    """Static 256-symbol model as a cumulative frequency table over 2**16.

    cdf has 257 entries with cdf[0] == 0 and cdf[256] == 65536.  A symbol is
    codable iff its width cdf[s+1] - cdf[s] is nonzero.  A table giving the
    whole scale to one symbol is rejected: every other symbol would have zero
    width and the model could never have been built from real frequencies
    plus an escape.
    """

    __slots__ = ("cdf",)

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

        cdf = [0] * 257
        for s in range(256):
            cdf[s + 1] = cdf[s] + widths[s]
        return cls(cdf)

    def width(self, symbol: int) -> int:
        return self.cdf[symbol + 1] - self.cdf[symbol]

    def widths(self) -> list[int]:
        return [self.cdf[s + 1] - self.cdf[s] for s in range(256)]


class _ByteChain:
    """Produced bytes with a single deferred-carry absorption point.

    Logical byte order is flushed ++ [cache] ++ 0xFF * pending.  `cache` is
    the earliest byte a future carry may still touch; bytes in `flushed` can
    never change.  A 0xFF byte joins the pending run instead of becoming
    cache, so a carry is always absorbed without rippling into `flushed`.
    """

    __slots__ = ("flushed", "cache", "pending")

    def __init__(self) -> None:
        self.flushed = bytearray()
        self.cache: int | None = None
        self.pending = 0

    def __len__(self) -> int:
        return len(self.flushed) + (self.cache is not None) + self.pending

    def push(self, byte: int) -> None:
        if byte == 0xFF:
            self.pending += 1
            return
        self._settle()
        self.cache = byte

    def carry(self) -> None:
        # A carry with no absorption byte, or onto a 0xFF cache, would mean
        # the coded value crossed 1.0 -- ruled out by the low+range <= 2**32
        # invariant that holds from any carry until a byte < 0xFF is emitted.
        if self.cache is None or self.cache == 0xFF:
            raise AssertionError("carry cannot ripple past the byte chain")
        if self.pending:
            self.flushed.append(self.cache + 1)
            self.flushed.extend(b"\x00" * (self.pending - 1))
            self.cache = 0
            self.pending = 0
        else:
            self.cache += 1

    def _settle(self) -> None:
        if self.cache is not None:
            self.flushed.append(self.cache)
            self.cache = None
        if self.pending:
            self.flushed.extend(b"\xff" * self.pending)
            self.pending = 0

    def flush(self) -> bytearray:
        self._settle()
        return self.flushed

    def value(self) -> int:
        """The logical bytes as one big integer (for invariant checks)."""
        v = int.from_bytes(self.flushed, "big")
        if self.cache is not None:
            v = (v << 8) | self.cache
        for _ in range(self.pending):
            v = (v << 8) | 0xFF
        return v

    def copy(self) -> "_ByteChain":
        dup = _ByteChain()
        dup.flushed = bytearray(self.flushed)
        dup.cache = self.cache
        dup.pending = self.pending
        return dup


class FinalCoderState:
    """Exact final interval [low, low+range) plus the emission continuation.

    `pending_info` is frozen at construction: it is the intrinsic pending
    information -log2(v - u) = 32 - log2(range) of the state as finalized,
    before any termination-time renormalization mutates low/range.
    """

    __slots__ = ("low", "range", "direction", "bit_reversed", "chain",
                 "pending_info", "payload_len")

    def __init__(self, low: int, range_: int, chain: _ByteChain | None = None,
                 direction: str = "forward", bit_reversed: bool = False) -> None:
        if not 0 <= low <= MASK32:
            raise ValueError("low out of 32-bit range")
        if not TOP <= range_ <= MASK32:
            raise ValueError("range must satisfy 2**24 <= range < 2**32")
        if direction not in ("forward", "backward"):
            raise ValueError(f"bad direction: {direction!r}")
        self.low = low
        self.range = range_
        self.chain = chain if chain is not None else _ByteChain()
        self.direction = direction
        self.bit_reversed = bit_reversed
        self.pending_info = 32.0 - math.log2(range_)
        self.payload_len = len(self.chain)

    def push_renorm_byte(self) -> None:
        """Emit the top byte of low and rescale the interval by 2**8.

        Used by termination when no whole byte step fits in [u, v); the
        rescaled width is capped at the representable maximum, which only
        shrinks the interval and so preserves the decoding guarantee.
        """
        self.chain.push(self.low >> 24)
        self.low = (self.low << 8) & MASK32
        self.range = min(self.range << 8, MASK32)

    def finish(self, value: int) -> bytes:
        """Apply the chosen termination value and return the full stream.

        Values >= 256 fold one addition carry into the byte chain; the
        stored final byte is value mod 256 and is never carry-modified.
        """
        if value >= 256:
            self.chain.carry()
        out = self.chain.flush()
        out.append(value & 0xFF)
        return bytes(out)

    def copy(self) -> "FinalCoderState":
        """Independent copy; intended for use before any termination step."""
        return FinalCoderState(self.low, self.range, self.chain.copy(),
                               self.direction, self.bit_reversed)


class Encoder:
    """Range encoder producing bytes in decode order into an internal chain."""

    __slots__ = ("_low", "_range", "_chain")

    def __init__(self) -> None:
        self._low = 0
        # 2**32 itself is unrepresentable; the 1-ulp deficiency is absorbed
        # by the coder inefficiency bound.
        self._range = MASK32
        self._chain = _ByteChain()

    @property
    def state(self) -> tuple[int, int]:
        return self._low, self._range

    @property
    def payload_len(self) -> int:
        return len(self._chain)

    def chain_value(self) -> tuple[int, int]:
        """(integer of produced bytes, byte count) for invariant checks."""
        return self._chain.value(), len(self._chain)

    def encode_bits(self, model: BinaryModel, bits: Sequence[int]) -> None:
        # deleting the legal values checks bytes ~30x faster than a set does
        if isinstance(bits, (bytes, bytearray)):
            bad = bits.translate(None, b"\x00\x01")
        else:
            bad = set(bits).difference((0, 1))
        if bad:
            raise ValueError("binary models code 0/1 symbols only")
        # hot path: the coder state lives in locals for the whole batch
        p0 = model.p0
        low = self._low
        rng = self._range
        push = self._chain.push
        carry = self._chain.carry
        for bit in bits:
            r0 = (rng >> 16) * p0
            if bit:
                low += r0
                rng -= r0
                if low > MASK32:
                    carry()
                    low -= MASK32 + 1
            else:
                rng = r0
            while rng < TOP:
                push(low >> 24)
                low = (low << 8) & MASK32
                rng <<= 8
        self._low = low
        self._range = rng

    def encode_symbols(self, model: CdfModel, symbols: Sequence[int]) -> None:
        # bytes always fit the 0..255 alphabet; a negative symbol would
        # index the cdf table from its end
        if not isinstance(symbols, (bytes, bytearray)) \
                and set(symbols).difference(range(256)):
            raise ValueError("256-symbol models code 0..255 symbols only")
        cdf = model.cdf
        low = self._low
        rng = self._range
        push = self._chain.push
        carry = self._chain.carry
        for s in symbols:
            r = rng >> 16
            c_lo = cdf[s]
            c_hi = cdf[s + 1]
            if c_hi <= c_lo:
                self._low = low
                self._range = rng
                raise ValueError(f"symbol {s} has zero width in this model")
            base = r * c_lo
            if c_hi == PROB_ONE:
                rng -= base
            else:
                rng = r * (c_hi - c_lo)
            low += base
            if low > MASK32:
                carry()
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
        chain = self._chain
        self._chain = None  # type: ignore[assignment]
        return FinalCoderState(self._low, self._range, chain,
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
        p0 = model.p0
        val = self._val
        rng = self._range
        data = self._data
        end = len(data)
        pos = self._pos
        out = bytearray(count)
        for i in range(count):
            r0 = (rng >> 16) * p0
            if val < r0:
                rng = r0
            else:
                out[i] = 1
                val -= r0
                rng -= r0
            while rng < TOP:
                val = ((val << 8) | (data[pos] if pos < end else 0)) & MASK32
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
