"""Bit-level I/O and small universal codes.

Bits are packed MSB-first within each byte; a final partial byte is
zero-padded on flush, so a blob of n bits occupies ceil(n/8) bytes.
"""

from __future__ import annotations


class TruncatedStreamError(EOFError):
    """A read ran past the end of the available bits."""


#: REVERSED_BYTES[n] has bit i equal to bit 7-i of n (an involution).
REVERSED_BYTES = bytes(
    ((n << 7) & 0x80)
    | ((n << 5) & 0x40)
    | ((n << 3) & 0x20)
    | ((n << 1) & 0x10)
    | ((n >> 1) & 0x08)
    | ((n >> 3) & 0x04)
    | ((n >> 5) & 0x02)
    | ((n >> 7) & 0x01)
    for n in range(256)
)


class BitWriter:
    """Accumulates bits MSB-first into a byte buffer."""

    __slots__ = ("_buf", "_acc", "_nbits")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buf) * 8 + self._nbits

    def write_bits(self, value: int, count: int) -> None:
        """Write the `count` low bits of `value`, most significant first."""
        if count < 0:
            raise ValueError("bit count must be >= 0")
        acc = (self._acc << count) | (value & ((1 << count) - 1))
        nbits = self._nbits + count
        if nbits >= 8:
            # one conversion for every whole byte, so a long run of bits
            # costs time linear in its length
            rest = nbits & 7
            self._buf += (acc >> rest).to_bytes(nbits >> 3, "big")
            acc &= (1 << rest) - 1
            nbits = rest
        self._acc = acc
        self._nbits = nbits

    def getvalue(self) -> bytes:
        """Return the written bits as bytes, zero-padding the last byte."""
        out = bytes(self._buf)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    """Reads bits MSB-first from a byte buffer."""

    __slots__ = ("_data", "_nbits", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._nbits = 8 * len(data)
        self._pos = 0

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def advance(self, count: int = 0) -> tuple[bytes, int]:
        """Move the read position `count` bits on; return (data, position),
        the bytes read from and the new bit position in them.

        For a decoder that reads bits straight from the bytes: it takes the
        position with `advance()`, reads no further than `bits_remaining`
        bits on, and hands back the bits it used with `advance(used)`.
        Raises `TruncatedStreamError` when the advance passes the end and
        `ValueError` on a negative count.
        """
        if count < 0:
            raise ValueError("bit count must be >= 0")
        pos = self._pos + count
        if pos > self._nbits:
            raise TruncatedStreamError("bit source exhausted")
        self._pos = pos
        return self._data, pos

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._nbits:
            raise TruncatedStreamError("bit source exhausted")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, count: int) -> int:
        if count < 0:
            raise ValueError("bit count must be >= 0")
        pos = self._pos
        if pos + count > self._nbits:
            raise TruncatedStreamError("bit source exhausted")
        data = self._data
        value = 0
        remaining = count
        while remaining:
            off = pos & 7
            take = 8 - off
            if take > remaining:
                take = remaining
            chunk = (data[pos >> 3] >> (8 - off - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            remaining -= take
        self._pos = pos
        return value


def bounded_code(value: int, bound: int) -> tuple[int, int]:
    """The bisection codeword of `value` in [0, bound) as (bits, bit count).

    Codeword lengths are floor(log2 bound) or ceil(log2 bound) and the
    codeword set for a given bound is prefix-free and complete: every bit
    string starts with exactly one codeword.
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if not 0 <= value < bound:
        raise ValueError(f"value {value} outside [0, {bound})")
    a, b, m = 0, bound, bound >> 1
    acc = 0
    nbits = 0
    while a != m:
        if value < m:
            acc = (acc << 1) | 1
            b = m
        else:
            acc <<= 1
            a = m
        m = (a + b) >> 1
        nbits += 1
    return acc, nbits


def pack_bounded(value: int, bound: int, sink: BitWriter) -> int:
    """Write the `bounded_code` of `value` in [0, bound); return its length."""
    code, nbits = bounded_code(value, bound)
    sink.write_bits(code, nbits)
    return nbits


def unpack_bounded(bound: int, source: BitReader) -> int:
    """Inverse of pack_bounded for the same bound."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    a, b, m = 0, bound, bound >> 1
    read_bit = source.read_bit
    while a != m:
        if read_bit():
            b = m
        else:
            a = m
        m = (a + b) >> 1
    return m


def elias_gamma_encode(value: int, sink: BitWriter) -> int:
    """Elias-gamma code a positive integer; emits 2*floor(log2 value)+1 bits."""
    if value < 1:
        raise ValueError(f"gamma code requires value >= 1, got {value}")
    width = 2 * value.bit_length() - 1
    sink.write_bits(value, width)
    return width


def elias_gamma_decode(source: BitReader) -> int:
    zeros = 0
    while source.read_bit() == 0:
        zeros += 1
    if zeros == 0:
        return 1
    return (1 << zeros) | source.read_bits(zeros)


def bytes_to_bits(data: bytes) -> bytes:
    """Explode bytes into a sequence of 0/1 values, MSB-first per byte."""
    # imported here: the coder modules import bitio, and numpy's ~0.2 s
    # import would otherwise be paid by every process that never converts
    import numpy as np
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tobytes()


def bits_to_bytes(bits: bytes) -> bytes:
    """Inverse of bytes_to_bits; the bit count must be a multiple of 8.

    Only the low bit of each value counts.
    """
    if len(bits) % 8:
        raise ValueError("bit sequence length must be a multiple of 8")
    import numpy as np
    return np.packbits(np.frombuffer(bits, dtype=np.uint8) & 1).tobytes()
