"""Shared helpers for building streams, sources, and fuzz populations."""

from __future__ import annotations

import random

import pytest

from pecstream.bitio import REVERSED_BYTES
from pecstream.container import stream_bytes
from pecstream.rangecoder import (
    MASK32,
    TOP,
    BinaryModel,
    Decoder,
    Encoder,
    FinalCoderState,
)


def forward_source(stream: bytes, continuation: bytes = b"\x00" * 8) -> bytes:
    """Decoder input: the stream bytes, then the continuation."""
    return stream + continuation


def backward_source(produced: bytes, continuation: bytes = b"\x00" * 8,
                    bit_reversed: bool = False) -> bytes:
    """Decoder input for a backward stream given its bytes in produced order.

    The stream is laid out as the container would store it (reversed, with
    bit-reversed bytes in fr mode) and turned back into decode order by
    `stream_bytes`; the continuation sits before it in storage, i.e. is read
    after the stream.
    """
    stored = produced
    if bit_reversed:
        stored = stored.translate(REVERSED_BYTES)
    buf = continuation + stored[::-1]
    return stream_bytes(buf, "backward", bit_reversed)


def encode_bit_stream(model: BinaryModel, bits: bytes, direction: str = "forward",
                      bit_reversed: bool = False):
    enc = Encoder()
    enc.encode_bits(model, bits)
    return enc.finalize(direction=direction, bit_reversed=bit_reversed)


def copy_state(state: FinalCoderState) -> FinalCoderState:
    """An independent copy of a final state that no termination has used."""
    return FinalCoderState(state.low, state.range, bytearray(state.chain),
                           state.direction)


def random_bits(rnd: random.Random, count: int, p_one: float = 0.5) -> bytes:
    return bytes(rnd.random() < p_one for _ in range(count))


def decode_bit_stream(model: BinaryModel, source, count: int) -> bytes:
    return Decoder(source).decode_bits(model, count)


def plain_encode_bits(enc: Encoder, model: BinaryModel, bits) -> None:
    """`Encoder.encode_bits` one bit at a time, with no run tables: the
    reference for the bytes it writes and the state it leaves in enc."""
    p0 = model.p0
    for bit in bits:
        r0 = (enc._range >> 16) * p0
        if bit:
            enc._low += r0
            enc._range -= r0
            if enc._low > MASK32:
                # add the carry to the bytes written so far as one integer
                size = len(enc._out)
                enc._out[:] = (int.from_bytes(enc._out, "big") + 1).to_bytes(
                    size, "big")
                enc._low -= MASK32 + 1
        else:
            enc._range = r0
        while enc._range < TOP:
            enc._out.append(enc._low >> 24)
            enc._low = (enc._low << 8) & MASK32
            enc._range <<= 8


def plain_decode_bits(dec: Decoder, model: BinaryModel, count: int) -> bytes:
    """`Decoder.decode_bits` one bit at a time, with no run table: the
    reference for its output and for the state it leaves in dec."""
    p0 = model.p0
    out = bytearray(count)
    for i in range(count):
        r0 = (dec._range >> 16) * p0
        if dec._val < r0:
            dec._range = r0
        else:
            out[i] = 1
            dec._val -= r0
            dec._range -= r0
        while dec._range < TOP:
            byte = dec._data[dec._pos] if dec._pos < len(dec._data) else 0
            dec._val = ((dec._val << 8) | byte) & MASK32
            dec._pos += 1
            dec._range <<= 8
    return bytes(out)


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC0DEC)
