"""Shared helpers for building streams, sources, and fuzz populations."""

from __future__ import annotations

import random

import pytest

from pecstream.bitio import REVERSED_BYTES
from pecstream.container import stream_bytes
from pecstream.rangecoder import BinaryModel, Decoder, Encoder


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


def random_bits(rnd: random.Random, count: int, p_one: float = 0.5) -> bytes:
    return bytes(rnd.random() < p_one for _ in range(count))


def decode_bit_stream(model: BinaryModel, source, count: int) -> bytes:
    return Decoder(source).decode_bits(model, count)


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC0DEC)
