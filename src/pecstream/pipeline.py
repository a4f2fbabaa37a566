"""Shard-parallel encoding and decoding over the container format.

Symbols are split into N_s near-equal shards, each coded by an independent
coder under the shared static model.  The streams share no coder state, so
a decoder may start all of them at once from the index.  In bidirectional
modes shard 2j becomes the forward stream of segment j and shard 2j+1 the
backward stream, jointly terminated.
"""

from __future__ import annotations

from typing import Sequence

from .bitio import REVERSED_BYTES
from .container import (
    MAX_STREAMS,
    MODES,
    ContainerFormatError,
    Header,
    read_container,
    segment_source,
    write_container,
)
from .rangecoder import BinaryModel, CdfModel, Decoder, Encoder
from .termination import joint_terminate, terminate_single


def shard_ranges(n_symbols: int, n_streams: int) -> list[tuple[int, int]]:
    """Floor-split [0, n_symbols) into n_streams near-equal ranges."""
    if n_streams < 1:
        raise ValueError("need at least one stream")
    return [(k * n_symbols // n_streams, (k + 1) * n_symbols // n_streams)
            for k in range(n_streams)]


def encode_parallel(symbols: Sequence[int], model: BinaryModel | CdfModel,
                    n_streams: int, mode: str = "uni",
                    index_codec: str = "rtc") -> bytes:
    """Encode symbols into a container with n_streams independent streams."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if not 1 <= n_streams <= MAX_STREAMS:
        raise ValueError(f"stream count must be in [1, {MAX_STREAMS}]")
    if mode != "uni" and n_streams % 2:
        raise ValueError("bidirectional modes need an even stream count")
    binary = isinstance(model, BinaryModel)
    encoders = []
    for start, stop in shard_ranges(len(symbols), n_streams):
        enc = Encoder()
        if binary:
            enc.encode_bits(model, symbols[start:stop])
        else:
            enc.encode_symbols(model, symbols[start:stop])
        encoders.append(enc)

    segments: list[bytes] = []
    if mode == "uni":
        for enc in encoders:
            term = terminate_single(enc.finalize())
            segments.append(term.data)
    else:
        reversed_bits = mode == "fr"
        for j in range(0, n_streams, 2):
            fwd_state = encoders[j].finalize(direction="forward")
            bwd_state = encoders[j + 1].finalize(direction="backward",
                                                 bit_reversed=reversed_bits)
            term = joint_terminate(fwd_state, bwd_state, mode)
            bwd = term.bwd_data
            if reversed_bits:
                bwd = bwd.translate(REVERSED_BYTES)
            segments.append(term.fwd_data + bwd[::-1])

    return write_container(mode, index_codec, model, n_streams,
                           len(symbols), segments)


def stream_layout(header: Header) -> list[tuple[int, str, bool]]:
    """Per-stream (segment, direction, bit_reversed) in shard order."""
    out = []
    for k in range(header.n_streams):
        if header.mode == "uni":
            out.append((k, "forward", False))
        else:
            backward = bool(k & 1)
            out.append((k // 2, "backward" if backward else "forward",
                        backward and header.mode == "fr"))
    return out


#: a symbol costs at least -log2(1 - 2**-16) bits, so one stream byte can
#: never carry more than ~364k symbols; used to reject impossible headers
_MAX_SYMBOLS_PER_BYTE = 364_000


def decode_parallel(blob: bytes) -> bytes:
    """Decode a container back to its symbol sequence (one byte per symbol)."""
    header, seg_map = read_container(blob)
    budget = (header.data_size + 5 * header.n_streams) * _MAX_SYMBOLS_PER_BYTE
    if header.n_symbols > budget:
        raise ContainerFormatError(
            f"symbol count {header.n_symbols} impossible for {header.data_size} "
            f"data bytes")
    model = header.model
    binary = isinstance(model, BinaryModel)
    out = bytearray(header.n_symbols)
    for (start, stop), (seg, direction, reversed_bits) in zip(
            shard_ranges(header.n_symbols, header.n_streams),
            stream_layout(header)):
        dec = Decoder(segment_source(blob, seg_map, seg, direction, reversed_bits))
        if binary:
            out[start:stop] = dec.decode_bits(model, stop - start)
        else:
            out[start:stop] = dec.decode_symbols(model, stop - start)
    return bytes(out)
