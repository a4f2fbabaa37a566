"""Shard-parallel encoding and decoding over the container format.

Symbols are split into N_s near-equal shards, each coded by an independent
coder under the shared static model.  The streams share no coder state, so
a decoder may start all of them at once from the index.  In bidirectional
modes shard 2j becomes the forward stream of segment j and shard 2j+1 the
backward stream, jointly terminated.

Decoding has two engines with the same output.  The scalar engine runs one
`Decoder` per stream, one stream after the other; it is the reference.  The
lockstep engine treats the streams as interleaved lanes (Giesen,
"Interleaved entropy coders", arXiv:1402.3392): each numpy step decodes one
symbol on every lane.  A step costs about c0 + c1 * lanes and the scalar
engine about c_s * lanes per symbol, so which one is faster depends on the
stream count and not on the stream length; `decode_parallel` uses the
lockstep engine from `LOCKSTEP_MIN_STREAMS` streams on.
"""

from __future__ import annotations

from typing import Sequence

from .bitio import REVERSED_BYTES
from .container import (
    MAX_STREAMS,
    MODES,
    ContainerFormatError,
    Header,
    SegmentMap,
    read_container,
    segment_source,
    write_container,
)
from .rangecoder import (
    MASK32,
    PROB_ONE,
    TOP,
    BinaryModel,
    CdfModel,
    Decoder,
    Encoder,
)
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


#: stream count from which decode_parallel uses the lockstep engine; on a
#: 2-vCPU VM order0 broke even near 64 lanes and bernoulli near 128-256,
#: and at 512 lanes lockstep was 2.0-5.2x faster than the scalar loop
LOCKSTEP_MIN_STREAMS = 512
#: the lockstep engine decodes at most this many lanes at a time: their
#: arrays stay in cache, and the decode leaves less freed heap behind (all
#: 65536 lanes at once decoded 20% slower and kept ~4 MB more resident)
_LOCKSTEP_BLOCK = 8192


def decode_parallel(blob: bytes) -> bytes:
    """Decode a container back to its symbol sequence (one byte per symbol).

    A container with at least `LOCKSTEP_MIN_STREAMS` streams is decoded by
    the numpy lockstep engine, which advances every stream by one symbol per
    step; narrower containers run one scalar `Decoder` per stream.  Both
    engines return the same bytes for every container `read_container`
    accepts.
    """
    header, seg_map = read_container(blob)
    budget = (header.data_size + 5 * header.n_streams) * _MAX_SYMBOLS_PER_BYTE
    if header.n_symbols > budget:
        raise ContainerFormatError(
            f"symbol count {header.n_symbols} impossible for {header.data_size} "
            f"data bytes")
    if header.n_streams >= LOCKSTEP_MIN_STREAMS:
        return _decode_lockstep(blob, header, seg_map)
    return _decode_scalar(blob, header, seg_map)


def _decode_scalar(blob: bytes, header: Header, seg_map: SegmentMap) -> bytes:
    """One `Decoder` per stream, one stream after the other."""
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


def _decode_lockstep(blob: bytes, header: Header, seg_map: SegmentMap) -> bytes:
    """Decode all streams at once, one symbol on every stream per step.

    Each stream is a lane holding the `Decoder` state (val, range, read
    position) as int64.  A lane reads its segment straight from `blob`: from
    the segment start upwards (forward) or from its end downwards (backward,
    through the bit-reversal table in fr mode), and 0x00 at and past the
    segment length.  Lanes whose shard is one symbol short of the longest
    decode one symbol too many; the reassembly drops it.  Lanes are decoded
    in blocks of `_LOCKSTEP_BLOCK`, each block for all steps.
    """
    # imported here: importing the pipeline must not load numpy (~0.2 s)
    import numpy as np

    n_lanes = header.n_streams
    n_symbols = header.n_symbols
    steps = -(-n_symbols // n_lanes)
    if steps == 0:
        return b""
    data = np.frombuffer(blob, dtype=np.uint8)
    bounds = np.asarray(seg_map.boundaries, dtype=np.int64) + seg_map.data_offset
    table = np.frombuffer(bytes(range(256)) + REVERSED_BYTES, dtype=np.uint8)
    model = header.model
    binary = isinstance(model, BinaryModel)
    if binary:
        p0 = model.p0
    else:
        # lookup[t] is the symbol bisect_right(cdf, t) - 1 picks for target
        # t: the one whose nonempty [cdf[s], cdf[s + 1]) holds t
        cdf = np.asarray(model.cdf, dtype=np.int64)
        lookup = np.repeat(np.arange(256, dtype=np.uint8), np.diff(cdf))
        c_lo = cdf[:-1]
        width = cdf[1:] - c_lo
        # the top symbol also keeps the rounding remainder rng & 0xFFFF
        top = (cdf[1:] == PROB_ONE).astype(np.int64)
    out = np.empty((n_lanes, steps), dtype=np.uint8)

    for first in range(0, n_lanes, _LOCKSTEP_BLOCK):
        lane = np.arange(first, min(first + _LOCKSTEP_BLOCK, n_lanes))
        block = out[first:first + len(lane)]
        # byte fetch: lane k reads data[base[k] + step[k] * pos[k]] while
        # pos[k] < length[k], mapped through table[offset[k]:offset[k] + 256];
        # lanes are laid out as stream_layout lists the streams
        if header.mode == "uni":
            seg, backward = lane, np.zeros(len(lane), dtype=bool)
        else:
            seg, backward = lane >> 1, (lane & 1).astype(bool)
        length = bounds[seg + 1] - bounds[seg]
        base = np.where(backward, bounds[seg + 1] - 1, bounds[seg])
        step = np.where(backward, -1, 1)
        offset = 256 * backward if header.mode == "fr" else np.zeros_like(lane)

        def fetch(pos, wanted):
            """Each wanted lane's byte at pos, 0x00 on every other lane."""
            inside = wanted & (pos < length)
            return table[offset + data[(base + step * pos) * inside]] * inside

        val = np.zeros(len(lane), dtype=np.int64)
        for pos in range(4):
            val = (val << 8) | fetch(np.full(len(lane), pos), True)
        rng = np.full(len(lane), MASK32, dtype=np.int64)
        pos = np.full(len(lane), 4, dtype=np.int64)
        # masks enter as 0/1 factors: np.where costs several multiplies
        for i in range(steps):
            if binary:
                r0 = (rng >> 16) * p0
                one = val >= r0
                val -= r0 * one
                rng = r0 + (rng - r0 - r0) * one
                block[:, i] = one
            else:
                r = rng >> 16
                # a uint8 table is 8x smaller; intp indices gather faster
                s = lookup[np.minimum(val // r, PROB_ONE - 1)].astype(np.intp)
                val -= r * c_lo[s]
                rng = r * width[s] + (rng & 0xFFFF) * top[s]
                block[:, i] = s
            # every symbol leaves range >= 2**8, so two rounds restore 2**24
            for _ in range(2):
                low = rng < TOP
                if not low.any():
                    break
                scale = 1 + 255 * low
                val = (val * scale + fetch(pos, low)) & MASK32
                rng *= scale
                pos += low

    short, extra = divmod(n_symbols, n_lanes)
    if not extra:
        return out.tobytes()
    # shard_ranges' counts: floor((k+1)n/N) - floor(kn/N) is short plus the
    # same difference taken over the remainder, which keeps int64 exact
    counts = short + np.diff(np.arange(n_lanes + 1, dtype=np.int64) * extra
                             // n_lanes)
    return out[np.arange(steps) < counts[:, None]].tobytes()
