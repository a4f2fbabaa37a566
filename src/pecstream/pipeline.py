"""Shard-parallel encoding and decoding over the container format.

Symbols are split into N_s near-equal shards, each coded by an independent
coder under the shared static model.  The streams share no coder state, so
a decoder may start all of them at once from the index.  In bidirectional
modes shard 2j becomes the forward stream of segment j and shard 2j+1 the
backward stream, jointly terminated.

Encoding and decoding each have two engines with the same output.  The
scalar engines run one `Encoder` or `Decoder` per stream, one stream after
the other; they are the reference.  The lockstep engines treat the streams
as interleaved lanes (Giesen, "Interleaved entropy coders",
arXiv:1402.3392): each numpy step codes one symbol on every lane.  The
encoder carries into a lane's bytes in place, as the scalar coder does, and
terminates all lanes at once with the array forms of `termination`; the
decoder reads fr backward streams from one bit-reversed copy of the
container.  A step costs about c0 + c1 * lanes and the scalar engines
about c_s * lanes per symbol, so which one is faster depends on the stream
count and not on the stream length; `encode_parallel` and `decode_parallel`
use the lockstep engines from `LOCKSTEP_MIN_STREAMS` streams on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .bitio import REVERSED_BYTES
from .container import (
    ContainerFormatError,
    Header,
    SegmentMap,
    check_layout,
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
    check_alphabet,
    check_bits,
    zero_width_error,
)
from .termination import (
    joint_terminate,
    junction_bytes,
    terminate_single,
    valid_byte_sets,
)


def shard_ranges(n_symbols: int, n_streams: int) -> list[tuple[int, int]]:
    """Floor-split [0, n_symbols) into n_streams near-equal ranges."""
    if n_streams < 1:
        raise ValueError("need at least one stream")
    return [(k * n_symbols // n_streams, (k + 1) * n_symbols // n_streams)
            for k in range(n_streams)]


#: stream count from which both coding directions use the lockstep engines.
#: On a 2-vCPU VM decode broke even near 64 lanes (order0) and 128-256
#: (bernoulli), encode near 128 lanes (bernoulli with 256 symbols per lane:
#: between 256 and 512); at 512 lanes lockstep decoded 2.0-5.2x and encoded
#: 1.1-3.0x faster than the scalar loops
LOCKSTEP_MIN_STREAMS = 512
#: the lockstep engines code at most this many lanes at a time: their arrays
#: stay in cache, and the decode leaves less freed heap behind (all 65536
#: lanes at once decoded 20% slower and kept ~4 MB more resident).  Even, so
#: a forward/backward pair never straddles two blocks
_LOCKSTEP_BLOCK = 8192
#: the lockstep encoder codes fewer lanes at a time where their byte matrix
#: would pass this size; a block's matrix and gathers peak at a few times it
_LOCKSTEP_BYTES = 32 << 20


def encode_parallel(symbols: Sequence[int], model: BinaryModel | CdfModel,
                    n_streams: int, mode: str = "uni",
                    index_codec: str = "rtc") -> bytes:
    """Encode symbols into a container with n_streams independent streams.

    From `LOCKSTEP_MIN_STREAMS` streams on, the numpy lockstep engine codes
    one symbol on every stream per step and terminates all streams at once;
    narrower inputs run one scalar `Encoder` per stream.  Both engines write
    the same container bytes and raise the same `ValueError` for a symbol
    the model cannot code.
    """
    check_layout(mode, index_codec, n_streams)
    if n_streams >= LOCKSTEP_MIN_STREAMS:
        segments = _encode_lockstep(symbols, model, n_streams, mode)
    else:
        segments = _encode_scalar(symbols, model, n_streams, mode)
    return write_container(mode, index_codec, model, n_streams,
                           len(symbols), segments)


def _encode_scalar(symbols: Sequence[int], model: BinaryModel | CdfModel,
                   n_streams: int, mode: str) -> list[bytes]:
    """One `Encoder` per shard, then one termination per stream or pair."""
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
    return segments


def _lane_mask(n_symbols: int, n_lanes: int):
    """Which (lane, step) cells of a lockstep matrix hold a symbol.

    Lane k holds shard k of `shard_ranges`, one symbol per step, so a lane
    is either as long as the longest or one symbol shorter.  None when
    every lane is as long as the longest.
    """
    import numpy as np

    short, extra = divmod(n_symbols, n_lanes)
    if not extra:
        return None
    # shard_ranges' counts: floor((k+1)n/N) - floor(kn/N) is short plus the
    # same difference taken over the remainder, which keeps int64 exact
    counts = short + np.diff(np.arange(n_lanes + 1, dtype=np.int64) * extra
                             // n_lanes)
    return np.arange(short + 1) < counts[:, None]


def _order0_tables(model: CdfModel):
    """(c_lo, width, top) of a `CdfModel` as int64 arrays indexed by symbol.

    top[s] is 1 for the symbol whose interval ends at 65536: besides
    r * width it keeps the rounding remainder rng & 0xFFFF.
    """
    import numpy as np

    cdf = np.asarray(model.cdf, dtype=np.int64)
    c_lo = cdf[:-1]
    return c_lo, cdf[1:] - c_lo, (cdf[1:] == PROB_ONE).astype(np.int64)


def _widths(model: BinaryModel | CdfModel) -> list[int]:
    """Each symbol's width out of `PROB_ONE`; bit 1 is a binary model's top."""
    if isinstance(model, BinaryModel):
        return [model.p0, PROB_ONE - model.p0]
    return model.widths()


def _lane_bytes(lanes, widths: list[int]) -> int:
    """A bound on the bytes any lane emits, plus one: the lockstep width.

    Coding a symbol of width w leaves more than (1 - 2**-8) * w / 65536 of
    a range >= 2**24, which is at most log2(65536 / w) + 0.0057 bits lost.
    Each byte emitted restores 8 bits and the range stays below 2**32, so a
    lane whose symbols lose at most C bits emits at most C / 8 bytes;
    termination adds two more, and `emit` writes one past a lane's length.
    """
    import numpy as np

    w = np.asarray(widths, dtype=np.float64)
    bits = np.log2(PROB_ONE / np.maximum(w, 1)) - math.log2(1 - 2 ** -8)
    # in 1/256 bits, rounded up; a zero-width symbol only pads short lanes
    cost = np.where(w > 0, np.floor(256 * bits) + 1, 0).astype(np.uint16)
    total = np.zeros(len(lanes), dtype=np.int64)
    cols = max(1, (1 << 20) // len(lanes))
    for j in range(0, lanes.shape[1], cols):
        total += cost[lanes[:, j:j + cols]].sum(axis=1, dtype=np.int64)
    return int(total.max()) // 2048 + 3


def _symbol_array(symbols: Sequence[int], model: BinaryModel | CdfModel,
                  n_streams: int):
    """The symbols as a uint8 array, checked before any lane is coded.

    Raises the error the scalar shard loop raises first: for 256-symbol
    models that loop checks each shard's alphabet, then codes it up to a
    zero-width symbol or one the cdf table cannot be indexed with (a
    float).  Inputs that pass the whole-input checks skip the loop.
    """
    import numpy as np

    if isinstance(symbols, (bytes, bytearray)):
        arr = np.frombuffer(symbols, dtype=np.uint8)
    else:
        arr = np.asarray(symbols)
    if isinstance(model, BinaryModel):
        # the scalar coder tests each bit for truth, so 0.0 and 1.0 code too
        check_bits(symbols)
        return arr.astype(np.uint8, copy=False)
    try:
        check_alphabet(symbols)
    except ValueError:
        pass
    else:
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.uint8, copy=False)
            if not (np.asarray(model.widths()) == 0)[arr].any():
                return arr
    cdf = model.cdf
    for start, stop in shard_ranges(len(symbols), n_streams):
        check_alphabet(symbols[start:stop])
        for s in symbols[start:stop]:
            if cdf[s + 1] <= cdf[s]:
                raise zero_width_error(s)
    # every symbol indexed the table: an empty float array, or integers
    # numpy holds as objects
    return arr.astype(np.uint8)


def _carry_lanes(flat, last, first) -> None:
    """`_carry` on many lanes at once, in place.

    flat is a flattened byte matrix and lane i's bytes run from flat[first[i]]
    to flat[last[i]].  Each lane's trailing 0xFF run becomes zeros and the
    byte before it absorbs the carry; a carry that would run past a lane's
    first byte raises `AssertionError`, as `_carry` does.
    """
    while len(last):
        if (last < first).any():
            raise AssertionError("carry cannot ripple past the first byte")
        ripple = flat[last] == 0xFF
        flat[last] += 1
        last, first = last[ripple] - 1, first[ripple]


def _encode_lockstep(symbols: Sequence[int], model: BinaryModel | CdfModel,
                     n_streams: int, mode: str) -> list[bytes]:
    """Encode all shards at once, one symbol on every shard per step.

    Each shard is a lane holding the `Encoder` state (low, range) as int64
    and its bytes as one row of a uint8 matrix with a length per lane; the
    matrix is as wide as `_lane_bytes` bounds the longest lane from its
    symbols' costs.  A carry out of low, or a termination value >= 256, goes
    into the lane's bytes as it happens, through `_carry_lanes`.  Lanes are
    coded in blocks of at most `_LOCKSTEP_BLOCK` lanes and `_LOCKSTEP_BYTES`
    matrix bytes, each block for all steps, then terminated with
    `valid_byte_sets` and `junction_bytes` and gathered into their segments.
    """
    # imported here: importing the pipeline must not load numpy (~0.2 s)
    import numpy as np

    arr = _symbol_array(symbols, model, n_streams)
    mask = _lane_mask(len(arr), n_streams)
    steps = -(-len(arr) // n_streams)
    if mask is None:
        lanes = arr.reshape(n_streams, steps)
    else:
        lanes = np.zeros(mask.shape, dtype=np.uint8)
        lanes[mask] = arr
    binary = isinstance(model, BinaryModel)
    if binary:
        p0 = model.p0
    else:
        c_lo, width, top = _order0_tables(model)
    width_bytes = _lane_bytes(lanes, _widths(model))
    # an even lane count, so a forward/backward pair shares its block
    block_lanes = max(2, min(_LOCKSTEP_BLOCK, _LOCKSTEP_BYTES // width_bytes)
                      // 2 * 2)
    cols = np.arange(width_bytes)
    reverse = np.frombuffer(REVERSED_BYTES, dtype=np.uint8)
    perm = reverse if mode == "fr" else np.arange(256)
    segments: list[bytes] = []

    for first in range(0, n_streams, block_lanes):
        block = lanes[first:first + block_lanes]
        n = len(block)
        out = np.empty((n, width_bytes), dtype=np.uint8)
        flat = out.reshape(-1)
        row = np.arange(n) * width_bytes
        length = np.zeros(n, dtype=np.int64)
        low = np.zeros(n, dtype=np.int64)
        rng = np.full(n, MASK32, dtype=np.int64)

        def emit(byte):
            """Write byte at each lane's length; only a lane whose length
            then grows keeps it, a later byte overwrites the rest."""
            flat[row + length] = byte

        # masks enter as 0/1 factors: np.where costs several multiplies
        for i in range(steps):
            if binary:
                bit = block[:, i].astype(np.int64)
                r0 = (rng >> 16) * p0
                low += r0 * bit
                new = r0 + (rng - r0 - r0) * bit
            else:
                # intp indices gather faster
                s = block[:, i].astype(np.intp)
                r = rng >> 16
                low += r * c_lo[s]
                new = r * width[s] + (rng & 0xFFFF) * top[s]
            if mask is not None and i == steps - 1:
                # a lane one symbol short codes nothing here; its padding
                # symbol is 0, whose c_lo and bit add nothing to low
                new = rng + (new - rng) * mask[first:first + n, i]
            rng = new
            hit = np.flatnonzero(low >> 32)
            if len(hit):
                _carry_lanes(flat, row[hit] + length[hit] - 1, row[hit])
                low &= MASK32
            # every symbol leaves range >= 2**8, so two rounds restore 2**24
            for _ in range(2):
                need = rng < TOP
                if not need.any():
                    break
                emit(low >> 24)
                scale = 1 + 255 * need
                low = (low * scale) & MASK32
                rng *= scale
                length += need

        set_lo, set_hi, appended, _, _ = valid_byte_sets(low, rng)
        emit(low >> 24)
        length += appended - 1
        value = set_lo
        if mode != "uni":
            # a pair's junction z gives each side U + ((its byte - U) mod
            # 256); without one, z is U's own byte and the value U
            z = junction_bytes(set_lo[0::2], set_hi[0::2],
                               set_lo[1::2], set_hi[1::2], mode)
            shared = z >= 0
            byte = np.empty(n, dtype=np.int64)
            byte[0::2] = np.where(shared, z, set_lo[0::2])
            byte[1::2] = np.where(shared, perm[z], set_lo[1::2])
            value = set_lo + ((byte - set_lo) & 0xFF)
        hit = np.flatnonzero(value >> 8)
        _carry_lanes(flat, row[hit] + length[hit] - 1, row[hit])
        emit(value & 0xFF)
        length += 1
        if length.max() >= width_bytes:
            raise AssertionError("a lane outgrew its byte bound")

        if mode == "uni":
            keep, sizes = cols < length[:, None], length
        else:
            # with each backward row reversed in place, a segment is its
            # pair's two rows read as one; the junction is stored once, as
            # the forward side's last byte
            fwd_len, bwd_len = length[0::2], length[1::2] - shared
            bwd = out[1::2, ::-1]
            out[1::2] = reverse[bwd] if mode == "fr" else bwd
            out = out.reshape(n // 2, 2 * width_bytes)
            keep = np.empty(out.shape, dtype=bool)
            np.less(cols, fwd_len[:, None], out=keep[:, :width_bytes])
            np.less(cols[::-1], bwd_len[:, None], out=keep[:, width_bytes:])
            sizes = fwd_len + bwd_len
        data = out[keep].tobytes()
        ends = np.cumsum(sizes).tolist()
        segments += [data[start:stop] for start, stop in zip([0] + ends, ends)]
    return segments


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


def _min_cost_bits(model: BinaryModel | CdfModel) -> float:
    """A lower bound above 0 on the bits that coding any one symbol costs.

    A symbol of width w takes at most w/65536 of the range.  The top symbol
    also keeps the remainder m = rng & 0xFFFF of a range 65536 * r + m with
    r >= 2**8, so m < 256 * r and its share (w * r + m) / (65536 * r + m)
    stays below (w + 256)/(65536 + 256).  Every width is below 65536, so
    every share is below 1.
    """
    widths = _widths(model)
    top = max(s for s, w in enumerate(widths) if w)
    rest = max(w for s, w in enumerate(widths) if s != top)
    share = max(Fraction(widths[top] + 256, PROB_ONE + 256),
                Fraction(rest, PROB_ONE))
    # -log2(share) as log1p of an exact ratio keeps its relative error near
    # one ulp even for a share next to 1; rounded down, so that error cannot
    # refuse a count the coder can reach
    gap = share.denominator - share.numerator
    return math.log1p(gap / share.numerator) / math.log(2) * (1 - 2 ** -40)


def decode_parallel(blob: bytes) -> bytes:
    """Decode a container back to its symbol sequence (one byte per symbol).

    A container with at least `LOCKSTEP_MIN_STREAMS` streams is decoded by
    the numpy lockstep engine, which advances every stream by one symbol per
    step; narrower containers run one scalar `Decoder` per stream.  Both
    engines return the same bytes for every container `read_container`
    accepts.

    A stream of b bytes holds symbols costing less than 8 * (b + 1) bits
    (its range never falls below 2**24), so a symbol count that the data
    region cannot hold at the model's cheapest symbol raises
    `ContainerFormatError` before anything is decoded.
    """
    header, seg_map = read_container(blob)
    budget_bits = 8 * (header.data_size + 5 * header.n_streams)
    if header.n_symbols * _min_cost_bits(header.model) > budget_bits:
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
    the segment start upwards (forward) or from its end downwards (backward;
    in fr mode from a bit-reversed copy of `blob` made once), and 0x00 at
    and past the segment length.  Lanes whose shard is one symbol short of
    the longest decode one symbol too many; the reassembly drops it.  Lanes
    are decoded in blocks of `_LOCKSTEP_BLOCK`, each block for all steps.
    """
    # imported here: importing the pipeline must not load numpy (~0.2 s)
    import numpy as np

    n_lanes = header.n_streams
    n_symbols = header.n_symbols
    steps = -(-n_symbols // n_lanes)
    if steps == 0:
        return b""
    fr = header.mode == "fr"
    # fr backward lanes read a bit-reversed copy placed after the blob
    data = np.frombuffer(blob + blob.translate(REVERSED_BYTES) if fr else blob,
                         dtype=np.uint8)
    bounds = np.asarray(seg_map.boundaries, dtype=np.int64) + seg_map.data_offset
    model = header.model
    binary = isinstance(model, BinaryModel)
    if binary:
        p0 = model.p0
    else:
        c_lo, width, top = _order0_tables(model)
        # lookup[t] is the symbol bisect_right(cdf, t) - 1 picks for target
        # t: the one whose nonempty [cdf[s], cdf[s + 1]) holds t
        lookup = np.repeat(np.arange(256, dtype=np.uint8), width)
    out = np.empty((n_lanes, steps), dtype=np.uint8)

    for first in range(0, n_lanes, _LOCKSTEP_BLOCK):
        lane = np.arange(first, min(first + _LOCKSTEP_BLOCK, n_lanes))
        block = out[first:first + len(lane)]
        # byte fetch: lane k reads data[base[k] + step[k] * pos[k]] while
        # pos[k] < length[k]; lanes are laid out as stream_layout lists the
        # streams
        if header.mode == "uni":
            seg, backward = lane, np.zeros(len(lane), dtype=bool)
        else:
            seg, backward = lane >> 1, (lane & 1).astype(bool)
        length = bounds[seg + 1] - bounds[seg]
        base = np.where(backward, bounds[seg + 1] - 1 + fr * len(blob),
                        bounds[seg])
        step = np.where(backward, -1, 1)

        def fetch(pos, wanted):
            """Each wanted lane's byte at pos, 0x00 on every other lane."""
            inside = wanted & (pos < length)
            return data[(base + step * pos) * inside] * inside

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

    mask = _lane_mask(n_symbols, n_lanes)
    return out.tobytes() if mask is None else out[mask].tobytes()
