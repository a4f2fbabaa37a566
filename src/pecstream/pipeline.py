"""Shard-parallel encoding and decoding over the container format.

Symbols are split into N_s near-equal shards, each coded by an independent
coder under the shared static model.  The streams share no coder state, so
a decoder may start all of them at once from the index.  In bidirectional
modes shard 2j becomes the forward stream of segment j and shard 2j+1 the
backward stream, jointly terminated.

Encoding and decoding each have two engines with the same output.  The
scalar engines run one `Encoder` or `Decoder` per stream in one pass, each
stream or forward/backward pair finished before the next starts in each
process; they are the reference.  The lockstep engines
treat the streams as interleaved lanes (Giesen, "Interleaved entropy
coders", arXiv:1402.3392): each numpy step codes one symbol on every lane
with the array forms of `rangecoder` on uint32 lane state, which moves each
lane's 0-2 bytes in one renormalization step.  The encoder carries into a
lane's bytes in place, in rows that start at the model's bound on a lane,
or at a cap where that is too wide, and widen as the lanes fill them, and
terminates all lanes at once with the array forms of `termination`; the
decoder's backward lanes read upward through one reversed copy of the
container (bit-reversed in fr).
A step costs about c0 + c1 * lanes and the scalar engines about
c_s * lanes per symbol, so which one is faster depends on the stream count
and not on the stream length; `encode_parallel` and `decode_parallel` use
the lockstep engines from `LOCKSTEP_MIN_STREAMS` on.
`encode_parallel` reads its input as bytes through `check_symbols` before
either engine runs (bytes as they are, integer or bool arrays in the
alphabet as their bytes, other iterables of integers once), so an input's
error does not depend on the stream count.

The scalar engines split their streams into contiguous blocks, one per CPU
that `os.sched_getaffinity` allows: whole streams or forward/backward pairs
when encoding, streams when decoding.  The caller codes the first block and
a forked child each other one, and the blocks' bytes are joined in stream
order, so the output is the one a single process writes.  Every process
gets at least `_FORK_MIN_SYMBOLS` symbols, the measured point where a child
pays for its fork.  Coding stays in the calling process on one CPU, where
`os.fork` is missing, below that floor, and on Python 3.12 or later in a
process with other threads, where forking warns.  numpy starts its BLAS
thread pool on import, which `pecstream encode --model bernoulli:P` does;
`OPENBLAS_NUM_THREADS=1` keeps that pool to the calling thread and so
keeps the forked blocks.  On a 2-vCPU VM two
processes took the benchmark's bits-8 workload (8 fb streams) from 0.82 to
1.44 MB/s decoding and from 0.92 to 1.64 MB/s encoding.  Under a skewed
binary model an `Encoder` codes and a `Decoder` decodes up to eight zeros
with one lookup in run tables that the caller builds before it forks,
which took bits-8 decoding from 1.46 to 2.08 MB/s and encoding from 1.69
to 2.45 MB/s.  The lockstep engines never fork: on 65536 streams, two
processes decoded 0.84x as fast as one, since the container parse stays
serial and each block is only a few steps long.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from fractions import Fraction
from typing import Callable, Iterable

from .bitio import REVERSED_BYTES
from .container import (
    ContainerFormatError,
    Header,
    SegmentMap,
    assemble_container,
    check_layout,
    read_container,
    segment_source,
    stream_bytes,
)
from .rangecoder import (
    MASK32,
    PROB_ONE,
    BinaryModel,
    CdfModel,
    Decoder,
    Encoder,
    _zero_runs,
    carry_lanes,
    cdf_tables,
    check_symbols,
    pick_bits,
    pick_symbols,
    renormalize,
    split_bits,
    split_symbols,
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
#: On a 2-vCPU VM (ms, the scalar engines in 2 processes / lockstep, fr),
#: 1 MiB of order0 data encoded in 307/359 at 128 streams, 236/131 at 256
#: and 310/127 at 512, and decoded in 548/322, 477/160 and 511/118; 256
#: Kbit of Bernoulli(0.1) bits encoded in 20/46 at 256 streams, 21/28 at
#: 512 and 24/16 at 1024, and decoded in 22/39, 25/25 and 24/14
LOCKSTEP_MIN_STREAMS = 512
#: the lockstep engines code this many lanes at a time: their arrays stay
#: in cache, and the decode leaves less freed heap behind (all 65536 lanes
#: at once decoded 20% slower and kept ~4 MB more resident).  Even, so a
#: forward/backward pair never straddles two blocks
_LOCKSTEP_BLOCK = 8192
#: the start cap of the lockstep encoder's rows: a block's rows start at
#: the model's bound on a lane (`_lane_bytes`), or at this size over its
#: lanes (at least 16 bytes) where that is narrower, and widen as the lanes
#: fill them.  Under a width-1 symbol the bound is two bytes a step, where
#: text fills about 0.5; on a 2-vCPU VM (2 MiB L2 a core) rows that wide
#: ran 0.91-1.00x as fast as rows sized to the lanes at matrices of 0.5-2
#: MiB, and 15 MiB of such text peaked 23 MiB higher.  Rows started at this
#: cap ran 1.09-1.12x as fast as a pass summing each lane's symbol costs on
#: 1-4 MiB of width-1 symbols at 8192 lanes, and 1.00-1.01x on 1 MiB of
#: mixed data at 512 and 513 lanes
_MODEL_ROWS_BYTES = 256 << 10


#: symbols each process of a scalar engine must get.  On a 2-vCPU VM, with
#: numpy loaded, forking and reaping a child took 1.5-3.3 ms and the
#: caller's own block ran slower after the fork; two processes broke even
#: on Bernoulli bits at about twice this many symbols, where order0 already
#: ran 1.4x faster.  Decoding Bernoulli(0.1) bits through the run table
#: (8 fb streams), two processes ran 0.75x one at 2**15 symbols, 1.05-1.07x
#: at 2**16 and 1.35x at 2**17
_FORK_MIN_SYMBOLS = 1 << 15
#: from Python 3.12 on, `os.fork` in a process with more than one thread
#: raises a DeprecationWarning
_FORK_WARNS = sys.version_info >= (3, 12)


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where affinity cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _thread_count() -> int:
    """Threads of this process, those of native libraries included."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _processes(n_symbols: int, n_blocks: int) -> int:
    """How many processes code n_symbols split into at most n_blocks blocks.

    One per CPU, capped by the blocks and by `_FORK_MIN_SYMBOLS` a process.
    1, coding in this process, where `os.fork` is missing, and on Python
    3.12 or later in a process with other threads, where forking warns.
    """
    count = min(_cpu_count(), n_blocks)
    if count * _FORK_MIN_SYMBOLS > n_symbols:
        count = n_symbols // _FORK_MIN_SYMBOLS
    if count < 2 or not hasattr(os, "fork") or (
            _FORK_WARNS and _thread_count() > 1):
        return 1
    return count


def _fork_map(fn: Callable, blocks: list) -> list:
    """[fn(block) for block in blocks], every block but the first coded in a
    forked child.

    A child inherits the caller's memory, so fn and its data are not
    copied; it sends back its pickled result, or the exception fn raised,
    through a pipe and ends with `os._exit`.  This process codes the first
    block itself, then reads the pipes in order.  A child's exception is
    raised here with its type and message.  Every child is reaped before
    this returns or raises; after an error, the children still running are
    killed first.
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    done = False
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(fn, block, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [fn(blocks[0])]
        for pid, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            if not payload:
                raise ChildProcessError(f"worker process {pid} died")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
        done = True
        return results
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            if not done:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            os.waitpid(pid, 0)


def _run_child(fn: Callable, block, write_fd: int) -> None:
    """Send (True, fn(block)) or (False, its exception) down write_fd and
    end the process without returning to the caller's code."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, fn(block)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)
            except BaseException:
                payload = pickle.dumps((False, RuntimeError(
                    f"{type(exc).__name__}: {exc}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def encode_parallel(symbols: Iterable[int], model: BinaryModel | CdfModel,
                    n_streams: int, mode: str = "uni",
                    index_codec: str = "rtc") -> bytes:
    """Encode symbols into a container with n_streams independent streams.

    From `LOCKSTEP_MIN_STREAMS` streams on, the numpy lockstep engine codes
    one symbol on every stream per step and terminates all streams at once;
    narrower inputs run one scalar `Encoder` per stream, in blocks of pairs
    or streams spread over forked processes (see the module docstring).
    Both engines write the same container bytes.  Before either runs,
    `check_symbols` reads symbols as bytes: bytes or a bytearray as they
    are, an integer or bool array within the alphabet as its bytes, any
    other iterable of integers once.  So an input the model cannot code
    raises the same error at every stream count.
    """
    check_layout(mode, index_codec, n_streams)
    symbols = check_symbols(model, symbols)
    encode = (_encode_lockstep if n_streams >= LOCKSTEP_MIN_STREAMS
              else _encode_scalar)
    sizes, region = encode(symbols, model, n_streams, mode)
    return assemble_container(mode, index_codec, model, n_streams,
                              len(symbols), sizes, region)


def _scalar_map(fn: Callable, work: list, unit: int, n_symbols: int,
                model: BinaryModel | CdfModel) -> list:
    """fn over contiguous blocks of work, in order, one block per process
    of `_processes`; every block holds whole units of `unit` items."""
    units = len(work) // unit
    blocks = [work[unit * a:unit * b] for a, b in
              shard_ranges(units, _processes(n_symbols, units))]
    if isinstance(model, BinaryModel):
        # built here, so forked children inherit it and build none
        _zero_runs(model.p0)
    return _fork_map(fn, blocks)


def _encode_scalar(symbols: bytes, model: BinaryModel | CdfModel,
                   n_streams: int, mode: str) -> tuple[list[int], bytes]:
    """One `Encoder` per stream, each stream (uni) or forward/backward pair
    coded, finalized and terminated before the next starts, in blocks
    through `_scalar_map`; returns the segment sizes and the joined region,
    as `_encode_lockstep`."""
    code = (Encoder.encode_bits if isinstance(model, BinaryModel)
            else Encoder.encode_symbols)

    def final(start: int, stop: int, direction: str = "forward"):
        enc = Encoder()
        code(enc, model, symbols[start:stop])
        return enc.finalize(direction=direction)

    def segments(block: list[tuple[int, int]]) -> list[bytes]:
        if mode == "uni":
            return [terminate_single(final(*shard)).data for shard in block]
        pairs = (joint_terminate(final(*fwd), final(*bwd, "backward"), mode)
                 for fwd, bwd in zip(block[0::2], block[1::2]))
        return [term.fwd_data + stream_bytes(term.bwd_data, "backward",
                                             mode == "fr") for term in pairs]

    parts = _scalar_map(segments, shard_ranges(len(symbols), n_streams),
                        1 if mode == "uni" else 2, len(symbols), model)
    joined = [segment for part in parts for segment in part]
    return [len(segment) for segment in joined], b"".join(joined)


def _short_lanes(n_symbols: int, n_lanes: int):
    """Which lockstep lanes are one symbol shorter than the longest, as a
    boolean vector, and the end of each one's shard.

    Lane k holds shard k of `shard_ranges`, one symbol per step, so a lane
    is either as long as the longest or one symbol shorter.  The shard ends
    at floor((k+1)n/N) = (k+1)(n // N) + floor((k+1)(n % N)/N); the second
    form keeps int64 exact where (k+1)n would not be.
    """
    import numpy as np

    short, extra = divmod(n_symbols, n_lanes)
    if not extra:
        # every lane holds n // N
        return np.zeros(n_lanes, dtype=bool), np.zeros(0, dtype=np.int64)
    k = np.arange(1, n_lanes + 1, dtype=np.int64)
    tail = k * extra // n_lanes
    is_short = np.diff(tail, prepend=0) == 0
    return is_short, (k * short + tail)[is_short]


def _lane_bytes(steps: int, widths: list[int]) -> int:
    """A bound on the bytes a lane of `steps` symbols emits, plus one: the
    widest rows the lockstep encoder needs.

    No lane costs more than its steps at the model's costliest symbol.
    Coding a symbol of width w leaves more than (1 - 2**-8) * w / 65536 of
    a range >= 2**24, which is at most log2(65536 / w) + 0.0057 bits lost.
    Each byte emitted restores 8 bits and the range stays below 2**32, so a
    lane whose symbols lose at most C bits emits at most C / 8 bytes, and
    termination adds two more.  A step writes low's top two bytes from the
    lane's length, at most C / 8 before the step, so no write passes the
    width either.
    """
    bits = math.log2(PROB_ONE / min(w for w in widths if w)) - math.log2(
        1 - 2 ** -8)
    # in 1/256 bits, rounded up
    return steps * (math.floor(256 * bits) + 1) // 2048 + 3


def _encode_lockstep(symbols: bytes, model: BinaryModel | CdfModel,
                     n_streams: int, mode: str):
    """Encode all shards at once, one symbol on every shard per step.

    The symbols must have passed `check_symbols`, as `encode_parallel`
    checks them.  Each shard is a lane holding the `Encoder` state (low,
    range) as uint32 and its bytes as one row of a uint8 matrix with a
    length per lane.  The symbols are held step-major, one (steps, lanes)
    array, so each step reads one contiguous row.  A lane one symbol short
    of the longest (see `_short_lanes`) is padded with symbol 0, which adds
    nothing to low, and keeps its range at the last step, so it codes
    exactly its shard.  A carry out of low, or a termination value >= 256,
    goes into the lane's bytes as it happens, through `carry_lanes`.  Lanes
    are coded in blocks of `_LOCKSTEP_BLOCK`, each block for all steps,
    then terminated with `valid_byte_sets` and `junction_bytes`.  A block's
    rows start at the model's bound on a lane (`_lane_bytes`), capped by
    `_MODEL_ROWS_BYTES`, and widen by a quarter whenever the longest lane
    leaves them less than a step's room; rows as wide as the bound are
    never checked.  A block's segments are gathered with one boolean mask,
    one compare over its rows, after its backward rows are reversed (and
    bit-reversed in fr, through one `bytes.translate`).  Returns the
    segment sizes as one int64 array, which `assemble_container` takes as
    it is, and the data region, the segments in order.
    """
    # imported here: importing the pipeline must not load numpy (~0.2 s)
    import numpy as np

    arr = np.frombuffer(symbols, dtype=np.uint8)
    short, ends = _short_lanes(len(arr), n_streams)
    steps = -(-len(arr) // n_streams)
    # padding symbol 0 ends each short lane's shard; np.insert copies even
    # where it inserts nothing
    lanes = np.ascontiguousarray(
        (np.insert(arr, ends, 0) if len(ends) else arr)
        .reshape(n_streams, steps).T)
    binary = isinstance(model, BinaryModel)
    split, probs = ((split_bits, model.p0) if binary
                    else (split_symbols, cdf_tables(model)))
    bound = _lane_bytes(steps, model.widths())
    perm = (np.frombuffer(REVERSED_BYTES, dtype=np.uint8) if mode == "fr"
            else np.arange(256))
    # one segment a lane, or a pair of lanes
    per_segment = 1 if mode == "uni" else 2
    sizes = np.empty(n_streams // per_segment, dtype=np.int64)
    region: list[bytes] = []

    for first in range(0, n_streams, _LOCKSTEP_BLOCK):
        block = lanes[:, first:first + _LOCKSTEP_BLOCK]
        n = block.shape[1]
        width = min(bound, max(16, _MODEL_ROWS_BYTES // n))
        out = np.empty((n, width), dtype=np.uint8)
        flat = out.reshape(-1)
        # flat_next[j] is flat[j + 1]: the second byte scatters at the same
        # index
        flat_next = flat[1:]
        row = np.arange(n) * width
        # lane k's next byte goes to flat[at[k]]; its length is at - row
        at = row.copy()
        low = np.zeros(n, dtype=np.uint32)
        rng = np.full(n, MASK32, dtype=np.uint32)
        pad = np.flatnonzero(short[first:first + n])
        # the step at which the rows' room is next checked
        check = 0 if width < bound else steps

        for i in range(steps):
            if i == check:
                # a step moves a lane at most 2 bytes and termination adds
                # at most 2, so rows with room for r more bytes need no
                # check for r // 2 steps
                longest = int((at - row).max())
                if width - 3 - longest < 2:
                    wider = min(bound, width + max(16, width // 4))
                    grown = np.empty((n, wider), dtype=np.uint8)
                    grown[:, :width] = out
                    out, width = grown, wider
                    flat = out.reshape(-1)
                    flat_next = flat[1:]
                    at -= row
                    row = np.arange(n) * width
                    at += row
                check = (steps if width == bound
                         else i + (width - 3 - longest) // 2)
            # bits multiply in place into the uint32 range; intp indices
            # gather faster
            s = block[i] if binary else block[i].astype(np.intp)
            # a short lane keeps its range at its padding step
            kept = rng[pad] if i == steps - 1 else None
            offset = split(rng, probs, s)
            low += offset
            if kept is not None:
                rng[pad] = kept
            # low wrapped past 2**32 where the sum came out below the offset
            hit = np.flatnonzero(low < offset)
            if len(hit):
                carry_lanes(flat, at[hit] - 1, row[hit])
            # low's top two bytes go to the lane's next two; it keeps the k
            # that `renormalize` moves, and later bytes overwrite the rest
            flat[at] = (low >> 24).astype(np.uint8)
            flat_next[at] = (low >> 16).astype(np.uint8)
            at += renormalize(low, rng) >> 3

        set_lo, set_hi, appended, _, _ = valid_byte_sets(
            low.astype(np.int64), rng.astype(np.int64))
        flat[at] = (low >> 24).astype(np.uint8)
        at += appended - 1
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
        carry_lanes(flat, at[hit] - 1, row[hit])
        flat[at] = (value & 0xFF).astype(np.uint8)
        length = at + 1 - row
        if length.max() >= width:
            raise AssertionError("a lane outgrew its byte rows")
        # a pair's columns, in the smallest dtype that holds them: a keep
        # mask compares about twice as fast as in int64, and the dtype's
        # wrap below 0 is what the pairs' mask reads
        cols = np.arange(2 * width, dtype=np.min_scalar_type(2 * width - 1))

        if mode == "uni":
            block_sizes = length
            keep = cols[:width] < length.astype(cols.dtype)[:, None]
        else:
            # with each backward row reversed in place, a segment is its
            # pair's two rows read as one; the junction is stored once, as
            # the forward side's last byte
            fwd_len, bwd_len = length[0::2], length[1::2] - shared
            bwd = out[1::2, ::-1]
            if mode == "fr":
                bwd = np.frombuffer(bwd.tobytes().translate(REVERSED_BYTES),
                                    dtype=np.uint8).reshape(bwd.shape)
            out[1::2] = bwd
            block_sizes = fwd_len + bwd_len
            # a pair's row keeps fwd_len bytes, skips the next 2 * width -
            # size and keeps the rest: the columns c whose c - fwd_len,
            # wrapped modulo cols' dtype range (at least 2 * width), is at
            # least that skip.  One pass over (pairs, 2 * width), where a
            # compare of the two rows against each length ran 1.5x slower
            out = out.reshape(n // 2, 2 * width)
            skip = (2 * width - block_sizes).astype(cols.dtype)
            keep = cols - fwd_len.astype(cols.dtype)[:, None] >= skip[:, None]
        region.append(out[keep].tobytes())
        sizes[first // per_segment:(first + n) // per_segment] = block_sizes
    return sizes, b"".join(region)


def stream_layout(header: Header) -> list[tuple[int, str, bool]]:
    """Per-stream (segment, direction, bit_reversed) in shard order."""
    out = []
    for k in range(header.n_streams):
        seg, backward = divmod(k, 1 if header.mode == "uni" else 2)
        out.append((seg, "backward" if backward else "forward",
                    bool(backward) and header.mode == "fr"))
    return out


def _min_cost_bits(model: BinaryModel | CdfModel) -> float:
    """A lower bound above 0 on the bits that coding any one symbol costs.

    A symbol of width w takes at most w/65536 of the range.  The top symbol
    also keeps the remainder m = rng & 0xFFFF of a range 65536 * r + m with
    r >= 2**8, so m < 256 * r and its share (w * r + m) / (65536 * r + m)
    stays below (w + 256)/(65536 + 256).  Every width is below 65536, so
    every share is below 1.
    """
    widths = model.widths()
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
    step; narrower containers run one scalar `Decoder` per stream, in
    blocks of streams spread over forked processes.  Both engines return
    the same bytes for every container `read_container` accepts.

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
    return (_decode_lockstep if header.n_streams >= LOCKSTEP_MIN_STREAMS
            else _decode_scalar)(blob, header, seg_map)


def _decode_scalar(blob: bytes, header: Header, seg_map: SegmentMap) -> bytes:
    """One `Decoder` per stream, each decoding its `segment_source` in
    turn, in blocks of streams through `_scalar_map`."""
    model = header.model
    decode = (Decoder.decode_bits if isinstance(model, BinaryModel)
              else Decoder.decode_symbols)

    def symbols(block) -> bytes:
        return b"".join(
            decode(Decoder(segment_source(blob, seg_map, seg, direction,
                                          reversed_bits)), model, stop - start)
            for (start, stop), (seg, direction, reversed_bits) in block)

    work = list(zip(shard_ranges(header.n_symbols, header.n_streams),
                    stream_layout(header)))
    return b"".join(_scalar_map(symbols, work, 1, header.n_symbols, model))


def _decode_lockstep(blob: bytes, header: Header, seg_map: SegmentMap) -> bytes:
    """Decode all streams at once, one symbol on every stream per step.

    Each stream is a lane holding the `Decoder` state (val, range) as
    uint32 and the index of its next byte.  Every lane reads upward: a
    forward lane from its segment's start in `blob`, a backward lane from
    its segment's end in a reversed copy of `blob` placed after it
    (bit-reversed in fr), and 0x00 at and past the segment length.  A lane
    one symbol short of the longest (see `_short_lanes`) decodes one symbol
    too many at the last step; the reassembly drops that cell.  Lanes are
    decoded in blocks of `_LOCKSTEP_BLOCK`, each block for all steps.
    """
    # imported here: importing the pipeline must not load numpy (~0.2 s)
    import numpy as np

    n_lanes = header.n_streams
    n_symbols = header.n_symbols
    steps = -(-n_symbols // n_lanes)
    if steps == 0:
        return b""
    size = len(blob)
    if header.mode == "uni":
        data = np.frombuffer(blob, dtype=np.uint8)
    else:
        data = np.empty(2 * size, dtype=np.uint8)
        data[:size] = np.frombuffer(blob, dtype=np.uint8)
        data[size:] = np.frombuffer(
            blob.translate(REVERSED_BYTES) if header.mode == "fr" else blob,
            dtype=np.uint8)[::-1]
    # data_next[j] is data[j + 1]: the second byte gathers at the same index
    data_next = data[1:]
    bounds = np.fromiter(seg_map.boundaries, dtype=np.int64,
                         count=len(seg_map.boundaries))
    bounds += seg_map.data_offset
    model = header.model
    if isinstance(model, BinaryModel):
        pick, probs = pick_bits, model.p0
    else:
        pick, probs = pick_symbols, cdf_tables(model)
    out = np.empty((n_lanes, steps), dtype=np.uint8)

    for first in range(0, n_lanes, _LOCKSTEP_BLOCK):
        lane = np.arange(first, min(first + _LOCKSTEP_BLOCK, n_lanes))
        block = out[first:first + len(lane)]
        # lanes are laid out as stream_layout lists the streams
        seg, backward = np.divmod(lane, 1 if header.mode == "uni" else 2)
        start, stop = bounds[seg], bounds[seg + 1]
        # lane k's next byte is data[at[k]] while at[k] < end[k]
        at = np.where(backward, 2 * size - stop, start)
        end = at + (stop - start)
        end_next = end - 1

        def fetch():
            """Each lane's next two bytes as (b0 << 8) | b1, 0x00 at and
            past its segment's end; every index is clipped into data, and a
            clipped read is past the end"""
            b0 = data.take(at, mode="clip")
            b0 *= at < end
            b1 = data_next.take(at, mode="clip")
            b1 *= at < end_next
            word = b0.astype(np.uint32)
            word <<= 8
            word |= b1
            return word

        val = fetch() << 16
        at += 2
        val |= fetch()
        at += 2
        rng = np.full(len(lane), MASK32, dtype=np.uint32)
        for i in range(steps):
            block[:, i] = pick(val, rng, probs)
            shift = renormalize(val, rng)
            val |= fetch() >> (16 - shift)
            at += shift >> 3

    short, _ = _short_lanes(n_symbols, n_lanes)
    drop = np.flatnonzero(short) * steps + steps - 1
    # np.delete copies even where it drops nothing
    return (np.delete(out, drop) if len(drop) else out).tobytes()
