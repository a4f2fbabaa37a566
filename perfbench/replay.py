"""In-memory span tracer and a step-by-step replay of the coding pipeline.

`replay_encode` and `replay_decode` redo what `encode_parallel` and
`decode_parallel` do, one public call at a time, so that a span can sit
around each call into a layer.  With a `NullTracer` the same replay builds
the scalar reference container that every timed encode must match byte for
byte (`Encoder` -> `finalize` -> `terminate_single`/`joint_terminate` ->
`write_container`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter

from pecstream.bitio import REVERSED_BYTES, BitReader, BitWriter
from pecstream.container import read_container, segment_source, write_container
from pecstream.pipeline import shard_ranges, stream_layout
from pecstream.rangecoder import BinaryModel, Decoder, Encoder
from pecstream.sizeindex import decode_index, encode_index
from pecstream.termination import TerminationStats, joint_terminate, terminate_single


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in Tracer.spans
    op: int                 # shared by the spans of one operation
    #: seconds of named work inside the span too short to trace one by one
    counts: dict[str, float] = field(default_factory=dict)
    #: root spans only: mean calibration kernel time just before and after
    kernel_s: float | None = None


class Tracer:
    """Records spans in memory; `to_json` writes them out after the run.

    `tick`, if given, times the calibration kernel and returns its seconds;
    it runs after every root span, outside it.
    """

    def __init__(self, tick=None) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op = 0
        self._tick = tick
        self._last_kernel = tick() if tick else None

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, perf_counter(), 0.0, parent, self._op)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()
            if self._tick is not None and parent is None:
                kernel = self._tick()
                record.kernel_s = (self._last_kernel + kernel) / 2
                self._last_kernel = kernel

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> list[dict]:
        return [dict(asdict(s), self_s=own)
                for s, own in zip(self.spans, self.self_times())]


class NullTracer:
    """Tracer stand-in that records nothing."""

    def span(self, name: str):
        return nullcontext()


#: replayed spans that make up the work of encode_parallel / decode_parallel;
#: the sizeindex spans are absent because they re-run index coding that
#: write_container / read_container already perform
ENCODE_PARALLEL_PARTS = ("pipeline.shard", "rangecoder.encode",
                         "termination.terminate", "container.write")
DECODE_PARALLEL_PARTS = ("container.read", "pipeline.schedule",
                         "pipeline.streams", "pipeline.reassemble")


@dataclass
class EncodeReplay:
    blob: bytes
    segment_sizes: list[int]
    index_bits: int
    stats: TerminationStats
    renormed: int           # terminations that needed a renormalization byte


def _terminate(encoders: list[Encoder], mode: str,
               stats: TerminationStats) -> tuple[list[bytes], int]:
    segments = []
    renormed = 0
    if mode == "uni":
        for enc in encoders:
            term = terminate_single(enc.finalize())
            stats.add_single(term)
            renormed += term.appended > 1
            segments.append(term.data)
        return segments, renormed
    reversed_bits = mode == "fr"
    for j in range(0, len(encoders), 2):
        fwd = encoders[j].finalize(direction="forward")
        bwd = encoders[j + 1].finalize(direction="backward",
                                       bit_reversed=reversed_bits)
        term = joint_terminate(fwd, bwd, mode)
        stats.add_pair(term)
        renormed += term.renormed
        bwd_data = term.bwd_data
        if reversed_bits:
            bwd_data = bwd_data.translate(REVERSED_BYTES)
        segments.append(term.fwd_data + bwd_data[::-1])
    return segments, renormed


def replay_encode(symbols, model, n_streams: int, mode: str, index_codec: str,
                  tracer: Tracer | NullTracer) -> EncodeReplay:
    """Replay encode_parallel(symbols, model, n_streams, mode, index_codec)."""
    binary = isinstance(model, BinaryModel)
    with tracer.span("pipeline.shard"):
        ranges = shard_ranges(len(symbols), n_streams)
    with tracer.span("rangecoder.encode"):
        encoders = []
        for start, stop in ranges:
            enc = Encoder()
            if binary:
                enc.encode_bits(model, symbols[start:stop])
            else:
                enc.encode_symbols(model, symbols[start:stop])
            encoders.append(enc)
    stats = TerminationStats()
    with tracer.span("termination.terminate"):
        segments, renormed = _terminate(encoders, mode, stats)
    sizes = [len(seg) for seg in segments]
    with tracer.span("sizeindex.encode"):
        index_bits = encode_index(index_codec, sizes, sum(sizes), BitWriter())
    with tracer.span("container.write"):
        blob = write_container(mode, index_codec, model, n_streams,
                               len(symbols), segments)
    return EncodeReplay(blob, sizes, index_bits, stats, renormed)


def replay_decode(blob: bytes, tracer: Tracer) -> tuple[bytes, list[float]]:
    """Replay decode_parallel(blob); returns the symbols and each stream's
    decode duration.

    Streams are started and decoded one after the other, in decode_parallel's
    order.  Per-stream decoder start and decode times are too short for one
    span each, so the "pipeline.streams" span carries their sums as counts.
    """
    with tracer.span("container.read"):
        header, seg_map = read_container(blob)
    with tracer.span("sizeindex.decode"):
        payload = blob[seg_map.data_offset - header.index_nbytes:seg_map.data_offset]
        decode_index(header.index_codec, header.entry_count, header.data_size,
                     BitReader(payload))
    model = header.model
    binary = isinstance(model, BinaryModel)
    with tracer.span("pipeline.schedule"):
        ranges = shard_ranges(header.n_symbols, header.n_streams)
        layout = stream_layout(header)
    starts = []
    decodes = []
    chunks = []
    with tracer.span("pipeline.streams") as record:
        for (seg, direction, rev), (start, stop) in zip(layout, ranges):
            t0 = perf_counter()
            dec = Decoder(segment_source(blob, seg_map, seg, direction, rev))
            t1 = perf_counter()
            if binary:
                chunks.append(dec.decode_bits(model, stop - start))
            else:
                chunks.append(dec.decode_symbols(model, stop - start))
            decodes.append(perf_counter() - t1)
            starts.append(t1 - t0)
        record.counts = {"rangecoder.decoder_start": sum(starts),
                         "rangecoder.decode": sum(decodes)}
    with tracer.span("pipeline.reassemble"):
        out = bytearray(header.n_symbols)
        for (start, _stop), chunk in zip(ranges, chunks):
            out[start:start + len(chunk)] = chunk
        return bytes(out), decodes
