"""Bit-exact container: header, coded entry-point index, concatenated segments.

Layout (all multi-byte integers little-endian):

    offset  size  field
    0       4     magic "PEC1"
    4       1     version (1)
    5       1     flags: bits 0-1 packing mode (0 uni, 1 fb, 2 fr),
                         bits 2-3 index codec (0 i32, 1 rtc, 2 bic, 3 gamma)
    6       1     model id (0 bernoulli, 1 order0)
    7       1     reserved (0)
    8       4     stream count N_s
    12      8     total symbol count
    20      4     data region size D
    24      var   model parameters (bernoulli: u16 p0;
                  order0: 256 x u16 symbol widths summing to 65536)
    ..      2     index payload length in bytes
    ..      var   index payload (bit-packed, zero-padded to whole bytes)
    ..      D     data region: segments in order

Each segment holds `streams_per_segment` streams: one in uni; in fb/fr a
forward stream, then a backward one stored in reverse byte order through
`BACKWARD_TABLE`, so their indexes have N_s/2 entries.  `stream_bytes` gives
a stream's bytes in decode order; decoders read 0x00 past their end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .bitio import REVERSED_BYTES, BitReader, BitWriter, TruncatedStreamError
from .rangecoder import PROB_ONE, BinaryModel, CdfModel
from .sizeindex import as_ints, decode_index, encode_index

MAGIC = b"PEC1"
VERSION = 1
MODES = ("uni", "fb", "fr")
INDEX_CODECS = ("i32", "rtc", "bic", "gamma")
#: readers refuse stream counts above this, so a corrupt header cannot force
#: huge index allocations before the payload is validated
MAX_STREAMS = 1 << 20
_FIXED_HEADER = struct.Struct("<4sBBBBIQI")


class ContainerFormatError(ValueError):
    """The byte stream is not a valid container."""


@dataclass(frozen=True)
class Header:
    mode: str
    index_codec: str
    model: BinaryModel | CdfModel
    n_streams: int
    n_symbols: int
    data_size: int
    index_nbytes: int
    #: byte offset of the index payload within the container
    index_offset: int
    entry_count: int


@dataclass(frozen=True)
class SegmentMap:
    """Segment boundaries p_0 = 0 <= ... <= p_Ne = D within the data region."""

    boundaries: tuple[int, ...]
    data_offset: int

    def segment(self, j: int) -> tuple[int, int]:
        """Relative [start, stop) byte range of segment j (0-based)."""
        return self.boundaries[j], self.boundaries[j + 1]

    def sizes(self) -> list[int]:
        b = self.boundaries
        return [b[j + 1] - b[j] for j in range(len(b) - 1)]


def _model_id(model: BinaryModel | CdfModel) -> int:
    if isinstance(model, BinaryModel):
        return 0
    if isinstance(model, CdfModel):
        return 1
    raise ValueError(f"unsupported model type: {type(model).__name__}")


def _model_params(model: BinaryModel | CdfModel) -> bytes:
    if isinstance(model, BinaryModel):
        return struct.pack("<H", model.p0)
    widths = model.widths()
    return struct.pack("<256H", *widths)


def _parse_model(model_id: int, blob: bytes, offset: int):
    if model_id == 0:
        if offset + 2 > len(blob):
            raise TruncatedStreamError("truncated model parameters")
        (p0,) = struct.unpack_from("<H", blob, offset)
        if p0 == 0:
            raise ContainerFormatError("bernoulli p0 must be nonzero")
        return BinaryModel(p0), offset + 2
    if model_id == 1:
        if offset + 512 > len(blob):
            raise TruncatedStreamError("truncated model parameters")
        widths = struct.unpack_from("<256H", blob, offset)
        if sum(widths) != PROB_ONE:
            raise ContainerFormatError("order0 widths must sum to 65536")
        return CdfModel(accumulate(widths, initial=0)), offset + 512
    raise ContainerFormatError(f"unknown model id {model_id}")


#: per mode, the `bytes.translate` table between a backward stream's bytes
#: and their stored form, its own inverse; None, the identity, outside fr
BACKWARD_TABLE = {"uni": None, "fb": None, "fr": REVERSED_BYTES}


def streams_per_segment(mode: str) -> int:
    """1 in uni; 2 in fb/fr, where segment j holds streams 2j and 2j+1."""
    return 1 if mode == "uni" else 2


def check_layout(mode: str, index_codec: str, n_streams: int) -> int:
    """Raise `ValueError` unless a container can have this mode, index codec
    and stream count; return its index's entry count."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if index_codec not in INDEX_CODECS:
        raise ValueError(f"unknown index codec: {index_codec!r}")
    if not 1 <= n_streams <= MAX_STREAMS:
        raise ValueError(f"stream count must be in [1, {MAX_STREAMS}]")
    entries, odd = divmod(n_streams, streams_per_segment(mode))
    if odd:
        raise ValueError("bidirectional modes need an even stream count")
    # i32 takes 4 bytes an entry, so at most 16383 entries fit the payload
    if index_codec == "i32" and 4 * entries > 0xFFFF:
        raise ValueError("index payload exceeds the u16 length field")
    return entries


def write_container(mode: str, index_codec: str,
                    model: BinaryModel | CdfModel,
                    n_streams: int, n_symbols: int,
                    segments: Sequence[bytes]) -> bytes:
    """Serialize terminated segment buffers behind a coded size index."""
    return assemble_container(mode, index_codec, model, n_streams, n_symbols,
                              [len(seg) for seg in segments],
                              b"".join(segments))


def assemble_container(mode: str, index_codec: str,
                       model: BinaryModel | CdfModel,
                       n_streams: int, n_symbols: int,
                       sizes: Sequence[int], region: bytes) -> bytes:
    """Serialize a data region, whose segments have the given sizes in
    order, behind its coded size index.

    sizes is a sequence of ints or, as the lockstep encoder hands them
    over, an integer array; both write the same bytes and raise the same
    errors.
    """
    expected_entries = check_layout(mode, index_codec, n_streams)
    if len(sizes) != expected_entries:
        raise ValueError(f"expected {expected_entries} segments, got {len(sizes)}")
    data_size = len(region)
    if (hasattr(sizes, "dtype") and 0 <= sizes.min()
            and sizes.max() < 1 << 32):
        # numpy's sum is exact here: MAX_STREAMS sizes below 2**32 stay
        # below 2**52.  Other sizes are summed as Python ints, which do
        # not wrap
        total = int(sizes.sum())
    else:
        total = sum(as_ints(sizes))
    if total != data_size:
        raise ValueError(f"segment sizes sum to {total}, region holds {data_size}")
    if data_size >= 1 << 32:
        raise ValueError("data region exceeds the u32 size field")

    sink = BitWriter()
    # rtc refuses a segment of 16 MiB or more as it codes the tree's root
    encode_index(index_codec, sizes, data_size, sink)
    index_payload = sink.getvalue()
    if len(index_payload) > 0xFFFF:
        raise ValueError("index payload exceeds the u16 length field")

    return b"".join((
        _FIXED_HEADER.pack(MAGIC, VERSION,
                           MODES.index(mode) | (INDEX_CODECS.index(index_codec) << 2),
                           _model_id(model), 0, n_streams, n_symbols, data_size),
        _model_params(model),
        struct.pack("<H", len(index_payload)),
        index_payload,
        region,
    ))


def read_header(blob: bytes) -> Header:
    """Parse and validate the fixed header, the model and the index length;
    every reader starts here, and reads only bytes or a bytearray."""
    if not isinstance(blob, (bytes, bytearray)):
        raise TypeError(f"a container is bytes or a bytearray, not "
                        f"{type(blob).__name__}")
    if len(blob) < _FIXED_HEADER.size:
        raise TruncatedStreamError("truncated header")
    magic, version, flags, model_id, reserved, n_streams, n_symbols, data_size = \
        _FIXED_HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ContainerFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerFormatError(f"unsupported version {version}")
    mode_bits = flags & 0x3
    codec_bits = (flags >> 2) & 0x3
    if mode_bits >= len(MODES):
        raise ContainerFormatError(f"unknown packing mode {mode_bits}")
    if flags & ~0x0F or reserved:
        raise ContainerFormatError("reserved header bits set")
    mode = MODES[mode_bits]
    index_codec = INDEX_CODECS[codec_bits]
    try:
        entry_count = check_layout(mode, index_codec, n_streams)
    except ValueError as exc:
        raise ContainerFormatError(str(exc)) from None

    model, offset = _parse_model(model_id, blob, _FIXED_HEADER.size)
    if offset + 2 > len(blob):
        raise TruncatedStreamError("truncated index length")
    (index_nbytes,) = struct.unpack_from("<H", blob, offset)
    return Header(mode=mode, index_codec=index_codec, model=model,
                  n_streams=n_streams, n_symbols=n_symbols,
                  data_size=data_size, index_nbytes=index_nbytes,
                  index_offset=offset + 2, entry_count=entry_count)


def read_container(blob: bytes) -> tuple[Header, SegmentMap]:
    """Parse and validate a container, reconstructing the segment map."""
    header = read_header(blob)
    offset = header.index_offset + header.index_nbytes
    if offset > len(blob):
        raise TruncatedStreamError("truncated index payload")
    source = BitReader(blob[header.index_offset:offset])
    try:
        sizes = decode_index(header.index_codec, header.entry_count,
                             header.data_size, source)
    except TruncatedStreamError:
        raise TruncatedStreamError("truncated index payload") from None
    except ValueError as exc:
        raise ContainerFormatError(f"corrupt index payload: {exc}") from None
    # no decoder returns a negative size: rtc sizes are at least the decoded
    # minimum, bic checks each point against its interval, a gamma code is
    # at least 1 and i32 sizes are unsigned.  The last boundary is the sum
    boundaries = tuple(accumulate(sizes, initial=0))
    if boundaries[-1] != header.data_size:
        raise ContainerFormatError(
            f"index sums to {boundaries[-1]}, header says {header.data_size}")
    if offset + header.data_size > len(blob):
        raise TruncatedStreamError("truncated data region")
    return header, SegmentMap(boundaries=boundaries, data_offset=offset)


def stream_bytes(segment: bytes, direction: str = "forward",
                 bit_reversed: bool = False) -> bytes:
    """A stored segment's bytes in the decode order of one of its streams.

    A forward stream reads the segment as stored, a backward stream reads it
    from its last byte; with `bit_reversed` every byte goes through fr's
    `BACKWARD_TABLE`.  This undoes the packing of `encode_parallel`.
    """
    if direction == "backward":
        segment = segment[::-1]
    elif direction != "forward":
        raise ValueError(f"bad direction: {direction!r}")
    if bit_reversed:
        segment = segment.translate(BACKWARD_TABLE["fr"])
    return segment


def segment_source(blob: bytes, seg_map: SegmentMap, j: int,
                   direction: str = "forward",
                   bit_reversed: bool = False) -> bytes:
    """Segment j of a parsed container in one stream's decode order."""
    start, stop = seg_map.segment(j)
    off = seg_map.data_offset
    return stream_bytes(blob[off + start:off + stop], direction, bit_reversed)
