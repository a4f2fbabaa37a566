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

In bidirectional modes each segment holds one forward stream followed by one
backward stream stored in reverse byte order (bit-reversed bytes in fr mode),
so the index has N_s/2 entries instead of N_s.  `stream_bytes` turns a stored
segment back into a stream's bytes in decode order; decoders read 0x00 past
their end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .bitio import REVERSED_BYTES, BitReader, BitWriter, TruncatedStreamError
from .rangecoder import PROB_ONE, BinaryModel, CdfModel
from .sizeindex import decode_index, encode_index

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

    @property
    def entry_count(self) -> int:
        return self.n_streams if self.mode == "uni" else self.n_streams // 2


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
        cdf = [0] * 257
        for s in range(256):
            cdf[s + 1] = cdf[s] + widths[s]
        return CdfModel(cdf), offset + 512
    raise ContainerFormatError(f"unknown model id {model_id}")


def check_layout(mode: str, index_codec: str, n_streams: int) -> None:
    """Raise `ValueError` unless a container can have this mode, index codec
    and stream count."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if index_codec not in INDEX_CODECS:
        raise ValueError(f"unknown index codec: {index_codec!r}")
    if not 1 <= n_streams <= MAX_STREAMS:
        raise ValueError(f"stream count must be in [1, {MAX_STREAMS}]")
    if mode != "uni" and n_streams % 2:
        raise ValueError("bidirectional modes need an even stream count")


def write_container(mode: str, index_codec: str,
                    model: BinaryModel | CdfModel,
                    n_streams: int, n_symbols: int,
                    segments: Sequence[bytes]) -> bytes:
    """Serialize terminated segment buffers behind a coded size index."""
    check_layout(mode, index_codec, n_streams)
    expected_entries = n_streams if mode == "uni" else n_streams // 2
    if len(segments) != expected_entries:
        raise ValueError(f"expected {expected_entries} segments, got {len(segments)}")

    sizes = [len(seg) for seg in segments]
    data_size = sum(sizes)
    if data_size >= 1 << 32:
        raise ValueError("data region exceeds the u32 size field")
    if index_codec == "rtc" and sizes and max(sizes) >= (1 << 24):
        raise ValueError("rtc-coded containers cap segments at 16 MiB")

    sink = BitWriter()
    encode_index(index_codec, sizes, data_size, sink)
    index_payload = sink.getvalue()
    if len(index_payload) > 0xFFFF:
        raise ValueError("index payload exceeds the u16 length field")

    parts = [
        _FIXED_HEADER.pack(MAGIC, VERSION,
                           MODES.index(mode) | (INDEX_CODECS.index(index_codec) << 2),
                           _model_id(model), 0, n_streams, n_symbols, data_size),
        _model_params(model),
        struct.pack("<H", len(index_payload)),
        index_payload,
    ]
    parts.extend(bytes(seg) for seg in segments)
    return b"".join(parts)


def read_header(blob: bytes) -> Header:
    """Parse and validate the fixed header, the model and the index length."""
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
    if not 1 <= n_streams <= MAX_STREAMS:
        raise ContainerFormatError(f"stream count {n_streams} outside [1, {MAX_STREAMS}]")
    if mode != "uni" and n_streams % 2:
        raise ContainerFormatError("bidirectional modes need an even stream count")

    model, offset = _parse_model(model_id, blob, _FIXED_HEADER.size)
    if offset + 2 > len(blob):
        raise TruncatedStreamError("truncated index length")
    (index_nbytes,) = struct.unpack_from("<H", blob, offset)
    return Header(mode=mode, index_codec=index_codec, model=model,
                  n_streams=n_streams, n_symbols=n_symbols,
                  data_size=data_size, index_nbytes=index_nbytes,
                  index_offset=offset + 2)


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
    if any(s < 0 for s in sizes):
        raise ContainerFormatError("index decoded a negative segment size")
    if sum(sizes) != header.data_size:
        raise ContainerFormatError(
            f"index sums to {sum(sizes)}, header says {header.data_size}")
    if offset + header.data_size > len(blob):
        raise TruncatedStreamError("truncated data region")

    boundaries = tuple(accumulate(sizes, initial=0))
    return header, SegmentMap(boundaries=boundaries, data_offset=offset)


def stream_bytes(segment: bytes, direction: str = "forward",
                 bit_reversed: bool = False) -> bytes:
    """A stored segment's bytes in the decode order of one of its streams.

    A forward stream reads the segment as stored, a backward stream reads it
    from its last byte; with `bit_reversed` every byte is bit-reversed.  This
    undoes the packing of `encode_parallel`.
    """
    if direction == "backward":
        segment = segment[::-1]
    elif direction != "forward":
        raise ValueError(f"bad direction: {direction!r}")
    if bit_reversed:
        segment = segment.translate(REVERSED_BYTES)
    return segment


def segment_source(blob: bytes, seg_map: SegmentMap, j: int,
                   direction: str = "forward",
                   bit_reversed: bool = False) -> bytes:
    """Segment j of a parsed container in one stream's decode order."""
    start, stop = seg_map.segment(j)
    off = seg_map.data_offset
    return stream_bytes(blob[off + start:off + stop], direction, bit_reversed)
