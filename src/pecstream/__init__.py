"""Parallel entropy coding: bidirectional packing, joint termination, indexes."""

from .bitio import (
    BitReader,
    BitWriter,
    TruncatedStreamError,
    elias_gamma_decode,
    elias_gamma_encode,
    pack_bounded,
    unpack_bounded,
)
from .container import (
    ContainerFormatError,
    Header,
    SegmentMap,
    read_container,
    segment_source,
    write_container,
)
from .pipeline import decode_parallel, encode_parallel, shard_ranges
from .rangecoder import (
    BinaryModel,
    CdfModel,
    Decoder,
    Encoder,
    FinalCoderState,
)
from .sizeindex import decode_index, encode_index
from .termination import (
    JointTermination,
    SingleTermination,
    TerminationStats,
    ValidByteSet,
    joint_terminate,
    terminate_single,
    valid_byte_set,
)

__all__ = [
    "BitReader", "BitWriter", "TruncatedStreamError", "elias_gamma_decode",
    "elias_gamma_encode", "pack_bounded", "unpack_bounded",
    "ContainerFormatError", "Header", "SegmentMap", "read_container",
    "segment_source", "write_container", "decode_parallel", "encode_parallel",
    "shard_ranges", "BinaryModel", "CdfModel", "Decoder", "Encoder",
    "FinalCoderState", "decode_index", "encode_index", "JointTermination",
    "SingleTermination", "TerminationStats", "ValidByteSet", "joint_terminate",
    "terminate_single", "valid_byte_set",
]
__version__ = "0.1.0"
