import random
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from pecstream.bitio import REVERSED_BYTES, TruncatedStreamError
from pecstream.container import (
    INDEX_CODECS,
    MODES,
    ContainerFormatError,
    assemble_container,
    check_layout,
    read_container,
    read_header,
    segment_source,
    stream_bytes,
    write_container,
)
from pecstream.rangecoder import BinaryModel, CdfModel, Decoder


def order0_model() -> CdfModel:
    counts = [1] * 256
    counts[65] = 500
    return CdfModel.from_counts(counts)


def sample_segments(n):
    return [bytes([j]) * (j + 1) for j in range(n)]


class TestRoundtrip:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("codec", INDEX_CODECS)
    def test_header_and_map_roundtrip(self, mode, codec):
        n_streams = 4 if mode == "uni" else 8
        segments = sample_segments(4)
        blob = write_container(mode, codec, BinaryModel(777), n_streams,
                               999, segments)
        header, seg_map = read_container(blob)
        assert header.mode == mode
        assert header.index_codec == codec
        assert header.n_streams == n_streams
        assert header.n_symbols == 999
        assert header.data_size == sum(len(s) for s in segments)
        assert header.model.p0 == 777
        assert seg_map.sizes() == [len(s) for s in segments]
        assert seg_map.boundaries[0] == 0
        assert seg_map.boundaries[-1] == header.data_size

    def test_order0_model_roundtrip(self):
        model = order0_model()
        blob = write_container("uni", "rtc", model, 1, 5, [b"abcde"])
        header, _ = read_container(blob)
        assert header.model.cdf == model.cdf

    def test_zero_length_segments_survive(self):
        segments = [b"", b"xy", b"", b"z"]
        blob = write_container("uni", "bic", BinaryModel(1), 4, 0, segments)
        _, seg_map = read_container(blob)
        assert seg_map.sizes() == [0, 2, 0, 1]

    def test_empty_payload_minimal_file(self):
        blob = write_container("uni", "rtc", BinaryModel(100), 1, 0, [b"\x00"])
        header, seg_map = read_container(blob)
        assert header.data_size == 1
        assert seg_map.segment(0) == (0, 1)

    def test_size_accounting_identity(self):
        # file size = fixed header + model bytes + index length field
        #             + ceil(index bits / 8) + D, exactly
        for codec in INDEX_CODECS:
            segments = sample_segments(5)
            blob = write_container("uni", codec, order0_model(), 5, 50, segments)
            header, seg_map = read_container(blob)
            assert len(blob) == 24 + 512 + 2 + header.index_nbytes + header.data_size
            assert seg_map.data_offset == len(blob) - header.data_size
            assert header.index_offset == 24 + 512 + 2
            # models compare by identity, so only the model is taken over
            assert replace(read_header(blob), model=header.model) == header

    def test_golden_container_bytes(self):
        # frozen serialization of a tiny fr/rtc bernoulli container; guards
        # against accidental format drift (regenerate deliberately if the
        # format version changes)
        from pecstream.pipeline import encode_parallel
        bits = bytes([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1] * 4)
        blob = encode_parallel(bits, BinaryModel(30000), 2, "fr", "rtc")
        assert blob.hex() == (
            "50454331010600000200000040000000000000000900000030750400fffff600"
            "a4ac890c0030913525")

    def test_entry_point_halving(self):
        segs8 = sample_segments(8)
        segs4 = sample_segments(4)
        uni = read_container(write_container("uni", "i32", BinaryModel(5), 8, 0, segs8))
        fb = read_container(write_container("fb", "i32", BinaryModel(5), 8, 0, segs4))
        assert uni[0].entry_count == 8
        assert fb[0].entry_count == 4
        assert uni[0].index_nbytes == 2 * fb[0].index_nbytes


class TestValidation:
    def test_bad_magic(self):
        blob = write_container("uni", "rtc", BinaryModel(5), 1, 0, [b"a"])
        with pytest.raises(ContainerFormatError, match="magic"):
            read_container(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(write_container("uni", "rtc", BinaryModel(5), 1, 0, [b"a"]))
        blob[4] = 9
        with pytest.raises(ContainerFormatError, match="version"):
            read_container(bytes(blob))

    def test_reserved_bits(self):
        blob = bytearray(write_container("uni", "rtc", BinaryModel(5), 1, 0, [b"a"]))
        blob[7] = 1
        with pytest.raises(ContainerFormatError, match="reserved"):
            read_container(bytes(blob))

    def test_truncations_at_every_region(self):
        blob = write_container("uni", "rtc", order0_model(), 2, 9, sample_segments(2))
        for cut in (3, 20, 300, len(blob) - 1):
            with pytest.raises(TruncatedStreamError):
                read_container(blob[:cut])

    def test_index_sum_mismatch(self):
        blob = bytearray(write_container("uni", "i32", BinaryModel(5), 2, 0,
                                         sample_segments(2)))
        # inflate D in the fixed header; the decoded index no longer matches
        struct.pack_into("<I", blob, 20, 100)
        with pytest.raises((ContainerFormatError, TruncatedStreamError)):
            read_container(bytes(blob))

    def test_stream_count_cap(self):
        blob = bytearray(write_container("uni", "rtc", BinaryModel(5), 1, 0, [b"a"]))
        struct.pack_into("<I", blob, 8, 0xFFFFFFFF)
        with pytest.raises(ContainerFormatError, match="stream count"):
            read_container(bytes(blob))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("codec", INDEX_CODECS)
    def test_forged_stream_counts_fail_where_the_writer_refuses(self, mode,
                                                                codec):
        # read_header accepts exactly the layouts check_layout accepts,
        # the i32 payload limit (16383 entries) included
        blob = bytearray(write_container(mode, codec, BinaryModel(5), 2, 0,
                                         sample_segments(2 if mode == "uni"
                                                         else 1)))
        for n_streams in (0, 1, 2, 3, 16383, 16384, 32766, 32768, 1 << 20,
                          (1 << 20) + 1):
            struct.pack_into("<I", blob, 8, n_streams)
            try:
                entries = check_layout(mode, codec, n_streams)
            except ValueError as exc:
                with pytest.raises(ContainerFormatError,
                                   match=re.escape(str(exc))):
                    read_header(bytes(blob))
            else:
                assert read_header(bytes(blob)).entry_count == entries

    def test_write_side_contracts(self):
        with pytest.raises(ValueError):
            write_container("fb", "rtc", BinaryModel(5), 3, 0, sample_segments(1))
        with pytest.raises(ValueError):
            write_container("uni", "rtc", BinaryModel(5), 2, 0, sample_segments(3))
        with pytest.raises(ValueError):
            write_container("uni", "nope", BinaryModel(5), 1, 0, sample_segments(1))
        with pytest.raises(ValueError):
            write_container("uni", "rtc", BinaryModel(5), 0, 0, [])

    def test_rtc_segment_cap(self):
        big = bytes(1 << 24)
        with pytest.raises(ValueError, match="16 MiB"):
            write_container("uni", "rtc", BinaryModel(5), 1, 0, [big])

    def test_garbage_blobs_raise_declared_errors(self):
        import random
        rnd = random.Random(99)
        good = write_container("fb", "rtc", order0_model(), 8, 123,
                               sample_segments(4))
        for _ in range(2000):
            blob = bytearray(good)
            for _ in range(rnd.randrange(1, 6)):
                blob[rnd.randrange(len(blob))] = rnd.randrange(256)
            try:
                read_container(bytes(blob))
            except (ContainerFormatError, TruncatedStreamError):
                pass  # both are declared parse failures; anything else escapes


class TestSizesAsArray:
    """`assemble_container` takes the lockstep encoder's int64 array of
    segment sizes as it takes a list: the same bytes and the same errors,
    on both sides of `rtc`'s 512-entry array form."""

    @pytest.mark.parametrize("codec", INDEX_CODECS)
    @pytest.mark.parametrize("entries", (256, 511, 512, 32768))
    def test_same_bytes(self, codec, entries):
        rnd = random.Random(entries)
        sizes = [rnd.randrange(40) for _ in range(entries)]
        forms = (sizes, np.array(sizes, dtype=np.int64))
        args = ("uni", codec, BinaryModel(5), entries, 0)
        region = bytes(sum(sizes))
        if codec == "i32" and 4 * entries > 0xFFFF:
            for form in forms:
                with pytest.raises(ValueError, match="u16 length field"):
                    assemble_container(*args, form, region)
            return
        blobs = [assemble_container(*args, form, region) for form in forms]
        assert blobs[0] == blobs[1]
        assert read_container(blobs[0])[1].sizes() == sizes

    @pytest.mark.parametrize("codec,case", [
        (codec, case) for codec in INDEX_CODECS
        for case in ("count", "sum", "negative", "wrap")] + [("rtc", "cap")])
    @pytest.mark.parametrize("entries", (256, 512))
    def test_same_errors(self, codec, case, entries):
        sizes = [3] * entries
        n_streams = entries + (case == "count")
        if case == "negative":
            sizes[-2:] = [-1, 7]
        elif case == "wrap":
            # four sizes of 2**62 would wrap an int64 sum back to the region
            sizes[:4] = [1 << 62] * 4
        elif case == "cap":
            sizes[0] = 1 << 24
        region = bytes(3 * entries if case in ("sum", "wrap") else sum(sizes))
        if case in ("sum", "wrap"):
            region = region[:-12 if case == "wrap" else -1]
        errors = []
        for form in (sizes, np.array(sizes, dtype=np.int64)):
            with pytest.raises(ValueError) as info:
                assemble_container("uni", codec, BinaryModel(5), n_streams, 0,
                                   form, region)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestSources:
    def test_forward_clamps_to_zero(self):
        data = stream_bytes(b"\x01\x02\x03")
        assert data == b"\x01\x02\x03"
        # the decoder, not the stream, supplies the 0x00 continuation
        assert Decoder(data)._val == 0x01020300

    def test_backward_clamps_to_zero(self):
        data = stream_bytes(b"\x01\x02\x03", "backward")
        assert data == b"\x03\x02\x01"
        assert Decoder(data)._val == 0x03020100

    def test_zero_length_window(self):
        assert stream_bytes(b"") == b""
        assert stream_bytes(b"", "backward", bit_reversed=True) == b""
        assert Decoder(b"")._val == 0

    def test_bit_reversed_wrapping(self):
        data = stream_bytes(bytes([0xB4, 0x01]), "forward", bit_reversed=True)
        assert data == bytes([0x2D, 0x80])

    def test_segment_source_windows(self):
        segments = [b"ab", b"", b"cd"]
        blob = write_container("uni", "gamma", BinaryModel(5), 3, 0, segments)
        _, seg_map = read_container(blob)
        assert segment_source(blob, seg_map, 0) == b"ab"
        assert segment_source(blob, seg_map, 2, "backward") == b"dc"
        assert segment_source(blob, seg_map, 1) == b""

    def test_fr_backward_source_reverses_bits(self):
        blob = write_container("fb", "gamma", BinaryModel(5), 2, 0, [bytes([0xB4])])
        _, seg_map = read_container(blob)
        src = segment_source(blob, seg_map, 0, "backward", bit_reversed=True)
        assert src == bytes([0x2D])
        # stream_bytes undoes encode_parallel's fwd + reversed(bit-reversed bwd)
        fwd, bwd = b"\x01\x02", b"\xb4\x0f\x80"
        segment = fwd + bwd.translate(REVERSED_BYTES)[::-1]
        assert stream_bytes(segment) == segment
        assert stream_bytes(segment, "backward", True) == bwd + fwd.translate(
            REVERSED_BYTES)[::-1]

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            stream_bytes(b"", "up")
