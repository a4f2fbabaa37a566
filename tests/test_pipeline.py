import random
from array import array
from collections import Counter

import pytest

from pecstream import pipeline, rangecoder
from pecstream.container import MAX_STREAMS, read_container, write_container
from pecstream.pipeline import decode_parallel, encode_parallel, shard_ranges
from pecstream.rangecoder import BinaryModel, CdfModel, Encoder
from pecstream.termination import terminate_single


def order0(data: bytes) -> CdfModel:
    counts = Counter(data)
    table = [counts.get(s, 0) for s in range(256)]
    if not data:
        table[0] = 1
    return CdfModel.from_counts(table)


class TestShardRanges:
    def test_examples(self):
        assert shard_ranges(10, 4) == [(0, 2), (2, 5), (5, 7), (7, 10)]
        assert shard_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert shard_ranges(3, 4) == [(0, 0), (0, 1), (1, 2), (2, 3)]

    def test_partition_property(self):
        rnd = random.Random(2)
        for _ in range(200):
            n = rnd.randrange(0, 5000)
            k = rnd.randrange(1, 65)
            ranges = shard_ranges(n, k)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
                assert a1 == b0
            sizes = [b - a for a, b in ranges]
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_streams(self):
        with pytest.raises(ValueError):
            shard_ranges(5, 0)


class TestEncodeDecode:
    def test_single_stream_equals_direct_encode(self):
        rnd = random.Random(3)
        data = bytes(rnd.randrange(256) for _ in range(500))
        model = order0(data)
        blob = encode_parallel(data, model, 1, "uni", "rtc")

        enc = Encoder()
        enc.encode_symbols(model, data)
        term = terminate_single(enc.finalize())
        expected = write_container("uni", "rtc", model, 1, len(data), [term.data])
        assert blob == expected

    def test_mode_variants_decode_identically(self):
        rnd = random.Random(4)
        data = bytes(rnd.randrange(256) for _ in range(2000))
        model = order0(data)
        outputs = set()
        for n_streams in (2, 4, 8):
            blob = encode_parallel(data, model, n_streams, "fr", "rtc")
            outputs.add(decode_parallel(blob))
        assert outputs == {data}

    def test_bidirectional_needs_even_streams(self):
        with pytest.raises(ValueError):
            encode_parallel(b"abc", order0(b"abc"), 3, "fb", "rtc")

    def test_stream_count_checked_before_sharding(self, monkeypatch):
        def no_shard_coding():
            raise AssertionError("a shard was coded before the check")

        monkeypatch.setattr(pipeline, "Encoder", no_shard_coding)
        for n_streams, mode in ((0, "uni"), (MAX_STREAMS + 1, "uni"),
                                (0, "fr"), (MAX_STREAMS + 2, "fr")):
            with pytest.raises(ValueError, match="stream count"):
                encode_parallel(b"\x00\x01", BinaryModel(30000), n_streams, mode)

    def test_index_codec_checked_before_coding(self, monkeypatch):
        def no_engine(*args):
            raise AssertionError("an engine ran before the check")

        monkeypatch.setattr(pipeline, "_encode_scalar", no_engine)
        monkeypatch.setattr(pipeline, "_encode_lockstep", no_engine)
        for n_streams in (8, pipeline.LOCKSTEP_MIN_STREAMS):
            with pytest.raises(ValueError,
                               match="unknown index codec: 'bogus'"):
                encode_parallel(b"\x00\x01" * 8, order0(b"\x00\x01"),
                                n_streams, "fr", "bogus")

    def test_i32_index_size_checked_before_coding(self, monkeypatch):
        # 4 bytes an entry: the u16 payload length holds 16383 entries, the
        # index of 32766 fr streams
        model = BinaryModel(30000)
        assert decode_parallel(encode_parallel(b"\x01", model, 32766, "fr",
                                               "i32")) == b"\x01"

        def no_engine(*args):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(pipeline, "_encode_scalar", no_engine)
        monkeypatch.setattr(pipeline, "_encode_lockstep", no_engine)
        with pytest.raises(AssertionError, match="an engine ran"):
            encode_parallel(b"\x01", model, 32766, "fr", "i32")
        for mode, n_streams in (("fr", 32770), ("fr", 32768), ("uni", 16384)):
            with pytest.raises(ValueError, match="u16 length field"):
                encode_parallel(b"\x01", model, n_streams, mode, "i32")

    @pytest.mark.parametrize("n_streams", (2, 64, 512))
    def test_list_input_is_checked_once(self, n_streams, monkeypatch):
        # a list, or an array of wider integers, writes the container its
        # bytes write, and after the one check of the whole input every
        # shard reaches the coder as bytes
        rnd = random.Random(5)
        data = bytes(rnd.choice(b"abcdefgh") for _ in range(4000))
        bits = bytes(rnd.randrange(2) for _ in range(4000))
        check = rangecoder.check_symbols
        checked = []

        def counted(model, symbols):
            checked.append(isinstance(symbols, (bytes, bytearray)))
            check(model, symbols)

        monkeypatch.setattr(rangecoder, "check_symbols", counted)
        monkeypatch.setattr(pipeline, "check_symbols", counted)
        for symbols, model, as_list in (
                (data, order0(data), list(data)),
                (data, order0(data), array("H", list(data))),
                (bits, BinaryModel(30000), list(bits)),
                (bits, BinaryModel(30000), [float(b) for b in bits])):
            expected = encode_parallel(symbols, model, n_streams, "fr")
            checked.clear()
            assert encode_parallel(as_list, model, n_streams, "fr") == expected
            assert checked.count(False) == 1

    def test_binary_model_rejects_nonbit_symbols(self):
        with pytest.raises(ValueError, match="0/1"):
            encode_parallel(b"\x01\x07", BinaryModel(100), 1, "uni", "rtc")
        for symbols in ([0, 1, 2], [-1], [-2, 1], [256], [0.5]):
            with pytest.raises(ValueError, match="0/1"):
                encode_parallel(symbols, BinaryModel(100), 1, "uni", "rtc")

    def test_model_contract_errors_propagate(self):
        counts = [0] * 256
        counts[1] = counts[2] = 5
        model = CdfModel.from_counts(counts)
        with pytest.raises(ValueError, match="zero width"):
            encode_parallel(b"\x01\x07\x02", model, 2, "fb", "rtc")
        # out-of-alphabet symbols must not index the cdf table from its end
        for symbols in ([-1], [-2, 3], [256]):
            with pytest.raises(ValueError, match="0..255"):
                encode_parallel(symbols, CdfModel.from_counts([1] * 256), 1,
                                "uni", "rtc")

    def test_impossible_symbol_count_rejected(self):
        import struct
        from pecstream.container import ContainerFormatError
        blob = bytearray(encode_parallel(b"xy", order0(b"xy"), 1, "uni", "rtc"))
        struct.pack_into("<Q", blob, 12, 1 << 60)  # inflate the symbol count
        with pytest.raises(ContainerFormatError, match="impossible"):
            decode_parallel(bytes(blob))

    def test_empty_input_all_modes(self):
        model = order0(b"")
        for mode, n_streams in (("uni", 1), ("uni", 7), ("fb", 4), ("fr", 8)):
            blob = encode_parallel(b"", model, n_streams, mode, "gamma")
            assert decode_parallel(blob) == b""

    def test_single_byte_many_streams(self):
        data = b"\x2a"
        model = order0(data)
        blob = encode_parallel(data, model, 8, "fr", "rtc")
        assert decode_parallel(blob) == data

    def test_bernoulli_symbols(self):
        rnd = random.Random(5)
        model = BinaryModel.from_probability(0.8)
        bits = bytes(rnd.random() < 0.2 for _ in range(4000))
        for mode in ("uni", "fb", "fr"):
            blob = encode_parallel(bits, model, 4, mode, "bic")
            assert decode_parallel(blob) == bits

    def test_shared_junction_shortens_segment(self):
        # a pair of empty shards terminates into a single shared byte
        model = BinaryModel(32768)
        blob = encode_parallel(b"", model, 2, "fb", "i32")
        header, seg_map = read_container(blob)
        assert header.n_streams == 2
        assert seg_map.sizes() == [1]
        assert decode_parallel(blob) == b""

    def test_matrix_roundtrip_small(self):
        rnd = random.Random(6)
        data = bytes(rnd.randrange(256) for _ in range(700))
        model = order0(data)
        for mode in ("uni", "fb", "fr"):
            for codec in ("i32", "rtc", "bic", "gamma"):
                n_streams = 6 if mode != "uni" else 5
                blob = encode_parallel(data, model, n_streams, mode, codec)
                assert decode_parallel(blob) == data, (mode, codec)


class TestOverheadTrend:
    def test_overhead_grows_with_stream_count(self):
        # equivalently: relative overhead W is nonincreasing in the mean
        # stream size D / N_s
        rnd = random.Random(9)
        data = bytes(rnd.randrange(256) for _ in range(12288))
        model = order0(data)
        sizes = [len(encode_parallel(data, model, n, "fr", "rtc"))
                 for n in (2, 8, 32, 64)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]


class TestDeterminism:
    def test_repeat_runs_identical(self):
        rnd = random.Random(8)
        bits = bytes(rnd.random() < 0.5 for _ in range(1000))
        model = BinaryModel(20000)
        blobs = {encode_parallel(bits, model, 4, "fb", "rtc") for _ in range(3)}
        assert len(blobs) == 1
