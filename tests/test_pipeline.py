import hashlib
import os
import random
import signal
from array import array
from collections import Counter

import pytest

from pecstream import pipeline, rangecoder
from pecstream.container import MAX_STREAMS, read_container, write_container
from pecstream.pipeline import (
    _short_lanes,
    decode_parallel,
    encode_parallel,
    shard_ranges,
    stream_layout,
)
from pecstream.rangecoder import BinaryModel, CdfModel, Encoder
from pecstream.termination import terminate_single

from test_golden import GOLDEN, INPUTS, mixed_bytes


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


def short_shards(n, n_lanes):
    """The stop of each shard one symbol shorter than the longest, from
    `shard_ranges`' own Python ints, and which lanes those are."""
    ranges = shard_ranges(n, n_lanes)
    longest = max(stop - start for start, stop in ranges)
    short = [stop - start < longest for start, stop in ranges]
    return short, [stop for (_, stop), s in zip(ranges, short) if s]


class TestShortLanes:
    """The lockstep engines' short lanes are `shard_ranges`' short shards,
    and each one's padding goes where its shard stops."""

    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 512, 8194, 65537])
    def test_matches_shard_ranges(self, n_lanes):
        for n in (0, 1, n_lanes - 1, n_lanes, n_lanes + 1, 7 * n_lanes + 3):
            short, ends = _short_lanes(n, n_lanes)
            assert (short.tolist(), ends.tolist()) == short_shards(n, n_lanes)

    def test_exact_where_products_pass_int64(self):
        # (k + 1) * n passes 2**63 here.  Only the counts are computed, no
        # symbol is allocated, and the reference is `shard_ranges`' floor
        # form in Python ints, one lane at a time rather than a million
        # tuples at once
        n, n_lanes = 2 ** 50 + 12345, 2 ** 20 - 1
        assert n_lanes * n >= 2 ** 63
        short, ends = _short_lanes(n, n_lanes)
        stops = iter(ends)
        for k, is_short in enumerate(short.tolist()):
            stop = (k + 1) * n // n_lanes
            assert is_short == (stop - k * n // n_lanes == n // n_lanes)
            if is_short:
                assert next(stops) == stop
        assert next(stops, None) is None
        assert len(ends) == n_lanes - n % n_lanes


class TestStreamLayout:
    """(segment, direction, bit_reversed) per stream, as the benchmark
    replay decodes through it."""

    @pytest.mark.parametrize("mode, n_streams, layout", [
        ("uni", 3, [(0, "forward", False), (1, "forward", False),
                    (2, "forward", False)]),
        ("fb", 4, [(0, "forward", False), (0, "backward", False),
                   (1, "forward", False), (1, "backward", False)]),
        ("fr", 4, [(0, "forward", False), (0, "backward", True),
                   (1, "forward", False), (1, "backward", True)]),
    ])
    def test_literal(self, mode, n_streams, layout):
        data = bytes(range(10))
        header, _ = read_container(
            encode_parallel(data, order0(data), n_streams, mode))
        assert stream_layout(header) == layout
        assert all(type(rev) is bool for _, _, rev in stream_layout(header))


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
            return check(model, symbols)

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

    @staticmethod
    def _one_shot_inputs():
        """(bytes, model, one-shot iterables of the same symbols): order0
        text and Bernoulli(0.1) bits, on the run path and off it."""
        rnd = random.Random(8)
        data = bytes(rnd.choice(b"abcdefgh") for _ in range(3000))
        bits = bytes(rnd.random() < 0.1 for _ in range(3000))
        for symbols, model in ((data, order0(data)),
                               (bits, BinaryModel.from_probability(0.9)),
                               (bits, BinaryModel(30000))):
            yield symbols, model, ((s for s in symbols), iter(list(symbols)),
                                   map(int, symbols))

    @pytest.mark.parametrize("n_streams", (1, 8, 512))
    def test_one_shot_iterables_code_every_symbol(self, n_streams):
        # a generator, an iterator or a map is read once, so the check
        # cannot leave the coder an exhausted input
        mode = "uni" if n_streams == 1 else "fr"
        for symbols, model, given in self._one_shot_inputs():
            expected = encode_parallel(symbols, model, n_streams, mode)
            for one_shot in given:
                assert encode_parallel(one_shot, model, n_streams,
                                       mode) == expected

    def test_encoder_codes_one_shot_iterables(self):
        for symbols, model, given in self._one_shot_inputs():
            code = ("encode_bits" if isinstance(model, BinaryModel)
                    else "encode_symbols")
            want = Encoder()
            getattr(want, code)(model, symbols)
            for one_shot in given:
                enc = Encoder()
                getattr(enc, code)(model, one_shot)
                assert (enc._out, enc.state) == (want._out, want.state)

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


class ChildError(Exception):
    pass


class UnpicklableError(Exception):
    def __init__(self, code, text):
        super().__init__(f"{text} ({code})")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks during the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def split(monkeypatch, processes):
    """Code every scalar input in `processes` processes, whatever its size."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: processes)
    monkeypatch.setattr(pipeline, "_FORK_MIN_SYMBOLS", 0)


def fork_allowed():
    """False where forking would warn (Python 3.12 or later, threads)."""
    return not (pipeline._FORK_WARNS and pipeline._thread_count() > 1)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_child(monkeypatch, name, error):
    """Make pipeline.<name> raise `error` in a forked child only."""
    parent = os.getpid()
    real = getattr(pipeline, name)

    def failing(*args):
        if os.getpid() != parent:
            raise error
        return real(*args)

    monkeypatch.setattr(pipeline, name, failing)


class TestProcessSplit:
    """The scalar engines code contiguous blocks in forked children; the
    output must be the bytes one process writes."""

    @pytest.mark.parametrize("mode, n_streams", [
        (mode, n) for mode in ("uni", "fb", "fr") for n in (1, 2, 6, 8, 64)
        if n > 1 or mode == "uni"])
    def test_same_bytes_at_one_and_two_processes(self, mode, n_streams,
                                                 monkeypatch, forks):
        data = mixed_bytes(11, 900)
        bits = bytes(b & 1 for b in mixed_bytes(12, 900))
        units = n_streams if mode == "uni" else n_streams // 2
        for symbols, model in ((data, order0(data)), (bits, BinaryModel(40000))):
            for codec in ("i32", "rtc", "bic", "gamma"):
                split(monkeypatch, 1)
                before = len(forks)
                blob = encode_parallel(symbols, model, n_streams, mode, codec)
                assert decode_parallel(blob) == symbols
                assert len(forks) == before
                split(monkeypatch, 2)
                assert encode_parallel(symbols, model, n_streams, mode,
                                       codec) == blob, (mode, codec)
                assert decode_parallel(blob) == symbols, (mode, codec)
        # one child per encode with two blocks of pairs, one per decode
        # with two streams
        expected = 8 * ((units > 1) + (n_streams > 1))
        assert len(forks) == (expected if fork_allowed() else 0)
        assert_no_children()

    @pytest.mark.parametrize("processes", (1, 2))
    def test_golden_digests(self, processes, monkeypatch):
        split(monkeypatch, processes)
        for case, digest in GOLDEN.items():
            model_name, mode, codec, n = case.split("-")
            symbols, model = INPUTS[model_name]
            blob = encode_parallel(symbols, model, int(n), mode, codec)
            assert hashlib.sha256(blob).hexdigest() == digest, case
        assert_no_children()

    def test_uneven_blocks(self, monkeypatch, forks):
        # 3 pairs in 2 processes, and 7 streams in 3
        data = mixed_bytes(13, 2000)
        model = order0(data)
        for n_streams, mode, processes in ((6, "fb", 2), (7, "uni", 3)):
            split(monkeypatch, 1)
            blob = encode_parallel(data, model, n_streams, mode)
            split(monkeypatch, processes)
            assert encode_parallel(data, model, n_streams, mode) == blob
            assert decode_parallel(blob) == data
        assert len(forks) == (2 + 4 if fork_allowed() else 0)
        assert_no_children()

    # the scalar engines call these through the module as they run: one
    # termination a pair, one source a stream
    @pytest.mark.parametrize("name, error", (
        ("joint_terminate", ChildError("shard 3 failed")),
        ("segment_source", ChildError("shard 3 failed")),
        ("joint_terminate", UnpicklableError(7, "shard 3 failed")),
    ))
    def test_child_exception_reaches_caller(self, name, error, monkeypatch,
                                            forks):
        if not fork_allowed():
            pytest.skip("forking would warn in this process")
        data = mixed_bytes(14, 1000)
        model = order0(data)
        blob = encode_parallel(data, model, 8, "fr")
        split(monkeypatch, 2)
        fail_in_child(monkeypatch, name, error)
        if isinstance(error, UnpicklableError):
            # an exception that cannot be rebuilt arrives as its type name
            # and message
            expected = RuntimeError, "UnpicklableError: shard 3 failed \\(7\\)"
        else:
            expected = ChildError, "^shard 3 failed$"
        with pytest.raises(expected[0], match=expected[1]):
            if name == "segment_source":
                decode_parallel(blob)
            else:
                encode_parallel(data, model, 8, "fr")
        assert len(forks) == 1
        assert_no_children()

    def test_dead_child_is_reported(self, monkeypatch, forks):
        if not fork_allowed():
            pytest.skip("forking would warn in this process")
        data = mixed_bytes(15, 1000)
        split(monkeypatch, 2)
        parent = os.getpid()
        real = pipeline.joint_terminate

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(pipeline, "joint_terminate", killed)
        with pytest.raises(ChildProcessError, match="died"):
            encode_parallel(data, order0(data), 8, "fr")
        assert len(forks) == 1
        assert_no_children()

    def test_parent_block_failure_reaps_children(self, monkeypatch, forks):
        if not fork_allowed():
            pytest.skip("forking would warn in this process")
        data = mixed_bytes(16, 1000)
        model = order0(data)
        blob = encode_parallel(data, model, 8, "fr")
        split(monkeypatch, 2)
        parent = os.getpid()
        real = pipeline.segment_source

        def failing(*args):
            if os.getpid() == parent:
                raise ChildError("parent block failed")
            return real(*args)

        monkeypatch.setattr(pipeline, "segment_source", failing)
        with pytest.raises(ChildError, match="parent block failed"):
            decode_parallel(blob)
        assert len(forks) == 1
        assert_no_children()

    def test_one_cpu_forks_nothing(self, monkeypatch, forks):
        data = mixed_bytes(17, 1000)
        monkeypatch.setattr(pipeline, "_FORK_MIN_SYMBOLS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert decode_parallel(encode_parallel(data, order0(data), 8,
                                               "fr")) == data
        assert not forks

    def test_below_floor_forks_nothing(self, monkeypatch, forks):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        floor = pipeline._FORK_MIN_SYMBOLS
        bits = bytes(b & 1 for b in mixed_bytes(18, 2 * floor))
        model = BinaryModel(40000)
        # each of two processes needs the floor's symbols
        blob = encode_parallel(bits[:-1], model, 8, "fb")
        assert decode_parallel(blob) == bits[:-1]
        assert not forks
        blob = encode_parallel(bits, model, 8, "fb")
        assert decode_parallel(blob) == bits
        assert len(forks) == (2 if fork_allowed() else 0)
        assert_no_children()

    def test_no_fork_where_it_is_missing_or_would_warn(self, monkeypatch,
                                                      forks):
        data = mixed_bytes(19, 1000)
        model = order0(data)
        blob = encode_parallel(data, model, 8, "fr")
        split(monkeypatch, 2)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_FORK_WARNS", True)
            patch.setattr(pipeline, "_thread_count", lambda: 2)
            assert encode_parallel(data, model, 8, "fr") == blob
            assert decode_parallel(blob) == data
        monkeypatch.delattr(os, "fork")
        assert encode_parallel(data, model, 8, "fr") == blob
        assert decode_parallel(blob) == data
        assert not forks


class TestRunTable:
    """A binary model's run tables are built once per process, in the
    caller, before the scalar encoder or decoder forks its children, and
    both share them."""

    @staticmethod
    def container(p0):
        rnd = random.Random(p0)
        bits = bytes(rnd.random() < 0.05 for _ in range(8000))
        return bits, encode_parallel(bits, BinaryModel(p0), 8, "fb")

    def test_built_before_forking(self, monkeypatch, forks):
        p0 = rangecoder.PROB_ONE - 3000
        split(monkeypatch, 2)
        table = rangecoder._run_tables
        table.cache_clear()
        cached = []
        real = pipeline._fork_map

        def spy(fn, blocks):
            misses = table.cache_info().misses
            table(p0)
            cached.append(table.cache_info().misses == misses)
            return real(fn, blocks)

        monkeypatch.setattr(pipeline, "_fork_map", spy)
        bits, blob = self.container(p0)
        assert decode_parallel(blob) == bits
        assert cached == [True, True]
        assert table.cache_info().misses == 1
        assert len(forks) == (2 if fork_allowed() else 0)
        assert_no_children()

    def test_second_decode_builds_no_table(self):
        table = rangecoder._run_tables
        table.cache_clear()
        bits, blob = self.container(rangecoder._RUN_GATE - 1)
        assert decode_parallel(blob) == bits
        assert table.cache_info().misses == 0
        bits, blob = self.container(rangecoder._RUN_GATE)
        assert table.cache_info().misses == 1
        assert decode_parallel(blob) == bits
        assert table.cache_info().misses == 1
        assert decode_parallel(blob) == bits
        assert table.cache_info().misses == 1
