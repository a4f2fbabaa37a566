import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    backward_source,
    encode_bit_stream,
    forward_source,
    plain_decode_bits,
    plain_encode_bits,
    random_bits,
)
from pecstream import rangecoder
from pecstream.rangecoder import (
    MASK32,
    PROB_ONE,
    TOP,
    _CHECK_BYTES,
    _RUN_GATE,
    _SPLIT_BITS,
    BinaryModel,
    CdfModel,
    Decoder,
    Encoder,
    FinalCoderState,
    _run_tables,
    _zero_runs,
    check_symbols,
)
from pecstream.termination import terminate_single


class TestModels:
    def test_binary_model_bounds(self):
        BinaryModel(1)
        BinaryModel(PROB_ONE - 1)
        with pytest.raises(ValueError):
            BinaryModel(0)
        with pytest.raises(ValueError):
            BinaryModel(PROB_ONE)

    def test_from_probability_clamps(self):
        assert BinaryModel.from_probability(0.0).p0 == 1
        assert BinaryModel.from_probability(1.0).p0 == PROB_ONE - 1
        assert BinaryModel.from_probability(0.5).p0 == PROB_ONE // 2

    def test_cdf_validation(self):
        with pytest.raises(ValueError):
            CdfModel([0] * 257)
        cdf = list(range(0, 257))
        with pytest.raises(ValueError):
            CdfModel(cdf)  # ends at 256, not 65536
        good = [0] + [256 * (s + 1) for s in range(256)]
        CdfModel(good)

    def test_single_symbol_degenerate_rejected(self):
        cdf = [0] * 257
        for s in range(65, 257):
            cdf[s] = PROB_ONE
        with pytest.raises(ValueError):
            CdfModel(cdf)

    def test_from_counts_basic(self):
        counts = [0] * 256
        counts[7] = 3
        counts[9] = 1
        model = CdfModel.from_counts(counts)
        widths = model.widths()
        assert sum(widths) == PROB_ONE
        assert widths[7] == 3 * PROB_ONE // 4
        assert widths[9] == PROB_ONE // 4
        assert all(w == 0 for s, w in enumerate(widths) if s not in (7, 9))

    def test_from_counts_single_symbol_steals_one_unit(self):
        counts = [0] * 256
        counts[200] = 17
        model = CdfModel.from_counts(counts)
        widths = model.widths()
        assert widths[200] == PROB_ONE - 1
        assert widths[201] == 1

    def test_from_counts_nonzero_floor(self):
        counts = [1] * 256
        counts[0] = 10**9
        widths = CdfModel.from_counts(counts).widths()
        assert sum(widths) == PROB_ONE
        assert min(widths) >= 1

    def test_from_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            CdfModel.from_counts([0] * 256)


class TestBinaryCoding:
    def test_alternating_bits_payload(self):
        # 16 alternating bits at p0 = 1/2 carry exactly 16 bits of payload:
        # one flushed byte plus a full 8 pending bits in the interval
        model = BinaryModel(PROB_ONE // 2)
        bits = bytes(i & 1 for i in range(16))
        enc = Encoder()
        enc.encode_bits(model, bits)
        state = enc.finalize()
        assert 8 * len(state.chain) + state.pending_info == pytest.approx(16.0)
        term = terminate_single(state)
        got = Decoder(forward_source(term.data)).decode_bits(model, 16)
        assert got == bits

    def test_likely_symbol_run_is_nearly_free(self):
        model = BinaryModel(1)  # p(one) = 65535/65536
        enc = Encoder()
        enc.encode_bits(model, b"\x01" * 1000)
        state = enc.finalize()
        assert len(state.chain) < 4

    def test_eight_zero_bits_one_payload_byte(self):
        model = BinaryModel(PROB_ONE // 2)
        enc = Encoder()
        enc.encode_bits(model, b"\x00" * 8)
        state = enc.finalize()
        assert len(state.chain) == 1
        assert TOP <= state.range <= MASK32

    def test_fresh_state(self):
        state = Encoder().finalize()
        assert state.low == 0
        assert state.range == MASK32
        assert 0.0 < state.pending_info <= 8.0

    def test_range_bounds_after_every_step(self, rnd):
        model = BinaryModel(700)
        enc = Encoder()
        for _ in range(500):
            enc.encode_bits(model, [rnd.random() < 0.9])
            low, rng = enc.state
            assert TOP <= rng <= MASK32
            assert 0 <= low <= MASK32

    @pytest.mark.parametrize("continuation", [b"\x00" * 8, b"\xff" * 8, b"\x5a\x11" * 4])
    def test_roundtrip_under_continuations(self, continuation, rnd):
        for _ in range(80):
            p0 = rnd.randrange(1, PROB_ONE)
            model = BinaryModel(p0)
            bits = random_bits(rnd, rnd.randrange(0, 400), 1 - p0 / PROB_ONE)
            term = terminate_single(encode_bit_stream(model, bits))
            got = Decoder(forward_source(term.data, continuation)).decode_bits(
                model, len(bits))
            assert got == bits

    def test_backward_stream_roundtrip(self, rnd):
        model = BinaryModel(30000)
        for reversed_bits in (False, True):
            bits = random_bits(rnd, 333)
            state = encode_bit_stream(model, bits, "backward", reversed_bits)
            term = terminate_single(state)
            src = backward_source(term.data, b"\x13\x37" * 4, reversed_bits)
            assert Decoder(src).decode_bits(model, len(bits)) == bits

    def test_payload_inefficiency_bound(self, rnd):
        for _ in range(30):
            p0 = rnd.randrange(1, PROB_ONE)
            model = BinaryModel(p0)
            n = rnd.randrange(1, 3000)
            bits = random_bits(rnd, n, 1 - p0 / PROB_ONE)
            ideal = 0.0
            p_zero = p0 / PROB_ONE
            for b in bits:
                ideal -= math.log2(1.0 - p_zero) if b else math.log2(p_zero)
            state = encode_bit_stream(model, bits)
            assert len(state.chain) <= ideal / 8.0 + 2.0

    def test_deferred_carry_value_is_monotone(self, rnd):
        # the chain||low fraction only grows, and renormalization never
        # changes it: each coded symbol moves it by less than the old width.
        # A fresh encoder's finalize() gives the state after each prefix
        model = BinaryModel(40000)
        bits = random_bits(rnd, 400, 0.4)
        prev_value = 0.0
        prev_width = 1.0
        for count in range(1, len(bits) + 1):
            state = encode_bit_stream(model, bits[:count])
            chain_int = int.from_bytes(state.chain, "big")
            scale = 2.0 ** -(8 * len(state.chain) + 32)
            value = (chain_int * (1 << 32) + state.low) * scale
            width = state.range * scale
            assert value >= prev_value - 1e-12
            assert value + width <= prev_value + prev_width + 1e-12
            prev_value, prev_width = value, width

    def test_bit_check_peaks_below_one_mib(self):
        # the check deletes the legal bits a slice at a time: whole, the
        # deletion copies the input first and peaks at 8 MiB here
        bits = bytes(1 << 23)
        tracemalloc.start()
        try:
            check_symbols(BinaryModel(PROB_ONE // 2), bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("at", (0, _CHECK_BYTES + 7, -1))
    def test_bad_bit_in_any_check_slice_raises_before_coding(self, at, rnd):
        # a byte other than 0 or 1 in the first, a middle or the last slice
        model = BinaryModel(round(0.9 * PROB_ONE))
        bits = bytearray(random_bits(rnd, 3 * _CHECK_BYTES + 5, 0.1))
        bits[at] = 2
        for given in (bytes(bits), bits):
            enc = Encoder()
            enc.encode_bits(model, b"\x01\x00" * 20)
            before = bytes(enc._out), enc.state
            with pytest.raises(ValueError,
                               match="binary models code 0/1 symbols only"):
                enc.encode_bits(model, given)
            assert (bytes(enc._out), enc.state) == before


class TestSymbolCoding:
    def test_uniform_cdf_rate(self):
        cdf = [256 * s for s in range(257)]
        model = CdfModel(cdf)
        enc = Encoder()
        enc.encode_symbols(model, bytes(range(256)))
        state = enc.finalize()
        assert abs(len(state.chain) - 256) <= 1

    def test_zero_width_symbol_rejected(self):
        counts = [0] * 256
        counts[1] = 1
        counts[2] = 1
        model = CdfModel.from_counts(counts)
        enc = Encoder()
        with pytest.raises(ValueError):
            enc.encode_symbols(model, [5])
        # out-of-alphabet symbols must not index the cdf table from its end
        for symbols in ([-2], [256]):
            with pytest.raises(ValueError, match="0..255"):
                Encoder().encode_symbols(CdfModel.from_counts([1] * 256), symbols)

    def test_numpy_integer_symbols_do_not_wrap(self):
        # 255 + 1 and 127 + 1 overflow uint8 and int8; the coder must read
        # the cdf at the symbol's value plus one all the same
        model = CdfModel.from_counts([1] * 256)

        def coded(symbols):
            enc = Encoder()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                enc.encode_symbols(model, symbols)
            return terminate_single(enc.finalize()).data

        for values, dtype in (([255, 127], np.uint8), ([127, 126], np.int8)):
            expected = coded(values)
            assert coded(np.array(values, dtype=dtype)) == expected
            assert coded([dtype(v) for v in values]) == expected
        # a negative int8 still names no symbol
        with pytest.raises(ValueError, match="0..255"):
            coded(np.array([3, -1], dtype=np.int8))

    def test_roundtrip_random_blocks(self, rnd):
        for _ in range(25):
            data = bytes(rnd.randrange(256) for _ in range(rnd.randrange(0, 600)))
            counts = [1] * 256  # smooth so every symbol stays codable
            for b in data:
                counts[b] += 10
            model = CdfModel.from_counts(counts)
            enc = Encoder()
            enc.encode_symbols(model, data)
            term = terminate_single(enc.finalize())
            got = Decoder(forward_source(term.data)).decode_symbols(model, len(data))
            assert got == data
            # past its end a stream reads as 0x00, also in the first 4 bytes
            count = len(data) + 64
            assert Decoder(term.data).decode_symbols(model, count) == \
                Decoder(term.data + bytes(8)).decode_symbols(model, count)

    def test_skewed_model_roundtrip(self, rnd):
        counts = [0] * 256
        counts[0] = 10**6
        counts[255] = 1
        model = CdfModel.from_counts(counts)
        data = bytes(0 if rnd.random() < 0.999 else 255 for _ in range(2000))
        enc = Encoder()
        enc.encode_symbols(model, data)
        term = terminate_single(enc.finalize())
        got = Decoder(forward_source(term.data, b"\xff" * 8)).decode_symbols(
            model, len(data))
        assert got == data


class TestFinalState:
    @pytest.mark.parametrize("range_,expected", [
        (1 << 31, 1.0),
        (1 << 24, 8.0),
        (3 << 29, 32 - math.log2(3 << 29)),
    ])
    def test_pending_info(self, range_, expected):
        state = FinalCoderState(0, range_)
        assert state.pending_info == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FinalCoderState(0, TOP - 1)
        with pytest.raises(ValueError):
            FinalCoderState(1 << 32, MASK32)
        with pytest.raises(ValueError):
            FinalCoderState(0, MASK32, direction="sideways")

    def test_finalize_consumes_encoder(self):
        enc = Encoder()
        enc.finalize()
        with pytest.raises(AttributeError):
            enc.encode_bits(BinaryModel(PROB_ONE // 2), b"\x00" * 12)


#: run-table edges: just below the gate, at it, bits-8's model and the
#: largest p0
RUN_P0 = (_RUN_GATE - 1, _RUN_GATE, round(0.9 * PROB_ONE), PROB_ONE - 1)
#: runs of 0-20 zeros, multiples of eight and longer ones
ZERO_RUNS = [b"\x00" * n for n in
             list(range(21)) + [24, 32, 64, 65, 100, 1000, 5000]]


def replay_run_lookups(dec: Decoder, model: BinaryModel, count: int):
    """Decode count bits with `plain_decode_bits`, one at a time, and replay
    from the states it passes through the run-table reads that
    `Decoder.decode_bits` makes on them.

    While eight bits remain, the value is tested against Z_8[h], then on a
    miss against Z_4[h]; after a miss of both or a Z_4 hit, the bits up to
    the next one or renormalization are decoded one at a time.  Returns the
    bits, the (L, h) of each Z_L[h] read in order, and a count of the cases
    met: "8 hit", "8 miss, 4 hit" and "renormalization in 8 zeros".
    """
    states, stops = [], []
    out = bytearray()
    for _ in range(count):
        states.append((dec._val, dec._range))
        pos = dec._pos
        out += plain_decode_bits(dec, model, 1)
        stops.append(out[-1] == 1 or dec._pos != pos)
    reads, cases = [], Counter()
    tables = _zero_runs(model.p0)
    i = 0
    while tables is not None and i <= count - 8:
        val, rng = states[i]
        h = rng >> 16
        reads.append((8, h))
        if val < tables[7][h]:
            cases["8 hit"] += 1
            i += 8
            continue
        if not any(out[i:i + 8]):
            cases["renormalization in 8 zeros"] += 1
        reads.append((4, h))
        if val < tables[3][h]:
            cases["8 miss, 4 hit"] += 1
            i += 4
        while not stops[i]:
            i += 1
        i += 1
    return bytes(out), reads, cases


class ReadLog:
    """A run table that logs each read as (L, h) and answers it."""

    def __init__(self, table, zeros: int, reads: list) -> None:
        self.table, self.zeros, self.reads = table, zeros, reads

    def __getitem__(self, h: int) -> int:
        self.reads.append((self.zeros, h))
        return self.table[h]


class TestZeroRuns:
    @pytest.mark.parametrize("p0", RUN_P0)
    def test_decode_bits_matches_plain_loop(self, p0, rnd, monkeypatch):
        # valid streams of random bits and of the fixed runs of zeros,
        # alone, between ones and joined; random bytes, and random bytes
        # whose first four 0xFF start the value at the range.  Each is
        # decoded in one call that must read the run tables where the
        # replay does, then in two calls on one decoder, so that the
        # second starts from the first one's state
        model = BinaryModel(p0)
        reads = []

        def logged(p0):
            tables = _zero_runs(p0)
            if tables is None:
                return None
            return tuple(ReadLog(table, zeros, reads)
                         for zeros, table in enumerate(tables, 1))

        monkeypatch.setattr(rangecoder, "_zero_runs", logged)
        streams = []
        counts = list(range(21)) + [rnd.randrange(21, 4000) for _ in range(4)]
        for count in counts:
            bits = random_bits(rnd, count, 1 - p0 / PROB_ONE)
            garbage = bytes(rnd.randrange(256) for _ in range(count // 8 + 9))
            streams += [(bits, None), (garbage, count),
                        (b"\xff" * 4 + garbage, count)]
        streams += [(bits, None) for run in ZERO_RUNS
                    for bits in (run, b"\x01" + run + b"\x01")]
        streams += [(b"\x01".join(rnd.sample(ZERO_RUNS, 4)), None)
                    for _ in range(20)]
        cases = Counter()
        for data, count in streams:
            bits = None
            if count is None:
                bits, count = data, len(data)
                data = terminate_single(encode_bit_stream(model, bits)).data
            reads.clear()
            fast, plain = Decoder(data), Decoder(data)
            got = fast.decode_bits(model, count)
            want, want_reads, met = replay_run_lookups(plain, model, count)
            assert got == want
            assert reads == want_reads
            cases += met
            assert (fast._val, fast._range, fast._pos) == \
                (plain._val, plain._range, plain._pos)
            if bits is not None:
                assert got == bits
            for more in (0, 3, 4, 7, 8, rnd.randrange(9, 300)):
                fast, plain = Decoder(data), Decoder(data)
                got = fast.decode_bits(model, count), \
                    fast.decode_bits(model, more)
                want = plain_decode_bits(plain, model, count), \
                    plain_decode_bits(plain, model, more)
                assert got == want
                assert (fast._val, fast._range, fast._pos) == \
                    (plain._val, plain._range, plain._pos)
        if p0 >= _RUN_GATE:
            assert set(cases) == {"8 hit", "8 miss, 4 hit",
                                  "renormalization in 8 zeros"}, cases

    @pytest.mark.parametrize("p0", RUN_P0)
    def test_encode_bits_matches_plain_loop(self, p0, rnd):
        # runs of 0-20 zeros, multiples of eight and longer ones, alone,
        # between ones, after a leading one and before a trailing one; all
        # ones; no bits; random bits.  Each input is coded twice on one
        # encoder, so the second call starts from the first one's state
        model = BinaryModel(p0)
        inputs = [b"", b"\x01", b"\x01" * 40]
        inputs += [run + one for run in ZERO_RUNS for one in (b"", b"\x01")]
        inputs += [b"\x01" + run for run in ZERO_RUNS]
        inputs += [b"\x01".join(rnd.sample(ZERO_RUNS, 4)) for _ in range(20)]
        inputs += [random_bits(rnd, rnd.randrange(4000), p_one)
                   for p_one in (0.01, 0.1, 1 - p0 / PROB_ONE, 0.5)
                   for _ in range(3)]
        # runs that go on from one split slice into the next
        inputs += [b"\x00" * (2 * _SPLIT_BITS + 3),
                   b"\x01" * (_SPLIT_BITS - 5) + b"\x00" * 12 + b"\x01",
                   b"\x01" * _SPLIT_BITS + b"\x00" * 9,
                   random_bits(rnd, _SPLIT_BITS + 7, 0.1)]
        for bits in inputs:
            fast, plain = Encoder(), Encoder()
            for _ in range(2):
                fast.encode_bits(model, bits)
                plain_encode_bits(plain, model, bits)
                assert fast._out == plain._out
                assert fast.state == plain.state

    @pytest.mark.parametrize("p0", RUN_P0)
    def test_encode_bits_input_types(self, p0, rnd, monkeypatch):
        # bytes, bytearrays, lists and numpy arrays all take the run path
        # from _RUN_GATE on and the per-bit loop below it, with the bytes
        # and state of the plain loop
        model = BinaryModel(p0)
        bits = random_bits(rnd, 3000, 0.1)
        want = Encoder()
        plain_encode_bits(want, model, bits)
        runs = Encoder._encode_runs
        ran = []

        def spy(*args):
            ran.append(True)
            runs(*args)

        monkeypatch.setattr(Encoder, "_encode_runs", spy)
        for given in (bits, bytearray(bits), list(bits),
                      np.frombuffer(bits, np.uint8),
                      np.frombuffer(bits, bool)):
            ran.clear()
            enc = Encoder()
            enc.encode_bits(model, given)
            assert (enc._out, enc.state) == (want._out, want.state)
            assert ran == ([True] if p0 >= _RUN_GATE else []), type(given)

    def test_encode_bits_splits_a_slice_at_a_time(self):
        # a split holds an object per run: split whole, these three slices
        # of bits would peak near 3 MiB
        model = BinaryModel(round(0.9 * PROB_ONE))
        bits = b"\x00\x00\x01" * _SPLIT_BITS
        _run_tables(model.p0)
        enc = Encoder()
        tracemalloc.start()
        try:
            enc.encode_bits(model, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 << 20) + len(enc._out)

    def test_carry_right_after_a_run(self, rnd):
        # the first one that follows eight or more zeros and carries out of
        # low, found by coding random bits one at a time
        model = BinaryModel(round(0.9 * PROB_ONE))
        bits = random_bits(rnd, 1 << 16, 0.1)
        enc = Encoder()
        for i, bit in enumerate(bits):
            low, rng = enc.state
            if (bit and i >= 8 and not any(bits[i - 8:i])
                    and low + (rng >> 16) * model.p0 > MASK32):
                break
            plain_encode_bits(enc, model, bits[i:i + 1])
        else:
            pytest.fail("no carry after a run of zeros")
        bits = bits[:i + 1 + rnd.randrange(3)]
        fast, plain = Encoder(), Encoder()
        fast.encode_bits(model, bits)
        plain_encode_bits(plain, model, bits)
        assert (fast._out, fast.state) == (plain._out, plain.state)
        term = terminate_single(fast.finalize())
        assert Decoder(term.data).decode_bits(model, len(bits)) == bits

    @pytest.mark.parametrize("p0", (_RUN_GATE, PROB_ONE - 1))
    def test_run_tables_are_zero_steps(self, p0):
        tables = _run_tables(p0)
        assert len(tables) == 8
        for h in range(PROB_ONE):
            rng = h << 16
            for table in tables:
                rng = (rng >> 16) * p0
                assert table[h] == (rng if rng >= TOP else 0)

    def test_gate(self):
        assert _zero_runs(_RUN_GATE - 1) is None
        assert _zero_runs(_RUN_GATE) is _run_tables(_RUN_GATE)

    def test_run_tables_build_peaks_below_their_size_plus_one_mib(self):
        tracemalloc.start()
        try:
            tables = _run_tables.__wrapped__(round(0.9 * PROB_ONE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(len(table) * table.itemsize for table in tables)
        assert size == 8 * 4 * PROB_ONE
        assert peak < size + (1 << 20)


@given(st.integers(1, PROB_ONE - 1),
       st.lists(st.integers(0, 1), max_size=120),
       st.sampled_from([b"\x00" * 8, b"\xff" * 8, b"\xa5\x01\xfe" * 3]))
@settings(max_examples=120, deadline=None)
def test_property_roundtrip(p0, bits, continuation):
    model = BinaryModel(p0)
    bits = bytes(bits)
    term = terminate_single(encode_bit_stream(model, bits))
    got = Decoder(forward_source(term.data, continuation)).decode_bits(model, len(bits))
    assert got == bits
    # past its end a stream reads as 0x00, also in the first 4 bytes
    count = len(bits) + 64
    assert Decoder(term.data).decode_bits(model, count) == \
        Decoder(term.data + bytes(8)).decode_bits(model, count)
