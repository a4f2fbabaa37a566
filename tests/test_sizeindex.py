import math
import random
import tracemalloc
from functools import lru_cache
from operator import ge
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecstream import sizeindex
from pecstream.bitio import (
    BitReader,
    BitWriter,
    TruncatedStreamError,
    pack_bounded,
    unpack_bounded,
)
from pecstream.pipeline import encode_parallel
from pecstream.bench import BENCH_RTC_BOUND
from pecstream.container import MAX_STREAMS, read_header
from pecstream.rangecoder import CdfModel
from pecstream.sizeindex import (
    _ARRAY_ENTRIES,
    RTC_CONTAINER_BOUND,
    RTC_TABLE_SPAN_CAP,
    CorruptIndexError,
    bic_decode,
    bic_encode,
    gamma_decode_sizes,
    gamma_encode_sizes,
    i32_decode_sizes,
    i32_encode_sizes,
    rtc_decode,
    rtc_encode,
)
from test_acceptance import SEED, _mixed_entropy_file, _order0


def encoded_bits(encode, *args) -> tuple[str, int]:
    sink = BitWriter()
    nbits = encode(*args, sink)
    text = "".join(format(b, "08b") for b in sink.getvalue())[:sink.bit_length]
    return text, nbits


def roundtrip(encode, decode, sizes, *, total=None, bound=None):
    """The sizes decoded back; the decoder must read exactly the bits the
    encoder wrote."""
    sink = BitWriter()
    args = [arg for arg in (bound, total) if arg is not None]
    encode(sizes, *args, sink)
    source = BitReader(sink.getvalue())
    decoded = decode(len(sizes), *args, source)
    assert source.bits_remaining == -sink.bit_length % 8
    return decoded


def build_range_tree(values):
    """Running-maxima tree over a power-of-two value array, the reference
    for `rtc_encode`'s tree.

    Returns (maxima, selection): maxima is the encoder's own
    `_tree_maxima`, and selection[i] = 1 when the left child of internal
    node i attains the maximum (ties select left).
    """
    maxima = sizeindex._tree_maxima(values)
    selection = [0, *map(int, map(ge, maxima[2::2], maxima[3::2]))]
    return maxima, selection


class TestRangeTree:
    def test_tree_properties_hold(self):
        import random
        rnd = random.Random(5)
        for _ in range(100):
            n = 1 << rnd.randrange(0, 6)
            values = [rnd.randrange(0, 40) for _ in range(n)]
            maxima, selection = build_range_tree(values)
            smallest = min(values)
            for i in range(1, n):
                x = selection[i]
                # the selected child equals the parent maximum
                assert maxima[2 * i + 1 - x] == maxima[i]
                # ties select the left child
                assert x == (1 if maxima[i] == maxima[2 * i] else 0)
                # the coded child stays within the packable offset range
                # (equality with the parent happens exactly on ties)
                assert smallest <= maxima[2 * i + x] <= maxima[i] - 1 + x

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            build_range_tree([1, 2, 3])


class TestRtc:
    def test_golden_two_values(self):
        text, nbits = encoded_bits(rtc_encode, [3, 5], 8)
        assert (text, nbits) == ("0100100", 7)

    def test_golden_all_equal(self):
        # breaks the unfixed minimum coding; the bound fix keeps it codable
        text, nbits = encoded_bits(rtc_encode, [4, 4, 4, 4], 8)
        assert (text, nbits) == ("011000", 6)

    @pytest.mark.parametrize("bits,count,expected", [
        ("0100100", 2, [3, 5]),
        ("011000", 4, [4, 4, 4, 4]),
    ])
    def test_golden_decode(self, bits, count, expected):
        sink = BitWriter()
        for b in bits:
            sink.write_bits(int(b), 1)
        source = BitReader(sink.getvalue())
        assert rtc_decode(count, 8, source) == expected
        assert source.bits_remaining == -len(bits) % 8

    def test_single_entry(self):
        assert roundtrip(rtc_encode, rtc_decode, [123456], bound=1 << 24) == [123456]

    def test_padding_to_power_of_two(self):
        sizes = [9, 1, 7, 8, 2]  # padded to 8 entries with the minimum
        assert roundtrip(rtc_encode, rtc_decode, sizes, bound=1 << 24) == sizes

    def test_zero_sizes(self):
        sizes = [0, 0, 3, 0]
        assert roundtrip(rtc_encode, rtc_decode, sizes, bound=16) == sizes

    def test_bound_violation(self):
        with pytest.raises(ValueError):
            rtc_encode([8], 8, BitWriter())
        with pytest.raises(ValueError):
            rtc_encode([], 8, BitWriter())

    def test_truncation(self):
        with pytest.raises(TruncatedStreamError):
            rtc_decode(2, 8, BitReader(b""))


def reference_rtc_encode(sizes, bound, sink):
    """The range-tree code node by node: the reference for `rtc_encode`."""
    smallest = min(sizes)
    n = 1 << (len(sizes) - 1).bit_length()
    maxima, selection = build_range_tree(list(sizes) + [smallest] * (n - len(sizes)))
    start = sink.bit_length
    pack_bounded(maxima[1], bound, sink)
    pack_bounded(smallest, maxima[1] + 1, sink)
    for i in range(1, n):
        if maxima[i] != smallest:
            y = selection[i]
            sink.write_bits(y, 1)
            pack_bounded(maxima[i] - maxima[2 * i + y] + y - 1,
                         maxima[i] - smallest + y, sink)
    return sink.bit_length - start


def reference_rtc_decode(count, bound, source):
    """Inverse of `reference_rtc_encode`, reading one bit at a time."""
    n = 1 << (count - 1).bit_length()
    root = unpack_bounded(bound, source)
    smallest = unpack_bounded(root + 1, source)
    if n == 1:
        return [root]
    values = [0] * n
    values[1] = root
    for i in range(1, n):
        j = 2 * i if 2 * i < n else 2 * i - n
        values[j] = values[j + 1] = values[i]
        if values[i] != smallest:
            y = source.read_bit()
            values[j + y] -= unpack_bounded(values[i] - smallest + y, source) - y + 1
    return values[:count]


def decode_outcome(decode, count, bound, payload):
    """The sizes a decoder returns and the bits it leaves, or the type of
    the error it raises."""
    source = BitReader(payload)
    try:
        return decode(count, bound, source), source.bits_remaining
    except (TruncatedStreamError, ValueError) as exc:
        return type(exc)


class SlotCount:
    """Counts the table slots `rtc_decode` allocates, through
    `_empty_table`, and the node reads its filled slots serve."""

    def __init__(self, monkeypatch):
        self.slots = 0
        self.widths = []  # k of each table, in allocation order
        self.served = 0
        monkeypatch.setattr(sizeindex, "_empty_table", self._allocate)

    def _allocate(self, size):
        self.slots += size
        self.widths.append(size.bit_length() - 1)
        return _CountedSlots(self, size)


class _CountedSlots(list):
    """A node table that counts the reads a filled slot serves."""

    def __init__(self, count, size):
        super().__init__([None] * size)
        self._count = count

    def __getitem__(self, key):
        slot = super().__getitem__(key)
        self._count.served += slot is not None
        return slot


def coded_nodes(sizes):
    """The tree nodes whose maximum is above the minimum: those that read
    bits, the nodes `rtc_decode` counts toward its table entries."""
    n = 1 << (len(sizes) - 1).bit_length()
    smallest = min(sizes)
    maxima, _ = build_range_tree(list(sizes) + [smallest] * (n - len(sizes)))
    return [v for v in maxima[1:n] if v != smallest]


@lru_cache(maxsize=None)
def real_index(n_streams, mode="fr"):
    """The rtc index payload and entry count of the seeded 1 MiB
    mixed-entropy input, order0 in `mode` over `n_streams` streams."""
    data = _mixed_entropy_file(random.Random(SEED), 1 << 20)
    blob = encode_parallel(data, _order0(data), n_streams, mode)
    header = read_header(blob)
    offset = header.index_offset
    return blob[offset:offset + header.index_nbytes], header.entry_count


class TestRtcTables:
    """The table-driven rtc coders against the node-by-node reference."""

    def test_matches_reference_on_seeded_sizes(self):
        rnd = random.Random(11)
        widths = (1, 2, 1 << 16, (1 << 24) - 1)
        # counts 1-511: the pure-Python form's whole production range
        for case in range(1022):
            count = case % 511 + 1
            width = widths[case % 4] if case % 5 else 1
            low = rnd.randrange(RTC_CONTAINER_BOUND - width + 1)
            sizes = [low + rnd.randrange(width) for _ in range(count)]
            ref, sink = BitWriter(), BitWriter()
            ref_bits = reference_rtc_encode(sizes, RTC_CONTAINER_BOUND, ref)
            assert rtc_encode(sizes, RTC_CONTAINER_BOUND, sink) == ref_bits
            assert sink.getvalue() == ref.getvalue()
            source = BitReader(sink.getvalue())
            assert rtc_decode(count, RTC_CONTAINER_BOUND, source) == sizes
            assert source.bits_remaining == -ref_bits % 8

    def test_tables_up_to_the_span_cap(self, monkeypatch):
        rnd = random.Random(15)

        def table_widths(pool):
            sizes = [rnd.choice(pool) for _ in range(16384)]
            ref, sink = BitWriter(), BitWriter()
            nbits = reference_rtc_encode(sizes, RTC_CONTAINER_BOUND, ref)
            assert rtc_encode(sizes, RTC_CONTAINER_BOUND, sink) == nbits
            assert sink.getvalue() == ref.getvalue()
            count = SlotCount(monkeypatch)
            source = BitReader(sink.getvalue())
            assert rtc_decode(len(sizes), RTC_CONTAINER_BOUND, source) == sizes
            assert source.bits_remaining == -nbits % 8
            return count.widths

        # the widest table, at a span of RTC_TABLE_SPAN_CAP - 1, is built
        # and read at every offset in the window
        top = RTC_TABLE_SPAN_CAP - 1
        widths = table_widths([0, top] + rnd.sample(range(1, top), 3))
        assert max(widths) == 1 + top.bit_length()
        # most nodes are at the cap, often enough for a table, but get none
        assert table_widths([0, RTC_TABLE_SPAN_CAP]) == []

    def test_random_payloads_decode_as_reference(self):
        # garbage and short payloads: the same sizes or the same error
        rnd = random.Random(12)
        for case in range(400):
            bound = rnd.choice((2, 5, 40, 300, 5000, 1 << 24))
            count = rnd.randrange(1, 200)
            payload = rnd.randbytes(rnd.randrange(40))
            assert (decode_outcome(rtc_decode, count, bound, payload)
                    == decode_outcome(reference_rtc_decode, count, bound, payload))

    def test_every_prefix_of_a_real_index_is_truncated(self):
        data = random.Random(13).randbytes(20000)
        model = CdfModel.from_counts([data.count(s) for s in range(256)])
        blob = encode_parallel(data, model, 512, "fr")
        header = read_header(blob)
        payload = blob[header.index_offset:header.index_offset + header.index_nbytes]
        count = header.entry_count
        sizes = rtc_decode(count, RTC_CONTAINER_BOUND, BitReader(payload))
        # behind `lead` leading bits, the payload's bytes end 8 * end - lead
        # bits into it: over lead 0-7, every cut short of its last bit
        for lead in range(8):
            sink = BitWriter()
            sink.write_bits(0, lead)
            nbits = rtc_encode(sizes, RTC_CONTAINER_BOUND, sink)
            shifted = sink.getvalue()
            if not lead:
                assert shifted == payload
            for end in range(-(-lead // 8), -(-(lead + nbits) // 8)):
                source = BitReader(shifted[:end])
                source.read_bits(lead)
                with pytest.raises(TruncatedStreamError):
                    rtc_decode(count, RTC_CONTAINER_BOUND, source)

    def test_hostile_spans_stay_inside_the_table_budget(self, monkeypatch):
        # every node maximum differs, up to 4095: a table for each would
        # take ~20M entries
        sizes = list(range(4096))
        random.Random(14).shuffle(sizes)
        sink = BitWriter()
        nbits = rtc_encode(sizes, RTC_CONTAINER_BOUND, sink)
        nodes = coded_nodes(sizes)
        assert len(set(nodes)) > 2000
        count = SlotCount(monkeypatch)
        source = BitReader(sink.getvalue())
        assert rtc_decode(len(sizes), RTC_CONTAINER_BOUND, source) == sizes
        assert source.bits_remaining == -nbits % 8
        assert count.slots <= 4 * len(nodes)

    @pytest.mark.parametrize("n_streams", [64, 4096, 16384])
    def test_table_entries_stay_within_four_per_node(self, monkeypatch,
                                                     n_streams):
        payload, entries = real_index(n_streams)
        count = SlotCount(monkeypatch)
        sizes = rtc_decode(entries, RTC_CONTAINER_BOUND, BitReader(payload))
        assert count.slots <= 4 * len(coded_nodes(sizes))

    def test_tables_serve_the_widest_index(self, monkeypatch):
        # 32768 entries: most nodes are read through a table
        payload, entries = real_index(65536)
        count = SlotCount(monkeypatch)
        source = BitReader(payload)
        sizes = rtc_decode(entries, RTC_CONTAINER_BOUND, source)
        assert source.bits_remaining < 8
        nodes = coded_nodes(sizes)
        assert count.served > len(nodes) // 2
        assert count.slots <= 4 * len(nodes)

    def test_short_payload_with_a_huge_count_fails_fast(self):
        # the root and the minimum fit in 4 bytes and the tree runs past
        # them: a decoder that ran every level over zero padding would hold
        # 2**19 sizes before it saw the end
        sink = BitWriter()
        pack_bounded(5, RTC_CONTAINER_BOUND, sink)
        pack_bounded(1, 6, sink)
        sink.write_bits(0b10110, 5)
        payload = sink.getvalue()
        assert len(payload) == 4
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(TruncatedStreamError):
                rtc_decode(1 << 19, RTC_CONTAINER_BOUND, BitReader(payload))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 1 << 20


def both_forms(sizes, bound):
    """The payload and bit count of `rtc_encode`'s pure coder and of its
    array form, each written after a 3-bit prefix so that no codeword
    starts where a byte does.  The array form's only check against the pure
    coder: every container is built with it."""
    runs = []
    for edge in (math.inf, 1):
        with mock.patch.object(sizeindex, "_ARRAY_ENTRIES", edge):
            sink = BitWriter()
            sink.write_bits(0b101, 3)
            nbits = rtc_encode(sizes, bound, sink)
        assert sink.bit_length == 3 + nbits
        runs.append((sink.getvalue(), nbits))
    return runs


def assert_forms_agree(sizes, bound):
    (pure, nbits), array = both_forms(sizes, bound)
    assert array == (pure, nbits)
    source = BitReader(pure)
    source.read_bits(3)
    assert rtc_decode(len(sizes), bound, source) == list(sizes)
    assert source.bits_remaining == -(3 + nbits) % 8


class TestRtcArrayForm:
    """`rtc_encode`'s numpy form, from `_ARRAY_ENTRIES` entries on, against
    its pure-Python coder."""

    @given(count=st.integers(511, 1100),
           bound=st.sampled_from([1, 2, 3, 300, 1 << 16, RTC_CONTAINER_BOUND,
                                  BENCH_RTC_BOUND]),
           low=st.floats(0, 1), spread=st.floats(0, 1),
           rnd=st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_same_bits_as_the_pure_coder(self, count, bound, low, spread, rnd):
        smallest = int(low * (bound - 1))
        top = smallest + int(spread * (bound - 1 - smallest))
        assert_forms_agree([rnd.randint(smallest, top) for _ in range(count)],
                           bound)

    @pytest.mark.parametrize("n_streams,mode", [(65536, "fr"), (65535, "uni")])
    def test_real_indexes(self, n_streams, mode):
        # 32768 entries, as perfbench's tiny-65536, and 65535, one short of
        # a power of two, so the tree is padded with the minimum
        payload, entries = real_index(n_streams, mode)
        sizes = rtc_decode(entries, RTC_CONTAINER_BOUND, BitReader(payload))
        assert entries == n_streams // (2 if mode == "fr" else 1)
        assert_forms_agree(sizes, RTC_CONTAINER_BOUND)

    @pytest.mark.parametrize("sizes", [[7] * 1000, [0] * 600, [7] * 999 + [8],
                                       [8] + [7] * 1023])
    def test_equal_sizes_and_one_above_the_minimum(self, sizes):
        # no node above the minimum codes only the root and the minimum;
        # one size above it codes the nodes on one leaf's path
        assert_forms_agree(sizes, RTC_CONTAINER_BOUND)

    def test_33_bit_codewords(self):
        # against 2**32, a node whose children are 0 and 2**32 - 1 codes 32
        # bisection bits after its selection bit; 33-bit words fall at every
        # offset within the 32-bit words of the packed bits
        top = BENCH_RTC_BOUND - 1
        rnd = random.Random(16)
        sizes = [top, 0] * 300 + [rnd.choice((0, top, rnd.randrange(top)))
                                  for _ in range(700)]
        assert_forms_agree(sizes, BENCH_RTC_BOUND)

    @pytest.mark.parametrize("count,bound,array", [
        (_ARRAY_ENTRIES - 1, RTC_CONTAINER_BOUND, False),
        (_ARRAY_ENTRIES, RTC_CONTAINER_BOUND, True),
        (_ARRAY_ENTRIES, BENCH_RTC_BOUND, True),
        (_ARRAY_ENTRIES, BENCH_RTC_BOUND + 1, False),
        (_ARRAY_ENTRIES, 1 << 70, False),
    ])
    def test_which_form_codes(self, count, bound, array):
        # the array form holds a bound up to 2**32 exactly; a larger one
        # takes the pure coder, whose ints have no width
        sizes = [bound - 1 - k % 3 for k in range(count)]
        with mock.patch.object(sizeindex, "_rtc_encode_array",
                               wraps=sizeindex._rtc_encode_array) as spy:
            sink = BitWriter()
            nbits = rtc_encode(sizes, bound, sink)
        assert spy.called == array
        ref = BitWriter()
        assert reference_rtc_encode(sizes, bound, ref) == nbits
        assert ref.getvalue() == sink.getvalue()

    @pytest.mark.parametrize("sizes,message", [
        ([5] * 600 + [-1], "sizes must be nonnegative"),
        ([5] * 600 + [RTC_CONTAINER_BOUND], "cap segments at 16 MiB"),
    ])
    def test_same_errors_as_the_pure_coder(self, sizes, message):
        for edge in (math.inf, 1):
            with mock.patch.object(sizeindex, "_ARRAY_ENTRIES", edge):
                with pytest.raises(ValueError, match=message):
                    rtc_encode(sizes, RTC_CONTAINER_BOUND, BitWriter())

    def test_memory_peak_at_the_widest_index(self):
        # MAX_STREAMS entries: the pure coder's lists of maxima peaked at
        # 40.8 MiB, the array form's heap of uint32 maxima at 16.0 MiB
        rnd = random.Random(17)
        sizes = [rnd.randrange(13, 38) for _ in range(MAX_STREAMS)]
        peaks = []
        for edge in (math.inf, _ARRAY_ENTRIES):
            with mock.patch.object(sizeindex, "_ARRAY_ENTRIES", edge):
                tracemalloc.start()
                try:
                    rtc_encode(sizes, RTC_CONTAINER_BOUND, BitWriter())
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        pure, array = peaks
        assert array <= pure


class TestBic:
    def test_single_entry_is_free(self):
        text, nbits = encoded_bits(bic_encode, [7], 7)
        assert (text, nbits) == ("", 0)

    def test_all_zero_sizes_fully_constrained(self):
        text, nbits = encoded_bits(bic_encode, [0, 0, 0, 0], 0)
        assert (text, nbits) == ("", 0)

    def test_equal_sizes_cost(self):
        # with the +n strictening transform this is not free: each middle
        # still has a 5- or 3-wide feasible interval
        _, nbits = encoded_bits(bic_encode, [1, 1, 1, 1], 4)
        assert nbits == 6

    def test_total_mismatch(self):
        with pytest.raises(ValueError):
            bic_encode([1, 2], 4, BitWriter())

    def test_corrupt_interval_detected(self):
        with pytest.raises(CorruptIndexError):
            bic_decode(2, -5, BitReader(b"\x00" * 8))

    def test_zero_sizes_roundtrip(self):
        sizes = [0, 4, 0, 0, 9, 0]
        assert roundtrip(bic_encode, bic_decode, sizes, total=13) == sizes


class TestGammaIndex:
    def test_goldens(self):
        assert encoded_bits(gamma_encode_sizes, [0]) == ("1", 1)
        assert encoded_bits(gamma_encode_sizes, [4]) == ("00101", 5)

    def test_roundtrip(self):
        sizes = [0, 1, 2, 900, 5]
        assert roundtrip(gamma_encode_sizes, gamma_decode_sizes, sizes) == sizes

    def test_truncation(self):
        with pytest.raises(TruncatedStreamError):
            gamma_decode_sizes(1, BitReader(b"\x00"))


class TestI32:
    def test_exact_width(self):
        sink = BitWriter()
        nbits = i32_encode_sizes([3, 5], sink)
        assert nbits == 64
        assert sink.getvalue() == bytes([3, 0, 0, 0, 5, 0, 0, 0])

    def test_roundtrip_and_bounds(self):
        sizes = [0, (1 << 32) - 1, 77]
        assert roundtrip(i32_encode_sizes, i32_decode_sizes, sizes) == sizes
        with pytest.raises(ValueError):
            i32_encode_sizes([1 << 32], BitWriter())


def test_exhaustive_small_universe():
    # every size vector with values 0..4 and 1..3 entries, all four codecs
    import itertools
    for count in (1, 2, 3):
        for sizes in itertools.product(range(5), repeat=count):
            sizes = list(sizes)
            assert roundtrip(rtc_encode, rtc_decode, sizes, bound=5) == sizes
            assert roundtrip(bic_encode, bic_decode, sizes,
                             total=sum(sizes)) == sizes
            assert roundtrip(gamma_encode_sizes, gamma_decode_sizes,
                             sizes) == sizes
            assert roundtrip(i32_encode_sizes, i32_decode_sizes,
                             sizes) == sizes


@pytest.mark.parametrize("codec", ["rtc", "bic", "gamma", "i32"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_codec_roundtrip_property(codec, data):
    sizes = data.draw(st.lists(st.integers(0, (1 << 20) - 1),
                               min_size=1, max_size=80))
    if codec == "rtc":
        got = roundtrip(rtc_encode, rtc_decode, sizes, bound=1 << 20)
    elif codec == "bic":
        got = roundtrip(bic_encode, bic_decode, sizes, total=sum(sizes))
    elif codec == "gamma":
        got = roundtrip(gamma_encode_sizes, gamma_decode_sizes, sizes)
    else:
        got = roundtrip(i32_encode_sizes, i32_decode_sizes, sizes)
    assert got == sizes
