import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecstream.bitio import BitReader, BitWriter, TruncatedStreamError
from pecstream.sizeindex import (
    CorruptIndexError,
    bic_decode,
    bic_encode,
    build_range_tree,
    entry_points,
    gamma_decode_sizes,
    gamma_encode_sizes,
    i32_decode_sizes,
    i32_encode_sizes,
    rtc_decode,
    rtc_encode,
)


def encoded_bits(encode, *args) -> tuple[str, int]:
    sink = BitWriter()
    nbits = encode(*args, sink)
    text = "".join(format(b, "08b") for b in sink.getvalue())[:sink.bit_length]
    return text, nbits


def roundtrip(encode, decode, sizes, *, total=None, bound=None):
    sink = BitWriter()
    if bound is not None:
        encode(sizes, bound, sink)
        source = BitReader(sink.getvalue(), sink.bit_length)
        return decode(len(sizes), bound, source)
    if total is not None:
        encode(sizes, total, sink)
        source = BitReader(sink.getvalue(), sink.bit_length)
        return decode(len(sizes), total, source)
    encode(sizes, sink)
    source = BitReader(sink.getvalue(), sink.bit_length)
    return decode(len(sizes), source)


class TestEntryPoints:
    def test_cumulative_sums(self):
        assert entry_points([3, 5, 2]) == [3, 8, 10]
        assert entry_points([]) == []


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
            sink.write_bit(int(b))
        assert rtc_decode(count, 8, BitReader(sink.getvalue(), len(bits))) == expected

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
            rtc_decode(2, 8, BitReader(b"", 0))


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
            gamma_decode_sizes(1, BitReader(b"\x00", 6))


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
