import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecstream.bitio import (
    REVERSED_BYTES,
    BitReader,
    BitWriter,
    TruncatedStreamError,
    bits_to_bytes,
    bytes_to_bits,
    elias_gamma_decode,
    elias_gamma_encode,
    pack_bounded,
    unpack_bounded,
)


def bit_string(sink: BitWriter) -> str:
    bits = sink.bit_length
    return "".join(format(b, "08b") for b in sink.getvalue())[:bits]


class TestBitStreams:
    def test_writer_counts_bits(self):
        w = BitWriter()
        for _ in range(13):
            w.write_bits(1, 1)
        assert w.bit_length == 13
        assert len(w.getvalue()) == 2  # ceil(13 / 8)

    def test_partial_byte_zero_padded(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        assert w.getvalue() == bytes([0b10100000])

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_single_bit_roundtrip(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bits(b, 1)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in bits] == bits
        # only the last byte's zero padding is left
        assert r.bits_remaining == -len(bits) % 8

    @given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 48)),
                    max_size=50))
    def test_write_bits_roundtrip(self, chunks):
        w = BitWriter()
        expected = []
        for value, width in chunks:
            value &= (1 << width) - 1
            w.write_bits(value, width)
            expected.append((value, width))
        r = BitReader(w.getvalue())
        for value, width in expected:
            assert r.read_bits(width) == value
        assert r.bits_remaining == -w.bit_length % 8

    def test_read_past_end_raises(self):
        r = BitReader(b"\xff")
        r.read_bits(3)
        assert r.read_bits(5) == 0x1F
        with pytest.raises(TruncatedStreamError):
            r.read_bit()
        with pytest.raises(TruncatedStreamError):
            BitReader(b"\xff").read_bits(16)

    def test_advance(self):
        data = bytes([0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC])
        r = BitReader(data)
        assert r.advance() == (data, 0)
        assert r.advance(11) == (data, 11)
        # reads go on from the advanced position
        assert r.read_bits(5) == 0x14
        assert r.advance(21) == (data, 37)
        assert r.bits_remaining == 11
        with pytest.raises(TruncatedStreamError):
            r.advance(12)
        # a failed advance leaves the position where it was
        assert r.advance(11) == (data, 48)
        assert r.bits_remaining == 0

    def test_negative_advance_is_refused(self):
        r = BitReader(b"\xf0")
        r.read_bits(2)
        with pytest.raises(ValueError):
            r.advance(-1)
        with pytest.raises(ValueError):
            BitReader(b"\xf0").advance(-4)
        # the refused advance left the position where it was
        assert r.advance() == (b"\xf0", 2)
        assert r.read_bits(6) == 0x30

    def test_bits_bytes_helpers(self):
        data = bytes(range(256))
        bits = bytes_to_bits(data)
        assert bits == bytes((b >> s) & 1 for b in data for s in range(7, -1, -1))
        assert bits_to_bytes(bits) == data
        # only the low bit of each value counts
        assert bits_to_bytes(bytes([2, 3, 1, 0, 255, 1, 0, 7])) == b"\x6d"
        with pytest.raises(ValueError):
            bits_to_bytes(b"\x01" * 7)


class TestPackBounded:
    @pytest.mark.parametrize("value,bound,expected", [
        (0, 1, ""),
        (2, 4, "01"),
        (5, 8, "010"),
    ])
    def test_golden_codewords(self, value, bound, expected):
        w = BitWriter()
        nbits = pack_bounded(value, bound, w)
        assert nbits == len(expected)
        assert bit_string(w) == expected

    @pytest.mark.parametrize("bound,bits,expected", [
        (1, "", 0),
        (4, "01", 2),
        (8, "010", 5),
    ])
    def test_golden_decode(self, bound, bits, expected):
        w = BitWriter()
        for b in bits:
            w.write_bits(int(b), 1)
        r = BitReader(w.getvalue())
        assert unpack_bounded(bound, r) == expected
        assert r.bits_remaining == -len(bits) % 8

    def test_contract_violations(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            pack_bounded(4, 4, w)
        with pytest.raises(ValueError):
            pack_bounded(-1, 4, w)
        with pytest.raises(ValueError):
            pack_bounded(0, 0, w)
        with pytest.raises(ValueError):
            unpack_bounded(0, BitReader(b""))

    def test_truncated_codeword(self):
        with pytest.raises(TruncatedStreamError):
            unpack_bounded(8, BitReader(b""))

    @pytest.mark.parametrize("bound", [2, 3, 5, 6, 7, 8, 12, 64, 100, 127, 129])
    def test_prefix_free_and_lengths(self, bound):
        words = []
        for v in range(bound):
            w = BitWriter()
            pack_bounded(v, bound, w)
            words.append(bit_string(w))
        floor_len = bound.bit_length() - 1
        ceil_len = floor_len + 1 if bound & (bound - 1) else floor_len
        lengths = {len(cw) for cw in words}
        assert lengths <= {floor_len, ceil_len}
        assert len(set(words)) == bound
        ordered = sorted(words)
        for a, b in zip(ordered, ordered[1:]):
            assert not b.startswith(a)

    @given(st.integers(1, 1 << 24).flatmap(
        lambda bound: st.tuples(st.just(bound), st.integers(0, bound - 1))))
    @settings(max_examples=300)
    def test_roundtrip(self, case):
        bound, value = case
        w = BitWriter()
        pack_bounded(value, bound, w)
        r = BitReader(w.getvalue())
        assert unpack_bounded(bound, r) == value
        assert r.bits_remaining == -w.bit_length % 8


class TestEliasGamma:
    @pytest.mark.parametrize("value,expected", [
        (1, "1"),
        (5, "00101"),
        (2, "010"),
    ])
    def test_golden(self, value, expected):
        w = BitWriter()
        nbits = elias_gamma_encode(value, w)
        assert nbits == len(expected)
        assert bit_string(w) == expected

    def test_bit_count_formula(self):
        w = BitWriter()
        assert elias_gamma_encode(255, w) == 15  # 2 * floor(log2 255) + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            elias_gamma_encode(0, BitWriter())

    def test_truncated_in_zero_run(self):
        w = BitWriter()
        w.write_bits(0, 4)
        # the byte's padding extends the zero run, which the end then cuts
        with pytest.raises(TruncatedStreamError):
            elias_gamma_decode(BitReader(w.getvalue()))

    @given(st.integers(1, 1 << 20))
    @settings(max_examples=300)
    def test_roundtrip_with_exact_length(self, value):
        w = BitWriter()
        nbits = elias_gamma_encode(value, w)
        assert nbits == 2 * (value.bit_length() - 1) + 1
        r = BitReader(w.getvalue())
        assert elias_gamma_decode(r) == value
        assert r.bits_remaining == -w.bit_length % 8


class TestReverseByte:
    @pytest.mark.parametrize("value,expected", [
        (0x01, 0x80),
        (0x00, 0x00),
        (0xB4, 0x2D),
    ])
    def test_golden(self, value, expected):
        assert REVERSED_BYTES[value] == expected

    def test_involution(self):
        assert len(REVERSED_BYTES) == 256
        for n in range(256):
            assert REVERSED_BYTES[REVERSED_BYTES[n]] == n
