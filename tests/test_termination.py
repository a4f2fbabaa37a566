import random

import numpy as np
import pytest

from conftest import copy_state, encode_bit_stream, forward_source, random_bits
from pecstream.bitio import REVERSED_BYTES
from pecstream.container import stream_bytes
from pecstream.rangecoder import (
    MASK32,
    PROB_ONE,
    BinaryModel,
    Decoder,
    FinalCoderState,
)
from pecstream.termination import (
    JointTermination,
    SingleTermination,
    TerminationStats,
    joint_terminate,
    junction_bytes,
    pair_extra_bits,
    single_extra_bits,
    terminate_single,
    valid_byte_set,
    valid_byte_sets,
)


def state_for(u: float, width: float, chain_bytes: bytes = b"") -> FinalCoderState:
    """Final state whose normalized interval is [u, u + width)."""
    state = FinalCoderState(round(u * 2.0**32), round(width * 2.0**32))
    for b in chain_bytes:
        state.chain.append(b)
    return state


def state_for_bounds(set_lo: int, set_hi: int, direction: str = "forward",
                     chain_bytes: bytes = b"\x42") -> FinalCoderState:
    """Final state whose valid termination set is exactly [set_lo, set_hi]."""
    low = set_lo << 24
    range_ = ((set_hi + 1) << 24) + (1 << 23) - low
    state = FinalCoderState(low, min(range_, MASK32), direction=direction)
    for b in chain_bytes:
        state.chain.append(b)
    return state


class TestValidByteSet:
    def test_plain_interval(self):
        # [0.3, 0.35): U = ceil(76.8) = 77, V = floor(89.6) - 1 = 88
        vset = valid_byte_set(state_for(0.3, 0.05))
        assert (vset.lo, vset.hi) == (77, 88)
        assert len(vset) == 12
        assert vset.prefix_bytes == 0
        # every stored byte is realized without a carry
        assert [vset.value_for_stored(z) for z in range(77, 89)] == list(range(77, 89))
        for z in (76, 89, 0, 255):
            with pytest.raises(KeyError):
                vset.value_for_stored(z)

    def test_renormalization_when_no_byte_fits(self):
        # [0.501, 0.505): U = 129 > V = 128, one extra renormalization
        state = state_for(0.501, 0.004)
        low0 = state.low
        vset = valid_byte_set(state)
        assert vset.prefix_bytes == 1
        assert state.chain[-1] == low0 >> 24 == 128
        assert vset.lo <= vset.hi
        assert len(vset) >= 64

    def test_carry_flagged_values(self):
        # [0.999, 1.2): all stored values 0..50 need an addition carry
        vset = valid_byte_set(state_for(0.999, 0.201))
        assert (vset.lo, vset.hi) == (256, 306)
        assert [vset.value_for_stored(z) for z in range(51)] == list(range(256, 307))
        for z in (51, 255):
            with pytest.raises(KeyError):
                vset.value_for_stored(z)

    def test_fresh_stream_set(self):
        vset = valid_byte_set(FinalCoderState(0, MASK32))
        assert vset.lo == 0
        assert vset.hi == 254

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            from pecstream.termination import ValidByteSet
            ValidByteSet(10, 9)


def _wide_lane(rnd):
    """A final (low, range) with at least one whole byte step inside."""
    return rnd.randrange(1 << 32), rnd.randrange(1 << 25, 1 << 32)


def _renorm_lane(rnd, k=None):
    """A final (low, range) whose interval straddles step k + 1 without
    holding a whole step, so V = k < U = k + 1: it must renormalize.  At
    k = 255, U is the carried 256."""
    k = rnd.randrange(256) if k is None else k
    a = rnd.randrange(1, 1 << 24)
    return ((k + 1) << 24) - a, rnd.randrange(1 << 24, (1 << 24) + a)


def _carried_lane(rnd):
    """A final (low, range) with U = 256 and no renormalization."""
    return (1 << 32) - rnd.randrange(1, 1 << 24), rnd.randrange(1 << 25, 1 << 32)


class TestValidByteSets:
    """`valid_byte_sets` lane by lane against the scalar `valid_byte_set`,
    the renormalized low and range included, which
    `bench.simulate_termination_population` reads."""

    @pytest.mark.parametrize("case,renormed", [
        ("none", 0), ("all", 300), ("mix", 100), ("carried", 100)])
    def test_lanes_match_the_scalar_set(self, case, renormed):
        rnd = random.Random(case)
        lanes = {
            "none": lambda: [_wide_lane(rnd) for _ in range(300)],
            "all": lambda: [_renorm_lane(rnd) for _ in range(300)],
            "mix": lambda: rnd.sample([_wide_lane(rnd) for _ in range(200)]
                                      + [_renorm_lane(rnd) for _ in range(100)],
                                      300),
            # U = 256 with and without a renormalization, beside plain lanes
            "carried": lambda: rnd.sample(
                [_carried_lane(rnd) for _ in range(100)]
                + [_renorm_lane(rnd, 255) for _ in range(100)]
                + [_wide_lane(rnd) for _ in range(100)], 300),
        }[case]()
        low, range_ = np.array(lanes, dtype=np.int64).T.copy()
        inputs = low.copy(), range_.copy()
        got = valid_byte_sets(low, range_)
        expected = []
        for lane in lanes:
            state = FinalCoderState(*lane)
            vset = valid_byte_set(state)
            expected.append((vset.lo, vset.hi, vset.prefix_bytes + 1,
                             state.low, state.range))
        assert [tuple(map(int, lane)) for lane in zip(*got)] == expected
        assert int((got[2] == 2).sum()) == renormed
        if case == "carried":
            assert int((got[0] >= 256).sum()) == 100
        # the inputs are left as they were
        assert (low == inputs[0]).all() and (range_ == inputs[1]).all()


class TestTerminateSingle:
    def test_smallest_member_policy(self):
        term = terminate_single(state_for(0.3, 0.05))
        assert term.value == 77  # stored as 77, no carry
        assert term.appended == 1
        assert term.data == bytes([77])

    def test_carry_folds_into_chain(self):
        # the carry zeroes the trailing 0xFF run and increments the byte
        # before it; the final byte is the stored value 0
        for payload, carried in ((b"\x10\x20", b"\x10\x21"),
                                 (b"\x10\xff\xff", b"\x11\x00\x00")):
            term = terminate_single(state_for(0.999, 0.201, chain_bytes=payload))
            assert term.value == 256  # stored as 0, carried
            assert term.data == carried + b"\x00"

    def test_carry_past_first_byte_raises(self):
        for payload in (b"", b"\xff", b"\xff\xff\xff"):
            state = state_for(0.999, 0.201, chain_bytes=payload)
            with pytest.raises(AssertionError):
                state.finish(256)

    def test_zero_symbol_stream_terminates_as_zero_byte(self):
        term = terminate_single(FinalCoderState(0, MASK32))
        assert term.data == b"\x00"
        assert term.appended == 1

    def test_renormalization_counts_in_appended(self):
        term = terminate_single(state_for(0.501, 0.004))
        assert term.appended == 2
        assert len(term.data) == 2


class TestJointTerminate:
    def test_interval_overlap_shares_smallest(self):
        fwd = state_for_bounds(77, 88, "forward")
        bwd = state_for_bounds(80, 95, "backward")
        term = joint_terminate(fwd, bwd, "fb")
        assert term.shared
        assert (term.fwd_value, term.bwd_value) == (80, 80)
        assert term.fwd_data[-1] == 80
        # backward stream keeps its payload only; junction stored once
        assert term.bwd_data == b"\x42"
        assert term.k_fwd == term.k_bwd == 1

    def test_disjoint_sets_terminate_separately(self):
        fwd = state_for_bounds(10, 14, "forward")
        bwd = state_for_bounds(60, 70, "backward")
        term = joint_terminate(fwd, bwd, "fb")
        assert not term.shared
        assert term.fwd_data[-1] == 10
        assert term.bwd_data[-1] == 60

    def test_forward_carry_junction(self):
        # forward set wraps past 256; shared byte realizes a forward carry
        fwd = state_for_bounds(250, 290, "forward")
        bwd = state_for_bounds(20, 60, "backward")
        term = joint_terminate(fwd, bwd, "fb")
        assert term.shared
        assert term.fwd_data[-1] == 20
        # the forward side carries, the backward side does not
        assert term.fwd_value == 276 and term.bwd_value == 20
        assert term.fwd_data == bytes([0x43, 20])  # chain byte incremented

    def test_fr_junction_is_bit_reversed_member(self, rnd):
        """The junction is the smallest stored byte both sides can end on.

        Checked for `fb` and `fr` against a brute force over all 256 stored
        bytes; in `fr` the backward side stores its byte bit-reversed.  The
        scalar `joint_terminate` and the array `junction_bytes` are both
        checked.
        """
        for mode in ("fb", "fr"):
            flip = REVERSED_BYTES if mode == "fr" else range(256)
            shared = 0
            sets, expected = [], []
            for _ in range(200):
                lo_f = rnd.randrange(0, 250)
                lo_b = rnd.randrange(0, 250)
                fwd = state_for_bounds(lo_f, lo_f + rnd.randrange(0, 120), "forward")
                bwd = state_for_bounds(lo_b, lo_b + rnd.randrange(0, 120), "backward")
                f_set = valid_byte_set(copy_state(fwd))
                b_set = valid_byte_set(copy_state(bwd))
                f_bytes = {t & 0xFF for t in range(f_set.lo, f_set.hi + 1)}
                b_bytes = {t & 0xFF for t in range(b_set.lo, b_set.hi + 1)}
                common = [z for z in range(256)
                          if z in f_bytes and flip[z] in b_bytes]
                sets.append((f_set.lo, f_set.hi, b_set.lo, b_set.hi))
                expected.append(common[0] if common else -1)
                term = joint_terminate(fwd, bwd, mode)
                assert term.shared == bool(common)
                if not common:
                    assert (term.fwd_value, term.bwd_value) == (f_set.lo, b_set.lo)
                    continue
                shared += 1
                z = term.fwd_data[-1]
                assert z == common[0]
                assert f_set.lo <= term.fwd_value <= f_set.hi
                assert b_set.lo <= term.bwd_value <= b_set.hi
                assert term.fwd_value & 0xFF == z
                assert term.bwd_value & 0xFF == flip[z]
            assert 0 < shared < 200
            columns = np.array(sets, dtype=np.int64).T
            assert junction_bytes(*columns, mode).tolist() == expected
        with pytest.raises(AssertionError):
            junction_bytes(np.array([0]), np.array([255]), np.array([0]),
                           np.array([0]), "fb")
        with pytest.raises(ValueError):
            junction_bytes(*columns, "uni")

    @pytest.mark.parametrize("mode", ["fb", "fr"])
    def test_junction_bytes_at_mask_word_edges(self, rnd, mode):
        """`junction_bytes` against a brute force over the 256 stored bytes.

        Every U mod 256 occurs on each side with every span of `spans`: the
        spans put a set's last byte on and next to the edges of the 64-bit
        mask words, and the widest wrap past 255.  U runs up to 511, so
        carried values are in.  Each set is paired with a random partner,
        so the cross product is sampled, not enumerated.
        """
        spans = (0, 1, 62, 63, 64, 65, 127, 128, 191, 192, 254)
        flip = REVERSED_BYTES if mode == "fr" else range(256)
        sets = [(u + 256 * rnd.randrange(2), span)
                for u in range(256) for span in spans]
        pairs = ([(s, rnd.choice(sets)) for s in sets]
                 + [(rnd.choice(sets), s) for s in sets])
        expected = []
        for (lo_f, span_f), (lo_b, span_b) in pairs:
            f_bytes = {t & 0xFF for t in range(lo_f, lo_f + span_f + 1)}
            b_bytes = {t & 0xFF for t in range(lo_b, lo_b + span_b + 1)}
            expected.append(next((z for z in range(256)
                                  if z in f_bytes and flip[z] in b_bytes), -1))
        lo_f, span_f, lo_b, span_b = np.array(
            [f + b for f, b in pairs], dtype=np.int64).T
        got = junction_bytes(lo_f, lo_f + span_f, lo_b, lo_b + span_b, mode)
        assert got.tolist() == expected
        # an odd count of pairs leaves the last packed byte half used
        assert junction_bytes(lo_f[1:], (lo_f + span_f)[1:], lo_b[1:],
                              (lo_b + span_b)[1:], mode).tolist() == expected[1:]
        # every mask word holds some pair's junction, and some pairs share none
        assert set(np.unique(got[got >= 0] // 64)) == {0, 1, 2, 3}
        assert (got == -1).any()

    def test_direction_validation(self):
        fwd = state_for_bounds(5, 9, "forward")
        with pytest.raises(ValueError):
            joint_terminate(fwd, state_for_bounds(5, 9, "forward"), "fb")
        with pytest.raises(ValueError):
            joint_terminate(fwd, state_for_bounds(5, 9, "backward"), "uni")


class TestAccounting:
    def test_single_formula(self):
        term = SingleTermination(b"\x00", appended=1, value=0, pending_bits=3.5)
        assert single_extra_bits(term.appended, term.pending_bits) == pytest.approx(4.5)
        # the same formula over arrays
        got = single_extra_bits(np.array([1, 2]), np.array([3.5, 0.25]))
        assert got.tolist() == [4.5, 15.75]

    def test_pair_formula_shared(self):
        term = JointTermination(b"", b"", shared=True,
                                k_fwd=1, k_bwd=1, fwd_value=0, bwd_value=0,
                                pending_fwd=3.0, pending_bwd=3.0)
        total = pair_extra_bits(single_extra_bits(term.k_fwd, term.pending_fwd),
                                single_extra_bits(term.k_bwd, term.pending_bwd),
                                term.shared)
        assert total / 2 == pytest.approx(1.0)  # per stream
        got = pair_extra_bits(np.array([5.0, 5.0]), np.array([5.0, 13.0]),
                              np.array([True, False]))
        assert got.tolist() == [2.0, 18.0]

    def test_stats_accumulate_and_merge(self):
        stats = TerminationStats()
        stats.add_single(SingleTermination(b"", 1, 0, 4.0))
        stats.add_pair(JointTermination(b"", b"", True, 1, 1, 0, 0, 2.0, 2.0))
        assert stats.streams == 3
        assert stats.mean_extra_bits == pytest.approx((4.0 + 4.0) / 3)
        assert stats.share_ratio == 1.0
        row = stats.csv_row("fb")
        assert row["mode"] == "fb" and row["share_ratio"] == "1.000000"

    def test_stats_empty_errors(self):
        with pytest.raises(ValueError):
            TerminationStats().mean_extra_bits
        assert TerminationStats().share_ratio is None


class TestValidityExhaustive:
    """Every member of every valid set must decode under any continuation."""

    def test_all_members_decode(self, rnd):
        renormed = 0
        carried = 0
        for _ in range(120):
            p0 = rnd.randrange(1, PROB_ONE)
            model = BinaryModel(p0)
            bits = random_bits(rnd, rnd.randrange(0, 250), 1 - p0 / PROB_ONE)
            base = encode_bit_stream(model, bits)
            vset = valid_byte_set(base)
            assert vset.prefix_bytes in (0, 1)  # termination adds 1 or 2 bytes
            assert 0.0 < base.pending_info <= 8.0
            renormed += vset.prefix_bytes
            for value in range(vset.lo, vset.hi + 1):
                carried += value >= 256
                data = copy_state(base).finish(value)
                continuation = bytes(rnd.randrange(256) for _ in range(6))
                got = Decoder(forward_source(data, continuation)).decode_bits(
                    model, len(bits))
                assert got == bits
        assert renormed > 0 or carried >= 0  # branch visibility only

    def test_shared_byte_decodes_both_streams(self, rnd):
        model = BinaryModel(32768)
        shared_seen = 0
        for _ in range(150):
            bits_f = random_bits(rnd, rnd.randrange(0, 200))
            bits_b = random_bits(rnd, rnd.randrange(0, 200))
            mode = "fr" if rnd.random() < 0.5 else "fb"
            reversed_bits = mode == "fr"
            fwd = encode_bit_stream(model, bits_f, "forward")
            bwd = encode_bit_stream(model, bits_b, "backward", reversed_bits)
            term = joint_terminate(fwd, bwd, mode)
            shared_seen += term.shared
            stored_bwd = term.bwd_data
            if reversed_bits:
                stored_bwd = bytes(REVERSED_BYTES[b] for b in stored_bwd)
            segment = term.fwd_data + stored_bwd[::-1]
            if term.shared:
                assert len(segment) == len(term.fwd_data) + len(term.bwd_data)
            cont = bytes(rnd.randrange(256) for _ in range(6))
            fwd_src = forward_source(segment, cont)
            assert Decoder(fwd_src).decode_bits(model, len(bits_f)) == bits_f
            buf = cont + segment
            bwd_src = stream_bytes(buf, "backward", reversed_bits)
            assert Decoder(bwd_src).decode_bits(model, len(bits_b)) == bits_b
        assert shared_seen > 30

    def test_consistency_identity_on_same_population(self, rnd):
        """Pair accounting equals single accounting minus 4 * share, exactly."""
        model_states = []
        for _ in range(400):
            p0 = rnd.randrange(1, PROB_ONE)
            model = BinaryModel(p0)
            bits = random_bits(rnd, rnd.randrange(0, 300), 1 - p0 / PROB_ONE)
            model_states.append(encode_bit_stream(model, bits))
        singles = TerminationStats()
        pairs = TerminationStats()
        for i in range(0, len(model_states), 2):
            fwd = model_states[i]
            bwd = model_states[i + 1]
            bwd.direction = "backward"
            singles.add_single(terminate_single(copy_state(fwd)))
            singles.add_single(terminate_single(copy_state(bwd)))
            pairs.add_pair(joint_terminate(fwd, bwd, "fb"))
        expected = singles.mean_extra_bits - 4.0 * pairs.share_ratio
        assert pairs.mean_extra_bits == pytest.approx(expected, abs=1e-9)
