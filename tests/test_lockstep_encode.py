"""The lockstep encode engine against the scalar `Encoder` loop.

`encode_parallel` picks an engine by stream count alone; these tests call
both engines directly, whatever the threshold, and require the same
segment bytes, or the same error.  Carries and terminations are where a
vectorized coder can go wrong, so the inputs are chosen to reach them, and
the scalar run counts each event to show that they were reached.
"""

import random
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from pecstream import pipeline, rangecoder, termination
from pecstream.container import write_container
from pecstream.pipeline import (
    LOCKSTEP_MIN_STREAMS,
    _carry_lanes,
    _encode_lockstep,
    _encode_scalar,
    decode_parallel,
    encode_parallel,
)
from pecstream.rangecoder import PROB_ONE, BinaryModel, CdfModel, Encoder

from test_golden import CODECS, INPUTS, MODES, STREAMS
from test_lockstep import N_STREAMS, source


def both_encoders(symbols, model, n_streams, mode):
    """The common segments of both engines; fails if they differ."""
    scalar = _encode_scalar(symbols, model, n_streams, mode)
    assert _encode_lockstep(symbols, model, n_streams, mode) == scalar
    return scalar


@pytest.mark.parametrize("n_streams", N_STREAMS)
@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_engines_agree_on_matrix(model_name, mode, codec, n_streams):
    # 2.5 symbols per stream: the shards differ in length by one
    symbols, model = source(model_name, 5 * n_streams // 2 + 1)
    segments = both_encoders(symbols, model, n_streams, mode)
    blob = write_container(mode, codec, model, n_streams, len(symbols),
                           segments)
    assert decode_parallel(blob) == symbols


@pytest.mark.parametrize("n_streams", (2, 64, 1024))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_engines_agree_on_shapes(model_name, mode, n_streams):
    # empty, one symbol, fewer symbols than streams, not divisible, and a
    # list or an int64 array rather than bytes
    for n_symbols in (0, 1, n_streams - 1, 7 * n_streams + 3):
        symbols, model = source(model_name, n_symbols, seed=n_symbols)
        both_encoders(symbols, model, n_streams, mode)
    both_encoders(list(symbols), model, n_streams, mode)
    both_encoders(np.array(list(symbols), dtype=np.int64), model, n_streams,
                  mode)


def test_golden_inputs_encode_through_both_engines():
    for symbols, model in INPUTS.values():
        for mode in MODES:
            for n_streams in STREAMS:
                if n_streams == 1 and mode != "uni":
                    continue
                both_encoders(symbols, model, n_streams, mode)


def _chase_lane(rnd, model, n):
    """n symbols that, between two random steps, keep the coder's interval
    across 2**32 (the point the next carry adds to its bytes), so that
    renormalization emits 0xFF bytes a later carry must ripple through."""
    binary = isinstance(model, BinaryModel)
    enc = Encoder()
    code = enc.encode_bits if binary else enc.encode_symbols
    start = rnd.randrange(n)
    stop = rnd.randrange(start, n + 1)
    out = []
    for i in range(n):
        low, rng = enc.state
        t = (1 << 32) - low
        if start <= i < stop and 0 < t < rng:
            if binary:
                s = int(t >= (rng >> 16) * model.p0)
            else:
                s = bisect_right(model.cdf, min(t // (rng >> 16), 65535)) - 1
        elif binary:
            s = int(rnd.random() < 0.3)
        else:
            s = rnd.choice(b"aeiou xy")
        out.append(s)
        code(model, [s])
    return out


def _scalar_events(symbols, model, n_streams, mode, monkeypatch):
    """Count the carry and termination events of a scalar encode."""
    events = Counter()
    carry = rangecoder._carry

    def logged_carry(out):
        run = len(out) - len(bytes(out).rstrip(b"\xff"))
        events["ripple"] = max(events["ripple"], run)
        events["byte0"] += run == len(out) - 1
        carry(out)

    def logged_set(state):
        vset = valid_byte_set(state)
        events["renorm"] += vset.prefix_bytes
        return vset

    def logged_single(state):
        term = terminate_single(state)
        events["value256"] += term.value >= 256
        return term

    def logged_joint(fwd, bwd, mode):
        term = joint_terminate(fwd, bwd, mode)
        events["shared" if term.shared else "unshared"] += 1
        events["value256"] += max(term.fwd_value, term.bwd_value) >= 256
        return term

    valid_byte_set = termination.valid_byte_set
    terminate_single = termination.terminate_single
    joint_terminate = termination.joint_terminate
    with monkeypatch.context() as patch:
        patch.setattr(rangecoder, "_carry", logged_carry)
        patch.setattr(termination, "valid_byte_set", logged_set)
        patch.setattr(pipeline, "terminate_single", logged_single)
        patch.setattr(pipeline, "joint_terminate", logged_joint)
        _encode_scalar(symbols, model, n_streams, mode)
    return events


@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_carries_and_terminations(model_name, monkeypatch):
    _, model = source(model_name, 4096)
    rnd = random.Random(8)
    n_streams = 1024
    symbols = bytes(s for _ in range(n_streams)
                    for s in _chase_lane(rnd, model, 24))
    for mode in MODES:
        both_encoders(symbols, model, n_streams, mode)
        events = _scalar_events(symbols, model, n_streams, mode, monkeypatch)
        # carries through 0xFF runs and into a lane's first byte,
        # renormalizing terminations, termination values >= 256
        assert events["ripple"] >= 2 and events["byte0"], events
        assert events["renorm"] and events["value256"], events
        if mode != "uni":
            assert events["shared"] and events["unshared"], events


@pytest.mark.parametrize("mode", MODES)
def test_lanes_split_into_blocks(mode, monkeypatch):
    for model_name in ("order0", "bernoulli"):
        # one block of 8192 lanes and a partial second block
        symbols, model = source(model_name, 20000)
        both_encoders(symbols, model, 8194, mode)
    monkeypatch.setattr(pipeline, "_LOCKSTEP_BLOCK", 6)
    for model_name in ("order0", "bernoulli"):
        for n_streams in (2, 64, 66):
            symbols, model = source(model_name, 7 * n_streams + 3)
            both_encoders(symbols, model, n_streams, mode)


@pytest.mark.parametrize("budget", (1, 100, 1000))
def test_byte_budget_splits_blocks(budget, monkeypatch):
    # lanes too wide for the budget are coded a few pairs at a time
    monkeypatch.setattr(pipeline, "_LOCKSTEP_BYTES", budget)
    for model_name in ("order0", "bernoulli"):
        symbols, model = source(model_name, 7 * 66 + 3)
        for mode in MODES:
            both_encoders(symbols, model, 66, mode)


@pytest.mark.parametrize("symbols, model", [
    # 16 bits a symbol, two bytes a step: the byte bound's worst case ...
    (bytes(4000), CdfModel([0, 1] + [PROB_ONE] * 255)),
    (bytes(4000), BinaryModel(1)),
    # ... and next to it, with carries
    (bytes(range(256)) * 16, CdfModel([0] + [256 * s + 1 for s in range(255)]
                                      + [PROB_ONE])),
])
def test_byte_bound_holds_for_costliest_symbols(symbols, model):
    for mode in MODES:
        both_encoders(symbols, model, 4, mode)


def test_encode_parallel_dispatches_on_stream_count(monkeypatch):
    calls = []

    def engine(name):
        def run(symbols, model, n_streams, mode):
            calls.append(name)
            return [b""] * (n_streams // 2)
        return run

    monkeypatch.setattr(pipeline, "_encode_lockstep", engine("lockstep"))
    monkeypatch.setattr(pipeline, "_encode_scalar", engine("scalar"))
    model = BinaryModel(30000)
    for n_streams in (LOCKSTEP_MIN_STREAMS - 2, LOCKSTEP_MIN_STREAMS):
        encode_parallel(b"\x01\x00", model, n_streams, "fr")
    assert calls == ["scalar", "lockstep"]


def _zero_width_model():
    counts = [0] * 256
    counts[1] = counts[2] = counts[200] = 5
    return CdfModel.from_counts(counts)


@pytest.mark.parametrize("symbols, model", [
    # 64 symbols, 8 per shard: a symbol outside 0..255 ...
    ([1] * 40 + [256] + [2] * 23, _zero_width_model()),
    # ... after a zero-width one in its shard (the alphabet is checked first)
    ([1] * 40 + [7, -1] + [2] * 22, _zero_width_model()),
    # ... after a zero-width one in an earlier shard, which wins
    ([1] * 3 + [9] + [1] * 40 + [300] + [2] * 19, _zero_width_model()),
    ([1] * 40 + [7] + [2] * 10 + [-1] + [2] * 12, _zero_width_model()),
    # the first zero-width symbol in input order is named
    (bytes([1] * 10 + [7, 2, 3] + [2] * 51), _zero_width_model()),
    ([2] * 63 + [0], _zero_width_model()),
    # bits
    (b"\x00\x01" * 31 + b"\x02\x00", BinaryModel(100)),
    ([0, 1] * 31 + [-1, 0], BinaryModel(100)),
    ([0.5] + [0] * 63, BinaryModel(100)),
    # floats index no cdf table: the scalar coder's TypeError, unless a
    # zero-width symbol comes first ...
    ([1.0, 2.0] * 32, _zero_width_model()),
    (np.array([1, 2] * 32, dtype=np.float64), _zero_width_model()),
    ([1] * 20 + [2.0] + [1] * 43, _zero_width_model()),
    ([1] * 20 + [7, 2.0] + [1] * 42, _zero_width_model()),
    # ... or a symbol outside 0..255 in its shard, not in a later one
    ([1] * 20 + [2.0, 1, 256] + [1] * 41, _zero_width_model()),
    ([1] * 3 + [2.0] + [1] * 40 + [300] + [1] * 19, _zero_width_model()),
])
def test_same_errors_as_scalar(symbols, model, monkeypatch):
    n_streams = 8
    with pytest.raises((ValueError, TypeError)) as scalar:
        _encode_scalar(symbols, model, n_streams, "fb")

    def no_lanes(*args):
        raise AssertionError("lanes were built before the symbols were checked")

    monkeypatch.setattr(pipeline, "_lane_mask", no_lanes)
    with pytest.raises((ValueError, TypeError)) as lockstep:
        _encode_lockstep(symbols, model, n_streams, "fb")
    assert type(lockstep.value) is type(scalar.value)
    assert str(lockstep.value) == str(scalar.value)


def _carry_histories(rnd, count):
    """Seeded (emit, byte) / (carry, None) event lists of one lane."""
    for _ in range(count):
        events = []
        for _ in range(rnd.randrange(8)):
            if rnd.random() < 0.4:
                events.append(("carry", None))
            else:
                events.append(("emit", rnd.choice((0, 0xFE, 0xFF, 0xFF, 7))))
        yield events


def _carry_rows(histories, width=8):
    """Each history's bytes, the histories run as rows of one matrix.

    At step t every row takes its t-th event; the rows that carry at t do
    so in one `_carry_lanes` call, whatever their ripple lengths.
    """
    out = np.full((len(histories), width), 0xFF, dtype=np.uint8)
    flat = out.reshape(-1)
    row = np.arange(len(histories)) * width
    length = np.zeros(len(histories), dtype=np.int64)
    for t in range(max(map(len, histories))):
        kinds = [h[t] if t < len(h) else (None, None) for h in histories]
        emit = np.array([kind == "emit" for kind, _ in kinds])
        flat[row[emit] + length[emit]] = [b for kind, b in kinds
                                          if kind == "emit"]
        length += emit
        hit = np.flatnonzero([kind == "carry" for kind, _ in kinds])
        _carry_lanes(flat, row[hit] + length[hit] - 1, row[hit])
    return [bytes(out[k, :n]) for k, n in enumerate(length)]


def test_carry_lanes_matches_carry():
    # _carry_lanes equals _carry applied lane by lane, including a carry
    # before any byte and one rippling past an all-0xFF lane, which both
    # refuse with the same error
    rnd = random.Random(3)
    histories = [[("carry", None)], [("emit", 0xFF), ("carry", None)],
                 [("emit", 0), ("emit", 0xFF), ("carry", None)]]
    histories += _carry_histories(rnd, 400)
    kept, expected, refused = [], [], []
    for events in histories:
        scalar = bytearray()
        try:
            for kind, byte in events:
                if kind == "emit":
                    scalar.append(byte)
                else:
                    rangecoder._carry(scalar)
        except AssertionError as exc:
            refused.append((events, str(exc)))
        else:
            kept.append(events)
            expected.append(bytes(scalar))
    assert len(refused) >= 3 and len(kept) >= 200
    assert _carry_rows(kept) == expected
    for events, error in refused:
        with pytest.raises(AssertionError) as lanes:
            _carry_rows([events])
        assert str(lanes.value) == error
