"""The lockstep encode engine against the scalar `Encoder` loop.

`encode_parallel` picks an engine by stream count alone; these tests call
both engines directly, whatever the threshold, and require the same
segment bytes.  Both engines take the bytes `check_symbols` returns, so
other input and its errors are tested through `encode_parallel`.  Carries
and terminations are where a vectorized coder can go wrong, so the inputs
are chosen to reach them, and the scalar run counts each event to show
that they were reached.
"""

import math
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

from pecstream import pipeline, rangecoder, termination
from pecstream.container import assemble_container
from pecstream.pipeline import (
    LOCKSTEP_MIN_STREAMS,
    _encode_lockstep,
    _encode_scalar,
    decode_parallel,
    encode_parallel,
)
from pecstream.rangecoder import (
    PROB_ONE,
    BinaryModel,
    CdfModel,
    Encoder,
    carry_lanes,
    cdf_tables,
)

from test_acceptance import SEED, _mixed_entropy_file, _order0
from test_golden import CODECS, INPUTS, MODES, STREAMS
from test_lockstep import N_STREAMS, both_engines, source
from test_pipeline import order0


def both_encoders(symbols, model, n_streams, mode):
    """The common segment sizes and joined region of both engines; fails
    if they differ.  The lockstep engine hands its sizes over as one int64
    array, the scalar engine as a list."""
    scalar = _encode_scalar(symbols, model, n_streams, mode)
    sizes, region = _encode_lockstep(symbols, model, n_streams, mode)
    assert sizes.dtype == np.int64
    assert (list(sizes), region) == scalar
    return scalar


@pytest.mark.parametrize("n_streams", N_STREAMS)
@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_engines_agree_on_matrix(model_name, mode, codec, n_streams):
    # 2.5 symbols per stream: the shards differ in length by one
    symbols, model = source(model_name, 5 * n_streams // 2 + 1)
    sizes, region = both_encoders(symbols, model, n_streams, mode)
    blob = assemble_container(mode, codec, model, n_streams, len(symbols),
                              sizes, region)
    assert decode_parallel(blob) == symbols


@pytest.mark.parametrize("n_streams", (2, 64, 1024))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_engines_agree_on_shapes(model_name, mode, n_streams):
    # empty, one symbol, fewer symbols than streams, not divisible
    for n_symbols in (0, 1, n_streams - 1, 7 * n_streams + 3):
        symbols, model = source(model_name, n_symbols, seed=n_symbols)
        both_encoders(symbols, model, n_streams, mode)


def test_golden_inputs_encode_through_both_engines():
    for symbols, model in INPUTS.values():
        for mode in MODES:
            for n_streams in STREAMS:
                if n_streams == 1 and mode != "uni":
                    continue
                both_encoders(symbols, model, n_streams, mode)


def _widths(*pairs):
    """256 widths, zero but for the given (symbol, width) pairs."""
    widths = [0] * 256
    for symbol, width in pairs:
        widths[symbol] = width
    return widths


@pytest.mark.parametrize("widths", [
    # the last symbol has width 1, so it starts at c_lo = 65535
    pytest.param(_widths((0, 40000), (9, PROB_ONE - 40001), (255, 1)),
                 id="last-width-1"),
    # the top symbol, which keeps rng & 0xFFFF, has width 65535
    pytest.param(_widths((3, 1), (200, PROB_ONE - 1)), id="top-width-65535"),
    # two symbols, with zero-width symbols past the top one, at c_lo 65536
    pytest.param(_widths((10, 30000), (20, PROB_ONE - 30000)),
                 id="two-symbols"),
])
def test_cdf_tables_and_engines_on_edge_models(widths):
    """`cdf_tables` against the model, and both lockstep engines against
    the scalar `Encoder` and `Decoder`, where c_lo or a width sits at the
    edge of 16 bits."""
    model = CdfModel(accumulate(widths, initial=0))
    cdf = model.cdf
    rows, lookup = cdf_tables(model)
    assert rows.tolist() == [
        [cdf[s + 1] - cdf[s], cdf[s], 0xFFFF if cdf[s + 1] == PROB_ONE else 0,
         0] for s in range(256)]
    assert lookup.tolist() == [bisect_right(cdf, t) - 1
                               for t in range(PROB_ONE)]
    # the codable symbols, each as often as the others
    rnd = random.Random(len(model.codable))
    symbols = bytes(rnd.choices(model.codable, k=4000))
    for n_streams, mode in ((512, "fr"), (513, "uni"), (514, "fb")):
        sizes, region = both_encoders(symbols, model, n_streams, mode)
        blob = assemble_container(mode, "rtc", model, n_streams, len(symbols),
                                  sizes, region)
        assert both_engines(blob) == symbols


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


@pytest.mark.parametrize("symbols, model", [
    # 16 bits a symbol, two bytes a step: the byte bound's worst case ...
    (bytes(4000), CdfModel([0, 1] + [PROB_ONE] * 255)),
    (bytes(4000), BinaryModel(1)),
    # ... and next to it, with carries
    (bytes(range(256)) * 16, CdfModel([0] + [256 * s + 1 for s in range(255)]
                                      + [PROB_ONE])),
], ids=("width1-cdf", "width1-bits", "carries"))
def test_byte_bound_holds_for_costliest_symbols(symbols, model):
    for mode in MODES:
        both_encoders(symbols, model, 4, mode)


def _model_rows(widths, n_symbols, n_lanes):
    """The lockstep encoder's bound on its rows from the model alone: every
    step at the cost, in 1/256 bits rounded up, of the narrowest nonzero
    width, in bytes, plus three."""
    loss = -math.log2(1 - 2 ** -8)
    cost = max(math.floor(256 * (math.log2(PROB_ONE / w) + loss)) + 1
               for w in widths if w)
    return -(-n_symbols // n_lanes) * cost // 2048 + 3


def _spy_rows(monkeypatch):
    """The widths of the lockstep encoder's byte matrices, one list per
    block: the width its rows start at, then each one they widen to."""
    blocks = []
    empty = np.empty

    def spy(shape, dtype=float, *args, **kwargs):
        if dtype is np.uint8 and isinstance(shape, tuple) and len(shape) == 2:
            # a block's rows only widen, so rows no wider than the last
            # ones start the next block
            if not blocks or shape[1] <= blocks[-1][-1]:
                blocks.append([])
            blocks[-1].append(shape[1])
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    return blocks


def _rare_byte_text(n, seed=9):
    """n letters and spaces with one "~" in the middle.  From n = 65537 on
    the order0 model of the text gives "~" width 1 or 2, as the rounding
    remainders fall."""
    text = bytearray(random.Random(seed).choices(b"etaoin shrdlu", k=n))
    text[n // 2] = ord("~")
    return bytes(text)


def _rare_byte_source(n):
    text = _rare_byte_text(n)
    model = order0(text)
    assert min(w for w in model.widths() if w) == 1
    return text, model


# 16386 lanes: the rows of one block, not of all lanes, are held to the
# limit
@pytest.mark.parametrize("n_lanes", (512, 8194, 16386))
@pytest.mark.parametrize("symbols, model", [
    (bytes(4000), CdfModel([0, 1] + [PROB_ONE] * 255)),
    (bytes(4000), BinaryModel(1)),
    (bytes(range(256)) * 16, CdfModel([0] + [256 * s + 1 for s in range(255)]
                                      + [PROB_ONE])),
    # Bernoulli(0.1): rows several times the longest lane
    (bytes(random.Random(4).random() < 0.1 for _ in range(40000)),
     BinaryModel(PROB_ONE - 6554)),
    # a width-1 symbol in order0 text: two bytes a step, 0.22 and 0.24 MiB
    # matrices at 512 and 8194 lanes, next to the model rows' limit
    _rare_byte_source(114000),
], ids=("width1-cdf", "width1-bits", "carries", "bernoulli-0.1",
        "rare-byte-text"))
def test_lane_bytes_from_the_model(symbols, model, n_lanes, monkeypatch):
    # no block's rows pass the model's bound on a lane, and where that
    # bound fits the start cap, as in all of these cases, the rows start
    # there and never widen; the bytes are the scalar engine's
    blocks = _spy_rows(monkeypatch)
    for mode in MODES:
        both_encoders(symbols, model, n_lanes, mode)
    bound = _model_rows(model.widths(), len(symbols), n_lanes)
    assert max(max(rows) for rows in blocks) <= bound
    assert bound * min(n_lanes, pipeline._LOCKSTEP_BLOCK) <= \
        pipeline._MODEL_ROWS_BYTES
    n_blocks = -(-n_lanes // pipeline._LOCKSTEP_BLOCK)
    assert blocks == [[bound]] * len(MODES) * n_blocks


@pytest.mark.parametrize("n_streams", (2, 64, 66, 8194))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name, steps", [("order0", 150),
                                               ("bernoulli", 600)])
def test_rows_widen_as_lanes_fill_them(model_name, steps, mode, n_streams,
                                       monkeypatch):
    # with a 1-byte start cap, rows start at 16 bytes and the lanes,
    # short ones included, fill them to 50-190 bytes, so every block
    # widens at least twice, by a quarter or 16 bytes, and at 8194 order0
    # lanes the first block's rows stop at the model's bound
    monkeypatch.setattr(pipeline, "_MODEL_ROWS_BYTES", 1)
    symbols, model = source(model_name, steps * n_streams + n_streams // 2 + 1)
    blocks = _spy_rows(monkeypatch)
    both_encoders(symbols, model, n_streams, mode)
    bound = _model_rows(model.widths(), len(symbols), n_streams)
    assert len(blocks) == -(-n_streams // pipeline._LOCKSTEP_BLOCK)
    for rows in blocks:
        assert rows[0] == min(bound, 16) and len(rows) >= 3, rows
        assert rows[1:] == [min(bound, width + max(16, width // 4))
                            for width in rows[:-1]]


def test_carry_ripples_into_bytes_before_a_widening(monkeypatch):
    """A carry ripples through 0xFF bytes into a byte that its lane wrote
    before the rows widened, so the widening must have kept it.

    The spies track each lane's length from the shifts `renormalize`
    returns, note the lengths when a block's rows are made or widened, and
    find the lowest byte each carry changes.
    """
    _, model = source("order0", 4096)
    rnd = random.Random(8)
    n_streams = 1024
    symbols = bytes(s for _ in range(n_streams)
                    for s in _chase_lane(rnd, model, 64))
    monkeypatch.setattr(pipeline, "_MODEL_ROWS_BYTES", 1)
    length = np.zeros(n_streams, dtype=np.int64)
    widened = length.copy()
    reached = []
    renormalize, carry_lanes, empty = (pipeline.renormalize,
                                       pipeline.carry_lanes, np.empty)

    def spy_renormalize(low, rng):
        shift = renormalize(low, rng)
        length[:] += shift >> 3
        return shift

    def spy_empty(shape, dtype=float, *args, **kwargs):
        if dtype is np.uint8 and isinstance(shape, tuple) and len(shape) == 2:
            widened[:] = length
        return empty(shape, dtype, *args, **kwargs)

    def spy_carry(flat, last, first):
        width = len(flat) // n_streams
        for end, start in zip(last.tolist(), first.tolist()):
            stop = end
            while stop > start and flat[stop] == 0xFF:
                stop -= 1
            reached.append(stop < end and
                           stop - start < widened[start // width])
        carry_lanes(flat, last, first)

    monkeypatch.setattr(pipeline, "renormalize", spy_renormalize)
    monkeypatch.setattr(pipeline, "carry_lanes", spy_carry)
    monkeypatch.setattr(np, "empty", spy_empty)
    for mode in MODES:
        length[:] = 0
        reached.clear()
        both_encoders(symbols, model, n_streams, mode)
        assert any(reached), mode


def test_encoder_memory_peak():
    """The lockstep encoder's Python-heap peak on about 1 MiB.

    On the 1 MiB mixed-entropy input at 65536 fr streams, and at 65537 uni
    streams, whose lanes differ in length, its symbol layout and byte rows
    hold no input-sized copy beyond the one (steps, lanes) array and,
    while short lanes are padded to build it, np.insert's copy and mask:
    the peak was 4.3 and 3.7 MiB, and an intp copy of each 2**20-symbol
    chunk that a per-lane cost pass gathered through took the first to
    11.6 MiB.  Under a width-1 symbol the model bounds a lane at two bytes
    a step, where text fills about 0.5.  On 1 MiB of such text the rows
    start at the start cap, 512 bytes at 512 uni streams and 32 at 8192
    fr, and widen as the lanes fill them: the peaks were 3.0 and 4.4 MiB
    (3.0 and 4.1 where a pass summed each lane's costs instead).  3/4 MiB
    at 65536 fr streams, in rows at the model's bound, peaked at 3.3 MiB.
    """
    data = _mixed_entropy_file(random.Random(SEED), 1 << 20)
    runs = ((data, 65536, "fr"), (data, 65537, "uni"),
            (_rare_byte_text(1 << 20), 512, "uni"),
            (_rare_byte_text(1 << 20), 8192, "fr"),
            (_rare_byte_text(3 << 18), 65536, "fr"))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for symbols, n_lanes, mode in runs:
            model = _order0(symbols)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _encode_lockstep(symbols, model, n_lanes, mode)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= 6 << 20, (n_lanes, mode, peak)
    finally:
        if not tracing:
            tracemalloc.stop()


def test_encode_parallel_dispatches_on_stream_count(monkeypatch):
    calls = []

    def engine(name):
        def run(symbols, model, n_streams, mode):
            calls.append(name)
            return [0] * (n_streams // 2), b""
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


_ALPHABET = (ValueError, "256-symbol models code 0..255 symbols only")
_BITS = (ValueError, "binary models code 0/1 symbols only")
_FLOAT = (TypeError, "'float' object cannot be interpreted as an integer")


def _zero_width(s):
    return ValueError, f"symbol {s} has zero width in this model"


#: (symbols, model, the error type and message coding them raises)
_ERROR_CASES = [
    # 64 symbols: a symbol outside 0..255 ...
    ([1] * 40 + [256] + [2] * 23, _zero_width_model(), _ALPHABET),
    # ... raises before a zero-width one, wherever each of them is
    ([1] * 40 + [7, -1] + [2] * 22, _zero_width_model(), _ALPHABET),
    ([1] * 3 + [9] + [1] * 40 + [300] + [2] * 19, _zero_width_model(),
     _ALPHABET),
    ([1] * 40 + [7] + [2] * 10 + [-1] + [2] * 12, _zero_width_model(),
     _ALPHABET),
    # the first zero-width symbol in input order is named
    (bytes([1] * 10 + [7, 2, 3] + [2] * 51), _zero_width_model(),
     _zero_width(7)),
    ([2] * 63 + [0], _zero_width_model(), _zero_width(0)),
    # bits
    (b"\x00\x01" * 31 + b"\x02\x00", BinaryModel(100), _BITS),
    ([0, 1] * 31 + [-1, 0], BinaryModel(100), _BITS),
    ([0.5] + [0] * 63, BinaryModel(100), _BITS),
    # floats index no cdf table: the coder's TypeError, unless a zero-width
    # symbol comes first ...
    ([1.0, 2.0] * 32, _zero_width_model(), _FLOAT),
    (np.array([1, 2] * 32, dtype=np.float64), _zero_width_model(),
     (TypeError,
      "'numpy.float64' object cannot be interpreted as an integer")),
    ([1] * 20 + [2.0] + [1] * 43, _zero_width_model(), _FLOAT),
    ([1] * 20 + [7, 2.0] + [1] * 42, _zero_width_model(), _zero_width(7)),
    # ... or a symbol outside 0..255 anywhere in the input
    ([1] * 20 + [2.0, 1, 256] + [1] * 41, _zero_width_model(), _ALPHABET),
    ([1] * 3 + [2.0] + [1] * 40 + [300] + [1] * 19, _zero_width_model(),
     _ALPHABET),
]


# a bytes input is named "bytes", not after its escaped bytes; the other
# inputs keep pytest's names, symbols<case>-model<case>
@pytest.mark.parametrize(
    "symbols, model", [case[:2] for case in _ERROR_CASES],
    ids=lambda value: "bytes" if isinstance(value, bytes) else None)
def test_same_errors_as_scalar(symbols, model, monkeypatch):
    # encode_parallel checks the whole input before either engine runs, so
    # every stream count raises the error of coding it as one batch
    kind, message = next(error for given, _, error in _ERROR_CASES
                         if given is symbols)
    enc = Encoder()
    code = enc.encode_bits if isinstance(model, BinaryModel) \
        else enc.encode_symbols
    with pytest.raises(kind) as batch:
        code(model, symbols)
    assert str(batch.value) == message
    assert enc.state == Encoder().state and not enc._out

    def no_engine(*args):
        raise AssertionError("an engine ran before the symbols were checked")

    monkeypatch.setattr(pipeline, "_encode_scalar", no_engine)
    monkeypatch.setattr(pipeline, "_encode_lockstep", no_engine)
    for n_streams in (1, 2, 8, 64, 512, 1024):
        with pytest.raises(kind) as parallel:
            encode_parallel(symbols, model, n_streams)
        assert type(parallel.value) is kind, n_streams
        assert str(parallel.value) == message, n_streams


@pytest.mark.parametrize("n_streams", (8, 1024))
def test_integer_arrays_code_as_bytes(n_streams):
    # an integer or bool array in the alphabet writes the container its
    # bytes write; one holding a value outside it raises as a list does
    data, _ = source("order0", 3000)
    low = bytes(b & 0x7F for b in data)
    bits, bit_model = source("bernoulli", 3000)
    for symbols, model, dtype in ((data, order0(data), np.int64),
                                  (low, order0(low), np.int8),
                                  (bits, bit_model, np.bool_)):
        array = np.frombuffer(symbols, dtype=np.uint8).astype(dtype)
        assert encode_parallel(array, model, n_streams, "fr") == \
            encode_parallel(symbols, model, n_streams, "fr")
    for array in (np.array([1, 256, 2], dtype=np.int64),
                  np.array([1, -1, 2], dtype=np.int8)):
        with pytest.raises(ValueError, match="0..255"):
            encode_parallel(array, order0(data), n_streams)


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
    so in one `carry_lanes` call, whatever their ripple lengths.
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
        carry_lanes(flat, row[hit] + length[hit] - 1, row[hit])
    return [bytes(out[k, :n]) for k, n in enumerate(length)]


def test_carry_lanes_matches_carry():
    # carry_lanes equals _carry applied lane by lane, including a carry
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
