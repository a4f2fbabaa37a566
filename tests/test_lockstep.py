"""The lockstep decode engine against the scalar `Decoder` loop.

`decode_parallel` picks an engine by stream count alone; these tests call
both engines directly, whatever the threshold, and require byte-identical
output.  Valid containers cannot tell a wrong continuation byte from a
right one (termination makes every continuation decode the coded symbols),
so over-long symbol counts and corrupted containers are compared as well:
there the bytes past a segment's end decide the output.
"""

import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import pecstream
from pecstream import pipeline
from pecstream.bitio import TruncatedStreamError
from pecstream.container import ContainerFormatError, read_container
from pecstream.pipeline import (
    LOCKSTEP_MIN_STREAMS,
    _decode_lockstep,
    _decode_scalar,
    decode_parallel,
    encode_parallel,
)
from pecstream.rangecoder import PROB_ONE, _RUN_GATE, BinaryModel, CdfModel

from test_golden import CODECS, INPUTS, MODES, STREAMS, bernoulli_bits, mixed_bytes
from test_pipeline import order0

N_STREAMS = (2, 64, 1024, 4096)
#: the fixed header is "<4sBBBBIQI"; the uint64 is the symbol count
_N_SYMBOLS_OFFSET = struct.calcsize("<4sBBBBI")


def source(model_name: str, n_symbols: int, seed: int = 1):
    if model_name == "order0":
        data = mixed_bytes(seed, n_symbols)
        return data, order0(data)
    return bernoulli_bits(seed, n_symbols, 9000), BinaryModel(65536 - 9000)


def both_engines(blob: bytes) -> bytes:
    """The common output of both engines; fails if they differ."""
    header, seg_map = read_container(blob)
    scalar = _decode_scalar(blob, header, seg_map)
    assert _decode_lockstep(blob, header, seg_map) == scalar
    return scalar


@pytest.mark.parametrize("n_streams", N_STREAMS)
@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_engines_agree_on_matrix(model_name, mode, codec, n_streams):
    # 2.5 symbols per stream: the shards differ in length by one
    symbols, model = source(model_name, 5 * n_streams // 2 + 1)
    blob = encode_parallel(symbols, model, n_streams, mode, codec)
    assert both_engines(blob) == symbols


@pytest.mark.parametrize("n_streams", (2, 64, 1024))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_engines_agree_on_shapes(model_name, mode, n_streams):
    # empty, one symbol, fewer symbols than streams, not divisible, divisible
    for n_symbols in (0, 1, n_streams - 1, 7 * n_streams + 3, 4 * n_streams):
        symbols, model = source(model_name, n_symbols, seed=n_symbols)
        blob = encode_parallel(symbols, model, n_streams, mode, "rtc")
        assert both_engines(blob) == symbols, n_symbols


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_reads_past_segment_end(model_name, mode):
    # Claiming more symbols than were coded makes both engines decode the
    # continuation: 0x00 past the segment's end, never a neighbour's bytes.
    symbols, model = source(model_name, 3000, seed=11)
    blob = bytearray(encode_parallel(symbols, model, 1024, mode, "bic"))
    header, seg_map = read_container(bytes(blob))
    assert min(seg_map.sizes()) < 4  # the first 4-byte load runs past the end
    for extra in (1, 1024, 5 * 1024 + 17):
        struct.pack_into("<Q", blob, 12, len(symbols) + extra)
        assert len(both_engines(bytes(blob))) == len(symbols) + extra


@pytest.mark.parametrize("mode", MODES)
def test_symbols_at_cdf_index_255(mode):
    rnd = random.Random(255)
    # 255 as the top symbol (cdf[256] == 65536 ends its interval) ...
    data = bytes(rnd.choice((0, 7, 255, 255, 255)) for _ in range(5000))
    for n_streams in (2, 1024):
        blob = encode_parallel(data, order0(data), n_streams, mode, "gamma")
        assert both_engines(blob) == data
    # ... and with zero width, the top symbol being 200
    widths = [0] * 256
    widths[3], widths[200] = 1000, PROB_ONE - 1000
    model = CdfModel([0] * 4 + [1000] * 197 + [PROB_ONE] * 56)
    assert model.widths() == widths
    data = bytes(rnd.choice((3, 200, 200)) for _ in range(3000))
    blob = encode_parallel(data, model, 512, mode, "i32")
    assert both_engines(blob) == data


@pytest.mark.parametrize("mode", MODES)
def test_lanes_split_into_blocks(mode, monkeypatch):
    for model_name in ("order0", "bernoulli"):
        # one block of 8192 lanes and a partial second block
        symbols, model = source(model_name, 20000)
        blob = encode_parallel(symbols, model, 8194, mode, "gamma")
        assert both_engines(blob) == symbols
    monkeypatch.setattr(pipeline, "_LOCKSTEP_BLOCK", 5)
    for model_name in ("order0", "bernoulli"):
        for n_streams in (2, 64, 66):
            symbols, model = source(model_name, 7 * n_streams + 3)
            blob = encode_parallel(symbols, model, n_streams, mode, "rtc")
            assert both_engines(blob) == symbols


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("symbols, model, min_bytes", [
    # 16 bits a symbol: every step moves two bytes ...
    pytest.param(bytes(7 * 512 + 5), CdfModel([0, 1] + [PROB_ONE] * 255), 2,
                 id="cdf-width-1"),
    pytest.param(bytes(7 * 512 + 5), BinaryModel(1), 2, id="bit-width-1"),
    # ... and widths 1, 256 and 511: steps of zero, one and two bytes side
    # by side
    pytest.param(bytes(random.Random(16).choices(range(256), k=7 * 512 + 5)),
                 CdfModel([0] + [256 * s + 1 for s in range(255)]
                          + [PROB_ONE]), 0.9, id="cdf-widths-1-256-511"),
])
def test_two_byte_steps(symbols, model, min_bytes, mode):
    blob = encode_parallel(symbols, model, 512, mode, "rtc")
    assert read_container(blob)[0].data_size >= min_bytes * len(symbols)
    assert both_engines(blob) == symbols


@pytest.mark.parametrize("model_name", ("order0", "bernoulli"))
def test_corrupted_data_in_two_blocks(model_name):
    # 8194 lanes are a block of 8192 and one of 2, and 6.5 symbols a lane
    # pad the last step.  A lane's value stays below its range whatever
    # bytes it reads, unless its first four are 0xFF: it then starts at its
    # range, decodes the top symbol from there on and drops bits as it
    # shifts, the uint32 lanes by wrapping and the scalar decoder by
    # masking.  So some segments of four bytes or more become all 0xFF,
    # and other data bytes are replaced at random
    rnd = random.Random(8194)
    n_symbols = 13 * 8194 // 2 + 1
    if model_name == "order0":
        symbols, model = source("order0", n_symbols)
    else:
        # mostly the rarer bit, for segments long enough to fill
        symbols = bernoulli_bits(1, n_symbols, 60000)
        model = BinaryModel(PROB_ONE - 2000)
    for mode in MODES:
        blob = encode_parallel(symbols, model, 8194, mode, "rtc")
        _, seg_map = read_container(blob)
        offset = seg_map.data_offset
        spans = [(offset + start, offset + stop) for start, stop in
                 zip(seg_map.boundaries, seg_map.boundaries[1:])
                 if stop - start >= 4]
        for _ in range(4):
            bad = bytearray(blob)
            for start, stop in rnd.sample(spans, 32):
                bad[start:stop] = b"\xff" * (stop - start)
            for _ in range(rnd.randrange(1, 400)):
                bad[rnd.randrange(offset, len(bad))] = rnd.randrange(256)
            assert both_engines(bytes(bad)) != symbols


@pytest.mark.parametrize("mode", MODES)
def test_corrupted_runs_of_zeros(mode):
    # Under a binary model above the run gate the scalar decoder takes four
    # zeros at a time; 64 lanes of ~500 bits, one in 22 a one, have runs of
    # four and more.  Corrupted, and claiming extra symbols, the bytes past
    # a segment's end and the replaced ones decide the output
    rnd = random.Random(64)
    model = BinaryModel(PROB_ONE - 3000)
    assert model.p0 >= _RUN_GATE
    symbols = bernoulli_bits(3, 64 * 500 + 7, 3000)
    blob = encode_parallel(symbols, model, 64, mode, "rtc")
    _, seg_map = read_container(blob)
    offset = seg_map.data_offset
    spans = [(offset + start, offset + stop) for start, stop in
             zip(seg_map.boundaries, seg_map.boundaries[1:])]
    for trial in range(8):
        bad = bytearray(blob)
        for start, stop in rnd.sample(spans, 4):
            bad[start:stop] = b"\xff" * (stop - start)
        for _ in range(rnd.randrange(1, 40)):
            bad[rnd.randrange(offset, len(bad))] = rnd.randrange(256)
        if trial & 1:
            struct.pack_into("<Q", bad, _N_SYMBOLS_OFFSET, len(symbols) + 999)
        assert both_engines(bytes(bad))[:len(symbols)] != symbols


def test_golden_inputs_decode_through_both_engines():
    # The index codec only moves the data region, and a lockstep step over
    # one or two lanes costs 15-50 us, so the codecs take turns: every
    # (model, mode, N_s) cell once, every codec several times.
    turn = 0
    for model_name, (symbols, model) in INPUTS.items():
        for mode in MODES:
            for n_streams in STREAMS:
                if n_streams == 1 and mode != "uni":
                    continue
                codec = CODECS[turn % len(CODECS)]
                turn += 1
                blob = encode_parallel(symbols, model, n_streams, mode, codec)
                assert both_engines(blob) == symbols, \
                    (model_name, mode, codec, n_streams)


def test_decode_parallel_dispatches_on_stream_count(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "_decode_lockstep",
                        lambda *args: calls.append("lockstep") or b"")
    monkeypatch.setattr(pipeline, "_decode_scalar",
                        lambda *args: calls.append("scalar") or b"")
    model = BinaryModel(30000)
    for n_streams in (LOCKSTEP_MIN_STREAMS - 2, LOCKSTEP_MIN_STREAMS):
        decode_parallel(encode_parallel(b"\x01\x00", model, n_streams, "fr"))
    assert calls == ["scalar", "lockstep"]


class _WouldDecode(Exception):
    pass


def _refuse(*args):
    raise _WouldDecode


#: accepted and rejected floors of the corruption test per index codec, a
#: little below its counts (i32 172/428, rtc 300/300, bic 368/232, gamma
#: 283/317 of 600)
_CORRUPTION_FLOORS = {"i32": (150, 400), "rtc": (250, 200),
                      "bic": (340, 200), "gamma": (250, 290)}


def test_corrupted_containers_differential(monkeypatch):
    _check_corrupted_containers("rtc", monkeypatch)


@pytest.mark.parametrize("codec", ("i32", "bic", "gamma"))
def test_corrupted_containers_other_codecs(codec, monkeypatch):
    _check_corrupted_containers(codec, monkeypatch)


def _check_corrupted_containers(codec, monkeypatch):
    # Seeded 1-3 byte mutations of valid containers.  An accepted container
    # has no negative segment size and decodes to the same bytes on both
    # engines; a rejected one raises only the two format errors.
    rnd = random.Random(5)
    originals = []
    for mode in MODES:
        for model_name in ("order0", "bernoulli"):
            symbols, model = source(model_name, 1500, seed=len(originals))
            originals.append(encode_parallel(symbols, model, 64, mode, codec))
    accepted = rejected = too_long = 0
    for trial in range(600):
        blob = bytearray(originals[trial % len(originals)])
        for _ in range(rnd.randint(1, 3)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        blob = bytes(blob)
        try:
            header, seg_map = read_container(blob)
        except (ContainerFormatError, TruncatedStreamError):
            with pytest.raises((ContainerFormatError, TruncatedStreamError)):
                decode_parallel(blob)
            rejected += 1
            continue
        if header.n_symbols > 1 << 16:
            # decode_parallel must refuse a mutated symbol count the data
            # region cannot hold; one it let through could take minutes to
            # decode, so the engines are stubbed out and it is only counted
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "_decode_lockstep", _refuse)
                patch.setattr(pipeline, "_decode_scalar", _refuse)
                try:
                    decode_parallel(blob)
                except ContainerFormatError:
                    rejected += 1
                except _WouldDecode:
                    too_long += 1
            continue
        # read_container checks only the sum: no decoder may return a
        # negative size
        assert min(seg_map.sizes()) >= 0
        assert _decode_lockstep(blob, header, seg_map) == \
            _decode_scalar(blob, header, seg_map)
        accepted += 1
    min_accepted, min_rejected = _CORRUPTION_FLOORS[codec]
    assert accepted > min_accepted and rejected > min_rejected, \
        (accepted, rejected)
    assert too_long == 0


def test_inflated_symbol_count_rejected():
    # A 2 KB, 1500-symbol fb container whose count byte 14 was mutated to
    # claim 6,096,348 symbols: its cheapest symbol costs 4.3 bits, so its
    # data region holds at most ~3300 symbols
    symbols, model = source("order0", 1500, seed=2)
    blob = bytearray(encode_parallel(symbols, model, 64, "fb", "rtc"))
    blob[14] = 0x5D
    header, _ = read_container(bytes(blob))
    assert header.n_symbols == 6_096_348 and header.data_size < 2048
    with pytest.raises(ContainerFormatError, match="impossible"):
        decode_parallel(bytes(blob))


@pytest.mark.parametrize("model, symbol", [
    # the most probable symbol's share just below the whole range ...
    (CdfModel([0] + [257] * 255 + [PROB_ONE]), 255),
    (CdfModel([0, PROB_ONE - 1] + [PROB_ONE] * 255), 0),
    (BinaryModel(PROB_ONE - 1), 0),
    # ... and the top symbol's, whose w + 256 reaches 65536: it still costs
    # more than log2(65792 / 65791) bits
    (BinaryModel(1), 1),
    (CdfModel([0, 256] + [PROB_ONE] * 255), 1),
])
def test_symbol_bound_admits_cheapest_symbols(model, symbol):
    # A legal container of nothing but the cheapest symbol still decodes,
    # and the same container claiming 2^60 symbols is refused
    symbols = bytes([symbol]) * 100_000
    for n_streams in (1, 64, 1024):
        blob = encode_parallel(symbols, model, n_streams, "fr" if n_streams > 1
                               else "uni", "rtc")
        assert decode_parallel(blob) == symbols
        forged = bytearray(blob)
        struct.pack_into("<Q", forged, _N_SYMBOLS_OFFSET, 2 ** 60)
        assert read_container(bytes(forged))[0].n_symbols == 2 ** 60
        with pytest.raises(ContainerFormatError, match="impossible"):
            decode_parallel(bytes(forged))


def test_importing_pipeline_loads_no_numpy():
    src = Path(pecstream.__file__).resolve().parent.parent
    # a narrow encode and decode run on the scalar engines, which need none;
    # the last model is above the run gate, with 40 bits a stream, mostly
    # zeros, so its run tables are built once, then used by both directions.
    # The widest scalar encode, uni, gives the rtc index one entry too few
    # for its array form
    code = ("import sys; import pecstream, pecstream.pipeline, pecstream.cli\n"
            "from pecstream import BinaryModel, CdfModel\n"
            "from pecstream.pipeline import decode_parallel, encode_parallel\n"
            "from pecstream.rangecoder import _run_tables\n"
            "runs = bytes(i % 50 == 0 for i in range(40 * 510))\n"
            "for model, data in ((CdfModel.from_counts([1] * 256), b'abc'),\n"
            "                    (BinaryModel(30000), b'\\x01\\x00'),\n"
            "                    (BinaryModel(65536 - 1300), runs)):\n"
            f"    blob = encode_parallel(data, model, {LOCKSTEP_MIN_STREAMS - 2}, 'fr')\n"
            "    encoded = _run_tables.cache_info()\n"
            "    assert decode_parallel(blob) == data\n"
            "decoded = _run_tables.cache_info()\n"
            "assert encoded.misses == decoded.misses == 1, decoded\n"
            "assert encoded.hits >= 510 and decoded.hits - encoded.hits >= 510\n"
            "text = b'etaoin shrdlu' * 400\n"
            f"blob = encode_parallel(text, CdfModel.from_counts([1] * 256), "
            f"{LOCKSTEP_MIN_STREAMS - 1}, 'uni')\n"
            "assert decode_parallel(blob) == text\n"
            "sys.exit('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], cwd=src,
                            env={**os.environ, "PYTHONPATH": str(src)},
                            timeout=60)
    assert result.returncode == 0
