"""One workload, one process: set-up, a closed measuring loop, metrics.

One caller runs the loop and starts each operation when the previous one
has finished; no threads are used and no `max_workers` is passed, so the
library runs with its defaults.  Every operation is checked; failures are
counted and printed, never fatal.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import numpy as np

from pecstream import bench
from pecstream.bitio import bits_to_bytes, bytes_to_bits
from pecstream.container import SegmentMap, read_container
from pecstream.pipeline import decode_parallel, encode_parallel
from pecstream.rangecoder import BinaryModel

from .inputs import Workload
from .oracle import build_model, run_oracle
from .replay import (
    DECODE_PARALLEL_PARTS,
    ENCODE_PARALLEL_PARTS,
    Tracer,
    replay_decode,
    replay_encode,
)

#: set-up runs this many times per run; setup_s reports the median
SETUP_REPEATS = 3
#: calibration kernels timed before the first set-up and after each one
SETUP_TICKS = 2
#: seconds the calibration kernel takes at the reference speed that the
#: reported timings are scaled to (about its time on a 2-vCPU x86-64 VM
#: under Python 3.11)
CALIBRATION_REF_S = 0.02
#: operation time grows as kernel time to this power: least-squares fits of
#: log operation time on log kernel time gave 0.61-0.83 for encode, decode,
#: read_container and set-up on both workloads (2900 operations on that VM,
#: whose speed switched between two levels 1.75x apart)
CALIBRATION_EXPONENT = 0.8
#: share of each iteration's coding time spent re-timing read_container
READY_SHARE = 0.1
#: criterion-1 bands of the termination table
SHARE_BAND = 0.05
TBAR_BAND = 0.3
#: size of the lockstep-versus-exact termination replay cross-check
CROSS_CHECK = dict(pairs=40, min_symbols=4, max_symbols=500)
#: bench-term replay pairs per traced operation; 2000 pairs keep the fb
#: share ratio 4.5 standard deviations inside its +-0.05 band
TERM_PAIRS = 2000


class Prepared:
    """A workload's timed input and the oracle's reference container."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.data = workload.make_input(seed)
        self.binary = workload.model != "order0"
        self.ref = run_oracle(("reference", workload, self.data))
        sizes = self.ref.segment_sizes
        data_size = sum(sizes)
        # what read_container must return, taken from the oracle's segments
        self.expected_header = (workload.mode, workload.index_codec,
                                workload.n_streams, self.ref.n_symbols,
                                data_size)
        self.expected_map = SegmentMap(tuple(accumulate(sizes, initial=0)),
                                       len(self.ref.blob) - data_size)

    def read_matches(self, parsed) -> bool:
        header, seg_map = parsed
        return seg_map == self.expected_map and (
            header.mode, header.index_codec, header.n_streams,
            header.n_symbols, header.data_size) == self.expected_header

    def overhead_pct(self, workload: Workload, seed: int) -> float:
        """Container bytes over N_s=1 `uni` bytes, as a percentage.

        Pooled over the timed input and workload.overhead_inputs - 1 more
        inputs of the same generator, which the oracle builds after the
        measuring loop, outside set-up.
        """
        container, uni = run_oracle(("pooled_sizes", workload, seed))
        container += len(self.ref.blob)
        uni += self.ref.uni_bytes
        return 100.0 * (container - uni) / uni

    def layer_counts(self) -> dict[str, float]:
        """Exact counts of the timed input's reference container."""
        header, seg_map = read_container(self.ref.blob)
        stats = self.ref.stats
        terminations = stats.pair_events or stats.streams
        return {
            "termination.share_ratio": stats.share_ratio or 0.0,
            "termination.extra_bits_mean": stats.mean_extra_bits,
            "termination.renorm_ratio": self.ref.renormed / terminations,
            "sizeindex.bits_per_entry": self.ref.index_bits / header.entry_count,
            "container.header_bytes": seg_map.data_offset - header.index_nbytes,
            "rangecoder.stream_bytes": header.data_size,
        }


class Failures:
    """Attempted and failed operation counts; each failure is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}: {detail}", file=sys.stderr)
        return ok


def attempt(fn):
    """(fn(), "") or (None, error text): an exception fails the operation."""
    try:
        return fn(), ""
    except Exception as exc:  # any library error is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def describe_timing(name: str, seconds: list[float]) -> str:
    """Sample count, median and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    line = f"timing {name}: n={len(seconds)} p50={1e3 * _median(seconds):.4f} ms"
    ordered = sorted(seconds)
    for pct in (99.9, 99.0, 90.0):
        beyond = len(ordered) * (100.0 - pct) / 100.0
        if beyond >= 10:
            value = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]
            return line + f" p{pct:g}={1e3 * value:.4f} ms"
    return line


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_kernel() -> int:
    """A fixed pure-Python loop of integer arithmetic, branches and bytearray
    appends, the kind of work the library's coder kernels do."""
    x, acc, buf = 1, 0, bytearray()
    for _ in range(60_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        if x < 0x80000000:
            acc += x >> 16
        else:
            acc -= x >> 20
        buf.append(x >> 24)
    return acc + len(buf)


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """A measured time scaled to the reference speed, from the calibration
    kernel's time around it.

    On a VM shared with other tenants the speed of the virtual CPUs moves
    by up to 1.75x within minutes.  The kernel calls no library code, so
    the scaling cancels that drift while a change in the library still
    shows.
    """
    return seconds * (CALIBRATION_REF_S / kernel_s) ** CALIBRATION_EXPONENT


class Calibration:
    """Times the calibration kernel between operations and keeps every
    kernel time for the run's output file."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self, times: int = 1) -> float:
        """Run the kernel `times` times; return its mean time."""
        for _ in range(times):
            t0 = perf_counter()
            calibration_kernel()
            self.samples.append(perf_counter() - t0)
        return statistics.fmean(self.samples[-times:])


# ---------------------------------------------------------------------------
# timed operations (the same public calls `pecstream encode`/`decode` make)


def encode_op(workload: Workload, data: bytes) -> bytes:
    model = build_model(workload.model, data)
    symbols = bytes_to_bits(data) if isinstance(model, BinaryModel) else data
    return encode_parallel(symbols, model, workload.n_streams, workload.mode,
                           workload.index_codec)


def decode_op(blob: bytes, binary: bool) -> bytes:
    symbols = decode_parallel(blob)
    return bits_to_bytes(symbols) if binary else symbols


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def _untraced_loop(workload: Workload, prep: Prepared, seconds: float,
                   fails: Failures, cal: Calibration):
    """Measured seconds of every checked operation, keyed by operation, and
    the mean calibration kernel time just before and after each one."""
    samples = {"encode_s": [], "decode_s": [], "ready_s": []}
    kernels = {key: [] for key in samples}

    def record(key: str, seconds: float) -> None:
        samples[key].append(seconds)
        kernels[key].append((before + after) / 2)

    ref = prep.ref.blob
    before = cal.tick()
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        blob, err = attempt(lambda: encode_op(workload, prep.data))
        t1 = perf_counter()
        after = cal.tick()
        if fails.check("encode", not err and blob == ref,
                       err or "container differs from the scalar reference"):
            record("encode_s", t1 - t0)
        before = after

        t0 = perf_counter()
        out, err = attempt(lambda: decode_op(ref, prep.binary))
        t1 = perf_counter()
        after = cal.tick()
        if fails.check("decode", not err and out == prep.data,
                       err or "decoded bytes differ from the input"):
            record("decode_s", t1 - t0)
        before = after

        # one checked operation: read_container repeated for READY_SHARE of
        # this iteration's coding time; its median call is the sample
        budget = READY_SHARE * sum(samples[k][-1] if samples[k] else 0.0
                                   for k in ("encode_s", "decode_s"))
        times, parsed = [], []
        spent = 0.0
        err = ""
        while not err and (not times or spent < budget):
            t0 = perf_counter()
            got, err = attempt(lambda: read_container(ref))
            times.append(perf_counter() - t0)
            spent += times[-1]
            parsed.append(got)
        after = cal.tick()
        if fails.check("ready", not err and all(map(prep.read_matches, parsed)),
                       err or "header or segment map differs from the oracle's"):
            record("ready_s", statistics.median(times))
        before = after
        if perf_counter() >= deadline:
            break
    for name, values in samples.items():
        print(describe_timing(name, values))
    return samples, kernels


def end_to_end_metrics(prep: Prepared, samples: dict[str, list[float]],
                       kernels: dict[str, list[float]]) -> dict[str, float]:
    """Median operation times of the run at the reference speed."""
    seconds = {key: _median(map(at_reference_speed, samples[key], kernels[key]))
               for key in samples}

    def mb_per_s(key: str) -> float:
        return len(prep.data) / seconds[key] / 1e6 if seconds[key] else 0.0

    return {"encode_MBps": mb_per_s("encode_s"),
            "decode_MBps": mb_per_s("decode_s"),
            "ready_ms": 1e3 * seconds["ready_s"]}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _term_table_op(seed: int, tracer: Tracer, fails: Failures) -> int:
    """bench-term replay with the criterion-1 bands and the exact cross-check."""
    small = bench.simulate_termination_population(seed=seed, **CROSS_CHECK)
    exact, _ = bench.exact_termination_population(seed=seed, **CROSS_CHECK)
    same = all(np.array_equal(getattr(small, f), getattr(exact, f))
               for f in ("low", "range_", "appended", "set_lo", "set_hi"))
    for mode in ("fb", "fr"):
        same &= (bench.population_stats(small, mode).share_ratio
                 == bench.population_stats(exact, mode).share_ratio)
    fails.check("bench cross-check", same,
                "lockstep replay differs from the exact encoder")
    with tracer.span("bench.term"):
        with tracer.span("bench.replay"):
            pop = bench.simulate_termination_population(TERM_PAIRS, seed)
        with tracer.span("bench.stats"):
            stats = {mode: bench.population_stats(pop, mode)
                     for mode in ("uni", "fb", "fr")}
    bad = [f"{mode} tbar {s.mean_extra_bits:.3f}" for mode, s in stats.items()
           if abs(s.mean_extra_bits - bench.TBAR_TABLE[mode]) > TBAR_BAND]
    bad += [f"{mode} share {stats[mode].share_ratio:.3f}" for mode in ("fb", "fr")
            if abs(stats[mode].share_ratio - bench.SHARE_TABLE[mode]) > SHARE_BAND]
    fails.check("bench-term bands", not bad, ", ".join(bad))
    return int(pop.lengths.max())


def _traced_iteration(workload: Workload, prep: Prepared, seed: int,
                      tracer: Tracer, fails: Failures) -> tuple[list[float], int]:
    """One traced operation per direction, and its untraced twin.

    "encode.untraced"/"decode.untraced" time the operation exactly as the
    untraced run does.  "encode"/"decode" repeat it with spans at the public
    calls `pecstream encode` and `decode` make, and the replays then redo
    encode_parallel and decode_parallel with one span per layer call.
    """
    ref = prep.ref.blob
    with tracer.span("encode.untraced"):
        blob = encode_op(workload, prep.data)
    fails.check("encode", blob == ref, "container differs from the reference")
    with tracer.span("encode"):
        with tracer.span("rangecoder.model_build"):
            model = build_model(workload.model, prep.data)
        symbols = prep.data
        if prep.binary:
            with tracer.span("bitio.bytes_to_bits"):
                symbols = bytes_to_bits(prep.data)
        with tracer.span("pipeline.encode_parallel"):
            blob = encode_parallel(symbols, model, workload.n_streams,
                                   workload.mode, workload.index_codec)
    fails.check("encode", blob == ref, "container differs from the reference")
    with tracer.span("encode.replay"):
        replayed = replay_encode(symbols, model, workload.n_streams,
                                 workload.mode, workload.index_codec, tracer)
    fails.check("encode replay", replayed.blob == ref,
                "replayed container differs from the reference")

    with tracer.span("decode.untraced"):
        out = decode_op(ref, prep.binary)
    fails.check("decode", out == prep.data, "decoded bytes differ")
    with tracer.span("decode"):
        with tracer.span("pipeline.decode_parallel"):
            symbols = decode_parallel(ref)
        out = symbols
        if prep.binary:
            with tracer.span("bitio.bits_to_bytes"):
                out = bits_to_bytes(symbols)
    fails.check("decode", out == prep.data, "decoded bytes differ")
    with tracer.span("decode.replay") as root:
        replayed, per_stream = replay_decode(ref, tracer)
    per_stream = [at_reference_speed(x, root.kernel_s) for x in per_stream]
    fails.check("decode replay", replayed == symbols, "replayed symbols differ")

    if not prep.binary:
        # order0 coding does no byte<->bit conversion; time bitio on the
        # same input apart from the operation, so that its metrics exist
        # on every workload
        with tracer.span("bitio.probe"):
            with tracer.span("bitio.bytes_to_bits"):
                bits = bytes_to_bits(prep.data)
            with tracer.span("bitio.bits_to_bytes"):
                out = bits_to_bytes(bits)
        fails.check("bitio probe", out == prep.data, "bit round trip differs")
    return per_stream, _term_table_op(seed, tracer, fails)


def _traced_loop(workload: Workload, prep: Prepared, seed: int, seconds: float,
                 tracer: Tracer, fails: Failures):
    stream_p50, stream_max = [], []
    steps = 0
    deadline = perf_counter() + seconds
    while True:
        tracer.new_op()
        mark = len(tracer.spans)
        done, err = attempt(lambda: _traced_iteration(workload, prep, seed,
                                                      tracer, fails))
        if err:
            fails.check("traced operation", False, err)
            del tracer.spans[mark:]  # keep only complete operations
        else:
            per_stream, steps = done
            stream_p50.append(statistics.median(per_stream))
            stream_max.append(max(per_stream))
        if perf_counter() >= deadline:
            break
    return stream_p50, stream_max, steps


def layer_times(tracer: Tracer) -> dict[str, list[float]]:
    """Per-operation sums of span durations and counted seconds, keyed by
    root span name, or by "root/name" for what lies under a root.  Each
    is scaled to the reference speed with the kernel time around its root."""
    sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        root = span
        while root.parent is not None:
            root = tracer.spans[root.parent]
        key = span.name if root is span else f"{root.name}/{span.name}"
        scale = at_reference_speed(1.0, root.kernel_s)
        sums[span.op][key] += scale * (span.end - span.start)
        for name, seconds in span.counts.items():
            sums[span.op][f"{root.name}/{name}"] += scale * seconds
    keys = {k for per_op in sums.values() for k in per_op}
    return {k: [per_op.get(k, 0.0) for per_op in sums.values()] for k in keys}


def layer_table(t: dict[str, list[float]]) -> list[dict]:
    """Median self time per layer and its share of the untraced operation.

    The container spans include the index coding that write_container and
    read_container perform; that part is attributed to sizeindex, whose
    spans time the same index coding replayed on its own.
    """
    def med(key: str) -> float:
        return _median(t.get(key, [0.0]))

    def diff(a: str, b: str) -> float:
        return _median(x - y for x, y in zip(t[a], t[b]))

    def unaccounted(direction: str, parts) -> float:
        whole = t[f"{direction}/pipeline.{direction}_parallel"]
        covered = [sum(vals) for vals in zip(
            *(t[f"{direction}.replay/{p}"] for p in parts))]
        return _median(w - c for w, c in zip(whole, covered))

    rows = []

    def add(direction: str, layer: str, seconds: float) -> None:
        e2e = med(f"{direction}.untraced")
        rows.append({"direction": direction, "layer": layer, "self_s": seconds,
                     "share_pct": 100.0 * seconds / e2e if e2e else 0.0})

    add("encode", "rangecoder.model_build", med("encode/rangecoder.model_build"))
    add("encode", "bitio.bytes_to_bits", med("encode/bitio.bytes_to_bits"))
    for part in ENCODE_PARALLEL_PARTS[:-1]:
        add("encode", part, med(f"encode.replay/{part}"))
    add("encode", "sizeindex.encode", med("encode.replay/sizeindex.encode"))
    add("encode", "container.write",
        diff("encode.replay/container.write", "encode.replay/sizeindex.encode"))
    add("encode", "pipeline.unaccounted",
        unaccounted("encode", ENCODE_PARALLEL_PARTS))
    add("encode", "tracing overhead", med("encode") - med("encode.untraced"))

    add("decode", "container.read",
        diff("decode.replay/container.read", "decode.replay/sizeindex.decode"))
    add("decode", "sizeindex.decode", med("decode.replay/sizeindex.decode"))
    add("decode", "pipeline.schedule", med("decode.replay/pipeline.schedule"))
    for part in ("rangecoder.decoder_start", "rangecoder.decode"):
        add("decode", part, med(f"decode.replay/{part}"))
    add("decode", "pipeline.streams",
        _median(w - a - b for w, a, b in zip(
            t["decode.replay/pipeline.streams"],
            t["decode.replay/rangecoder.decoder_start"],
            t["decode.replay/rangecoder.decode"])))
    add("decode", "pipeline.reassemble", med("decode.replay/pipeline.reassemble"))
    add("decode", "bitio.bits_to_bytes", med("decode/bitio.bits_to_bytes"))
    add("decode", "pipeline.unaccounted",
        unaccounted("decode", DECODE_PARALLEL_PARTS))
    add("decode", "tracing overhead", med("decode") - med("decode.untraced"))

    for root, parts in (("bitio.probe", ("bitio.bytes_to_bits",
                                         "bitio.bits_to_bytes")),
                        ("bench.term", ("bench.replay", "bench.stats"))):
        if root in t:
            for part in parts:
                rows.append({"direction": root, "layer": part,
                             "self_s": med(f"{root}/{part}"),
                             "share_pct": 100.0 * med(f"{root}/{part}")
                             / med(root)})
    return rows


def format_layer_table(workload: str, rows: list[dict], t) -> str:
    """The layer table as text, at the reference speed.  Shares are of the
    untraced operation where there is one; the
    "(layer spans)" line of each direction sums the layer rows, without
    pipeline.unaccounted and the tracing overhead."""
    lines = [f"layer table: {workload} (median per operation)",
             f"  {'direction':10s} {'layer':26s} {'self_s':>10s} {'share':>8s}"]
    for direction in dict.fromkeys(r["direction"] for r in rows):
        untraced = f"{direction}.untraced"
        e2e = _median(t.get(untraced, t[direction]))
        label = "(end to end, untraced)" if untraced in t else "(end to end)"
        lines.append(f"  {direction:10s} {label:26s} {e2e:10.4f} {100.0:7.1f}%")
        accounted = 0.0
        for r in rows:
            if r["direction"] != direction:
                continue
            lines.append(f"  {'':10s} {r['layer']:26s} {r['self_s']:10.4f} "
                         f"{r['share_pct']:7.1f}%")
            if r["layer"] not in ("pipeline.unaccounted", "tracing overhead"):
                accounted += r["share_pct"]
        lines.append(f"  {'':10s} {'(layer spans)':26s} {'':10s} {accounted:7.1f}%")
    return "\n".join(lines)


def per_layer_metrics(prep: Prepared, t, rows,
                      stream_p50, stream_max, steps) -> dict[str, float]:
    row = {(r["direction"], r["layer"]): r["self_s"] for r in rows}
    enc = row["encode", "rangecoder.encode"]
    dec = row["decode", "rangecoder.decode"]
    m = prep.layer_counts()
    m.update({
        "rangecoder.model_build_s": row["encode", "rangecoder.model_build"],
        "rangecoder.encode_s": enc,
        "rangecoder.encode_symbols_per_s": prep.ref.n_symbols / enc,
        "rangecoder.decode_s": dec,
        "rangecoder.decode_symbols_per_s": prep.ref.n_symbols / dec,
        "rangecoder.decode_stream_p50_ms": 1e3 * _median(stream_p50),
        "rangecoder.decode_stream_max_ms": 1e3 * _median(stream_max),
        "rangecoder.decoder_start_s": row["decode", "rangecoder.decoder_start"],
        "termination.terminate_s": row["encode", "termination.terminate"],
        "sizeindex.encode_s": row["encode", "sizeindex.encode"],
        "sizeindex.decode_s": row["decode", "sizeindex.decode"],
        "container.write_s": row["encode", "container.write"],
        "container.read_self_s": row["decode", "container.read"],
        "pipeline.reassemble_s": row["decode", "pipeline.reassemble"],
        "pipeline.unaccounted_s": row["encode", "pipeline.unaccounted"]
        + row["decode", "pipeline.unaccounted"],
        "bitio.bytes_to_bits_s": row.get(
            ("bitio.probe", "bitio.bytes_to_bits"),
            row["encode", "bitio.bytes_to_bits"]),
        "bitio.bits_to_bytes_s": row.get(
            ("bitio.probe", "bitio.bits_to_bytes"),
            row["decode", "bitio.bits_to_bytes"]),
        "bench.replay_s": row["bench.term", "bench.replay"],
        "bench.stats_s": row["bench.term", "bench.stats"],
        "bench.replay_steps": steps,
        "bench.pairs_per_s": TERM_PAIRS / _median(t["bench.term"]),
    })
    return m


# ---------------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 units: dict[str, str], root: Path, out_dir: Path | None,
                 t_start: float) -> dict:
    """Run one workload and return the result object run.py prints last.

    t_start is the perf_counter reading at the first line of run.py, so
    setup_s covers imports as well as set-up proper.  Set-up runs
    SETUP_REPEATS times and setup_s takes the median set-up.  Every
    end-to-end time is reported at the reference speed.
    """
    fails = Failures()
    imports_s = perf_counter() - t_start
    cal = Calibration()
    before = cal.tick(SETUP_TICKS)
    setup_s = at_reference_speed(imports_s, before)
    setup_runs = []
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        prep = Prepared(workload, seed)
        setup_runs.append(perf_counter() - t0)
        after = cal.tick(SETUP_TICKS)
        setups.append(at_reference_speed(setup_runs[-1], (before + after) / 2))
        before = after
    setup_s += statistics.median(setups)

    extra: dict = {"imports_s": imports_s, "setup_runs_s": setup_runs}
    if not trace:
        samples, kernels = _untraced_loop(workload, prep, seconds, fails, cal)
        metrics = end_to_end_metrics(prep, samples, kernels)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_MB"] = _peak_rss_mb()
        metrics["overhead_pct"] = prep.overhead_pct(workload, seed)
        extra.update(samples=samples, kernel_around_s=kernels,
                     calibration_s=cal.samples)
    else:
        tracer = Tracer(tick=cal.tick)
        stream_p50, stream_max, steps = _traced_loop(workload, prep, seed,
                                                     seconds, tracer, fails)
        if not stream_p50:
            raise RuntimeError("no traced operation completed")
        t = layer_times(tracer)
        rows = layer_table(t)
        print(format_layer_table(workload.name, rows, t))
        metrics = per_layer_metrics(prep, t, rows,
                                    stream_p50, stream_max, steps)
        extra.update(layer_table=rows, spans=tracer.to_json())
    print(f"setup: imports {imports_s:.4f} s, set-ups "
          f"{', '.join(f'{s:.4f}' for s in setup_runs)} s; calibration kernel "
          f"median {1e3 * _median(cal.samples):.2f} ms "
          f"(reference {1e3 * CALIBRATION_REF_S:.2f} ms)")

    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise KeyError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    result = {
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    machine = machine_facts(root)
    print("machine: " + json.dumps(machine))
    print(f"fail_ratio: {fails.failed / fails.attempted:.6f} "
          f"({fails.failed}/{fails.attempted})")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        record = {"workload": workload.name, "why": workload.why,
                  "params": vars(workload), "seed": seed, "seconds": seconds,
                  "trace": trace, "machine": machine, "result": result, **extra}
        path = out_dir / f"{workload.name}_seed{seed}_trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1))
        print(f"wrote {path}")
    return result
