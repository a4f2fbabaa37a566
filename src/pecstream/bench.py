"""Benchmark reproductions: termination overhead, index redundancy, W curves.

`termination_table` codes pseudo-random binary streams and accounts the share
ratio and mean extra bits per stream for each mode.  Its replay runs
`rangecoder`'s array forms on the streams still coding and keeps no bytes:
bit-identical to driving the real encoder (the tests compare it with
`exact_termination_population`) and fast enough for 10**5 stream pairs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bitio import BitWriter
from .container import MODES
from .rangecoder import (
    MASK32,
    PROB_ONE,
    BinaryModel,
    Encoder,
    renormalize,
    split_bits,
)
from .sizeindex import encode_index, rtc_encode
from .termination import (
    TerminationStats,
    junction_bytes,
    pair_extra_bits,
    single_extra_bits,
    valid_byte_sets,
)

#: published termination overhead (mean extra bits per stream)
TBAR_TABLE = {"uni": 4.56, "fb": 2.77, "fr": 1.78}
#: published share ratios for bidirectional modes
SHARE_TABLE = {"fb": 0.45, "fr": 0.69}

_LN2 = math.log(2.0)
#: exclusive value bound used when benchmarking the range-tree codec; wide
#: enough that unclamped heavy-tail samples always fit.
BENCH_RTC_BOUND = 1 << 32
#: entries in each index that `redundancy_experiment` samples and codes
INDEX_ENTRIES = 128


# ---------------------------------------------------------------------------
# log2-normal source


@dataclass(frozen=True)
class Log2NormalSource:
    """Integer sizes b = round(2**Z), Z ~ Normal(mu, sigma**2).

    Parameterized by the mean size instead of mu: mean = 2**(mu + ln2*s**2/2).
    """

    mean_size: float
    sigma: float

    def __post_init__(self) -> None:
        if self.mean_size <= 0 or self.sigma <= 0:
            raise ValueError("mean_size and sigma must be positive")

    @property
    def mu(self) -> float:
        return math.log2(self.mean_size) - _LN2 * self.sigma ** 2 / 2.0

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        z = rng.normal(self.mu, self.sigma, count)
        return np.maximum(np.rint(np.exp2(z)), 1.0).astype(np.int64)


def log2_normal_entropy(mean_size: float, sigma: float) -> float:
    """Closed-form source entropy of the log2-normal size distribution."""
    if mean_size <= 0 or sigma <= 0:
        raise ValueError("mean_size and sigma must be positive")
    return (math.log2(mean_size * sigma * _LN2 * math.sqrt(2.0 * math.e * math.pi))
            - _LN2 * sigma ** 2 / 2.0)


@dataclass(frozen=True)
class FitResult:
    mean_size: float
    sigma: float
    entropy: float
    degenerate: bool


def fit_log2_normal(sizes: Sequence[int]) -> FitResult:
    """Fit (mean size, sigma) by moments of log2(b) and evaluate the entropy."""
    arr = np.asarray(sizes, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least two samples")
    if np.any(arr <= 0):
        raise ValueError("samples must be positive")
    logs = np.log2(arr)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=1))
    if sigma == 0.0:
        return FitResult(mean_size=float(2.0 ** mu), sigma=0.0,
                         entropy=0.0, degenerate=True)
    mean_size = float(2.0 ** (mu + _LN2 * sigma ** 2 / 2.0))
    return FitResult(mean_size=mean_size, sigma=sigma,
                     entropy=log2_normal_entropy(mean_size, sigma),
                     degenerate=False)


# ---------------------------------------------------------------------------
# overhead model


@dataclass(frozen=True)
class OverheadModel:
    """Relative overhead W = (alpha*log2(b) + beta)/b, b = bytes per stream."""

    alpha: float
    beta: float

    def relative_overhead(self, mean_stream_bytes: float) -> float:
        b = mean_stream_bytes
        if b < 1:
            raise ValueError("mean stream size must be >= 1 byte")
        return (self.alpha * math.log2(b) + self.beta) / b


#: per-entry index rate model (a, c): ~ a*log2(segment mean) + c bits/entry
_INDEX_RATE = {"i32": (0.0, 32.0), "rtc": (1.0, 2.0),
               "bic": (1.0, 2.0), "gamma": (2.0, 1.0)}


def overhead_factors(mode: str, index_codec: str, tbar: float) -> OverheadModel:
    """(alpha, beta) for any mode/index pair, from the per-entry rate model.

    Bidirectional modes code one entry per stream pair, over a segment twice
    the stream size: a*log2(2b)/2 bits per stream, hence a/16 and the extra
    a in beta.
    """
    try:
        a, c = _INDEX_RATE[index_codec]
    except KeyError:
        raise ValueError(f"unknown index codec: {index_codec!r}") from None
    if mode == "uni":
        return OverheadModel(a / 8.0, (c + tbar) / 8.0)
    if mode in ("fb", "fr"):
        return OverheadModel(a / 16.0, (a + c + 2.0 * tbar) / 16.0)
    raise ValueError(f"unknown mode: {mode!r}")


def overhead_grid(model: OverheadModel, data_bytes: Sequence[float],
                  n_streams: Sequence[int]) -> list[tuple[float, int, float]]:
    """W over a (D, N_s) grid; skips cells with less than one byte per stream."""
    rows = []
    for d in data_bytes:
        for n in n_streams:
            if d / n < 1.0:
                continue
            rows.append((d, n, model.relative_overhead(d / n)))
    return rows


# ---------------------------------------------------------------------------
# termination experiment


@dataclass
class TerminationPopulation:
    """Final-state arrays for a simulated stream population.

    Streams are laid out as consecutive pairs: even indices are the forward
    halves, odd indices the backward halves.
    """

    low: np.ndarray        # final low, after any termination renormalization
    range_: np.ndarray     # final range, same
    pending: np.ndarray    # -log2(v - u) of the state as finalized
    appended: np.ndarray   # termination bytes per stream (1, or 2 if renormed)
    set_lo: np.ndarray     # U per stream
    set_hi: np.ndarray     # V per stream
    lengths: np.ndarray

    @property
    def n_streams(self) -> int:
        return int(self.low.shape[0])


def _draw_stream_params(rng: np.random.Generator, n_streams: int,
                        min_symbols: int, max_symbols: int):
    p = rng.uniform(0.05, 0.95, n_streams)
    p0 = np.clip(np.rint(p * PROB_ONE), 1, PROB_ONE - 1).astype(np.int64)
    lengths = rng.integers(min_symbols, max_symbols + 1, n_streams)
    return p0, lengths


def _population(low, range_, lengths) -> TerminationPopulation:
    """A population from its coders' final (low, range): pending info, sets."""
    pending = 32.0 - np.log2(range_.astype(np.float64))
    set_lo, set_hi, appended, low, range_ = valid_byte_sets(low, range_)
    return TerminationPopulation(low=low, range_=range_, pending=pending,
                                 appended=appended, set_lo=set_lo,
                                 set_hi=set_hi, lengths=lengths)


def simulate_termination_population(pairs: int, seed: int,
                                    min_symbols: int = 64,
                                    max_symbols: int = 4096) -> TerminationPopulation:
    """Lockstep replay of the coder state for 2*pairs Bernoulli streams.

    Lanes run longest stream first, so the live[t] streams still coding at
    step t are a prefix.  Every step draws for all streams, as the exact
    engine does.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    n = 2 * pairs
    rng = np.random.default_rng(seed)
    p0, lengths = _draw_stream_params(rng, n, min_symbols, max_symbols)
    order = np.argsort(-lengths, kind="stable")
    p0 = p0[order].astype(np.uint32)
    threshold = p0 / PROB_ONE
    live = np.searchsorted(-lengths[order], -np.arange(lengths.max()))

    low = np.zeros(n, dtype=np.uint32)
    rng_ = np.full(n, MASK32, dtype=np.uint32)
    for k in live:
        one = rng.random(n)[order[:k]] >= threshold[:k]
        lo, r = low[:k], rng_[:k]  # views of the live lanes
        # the carry out of uint32 low goes into the bytes already produced,
        # and renormalization shifts out bytes: neither is kept
        lo += split_bits(r, p0[:k], one)
        renormalize(lo, r)
    back = np.argsort(order)
    return _population(low[back].astype(np.int64),
                       rng_[back].astype(np.int64), lengths)


def exact_termination_population(pairs: int, seed: int,
                                 min_symbols: int = 64,
                                 max_symbols: int = 4096):
    """Drive the real encoder over the same draws as the lockstep engine.

    Returns (population, final_states); final states are pristine (their
    termination sets not yet computed), for feeding the termination module.
    """
    n = 2 * pairs
    rng = np.random.default_rng(seed)
    p0, lengths = _draw_stream_params(rng, n, min_symbols, max_symbols)
    draws = rng.random((int(lengths.max()), n))
    bits = (draws >= (p0 / PROB_ONE)).astype(np.uint8)

    states = []
    for i in range(n):
        enc = Encoder()
        enc.encode_bits(BinaryModel(int(p0[i])), bits[:int(lengths[i]), i])
        direction = "forward" if i % 2 == 0 else "backward"
        states.append(enc.finalize(direction=direction))
    low = np.array([s.low for s in states], dtype=np.int64)
    rng_ = np.array([s.range for s in states], dtype=np.int64)
    return _population(low, rng_, lengths), states


def population_stats(pop: TerminationPopulation, mode: str) -> TerminationStats:
    """Termination-module accounting applied to a simulated population."""
    extra_single = single_extra_bits(pop.appended, pop.pending)
    if mode == "uni":
        return TerminationStats(
            streams=pop.n_streams,
            extra_bits_total=float(extra_single.sum()),
        )
    shared = junction_bytes(pop.set_lo[0::2], pop.set_hi[0::2],
                            pop.set_lo[1::2], pop.set_hi[1::2], mode) >= 0
    pair_total = pair_extra_bits(extra_single[0::2], extra_single[1::2], shared)
    return TerminationStats(
        streams=pop.n_streams,
        pair_events=len(shared),
        shared_events=int(shared.sum()),
        extra_bits_total=float(pair_total.sum()),
    )


def termination_table(pairs: int, seed: int) -> dict[str, TerminationStats]:
    """The `bench-term` table: one replayed population, accounted per mode."""
    pop = simulate_termination_population(pairs, seed)
    return {mode: population_stats(pop, mode) for mode in MODES}


# ---------------------------------------------------------------------------
# index redundancy experiment


@dataclass(frozen=True)
class RedundancyCell:
    codec: str
    sigma: float
    log2_mean: float
    bits_per_entry: float
    entropy: float
    redundancy: float
    estimator_gap: float   # log2(mean) + 2 - entropy

    def as_row(self) -> dict:
        return {
            "codec": self.codec,
            "sigma": f"{self.sigma:g}",
            "log2_mean": f"{self.log2_mean:g}",
            "bits_per_entry": f"{self.bits_per_entry:.4f}",
            "entropy": f"{self.entropy:.4f}",
            "redundancy": f"{self.redundancy:.4f}",
            "estimator_gap": f"{self.estimator_gap:.4f}",
        }


def _index_bits(codec: str, sizes: list[int]) -> int:
    sink = BitWriter()
    if codec == "rtc":
        return rtc_encode(sizes, BENCH_RTC_BOUND, sink)
    return encode_index(codec, sizes, sum(sizes), sink)


def redundancy_experiment(codecs: Sequence[str], sigmas: Sequence[float],
                          log2_means: Sequence[float], trials: int,
                          seed: int) -> list[RedundancyCell]:
    """Average bits/entry minus source entropy per (codec, sigma, mean) cell."""
    if not sigmas or not log2_means:
        raise ValueError("grids must be nonempty")
    cells = []
    for ci, codec in enumerate(codecs):
        for si, sigma in enumerate(sigmas):
            for mi, lm in enumerate(log2_means):
                source = Log2NormalSource(2.0 ** lm, sigma)
                rng = np.random.default_rng([seed, ci, si, mi])
                total_bits = 0
                for _ in range(trials):
                    sizes = source.sample(rng, INDEX_ENTRIES).tolist()
                    total_bits += _index_bits(codec, sizes)
                rate = total_bits / (trials * INDEX_ENTRIES)
                entropy = log2_normal_entropy(2.0 ** lm, sigma)
                cells.append(RedundancyCell(
                    codec=codec, sigma=sigma, log2_mean=lm,
                    bits_per_entry=rate, entropy=entropy,
                    redundancy=rate - entropy,
                    estimator_gap=lm + 2.0 - entropy,
                ))
    return cells


def average_redundancy(cells: Sequence[RedundancyCell]) -> dict[tuple[str, float], float]:
    """Mean redundancy per (codec, sigma) across the mean-size grid."""
    sums: dict[tuple[str, float], list[float]] = {}
    for cell in cells:
        sums.setdefault((cell.codec, cell.sigma), []).append(cell.redundancy)
    return {key: sum(vals) / len(vals) for key, vals in sums.items()}


# ---------------------------------------------------------------------------
# CSV output


def write_csv(path: str, fieldnames: Sequence[str], rows: Iterable[dict],
              metadata: dict | None = None) -> None:
    """Write rows with leading '# key=value' metadata comment lines."""
    with open(path, "w", newline="") as handle:
        if metadata:
            for key, value in metadata.items():
                handle.write(f"# {key}={value}\n")
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def csv_metadata(seed: int | None = None, **extra) -> dict:
    meta = {"generator": "numpy.random.Generator(PCG64)"}
    if seed is not None:
        meta["seed"] = seed
    meta.update(extra)
    return meta
