"""Seeded input generators and the workload table.

The library only ever receives the bytes these functions return; every
generator is a pure function of its seed and size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np


def bernoulli_bit_bytes(seed: int, size: int, p_one: float) -> bytes:
    """Bytes whose bits (MSB first) are independent Bernoulli(p_one) draws."""
    rng = np.random.default_rng(seed)
    bits = rng.random(8 * size) < p_one
    return np.packbits(bits).tobytes()


def mixed_entropy_bytes(seed: int, total: int) -> bytes:
    """Blocks of alternating compressibility.

    Per-shard compressed sizes spread out the way real codec bitstreams do.
    This is a copy of the acceptance-suite generator (`_mixed_entropy_file`
    in tests/test_acceptance.py), kept here so the benchmark does not import
    test code.
    """
    rnd = random.Random(seed)
    out = bytearray()
    while len(out) < total:
        block = rnd.randrange(200, 1200)
        kind = rnd.random()
        if kind < 0.45:
            out.extend(rnd.randrange(256) for _ in range(block))
        elif kind < 0.8:
            out.extend(rnd.choice(b"aeiou \n") for _ in range(block))
        else:
            out.extend(rnd.choice(b"xy") for _ in range(block))
    return bytes(out[:total])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str          # "mixed" or "bits"
    size: int               # input bytes
    model: str              # "order0" or "bernoulli:P", as on the command line
    mode: str
    index_codec: str
    n_streams: int
    #: seeded inputs whose container and reference sizes overhead_pct pools;
    #: one input's overhead varies by about +-8% from seed to seed on
    #: tiny-65536 and bits-8
    overhead_inputs: int = 1

    def scaled(self, scale: int) -> "Workload":
        """The same workload with input size and streams divided by scale.

        Bytes per stream stay the same; stream counts stay even.
        """
        if scale == 1:
            return self
        streams = max(2, self.n_streams // scale // 2 * 2)
        return replace(self, size=max(64, self.size // scale), n_streams=streams)

    def make_input(self, seed: int, part: int = 0) -> bytes:
        """Input `part` of a run: part 0 is timed, later parts only sized."""
        seed = seed * 4096 + part
        if self.generator == "mixed":
            return mixed_entropy_bytes(seed, self.size)
        if self.generator == "bits":
            return bernoulli_bit_bytes(seed, self.size, p_one=0.1)
        raise ValueError(f"unknown generator {self.generator!r}")


WORKLOADS = {w.name: w for w in (
    Workload(
        "tiny-65536",
        "1 MiB mixed-entropy blocks over 65536 streams of ~13 B: per-stream "
        "termination, index, container and decoder start costs dominate, "
        "and a lockstep coder gets its widest batch",
        "mixed", 1 << 20, "order0", "fr", "rtc", 65536, overhead_inputs=4),
    Workload(
        "bits-8",
        "128 KiB of Bernoulli(0.1) bits on the binary coder and bitio path "
        "with only 8 streams, where a lockstep coder should change nothing",
        "bits", 1 << 17, "bernoulli:0.9", "fb", "gamma", 8, overhead_inputs=8),
)}
