"""The scalar-replay oracle, run in a child process.

The reference containers that every timed encode must match are built by
`replay.replay_encode` (`Encoder` -> `finalize` ->
`terminate_single`/`joint_terminate` -> `write_container`), together with
the `uni`, N_s=1 container that `overhead_pct` is measured against.  The
replay keeps every `Encoder` alive, so it runs in a child process: the peak
resident set of the measuring process is then that of the library's timed
calls, not the oracle's.

`run_oracle(job)` starts `python3 perfbench/oracle.py`, sends the pickled
job on standard input, waits for the child to end and returns the pickled
answer it wrote to standard output.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a child that takes longer than this is stopped and the run fails
ORACLE_TIMEOUT_S = 120


# pecstream is imported inside the functions: the child process puts src/
# on sys.path in main() before it calls them.


def build_model(model_name: str, data: bytes):
    """The model `pecstream encode --model <model_name>` builds."""
    from pecstream.rangecoder import BinaryModel, CdfModel

    if model_name == "order0":
        counts = Counter(data)
        return CdfModel.from_counts([counts.get(s, 0) for s in range(256)])
    return BinaryModel.from_probability(float(model_name.split(":", 1)[1]))


@dataclass
class Reference:
    """The oracle's container for one input, and what the replay counted."""

    blob: bytes
    uni_bytes: int          # size of the uni, N_s=1 container of the input
    n_symbols: int
    segment_sizes: list[int]
    index_bits: int
    stats: object           # pecstream.termination.TerminationStats
    renormed: int           # terminations that needed a renormalization byte


def reference(workload, data: bytes) -> Reference:
    from pecstream.bitio import bytes_to_bits
    from pecstream.rangecoder import BinaryModel

    from perfbench.replay import NullTracer, replay_encode

    model = build_model(workload.model, data)
    symbols = bytes_to_bits(data) if isinstance(model, BinaryModel) else data
    ref = replay_encode(symbols, model, workload.n_streams, workload.mode,
                        workload.index_codec, NullTracer())
    uni = replay_encode(symbols, model, 1, "uni", workload.index_codec,
                        NullTracer())
    return Reference(ref.blob, len(uni.blob), len(symbols), ref.segment_sizes,
                     ref.index_bits, ref.stats, ref.renormed)


def pooled_sizes(workload, seed: int) -> tuple[int, int]:
    """Container and uni bytes summed over inputs 1 .. overhead_inputs - 1."""
    container = uni = 0
    for part in range(1, workload.overhead_inputs):
        ref = reference(workload, workload.make_input(seed, part))
        container += len(ref.blob)
        uni += ref.uni_bytes
    return container, uni


def answer(job: tuple):
    kind, workload, arg = job
    if kind == "reference":
        return reference(workload, arg)
    if kind == "pooled_sizes":
        return pooled_sizes(workload, arg)
    raise ValueError(f"unknown oracle job {kind!r}")


def run_oracle(job: tuple):
    """Answer `job` in a child process and wait for it to end."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                          input=pickle.dumps(job), capture_output=True,
                          cwd=ROOT, timeout=ORACLE_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError("oracle child failed: "
                           + proc.stderr.decode(errors="replace")[-2000:])
    return pickle.loads(proc.stdout)


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # through the package, so that the answer pickles as perfbench.oracle
    from perfbench.oracle import answer as package_answer

    job = pickle.loads(sys.stdin.buffer.read())
    sys.stdout.buffer.write(pickle.dumps(package_answer(job)))


if __name__ == "__main__":
    main()
