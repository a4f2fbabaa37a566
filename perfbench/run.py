"""pecstream benchmark: one workload per process, result as a JSON last line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tiny-65536 --seed 1 --seconds 45 --trace 0

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1`
its per-layer metrics, the layer table and writes the spans to
`.perfbench-out/`.  The library is imported from `src/` of the checkout; the
run fails (exit 2, no result line) when that source tree is absent.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench-out"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "pecstream" / "__init__.py").is_file():
        print(f"perfbench: no pecstream source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pecstream
    if Path(pecstream.__file__).resolve().parent != SRC / "pecstream":
        print(f"perfbench: imported pecstream from {pecstream.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.inputs import WORKLOADS
    from perfbench.measure import run_workload

    args = parse_args(argv, WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), units, ROOT, Path(args.out_dir),
                          T_START)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
