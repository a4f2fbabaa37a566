"""Command-line front end: file coding, container inspection, benchmarks."""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .bitio import TruncatedStreamError, bits_to_bytes, bytes_to_bits
from .container import INDEX_CODECS, MODES, read_container, read_header
from .pipeline import decode_parallel, encode_parallel
from .rangecoder import BinaryModel, CdfModel

# the bench commands import `bench` inside: it loads numpy (~0.14 s), which
# the file commands do not need

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_model(name: str, data: bytes):
    """Build the coding model named on the command line.

    order0 runs a counting pass over the input (frequencies travel in the
    container header, keeping shard contexts independent); bernoulli:p codes
    the input as a bit sequence under a fixed probability of zero.
    """
    if name == "order0":
        counts = Counter(data)
        table = [counts.get(s, 0) for s in range(256)]
        if not data:
            table[0] = 1  # empty input still needs a legal table
        return CdfModel.from_counts(table)
    if name.startswith("bernoulli:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad probability in {name!r}") from None
        if not 0.0 < p < 1.0:
            raise ValueError("bernoulli probability must be in (0, 1)")
        return BinaryModel.from_probability(p)
    raise ValueError(f"unknown model {name!r} (use order0 or bernoulli:P)")


def cmd_encode(args) -> int:
    data = _read_file(args.input)
    model = _parse_model(args.model, data)
    symbols = bytes_to_bits(data) if isinstance(model, BinaryModel) else data
    blob = encode_parallel(symbols, model, args.streams, args.mode, args.index)
    _write_file(args.out, blob)
    return EXIT_OK


def cmd_decode(args) -> int:
    blob = _read_file(args.input)
    header = read_header(blob)
    symbols = decode_parallel(blob)
    if isinstance(header.model, BinaryModel):
        data = bits_to_bytes(symbols)
    else:
        data = symbols
    _write_file(args.out, data)
    return EXIT_OK


def cmd_inspect(args) -> int:
    blob = _read_file(args.input)
    header, seg_map = read_container(blob)
    sizes = seg_map.sizes()
    model_name = "bernoulli" if isinstance(header.model, BinaryModel) else "order0"
    print(f"mode:         {header.mode}")
    print(f"index codec:  {header.index_codec}")
    print(f"model:        {model_name}")
    print(f"streams:      {header.n_streams}")
    print(f"symbols:      {header.n_symbols}")
    print(f"data bytes:   {header.data_size}")
    print(f"segments:     {len(sizes)}")
    if sizes:
        print(f"mean size:    {sum(sizes) / len(sizes):.2f}")
        print(f"min size:     {min(sizes)}")
        bits_per_entry = 8.0 * header.index_nbytes / len(sizes)
        print(f"index bytes:  {header.index_nbytes} ({bits_per_entry:.2f} bits/entry)")
    print("segment sizes:", " ".join(str(s) for s in sizes))
    return EXIT_OK


def cmd_bench_term(args) -> int:
    from . import bench
    table = bench.termination_table(args.pairs, args.seed)
    rows = [stats.csv_row(mode) for mode, stats in table.items()]
    bench.write_csv(args.csv, ["mode", "streams", "share_ratio", "mean_extra_bits"],
                    rows, bench.csv_metadata(seed=args.seed, pairs=args.pairs))
    for row in rows:
        share = row["share_ratio"] or "-"
        print(f"{row['mode']:4s} share={share:>8s} extra_bits={row['mean_extra_bits']}")
    return EXIT_OK


def cmd_bench_index(args) -> int:
    from . import bench
    sigmas = [float(s) for s in args.sigmas.split(",")]
    log2_means = [float(s) for s in args.log2_means.split(",")]
    cells = bench.redundancy_experiment(("bic", "rtc"), sigmas, log2_means,
                                        args.trials, args.seed)
    bench.write_csv(
        args.csv,
        ["codec", "sigma", "log2_mean", "bits_per_entry", "entropy",
         "redundancy", "estimator_gap"],
        [cell.as_row() for cell in cells],
        bench.csv_metadata(seed=args.seed, trials=args.trials,
                           entries=bench.INDEX_ENTRIES,
                           entropy_estimator="log2-normal-fit"),
    )
    profile = bench.average_redundancy(cells)
    for (codec, sigma) in sorted(profile):
        print(f"{codec:4s} sigma={sigma:<4g} mean_redundancy={profile[codec, sigma]:.3f}")
    return EXIT_OK


def cmd_bench_overhead(args) -> int:
    from . import bench
    if args.tbar == "published":
        tbar = dict(bench.TBAR_TABLE)
    else:
        table = bench.termination_table(args.pairs, args.seed)
        tbar = {mode: stats.mean_extra_bits for mode, stats in table.items()}
    combos = [("uni", "i32"), ("uni", "rtc"), ("fb", "rtc"), ("fr", "rtc")]
    rows = []
    models = {}
    for mode, codec in combos:
        model = bench.overhead_factors(mode, codec, tbar[mode])
        models[mode, codec] = model
        rows.append({
            "mode": mode, "index": codec,
            "tbar": f"{tbar[mode]:.4f}",
            "alpha": f"{model.alpha:.6f}", "beta": f"{model.beta:.6f}",
        })
    bench.write_csv(args.csv, ["mode", "index", "tbar", "alpha", "beta"], rows,
                    bench.csv_metadata(seed=args.seed, tbar_source=args.tbar))
    for row in rows:
        print(f"{row['mode']:4s}/{row['index']:<5s} alpha={row['alpha']} beta={row['beta']}")

    if args.curves_csv:
        points = [float(2.0 ** (e / 4.0)) for e in range(4 * 4, 4 * 17 + 1)]
        curve_rows = []
        for (mode, codec), model in models.items():
            for b in points:
                curve_rows.append({
                    "mode": mode, "index": codec, "stream_bytes": f"{b:.3f}",
                    "overhead": f"{model.relative_overhead(b):.8f}",
                })
        bench.write_csv(args.curves_csv,
                        ["mode", "index", "stream_bytes", "overhead"],
                        curve_rows,
                        bench.csv_metadata(seed=args.seed, tbar_source=args.tbar))

    if args.grid_csv:
        data_points = [float(1 << e) for e in range(10, 25, 2)]
        stream_counts = [1 << e for e in range(0, 13)]
        grid_rows = []
        for (mode, codec), model in models.items():
            for d, n, w in bench.overhead_grid(model, data_points, stream_counts):
                grid_rows.append({
                    "mode": mode, "index": codec, "data_bytes": f"{d:.0f}",
                    "streams": n, "overhead": f"{w:.8f}",
                })
        bench.write_csv(args.grid_csv,
                        ["mode", "index", "data_bytes", "streams", "overhead"],
                        grid_rows,
                        bench.csv_metadata(seed=args.seed, tbar_source=args.tbar))
    return EXIT_OK


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_file(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pecstream",
                     description="parallel entropy coding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a file into a container")
    enc.add_argument("input")
    enc.add_argument("--out", required=True)
    enc.add_argument("--mode", choices=MODES, default="fr")
    enc.add_argument("--index", choices=INDEX_CODECS, default="rtc")
    enc.add_argument("--streams", type=int, default=8)
    enc.add_argument("--model", default="order0",
                     help="order0 or bernoulli:P (default order0)")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a container back to the file")
    dec.add_argument("input")
    dec.add_argument("--out", required=True)
    dec.set_defaults(func=cmd_decode)

    ins = sub.add_parser("inspect", help="print header and segment summary")
    ins.add_argument("input")
    ins.set_defaults(func=cmd_inspect)

    term = sub.add_parser("bench-term",
                          help="termination overhead table (CSV)")
    term.add_argument("--pairs", type=int, default=100_000)
    term.add_argument("--seed", type=int, default=20240817)
    term.add_argument("--csv", required=True)
    term.set_defaults(func=cmd_bench_term)

    idx = sub.add_parser("bench-index",
                         help="index compression redundancy curves (CSV)")
    idx.add_argument("--trials", type=int, default=24)
    idx.add_argument("--seed", type=int, default=20240817)
    idx.add_argument("--csv", required=True)
    idx.add_argument("--sigmas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    idx.add_argument("--log2-means", dest="log2_means",
                     default="4,6,8,10,12,14,16,18,20")
    idx.set_defaults(func=cmd_bench_index)

    ovh = sub.add_parser("bench-overhead",
                         help="overhead factors and W curves (CSV)")
    ovh.add_argument("--csv", required=True)
    ovh.add_argument("--curves-csv", dest="curves_csv", default=None)
    ovh.add_argument("--grid-csv", dest="grid_csv", default=None)
    ovh.add_argument("--tbar", choices=("published", "measured"), default="published")
    ovh.add_argument("--pairs", type=int, default=100_000)
    ovh.add_argument("--seed", type=int, default=20240817)
    ovh.set_defaults(func=cmd_bench_overhead)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, TruncatedStreamError) as exc:
        print(f"pecstream: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
