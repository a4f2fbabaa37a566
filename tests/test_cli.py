import hashlib
import random

import pytest

from pecstream.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


def run(*argv):
    return main(list(argv))


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_input(workdir, name, data):
    path = workdir / name
    path.write_bytes(data)
    return str(path)


class TestEncodeDecode:
    @pytest.mark.parametrize("mode,codec,streams", [
        ("uni", "i32", 1),
        ("fb", "bic", 4),
        ("fr", "rtc", 8),
        ("fr", "gamma", 2),
    ])
    def test_order0_roundtrip(self, workdir, mode, codec, streams):
        rnd = random.Random(1)
        data = bytes(rnd.randrange(256) for _ in range(4000))
        src = write_input(workdir, "in.bin", data)
        enc = str(workdir / "out.pec")
        dec = str(workdir / "back.bin")
        assert run("encode", src, "--out", enc, "--mode", mode,
                   "--index", codec, "--streams", str(streams)) == EXIT_OK
        assert run("decode", enc, "--out", dec) == EXIT_OK
        assert (workdir / "back.bin").read_bytes() == data

    def test_decode_parses_index_once(self, workdir, monkeypatch):
        import pecstream.container
        calls = []
        decode_index = pecstream.container.decode_index

        def counted(*args):
            calls.append(args[0])
            return decode_index(*args)

        monkeypatch.setattr(pecstream.container, "decode_index", counted)
        src = write_input(workdir, "in.bin", b"abracadabra" * 50)
        enc = str(workdir / "out.pec")
        assert run("encode", src, "--out", enc, "--streams", "4") == EXIT_OK
        assert run("decode", enc, "--out", str(workdir / "back.bin")) == EXIT_OK
        assert calls == ["rtc"]

    def test_bernoulli_roundtrip(self, workdir):
        rnd = random.Random(2)
        data = bytes(rnd.getrandbits(8) & rnd.getrandbits(8) for _ in range(2500))
        src = write_input(workdir, "in.bin", data)
        enc = str(workdir / "out.pec")
        dec = str(workdir / "back.bin")
        assert run("encode", src, "--out", enc, "--model", "bernoulli:0.75",
                   "--mode", "fb", "--streams", "4") == EXIT_OK
        assert run("decode", enc, "--out", dec) == EXIT_OK
        assert (workdir / "back.bin").read_bytes() == data

    def test_empty_file_roundtrip(self, workdir):
        src = write_input(workdir, "in.bin", b"")
        enc = str(workdir / "out.pec")
        dec = str(workdir / "back.bin")
        assert run("encode", src, "--out", enc) == EXIT_OK
        assert run("decode", enc, "--out", dec) == EXIT_OK
        assert (workdir / "back.bin").read_bytes() == b""

    def test_text_compresses_near_entropy(self, workdir):
        import collections
        import math
        rnd = random.Random(3)
        # skewed byte source stands in for text
        alphabet = b"etaoin shrdlu"
        weights = [13, 11, 9, 8, 7, 6, 18, 5, 4, 3, 2, 2, 1]
        data = bytes(rnd.choices(alphabet, weights, k=30_000))
        counts = collections.Counter(data)
        entropy_bits = -sum(c * math.log2(c / len(data)) for c in counts.values())
        src = write_input(workdir, "in.txt", data)
        enc = str(workdir / "out.pec")
        assert run("encode", src, "--out", enc, "--mode", "fr",
                   "--index", "rtc", "--streams", "8") == EXIT_OK
        compressed = len((workdir / "out.pec").read_bytes())
        # payload within 2% of the order-0 bound plus header/model/overhead room
        assert compressed <= entropy_bits / 8 * 1.02 + 560 + 8 * 6
        dec = str(workdir / "back.bin")
        assert run("decode", enc, "--out", dec) == EXIT_OK
        assert (workdir / "back.bin").read_bytes() == data

    def test_one_mebibyte_roundtrip(self, workdir):
        rnd = random.Random(4)
        data = rnd.randbytes(1 << 20)
        src = write_input(workdir, "in.bin", data)
        enc = str(workdir / "out.pec")
        dec = str(workdir / "back.bin")
        assert run("encode", src, "--out", enc, "--mode", "fr",
                   "--index", "rtc", "--streams", "64") == EXIT_OK
        assert run("decode", enc, "--out", dec) == EXIT_OK
        assert (workdir / "back.bin").read_bytes() == data


class TestInspect:
    def test_summary_fields(self, workdir, capsys):
        data = bytes(range(256)) * 4
        src = write_input(workdir, "in.bin", data)
        enc = str(workdir / "out.pec")
        run("encode", src, "--out", enc, "--mode", "fb", "--index", "rtc",
            "--streams", "4")
        assert run("inspect", enc) == EXIT_OK
        out = capsys.readouterr().out
        assert "mode:         fb" in out
        assert "index codec:  rtc" in out
        assert "streams:      4" in out
        assert "segments:     2" in out
        assert "bits/entry" in out

    def test_corrupt_file_fails(self, workdir, capsys):
        path = write_input(workdir, "bad.pec", b"not a container at all")
        assert run("inspect", path) == EXIT_DATA


class TestErrors:
    def test_usage_errors_exit_1(self):
        assert run() == EXIT_USAGE
        assert run("encode") == EXIT_USAGE
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_input_exit_2(self, workdir):
        assert run("encode", str(workdir / "nope.bin"),
                   "--out", str(workdir / "x")) == EXIT_DATA

    def test_bad_model_spec_exit_2(self, workdir):
        src = write_input(workdir, "in.bin", b"xy")
        assert run("encode", src, "--out", str(workdir / "o"),
                   "--model", "bernoulli:2.0") == EXIT_DATA
        assert run("encode", src, "--out", str(workdir / "o"),
                   "--model", "magic") == EXIT_DATA

    def test_odd_streams_bidirectional_exit_2(self, workdir):
        src = write_input(workdir, "in.bin", b"xy")
        assert run("encode", src, "--out", str(workdir / "o"),
                   "--mode", "fb", "--streams", "3") == EXIT_DATA


class TestBenchCommands:
    def test_bench_term_csv(self, workdir, capsys):
        path = str(workdir / "term.csv")
        assert run("bench-term", "--pairs", "400", "--seed", "5",
                   "--csv", path) == EXIT_OK
        assert (workdir / "term.csv").read_text() == (
            "# generator=numpy.random.Generator(PCG64)\n"
            "# seed=5\n"
            "# pairs=400\n"
            "mode,streams,share_ratio,mean_extra_bits\n"
            "uni,800,,4.563535\n"
            "fb,800,0.405000,2.943535\n"
            "fr,800,0.662500,1.913535\n")
        again = str(workdir / "term2.csv")
        run("bench-term", "--pairs", "400", "--seed", "5", "--csv", again)
        assert (workdir / "term.csv").read_text() == (workdir / "term2.csv").read_text()

    def test_bench_overhead_csv(self, workdir):
        # the factor tables by text, the curves and the grid by SHA-256
        expected = {
            ("--tbar", "published"): (
                "# generator=numpy.random.Generator(PCG64)\n"
                "# seed=20240817\n"
                "# tbar_source=published\n"
                "mode,index,tbar,alpha,beta\n"
                "uni,i32,4.5600,0.000000,4.570000\n"
                "uni,rtc,4.5600,0.125000,0.820000\n"
                "fb,rtc,2.7700,0.062500,0.533750\n"
                "fr,rtc,1.7800,0.062500,0.410000\n",
                "3d4db2b133ba40e41c530bb77fa045dc6963b298340e71dd9b9a272d5e4bd9a1",
                "62bb7e9100e43a0989553211f21b554b1e0e0609b610236f9ce464d12e808607"),
            ("--tbar", "measured", "--pairs", "400", "--seed", "5"): (
                "# generator=numpy.random.Generator(PCG64)\n"
                "# seed=5\n"
                "# tbar_source=measured\n"
                "mode,index,tbar,alpha,beta\n"
                "uni,i32,4.5635,0.000000,4.570442\n"
                "uni,rtc,4.5635,0.125000,0.820442\n"
                "fb,rtc,2.9435,0.062500,0.555442\n"
                "fr,rtc,1.9135,0.062500,0.426692\n",
                "b0fa3887c12dbf8e0fec780e3bdb38b7c48d7c0e68f9ef11523c6cac1aa92d98",
                "53d1af9e1ce2643fd58849a8348e3896e1dd90700a8a3e552bcc8d647b96ffb4"),
        }
        factors, curves, grid = (workdir / "factors.csv", workdir / "curves.csv",
                                 workdir / "grid.csv")
        for options, (factors_text, curves_digest, grid_digest) in expected.items():
            assert run("bench-overhead", "--csv", str(factors), "--curves-csv",
                       str(curves), "--grid-csv", str(grid), *options) == EXIT_OK
            assert factors.read_text() == factors_text
            assert hashlib.sha256(curves.read_bytes()).hexdigest() == curves_digest
            assert hashlib.sha256(grid.read_bytes()).hexdigest() == grid_digest

    def test_bench_index_csv(self, workdir):
        # by SHA-256: the bic and rtc bit counts behind the redundancy
        # curves, 8 cells of 2 trials
        path = workdir / "idx.csv"
        assert run("bench-index", "--trials", "2", "--seed", "3",
                   "--csv", str(path), "--sigmas", "0.3,0.5",
                   "--log2-means", "6,8") == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "844abf9685018f36b09ca5cbc18a12bdb62667dfc781a6b603cfb104030109c3")
