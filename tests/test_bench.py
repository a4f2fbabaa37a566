import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecstream import bench
from pecstream.bench import (
    FitResult,
    Log2NormalSource,
    OverheadModel,
    average_redundancy,
    fit_log2_normal,
    log2_normal_entropy,
    overhead_curve,
    overhead_factors,
    redundancy_experiment,
)
from pecstream.termination import (
    TerminationStats,
    joint_terminate,
    junction_bytes,
    terminate_single,
)


class TestLog2Normal:
    def test_entropy_golden(self):
        assert log2_normal_entropy(1024, 0.4) == pytest.approx(10.141, abs=2e-3)

    def test_entropy_monte_carlo_oracle(self):
        # H = -E[log2 f_B(B)] for the continuous size variable
        mean_size, sigma = 1024.0, 0.4
        mu = math.log2(mean_size) - math.log(2) * sigma**2 / 2
        rng = np.random.default_rng(123)
        z = rng.normal(mu, sigma, 200_000)
        b = np.exp2(z)
        log_pdf = (-np.log2(b * math.log(2) * sigma * math.sqrt(2 * math.pi))
                   - (np.log2(b) - mu) ** 2 / (2 * sigma**2) * math.log2(math.e))
        estimate = float(-log_pdf.mean())
        assert log2_normal_entropy(mean_size, sigma) == pytest.approx(estimate, abs=0.02)

    def test_entropy_scaling_exact(self):
        for mean in (32.0, 900.0, 2.0**15):
            for sigma in (0.1, 0.45, 1.0):
                delta = (log2_normal_entropy(2 * mean, sigma)
                         - log2_normal_entropy(mean, sigma))
                assert delta == pytest.approx(1.0, abs=1e-12)

    def test_entropy_monotone_in_sigma(self):
        grid = [0.1 + 0.05 * i for i in range(19)]  # up to 1.0 < 1/ln2
        values = [log2_normal_entropy(512, s) for s in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_source_samples(self):
        src = Log2NormalSource(256.0, 0.4)
        rng = np.random.default_rng(7)
        sizes = src.sample(rng, 20_000)
        assert sizes.min() >= 1
        assert sizes.dtype == np.int64
        assert sizes.mean() == pytest.approx(256.0, rel=0.05)
        rng2 = np.random.default_rng(7)
        assert np.array_equal(src.sample(rng2, 20_000), sizes)

    def test_source_validation(self):
        with pytest.raises(ValueError):
            Log2NormalSource(0, 0.4)
        with pytest.raises(ValueError):
            log2_normal_entropy(10, 0)


class TestFit:
    def test_recovers_parameters(self):
        src = Log2NormalSource(700.0, 0.35)
        rng = np.random.default_rng(42)
        fit = fit_log2_normal(src.sample(rng, 50_000))
        assert fit.mean_size == pytest.approx(700.0, rel=0.03)
        assert fit.sigma == pytest.approx(0.35, abs=0.01)
        assert fit.entropy == pytest.approx(log2_normal_entropy(700, 0.35), abs=0.05)
        assert not fit.degenerate

    def test_degenerate_constant_samples(self):
        fit = fit_log2_normal([64] * 100)
        assert fit == FitResult(mean_size=64.0, sigma=0.0, entropy=0.0,
                                degenerate=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_log2_normal([5])
        with pytest.raises(ValueError):
            fit_log2_normal([1, 0])


class TestOverheadModel:
    def test_published_factor_rows(self):
        rows = [
            ("uni", "i32", 4.56, 0.0, 4.57),
            ("uni", "rtc", 4.56, 1 / 8, 0.82),
            ("fb", "rtc", 2.77, 1 / 16, 0.53),
            ("fr", "rtc", 1.78, 1 / 16, 0.41),
        ]
        for mode, codec, tbar, alpha, beta in rows:
            model = overhead_factors(mode, codec, tbar)
            assert model.alpha == pytest.approx(alpha, abs=1e-12)
            assert model.beta == pytest.approx(beta, abs=0.005)

    def test_unsupported_combination(self):
        with pytest.raises(ValueError, match="unknown mode"):
            overhead_factors("bi", "rtc", 2.77)
        with pytest.raises(ValueError, match="unknown index codec"):
            overhead_factors("uni", "lz", 4.56)

    def test_general_factors_match_published(self):
        # the published rows' closed forms, reproduced bit for bit
        for mode, codec, tbar, alpha, beta in (
                ("uni", "i32", 4.56, 0.0, (32.0 + 4.56) / 8.0),
                ("uni", "rtc", 4.56, 1.0 / 8.0, (2.0 + 4.56) / 8.0),
                ("fb", "rtc", 2.77, 1.0 / 16.0, (3.0 + 2.0 * 2.77) / 16.0),
                ("fr", "rtc", 1.78, 1.0 / 16.0, (3.0 + 2.0 * 1.78) / 16.0)):
            model = overhead_factors(mode, codec, tbar)
            assert (model.alpha, model.beta) == (alpha, beta)
        # the general form covers the rest of the flag matrix
        assert overhead_factors("fb", "i32", 2.77).alpha == 0.0
        assert overhead_factors("uni", "gamma", 4.56).alpha == pytest.approx(0.25)

    def test_zero_alpha_form(self):
        model = OverheadModel(0.0, 4.57)
        for b in (1.0, 10.0, 12345.0):
            assert model.relative_overhead(b) == pytest.approx(4.57 / b)

    def test_curve_shape(self):
        model = overhead_factors("fr", "rtc", 1.78)
        points = [b for b, _ in overhead_curve(model, [95, 1200])]
        assert points == [95, 1200]
        assert model.relative_overhead(95) < 0.01
        assert model.relative_overhead(1200) < 0.001

    def test_grid_matches_stream_form(self):
        model = overhead_factors("fb", "rtc", 2.77)
        rows = bench.overhead_grid(model, [1024.0, 65536.0], [1, 4, 2048])
        assert (1024.0, 2048, pytest.approx(0)) not in rows  # <1 byte/stream cell skipped
        assert len(rows) == 5
        for d, n, w in rows:
            assert w == pytest.approx(model.relative_overhead(d / n), rel=1e-9)


class TestTerminationExperiment:
    @pytest.mark.parametrize("pairs, seed, min_symbols, max_symbols", [
        (120, 2024, 4, 500),
        (40, 9, 4, 500),
        (40, 7, 0, 3),   # zero-length lanes
        (40, 7, 5, 5),   # every lane ends on the same step
    ])
    def test_lockstep_matches_exact_engine(self, pairs, seed, min_symbols,
                                           max_symbols):
        shape = (pairs, seed, min_symbols, max_symbols)
        pop_fast = bench.simulate_termination_population(*shape)
        pop_exact, states = bench.exact_termination_population(*shape)
        for field in ("low", "range_", "appended", "set_lo", "set_hi", "lengths"):
            assert np.array_equal(getattr(pop_fast, field),
                                  getattr(pop_exact, field)), field
        assert np.allclose(pop_fast.pending, pop_exact.pending, atol=1e-12)
        exact = {mode: TerminationStats() for mode in ("uni", "fb", "fr")}
        for state in states:
            exact["uni"].add_single(terminate_single(state.copy()))
        unshared = 0
        for mode in ("fb", "fr"):
            # the array junction is joint_terminate's stored junction byte
            junctions = junction_bytes(pop_exact.set_lo[0::2], pop_exact.set_hi[0::2],
                                       pop_exact.set_lo[1::2], pop_exact.set_hi[1::2],
                                       mode)
            scalar = []
            for j in range(0, len(states), 2):
                term = joint_terminate(states[j].copy(), states[j + 1].copy(), mode)
                exact[mode].add_pair(term)
                scalar.append(term.fwd_data[-1] if term.shared else -1)
            assert junctions.tolist() == scalar
            assert any(z >= 0 for z in scalar)
            unshared += scalar.count(-1)
        assert unshared  # in (0, 3), every fr pair shares
        for mode, stats in exact.items():
            fast = bench.population_stats(pop_fast, mode)
            assert fast.share_ratio == stats.share_ratio
            assert fast.mean_extra_bits == pytest.approx(stats.mean_extra_bits,
                                                         abs=1e-9)

    def test_seeded_reproducibility(self):
        assert bench.termination_table(300, 99) == bench.termination_table(300, 99)

    def test_loose_table_agreement(self):
        pop = bench.simulate_termination_population(4000, 31337)
        uni = bench.population_stats(pop, "uni")
        fb = bench.population_stats(pop, "fb")
        fr = bench.population_stats(pop, "fr")
        assert uni.mean_extra_bits == pytest.approx(4.56, abs=0.5)
        assert fb.share_ratio == pytest.approx(0.45, abs=0.08)
        assert fr.share_ratio == pytest.approx(0.69, abs=0.08)
        assert fr.mean_extra_bits < fb.mean_extra_bits < uni.mean_extra_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            bench.simulate_termination_population(0, 1)
        pop = bench.simulate_termination_population(10, 1)
        with pytest.raises(ValueError):
            bench.population_stats(pop, "nope")


class TestRedundancy:
    def test_estimator_gap_independent_of_mean(self):
        cells = redundancy_experiment(("bic",), [0.4], [6.0, 10.0, 14.0],
                                      trials=2, seed=5)
        gaps = {round(c.estimator_gap - (c.log2_mean + 2 - c.entropy), 9)
                for c in cells}
        assert gaps == {0.0}
        # delta-U itself does not depend on the mean
        assert len({round(c.estimator_gap, 9) for c in cells}) == 1

    def test_seeded_reproducibility(self):
        a = redundancy_experiment(("rtc",), [0.3], [8.0], trials=3, seed=9)
        b = redundancy_experiment(("rtc",), [0.3], [8.0], trials=3, seed=9)
        assert a == b

    def test_average_helper(self):
        cells = redundancy_experiment(("rtc", "bic"), [0.2, 0.5], [8.0, 12.0],
                                      trials=2, seed=11)
        profile = average_redundancy(cells)
        assert set(profile) == {("rtc", 0.2), ("rtc", 0.5),
                                ("bic", 0.2), ("bic", 0.5)}

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            redundancy_experiment(("rtc",), [], [8.0], trials=1, seed=1)


class TestCsv:
    def test_metadata_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        bench.write_csv(str(path), ["a", "b"], [{"a": 1, "b": 2}],
                        bench.csv_metadata(seed=7, extra="x"))
        text = path.read_text().splitlines()
        assert text[0].startswith("# generator=numpy.random.Generator")
        assert "# seed=7" in text
        with open(path) as handle:
            rows = list(csv.DictReader(
                line for line in handle if not line.startswith("#")))
        assert rows == [{"a": "1", "b": "2"}]
