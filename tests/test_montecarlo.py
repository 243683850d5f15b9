import math
import os
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavytrim import montecarlo
from heavytrim.expcli import parse_config, run
from heavytrim.montecarlo import (ExperimentConfig, MonteCarloError,
                                  aggregate, dichotomy_summary,
                                  exceedance_counts, run_replication,
                                  sample_mean_instability, simulate,
                                  trace_csv_rows, trimmed_sum, truncated_sum)
from heavytrim.trimming import (PowerThreshold, TrimmingPlan,
                                fluctuation_allowance, plan_default,
                                plan_standard)


@pytest.fixture(scope="module")
def pareto_cfg(pareto):
    plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
    return ExperimentConfig(plan, (1000, 3162, 10000, 31623, 100000),
                            20, 424242)


@pytest.fixture(scope="module")
def pareto_traces(pareto_cfg):
    return simulate(pareto_cfg)


@pytest.fixture(scope="module")
def pm_cfg(pm):
    plan = plan_default(pm, 0.05, grid=())
    return ExperimentConfig(plan, (100, 1000, 10000), 3, 7)


class TestTrimmedSum:
    def test_drop_single_maximum(self):
        assert trimmed_sum(np.array([5.0, 1.0, 3.0]), 1) == 4.0

    def test_degenerate_trims(self):
        x = np.array([2.0, 7.0, 1.0])
        assert trimmed_sum(x, 0) == 10.0
        assert trimmed_sum(x, 3) == 0.0

    def test_ties_are_value_invariant(self):
        assert trimmed_sum(np.array([2.0, 2.0, 2.0]), 2) == 2.0

    def test_out_of_range_trim(self):
        with pytest.raises(MonteCarloError):
            trimmed_sum(np.array([1.0]), 2)
        with pytest.raises(MonteCarloError):
            trimmed_sum(np.array([1.0]), -1)

    def test_selection_equals_sort_reference(self):
        # the exact sum is rounded once, so any summation order of the same
        # kept multiset must give the same float
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(1, 2000))
            b = int(rng.integers(0, n + 1))
            mode = rng.integers(0, 3)
            if mode == 0:
                x = (1.0 - rng.random(n)) ** -2.0
            elif mode == 1:
                x = rng.random(n) * 1e6
            else:
                x = np.repeat(rng.random(n // 7 + 1), 7)[:n] * 100.0
            assert len(x) == n
            reference = math.fsum(np.sort(x)[: n - b].tolist())
            assert trimmed_sum(x, b) == reference

    def test_inf_entries_are_trimmed_away(self):
        x = np.array([1.0, math.inf, 2.0])
        assert trimmed_sum(x, 1) == 3.0
        assert trimmed_sum(x, 0) == math.inf


class TestTruncatedSum:
    def test_plain(self):
        assert truncated_sum(np.array([5.0, 1.0, 3.0]), 3.0) == 4.0

    def test_cutoff_above_max_gives_total(self):
        x = np.array([5.0, 1.0, 3.0])
        assert truncated_sum(x, 100.0) == 9.0

    def test_boundary_is_inclusive(self):
        assert truncated_sum(np.array([2.0, 2.0, 5.0]), 2.0) == 4.0

    def test_negative_cutoff_rejected(self):
        with pytest.raises(MonteCarloError):
            truncated_sum(np.array([1.0]), -1.0)


# entries for the exact-sum properties: subnormals and tiny values, values
# near the top of the range (60 of them cannot overflow), mixed signs
_ENTRIES = st.one_of(
    st.floats(0.0, 1e-300),
    st.floats(1e299, 1e301),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, 1.0, 0.1, 5e-324, 2.2250738585072014e-308]),
)
_ARRAYS = st.one_of(
    st.lists(_ENTRIES, max_size=60),
    st.builds(lambda v, k: [v] * k, _ENTRIES, st.integers(0, 40)),
)


class TestExactSum:
    """Both public sums against ``math.fsum``, compared bit for bit."""

    @given(values=_ARRAYS)
    @settings(max_examples=300, deadline=None)
    def test_untrimmed_matches_fsum(self, values):
        assert trimmed_sum(np.array(values, dtype=np.float64), 0).hex() == \
            math.fsum(values).hex()

    @given(values=_ARRAYS, cutoff=st.one_of(st.floats(0.0, 1e301), st.just(math.inf)))
    @settings(max_examples=300, deadline=None)
    def test_truncated_matches_fsum(self, values, cutoff):
        x = np.array(values, dtype=np.float64)
        assert truncated_sum(x, cutoff).hex() == math.fsum(x[x <= cutoff].tolist()).hex()

    @given(values=_ARRAYS, where=st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_inf_entry_gives_inf(self, values, where):
        values = values[:where] + [math.inf] + values[where:]
        x = np.array(values, dtype=np.float64)
        assert math.fsum(values) == math.inf
        assert trimmed_sum(x, 0) == math.inf
        assert truncated_sum(x, math.inf) == math.inf

    def test_edge_cases(self):
        for values in ([], [0.0], [7.25], [0.0] * 9, [0.1] * 10, [5e-324] * 3,
                       [1e-300, 1e300, -1e300], [1e308, 7e307]):
            x = np.array(values, dtype=np.float64)
            assert trimmed_sum(x, 0).hex() == math.fsum(values).hex()
            assert truncated_sum(x, 1e308).hex() == \
                math.fsum(v for v in values if v <= 1e308).hex()
        assert math.isnan(trimmed_sum(np.array([1.0, math.nan]), 0))

    def test_longer_than_one_chunk(self):
        rng = np.random.default_rng(77)
        n = 3 * montecarlo._CHUNK + 17
        x = np.ldexp(rng.random(n), rng.integers(-1074, 1000, n))
        assert trimmed_sum(x, 0) == math.fsum(x.tolist())
        assert truncated_sum(x, 1.0) == math.fsum(x[x <= 1.0].tolist())

    def test_overflow_raises_like_fsum(self):
        values = [1.7976931348623157e308] * 2
        with pytest.raises(OverflowError):
            math.fsum(values)
        with pytest.raises(OverflowError):
            trimmed_sum(np.array(values), 0)
        with pytest.raises(OverflowError):
            truncated_sum(np.array(values), math.inf)

    def test_inf_decides_before_finite_overflow(self):
        # the finite part alone overflows; an inf still gives inf, as fsum
        # does in this order, also when the trim keeps some of the infs
        big = 1.7976931348623157e308
        values = [big, math.inf, big, math.inf]
        assert math.fsum(values) == math.inf
        x = np.array(values)
        assert trimmed_sum(x, 0) == math.inf
        assert trimmed_sum(x, 1) == math.inf
        assert truncated_sum(x, math.inf) == math.inf


class TestExceedanceCounts:
    def test_strict_and_weak(self):
        assert exceedance_counts(np.array([2.0, 2.0, 5.0]), 2.0) == (1, 3)

    def test_cutoff_above_everything(self):
        assert exceedance_counts(np.array([2.0, 2.0, 5.0]), 9.0) == (0, 0)

    def test_continuous_sample_has_no_boundary_ties(self, pareto):
        u = np.random.Generator(np.random.Philox(key=[3, 3])).random(5000)
        x = pareto.sample_array(u)
        gt, ge = exceedance_counts(x, 17.3)
        assert gt == ge


class TestRunReplication:
    def test_bitwise_determinism(self, pareto_cfg):
        a = run_replication(pareto_cfg, 4)
        b = run_replication(pareto_cfg, 4)
        assert a == b
        assert list(trace_csv_rows([a])) == list(trace_csv_rows([b]))

    def test_replications_differ(self, pareto_cfg):
        assert run_replication(pareto_cfg, 0) != run_replication(pareto_cfg, 1)

    def test_point_mass_path(self, pm_cfg):
        t = run_replication(pm_cfg, 0)
        for row, p in zip(t.rows, pm_cfg.points):
            assert row.untrimmed == float(row.n)
            assert row.trimmed == float(row.n - p.trim)
            assert row.truncated == float(row.n)
            assert row.count_gt == 0
            assert row.count_ge == row.n
            assert row.ratio_trimmed == (row.n - p.trim) / p.scale

    def test_raw_sum_monotone_along_path(self, pareto_traces):
        for t in pareto_traces:
            sums = [r.untrimmed for r in t.rows]
            assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_trace_row_order_relations(self, pareto_traces):
        for t in pareto_traces:
            for r in t.rows:
                assert 0.0 <= r.trimmed <= r.untrimmed
                assert r.truncated <= r.untrimmed
                assert r.count_gt <= r.count_ge <= r.n

    def test_coupling_identity_exact_in_rationals(self, pareto_cfg):
        # floats are dyadic rationals: the split at the threshold must be
        # exact in Q, and each float sum equals the correctly
        # rounded exact sum
        rng = np.random.Generator(np.random.Philox(key=[pareto_cfg.seed, 2]))
        x = pareto_cfg.distribution.sample_array(rng.random(4096))
        t = pareto_cfg.plan.checkpoint(4096).threshold
        total = sum(Fraction(v) for v in x.tolist())
        below = sum((Fraction(v) for v in x[x <= t].tolist()), Fraction(0))
        above = sum((Fraction(v) for v in x[x > t].tolist()), Fraction(0))
        assert below + above == total
        assert float(total) == math.fsum(x.tolist())
        assert float(below) == truncated_sum(x, t)

    def test_ratios_stable_under_exact_arithmetic(self, pareto_cfg):
        # recomputing the trimmed ratio with unbounded precision moves it
        # by strictly less than 1e-9
        rng = np.random.Generator(np.random.Philox(key=[pareto_cfg.seed, 3]))
        n = 100_000
        x = pareto_cfg.distribution.sample_array(rng.random(n))
        p = pareto_cfg.plan.checkpoint(n)
        kept = np.sort(x)[: n - p.trim]
        exact_ratio = sum(Fraction(v) for v in kept.tolist()) / Fraction(p.scale)
        float_ratio = trimmed_sum(x, p.trim) / p.scale
        assert abs(float_ratio - float(exact_ratio)) < 1e-9 * float(exact_ratio)

    def test_order_statistics_sandwich(self, pareto_cfg, pareto_traces):
        # whenever the strict exceedance count sits below the allowed trim
        # level, trimming that many entries dips below the truncated sum
        plan = pareto_cfg.plan
        for t in pareto_traces[:5]:
            rng = np.random.Generator(np.random.Philox(key=[t.seed, t.replication]))
            x = pareto_cfg.distribution.sample_array(rng.random(pareto_cfg.n_max))
            for r, p in zip(t.rows, pareto_cfg.points):
                level = p.expect_gt + fluctuation_allowance(
                    p.expect_gt, r.n, plan.epsilon, plan.summable)
                k = math.ceil(level)
                if r.count_gt <= k <= r.n:
                    assert trimmed_sum(x[: r.n], k) <= truncated_sum(x[: r.n], p.threshold)

    def test_decomposition_check_fires(self, pareto_cfg, monkeypatch):
        cfg = ExperimentConfig(pareto_cfg.plan, (1000,), 1, pareto_cfg.seed)
        t = cfg.points[0].threshold
        # with an exceedance on the path, the "<= t" selection is the only
        # argument of the primitive that holds no entry above t
        assert run_replication(cfg, 0).rows[0].count_gt > 0
        buckets = montecarlo._buckets

        def lossy(values):
            if len(values) > 1 and values.max() <= t:
                values = values[1:]
            return buckets(values)

        monkeypatch.setattr(montecarlo, "_buckets", lossy)
        with pytest.raises(MonteCarloError, match="sum decomposition"):
            run_replication(cfg, 0)

    def test_inf_draws_match_scalar_recomputation(self, logtail):
        # a 1/log tail draws inf about once per 710 samples: the raw sum is
        # inf, the trim drops every inf, the counts include them
        cfg = ExperimentConfig(plan_default(logtail, 0.05, grid=()),
                               (1000, 3162, 10000), 1, 99)
        trace = run_replication(cfg, 0)
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 0]))
        x = cfg.distribution.sample_array(rng.random(cfg.n_max))
        for r, p in zip(trace.rows, cfg.points):
            draws = sorted(x[: r.n].tolist())
            kept = draws[: r.n - p.trim]
            assert draws[-1] == math.inf
            assert all(math.isfinite(v) for v in kept)
            assert r.untrimmed == math.inf
            assert r.trimmed == math.fsum(kept)
            assert r.truncated == math.fsum(v for v in draws if v <= p.threshold)
            assert r.count_gt == sum(v > p.threshold for v in draws)
            assert r.count_ge == sum(v >= p.threshold for v in draws)

    def test_inf_draws_beside_finite_overflow(self, logtail):
        # by n = 1e6 the finite draws of this path sum past the float range;
        # the inf draws still make S_n inf, and the trim drops all of them
        cfg = ExperimentConfig(plan_default(logtail, 0.05, grid=()), (1_000_000,), 1, 0)
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 0]))
        x = cfg.distribution.sample_array(rng.random(cfg.n_max))
        with pytest.raises(OverflowError):
            math.fsum(x[np.isfinite(x)].tolist())
        (r,), (p,) = run_replication(cfg, 0).rows, cfg.points
        assert r.untrimmed == math.inf
        assert p.trim >= r.n - np.count_nonzero(np.isfinite(x))
        assert r.trimmed == math.fsum(np.sort(x)[: r.n - p.trim].tolist())

    @pytest.mark.parametrize("law", ["pareto", "pareto_table", "logtail", "step", "pm"])
    def test_memory_guard_bounds_replication_peak(self, request, pareto_cfg, law):
        # the guard budgets every built-in law, so its bound must hold for each
        n = 200_000
        plan = (pareto_cfg.plan if law == "pareto"
                else plan_default(request.getfixturevalue(law), 0.05, grid=()))
        cfg = ExperimentConfig(plan, (1000, 3162, 10000, 31623, 100000, n),
                               1, pareto_cfg.seed)
        tracemalloc.start()
        try:
            run_replication(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= montecarlo._BYTES_PER_SAMPLE * n

    def test_memory_budget_guard(self, pareto, monkeypatch):
        monkeypatch.setenv("HEAVYTRIM_MEMORY_MB", "1")
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        with pytest.raises(MonteCarloError, match="budget"):
            ExperimentConfig(plan, (1000, 100000), 2, 1)

    def test_config_validation(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        with pytest.raises(MonteCarloError):
            ExperimentConfig(plan, (), 2, 1)
        with pytest.raises(MonteCarloError):
            ExperimentConfig(plan, (100, 100), 2, 1)
        with pytest.raises(MonteCarloError):
            ExperimentConfig(plan, (100, 1000), 0, 1)
        with pytest.raises(MonteCarloError):
            ExperimentConfig(plan, (100, 1000), 2, -5)
        with pytest.raises(MonteCarloError):
            ExperimentConfig(plan, (100, 1000), 2, 1, max_samples=500)

    def test_points_are_the_plan_table(self, pareto_cfg):
        assert pareto_cfg.points == pareto_cfg.plan.table(pareto_cfg.checkpoints)
        assert pareto_cfg.distribution is pareto_cfg.plan.distribution

    def test_simulate_reuses_the_plan_table(self, pm_cfg, monkeypatch):
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "1")
        calls = []
        checkpoint = TrimmingPlan.checkpoint
        monkeypatch.setattr(TrimmingPlan, "checkpoint",
                            lambda plan, n: calls.append(n) or checkpoint(plan, n))
        simulate(pm_cfg)
        assert calls == []

    def test_run_evaluates_the_plan_once_per_grid(self, tmp_path, monkeypatch):
        # the condition-grid table serves all conditions and the budget; the
        # checkpoint table was built with the config, before the run
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "1")
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.json"
        spec = parse_config(demo, replications=2, out_dir=tmp_path)
        calls = []
        checkpoint = TrimmingPlan.checkpoint
        monkeypatch.setattr(TrimmingPlan, "checkpoint",
                            lambda plan, n: calls.append(n) or checkpoint(plan, n))
        run(spec)
        assert len(calls) == len(spec.condition_grid)


class TestSimulateAndAggregate:
    def test_quantiles_carry_inf(self):
        # levels 0.05..0.95 over 5 rows fall at indices 0.2, 1, 2, 3, 3.8
        col = np.array([[1.0], [2.0], [3.0], [np.inf], [np.inf]])
        q = montecarlo._quantiles(col)[:, 0]
        assert q.tolist() == [np.quantile([1.0, 2.0], 0.2), 2.0, 3.0, np.inf, np.inf]
        finite = np.arange(20.0).reshape(5, 4) ** 1.5
        assert np.array_equal(montecarlo._quantiles(finite),
                              np.quantile(finite, montecarlo.RATIO_QUANTILES, axis=0))
        assert np.isnan(montecarlo._quantiles(np.array([[1.0], [np.nan]]))).all()

    def test_parallel_merge_matches_sequential(self, pareto_cfg, pareto_traces,
                                               monkeypatch):
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "2")
        small = ExperimentConfig(pareto_cfg.plan, (1000, 10000), 4, pareto_cfg.seed)
        parallel = simulate(small)
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "1")
        sequential = simulate(small)
        assert parallel == sequential

    def test_single_trace_quantiles_collapse(self, pareto_cfg):
        t = simulate(ExperimentConfig(pareto_cfg.plan, (1000, 10000), 1, 5))
        agg = aggregate(t)
        for j in range(2):
            col = agg.trimmed_quantiles[:, j]
            assert np.all(col == col[0])

    def test_median_error_shrinks_along_checkpoints(self, pareto_traces):
        agg = aggregate(pareto_traces)
        errs = agg.median_trimmed_error
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_exceedance_event_never_fires_at_desk_scale(self, pareto_traces):
        # the concentration budget puts the event probability around 1e-57
        # here; twenty paths must not produce one
        agg = aggregate(pareto_traces)
        assert agg.exceedance_violations == (0, 0, 0, 0, 0)

    def test_truncated_ratio_concentrates(self, pareto_traces):
        ratios = np.array([[r.ratio_truncated for r in t.rows] for t in pareto_traces])
        inside = np.mean((ratios[:, 2] >= 0.9) & (ratios[:, 2] <= 1.1))
        assert inside == 1.0

    def test_sup_deviation_matches_direct_computation(self, pareto_traces):
        agg = aggregate(pareto_traces, min_n=10000)
        t0 = pareto_traces[0]
        cols = [r.ratio_trimmed for r in t0.rows if r.n >= 10000]
        assert agg.sup_trimmed_deviation[0] == pytest.approx(
            max(abs(v - 1.0) for v in cols), rel=1e-15)

    def test_grid_mismatch_rejected(self, pareto_cfg, pareto_traces):
        other = simulate(ExperimentConfig(pareto_cfg.plan, (1000, 10000), 1, 5))
        with pytest.raises(MonteCarloError):
            aggregate(list(pareto_traces) + list(other))

    def test_csv_schema(self, pareto_traces):
        rows = list(trace_csv_rows(pareto_traces[:1]))
        assert rows[0] == ("replication", "n", "S_n", "S_trimmed", "T_truncated",
                           "N_gt", "N_ge", "b_n", "t_n", "d_n",
                           "ratio_trimmed", "ratio_truncated")
        assert len(rows) == 1 + len(pareto_traces[0].rows)


class TestDiagnostics:
    def test_point_mass_ratio_is_flat(self, pm_cfg):
        d = dichotomy_summary(simulate(pm_cfg))
        assert np.allclose(d.running_max, 1.0)
        assert np.allclose(d.running_min, 1.0)
        assert d.fraction_growing == 0.0

    def test_heavy_tail_running_max_grows(self, pareto_traces):
        # frozen seed: 14 of 20 paths grow tenfold by n = 1e5, all of them
        # keep the trimmed ratio in a fixed band on the same paths
        d = dichotomy_summary(pareto_traces)
        assert d.fraction_growing >= 0.5
        assert float(np.median(d.growth_factors)) > 3.0
        final_trimmed = [t.rows[-1].ratio_trimmed for t in pareto_traces]
        assert all(0.5 <= v <= 1.5 for v in final_trimmed)

    def test_running_extrema_are_monotone(self, pareto_traces):
        d = dichotomy_summary(pareto_traces)
        assert np.all(np.diff(d.running_max, axis=1) >= 0.0)
        assert np.all(np.diff(d.running_min, axis=1) <= 0.0)

    def test_instability_point_mass_means_identical(self, pm_cfg):
        table = sample_mean_instability(pm_cfg, r_levels=(5, 20), sample_size=1000)
        values = [m for _, m in table.level_means]
        assert values[0] == values[1]
        assert table.spread == 1.0
        assert not table.flagged_unstable

    def test_instability_logtail_reports_spread(self, logtail):
        # with the ceiling-formula trim counts the infinite-expectation
        # drift is invisible at desk scale; the diagnostic must say so
        plan = plan_default(logtail, 0.05, grid=())
        cfg = ExperimentConfig(plan, (2000,), 5, 99)
        table = sample_mean_instability(cfg, r_levels=(20, 100, 400),
                                        sample_size=2000)
        assert [lvl for lvl, _ in table.level_means] == [20, 100, 400]
        assert table.spread >= 1.0
        assert math.isfinite(table.spread)
        assert table.flagged_unstable == (table.spread > table.threshold)

    def test_instability_trim_matches_plan(self, logtail):
        plan = plan_default(logtail, 0.05, grid=())
        cfg = ExperimentConfig(plan, (2000,), 5, 99)
        table = sample_mean_instability(cfg, r_levels=(5, 10), sample_size=2000)
        assert table.trim == plan.checkpoint(2000).trim
        assert table.sample_size == 2000
