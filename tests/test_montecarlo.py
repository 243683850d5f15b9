import concurrent.futures
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavytrim import montecarlo
from heavytrim.expcli import main, parse_config, run
from heavytrim.montecarlo import (ConvergenceTrace, ExperimentConfig, MonteCarloError,
                                  aggregate, exceedance_counts, run_replication,
                                  simulate, trace_csv_rows, trimmed_sum,
                                  truncated_sum)
from heavytrim.distributions import LogTail, Tabulated
from heavytrim.trimming import (PlanError, PowerThreshold, ProjectedPowerThreshold,
                                SquareStepThreshold, StandardTrimRule,
                                SummableFunction, TrimmingPlan,
                                fluctuation_allowance, plan_default,
                                plan_standard)
from oracles import form_reference, run_replication_prefix


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
    plan = plan_default(pm, 0.05)
    return ExperimentConfig(plan, (100, 1000, 10000), 3, 7)


class _Stepped:
    """Threshold 1 before n = 3000, 2 before n = ``_CHUNK``, then 4."""

    def log_threshold(self, plan, n):
        return math.log(1.0 if n < 3000 else 2.0 if n < montecarlo._CHUNK else 4.0)


class _Falling:
    def log_threshold(self, plan, n):
        return math.log(1e6 / n)


def _plan_with(dist, threshold_rule):
    return TrimmingPlan(dist, 0.05, threshold_rule, StandardTrimRule(),
                        SummableFunction.power(9 / 8), SummableFunction.power(2.0))


# checkpoints 17 draws past one block and 5 past four: the last segment
# starts mid-block and spans three blocks, the last one partial
ORACLE_GRID = (1000, 3162, montecarlo._CHUNK + 17, 4 * montecarlo._CHUNK + 5)


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


@pytest.fixture
def bucketed(monkeypatch):
    """The entry counts of the blocks ``montecarlo._bucketed`` sums, in call order."""
    calls, real = [], montecarlo._bucketed
    monkeypatch.setattr(montecarlo, "_bucketed",
                        lambda values: calls.append(len(values)) or real(values))
    return calls


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

    @pytest.mark.parametrize("length", [0, 1, montecarlo._CHUNK - 1, montecarlo._CHUNK,
                                        3 * montecarlo._CHUNK + 17])
    def test_kernel_matches_reference(self, length):
        # every 64-bit pattern is a float: random ones spread over all keys,
        # and every fifth entry is an edge pattern: nan payloads, +-inf, +-0,
        # the smallest and largest subnormal, the largest float, -1 and 1
        edges = np.array([0x7FF0000000000001, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF,
                          0x7FF0000000000000, 0xFFF0000000000000, 0, 1 << 63, 1,
                          0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0xBFF0000000000000,
                          0x3FF0000000000000], dtype=np.uint64)
        bits = np.random.default_rng(length).integers(0, 2 ** 64, length, np.uint64)
        bits[::5] = np.resize(edges, len(bits[::5]))
        values = bits.copy().view(np.float64)
        assert montecarlo._exact(values) == form_reference(values)
        assert np.array_equal(values.view(np.uint64), bits)  # input left unchanged

    @pytest.mark.parametrize("length", [0, 1, montecarlo._CHUNK - 1, montecarlo._CHUNK,
                                        3 * montecarlo._CHUNK + 17])
    @pytest.mark.parametrize("binades", [1, 30, 60, 2000])
    def test_extraction_matches_reference_and_fsum(self, length, binades):
        # random positive finite bit patterns whose exponents span `binades`
        # binades from a random base: within one band, across its edge, and
        # over the whole range, where blocks leave the normal range for sigma
        rng = np.random.default_rng(length + binades)
        base = int(rng.integers(1, 2046 - min(binades, 2045)))
        exponents = base + rng.integers(0, min(binades, 2046 - base), length, dtype=np.uint64)
        bits = (exponents << np.uint64(52)) | rng.integers(0, 2 ** 52, length, np.uint64)
        values = bits.view(np.float64)
        form = montecarlo._exact(values)
        assert form == form_reference(values)
        assert np.array_equal(values.view(np.uint64), bits)  # input left unchanged
        try:
            expected = math.fsum(values.tolist())
        except OverflowError:  # fsum's partial sums overflow; the exact sum may too
            # IEEE rounding gives inf from the midpoint of the largest float
            # and 2**1024 on (a tie rounds to the even 2**1024)
            exact = sum(map(Fraction, values.tolist()), Fraction(0))
            expected = math.inf if exact >= 2 ** 1024 - 2 ** 970 else float(exact)
        assert montecarlo._rounded(form).hex() == expected.hex()

    def test_band_edge(self, bucketed):
        # 2**(e_lo + 40) is out of band and goes to the buckets; the float
        # just below it is extracted
        lo = 1.5 * 2.0 ** -7
        cut = 2.0 ** (-7 + montecarlo._BAND)
        values = np.array([lo, cut, np.nextafter(cut, 0.0), cut * 3.0, lo * 5.0])
        form = montecarlo._block(values)
        assert form.count == len(values) and bucketed == [2]
        assert form == form_reference(values)
        assert montecarlo._rounded(form_reference(values)) == math.fsum(values.tolist())

    def test_full_level_count(self, bucketed):
        # full 52-bit fractions from 1 to just below 2**40 in a whole block:
        # three levels, each extracting bits the others miss
        n = montecarlo._CHUNK
        rng = np.random.default_rng(11)
        exponents = np.uint64(1023) + rng.integers(0, 40, n, dtype=np.uint64)
        bits = (exponents << np.uint64(52)) | rng.integers(0, 2 ** 52, n, np.uint64)
        values = bits.view(np.float64)
        values[:2] = np.nextafter(1.0, 2.0), np.nextafter(2.0 ** 40, 0.0)
        # and residuals of one sign, so that no cancellation hides a missed
        # level: with a top entry below 2**30 the first level rounds to
        # multiples of 2**-6, and 1 + 2**-7 - 3 * 2**-52 sits just below a
        # midpoint
        ones = np.full(n, 1.0 + 2.0 ** -7 - 3 * 2.0 ** -52)
        ones[0] = 2.0 ** 29 + 0.5
        for block in (values, ones):
            form = montecarlo._block(block.copy(), writable=True)
            assert form.count == n and not bucketed
            assert form == form_reference(block)
            assert montecarlo._rounded(form) == math.fsum(block.tolist())

    @pytest.mark.parametrize("odd", [0.0, -1.0, 5e-324, 2.0 ** -1040, math.inf, -math.inf,
                                     math.nan])
    def test_blocks_outside_extraction_go_to_the_buckets_whole(self, bucketed, odd):
        # zeros, negatives, subnormals, -inf and nan: the whole block is
        # bucketed.  An inf is out of band like any entry at or above
        # 2**(e_lo + 40): only it is bucketed
        values = np.concatenate([np.linspace(1.0, 100.0, 1000), [odd]])
        form = montecarlo._block(values)
        assert bucketed == [1 if odd == math.inf else len(values)]
        assert form == form_reference(values)

    @pytest.mark.parametrize("top", [2.0 ** 17, 2.0 ** 60])
    def test_bulk_with_caller_bounds(self, bucketed, top):
        # a bulk block: the draws above the floor zeroed, bounded by the
        # least draw before zeroing and by the floor.  In band, extraction
        # takes all of it, zeros included; past the 40-binade band the
        # entries out of band go to the buckets, zeros never do
        rng = np.random.default_rng(5)
        x = np.exp2(rng.random(montecarlo._CHUNK) * math.log2(2 * top))
        floor = float(np.sort(x)[-40])
        lo = float(x.min())
        x[x > floor] = 0.0
        form = montecarlo._block(x.copy(), lo, floor, writable=True)
        out = int(np.count_nonzero(x >= 2.0 ** (math.frexp(lo)[1] - 1 + montecarlo._BAND)))
        assert sum(bucketed) == out and (out > 0) == (top > 2.0 ** 40)
        assert form == form_reference(x)

    def test_negated_pool_slice(self, bucketed):
        # a pool slice as held, negated, goes to the buckets whole; negated
        # in place, as a trim and a checkpoint sum it, it is extracted
        rng = np.random.default_rng(6)
        held = -(1.0 - rng.random(1000)) ** -2.0
        form = montecarlo._block(held)
        assert bucketed == [len(held)]
        assert form == form_reference(held)
        dead = -held
        form = montecarlo._block(np.negative(held, out=held), writable=True)
        assert form.count == len(dead) and bucketed == [len(held)]
        assert form == form_reference(dead)

    def test_negated_form_is_the_sign_flipped_form(self):
        # the pool holds its draws negated: negation flips the sign bit
        # alone, so a held slice, negated in place and back, reads as the
        # draws' form and is left as held
        bits = np.array([0, 1 << 63, 1, 0x000FFFFFFFFFFFFF, 0x800000000000002A,
                         0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                         0x7FF0000000000001, 0xFFF400000000BEEF, 0x7FFFFFFFFFFFFFFF,
                         0x3FF0000000000000, 0xC00921FB54442D18], dtype=np.uint64)
        values = bits.view(np.float64)
        negated = -values
        assert np.array_equal(negated.view(np.uint64), bits ^ np.uint64(1 << 63))
        assert montecarlo._held(negated) == montecarlo._exact(values)
        assert np.array_equal(negated.view(np.uint64), bits ^ np.uint64(1 << 63))

    def test_buckets_exact_over_a_whole_block(self, bucketed):
        # _CHUNK offset halves below 2**27 each stay below 2**53, where float
        # sums of integers are exact: a whole block of one key with every
        # fraction bit set, and one zero so that it is bucketed whole
        assert montecarlo._CHUNK * 2 ** 27 <= 2 ** 53
        values = np.full(montecarlo._CHUNK, np.nextafter(2.0, 1.0))
        values[0] = 0.0
        assert montecarlo._block(values) == form_reference(values)
        assert bucketed == [montecarlo._CHUNK]
        # these draws span more binades than a block's band, so both tiers
        # see entries of each full block
        values = np.random.default_rng(3).pareto(0.5, 3 * montecarlo._CHUNK + 17)
        assert montecarlo._exact(values) == form_reference(values)

    def test_overflow_rounds_to_inf(self):
        # where the exact sum passes the float range fsum raises; IEEE
        # rounding gives +-inf, and so does each sum
        big = 1.7976931348623157e308
        with pytest.raises(OverflowError):
            math.fsum([big, big])
        assert trimmed_sum(np.array([big, big]), 0) == math.inf
        assert truncated_sum(np.array([big, big]), math.inf) == math.inf
        assert trimmed_sum(np.array([-big, -big]), 0) == -math.inf
        # big is 2**1024 - 2**971: adding half its ulp ties, and rounds to
        # the even 2**1024, so to inf; anything less rounds back to big
        assert trimmed_sum(np.array([big, 2.0 ** 970]), 0) == math.inf
        assert trimmed_sum(np.array([big, np.nextafter(2.0 ** 970, 0.0)]), 0) == big

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
        u = montecarlo.stream(3, 3).random(5000)
        x = pareto.sample_array(u)
        gt, ge = exceedance_counts(x, 17.3)
        assert gt == ge


class TestRunReplication:
    def test_bitwise_determinism(self, pareto_cfg):
        a = run_replication(pareto_cfg, 4)
        b = run_replication(pareto_cfg, 4)
        assert a == b
        assert list(trace_csv_rows(pareto_cfg, [a])) == list(trace_csv_rows(pareto_cfg, [b]))

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
        rng = montecarlo.stream(pareto_cfg.seed, 2)
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
        rng = montecarlo.stream(pareto_cfg.seed, 3)
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
            rng = montecarlo.stream(pareto_cfg.seed, t.replication)
            x = pareto_cfg.distribution.sample_array(rng.random(pareto_cfg.n_max))
            for r, p in zip(t.rows, pareto_cfg.points):
                level = p.expect_gt + fluctuation_allowance(
                    p.expect_gt, r.n, plan.epsilon, plan.summable)
                k = math.ceil(level)
                if r.count_gt <= k <= r.n:
                    assert trimmed_sum(x[: r.n], k) <= truncated_sum(x[: r.n], p.threshold)

    def test_inf_draws_match_scalar_recomputation(self, logtail):
        # a 1/log tail draws inf about once per 710 samples: the raw sum is
        # inf, the trim drops every inf, the counts include them.  The seed is
        # the first from 99 on whose path holds an inf by the first checkpoint
        seed = next(s for s in itertools.count(99) if np.isinf(
            logtail.sample_array(montecarlo.stream(s, 0).random(1000))).any())
        cfg = ExperimentConfig(plan_default(logtail, 0.05),
                               (1000, 3162, 10000), 1, seed)
        trace = run_replication(cfg, 0)
        rng = montecarlo.stream(cfg.seed, 0)
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
        cfg = ExperimentConfig(plan_default(logtail, 0.05), (1_000_000,), 1, 0)
        rng = montecarlo.stream(cfg.seed, 0)
        x = cfg.distribution.sample_array(rng.random(cfg.n_max))
        with pytest.raises(OverflowError):
            math.fsum(x[np.isfinite(x)].tolist())
        (r,), (p,) = run_replication(cfg, 0).rows, cfg.points
        assert r.untrimmed == math.inf
        assert p.trim >= r.n - np.count_nonzero(np.isfinite(x))
        assert r.trimmed == math.fsum(np.sort(x)[: r.n - p.trim].tolist())

    @pytest.mark.parametrize("law", ["pareto", "pareto_table"])
    def test_rows_do_not_depend_on_the_block_size(self, request, pareto_cfg, monkeypatch, law):
        # a path is a function of (seed, replication) alone, however it is
        # cut into blocks; on the laws of the two benchmark workloads
        plan = (pareto_cfg.plan if law == "pareto"
                else plan_default(request.getfixturevalue(law), 0.05))
        cfg = ExperimentConfig(plan, (1000, 10000, 100000, 300007), 2, 31)
        rows = []
        for chunk in (1 << 12, 1 << 14, 1 << 16):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            rows.append([list(trace_csv_rows(cfg, [run_replication(cfg, i)])) for i in (0, 1)])
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("law", ["pareto", "pareto_table", "logtail", "step", "pm"])
    def test_memory_guard_bounds_replication_peak(self, request, pareto_cfg, law):
        # a replication holds a chunk and its pool, not the path: at
        # n = 1e6 the tracemalloc peak is 0.6-6 MB across the built-in laws,
        # where holding the path took 20-32 MB
        n = 1_000_000
        plan = (pareto_cfg.plan if law == "pareto"
                else plan_default(request.getfixturevalue(law), 0.05))
        cfg = ExperimentConfig(plan, (1000, 3162, 10000, 31623, 100000, n),
                               1, pareto_cfg.seed)
        tracemalloc.start()
        try:
            run_replication(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16_000_000

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
        with pytest.raises(PlanError, match="threshold decreases between n = 100 and"):
            ExperimentConfig(_plan_with(pareto, _Falling()), (100, 1000), 2, 1)

    def test_no_sample_ceiling(self, pareto):
        # a path streams in chunks and is never held whole, so no checkpoint
        # is too large to configure; a ceiling of 1e7 once refused this grid
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        cfg = ExperimentConfig(plan, (1000, 10 ** 9), 2, 1)
        assert cfg.n_max == 10 ** 9
        assert cfg.points == plan.table((1000, 10 ** 9))

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
        # parsing builds the checkpoint table; the condition stage builds the
        # condition-grid table once, and it serves the plan checks, every
        # condition and the budget.  `check` runs the same two steps.
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "1")
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.json"
        calls = []
        checkpoint = TrimmingPlan.checkpoint
        monkeypatch.setattr(TrimmingPlan, "checkpoint",
                            lambda plan, n: calls.append(n) or checkpoint(plan, n))
        spec = parse_config(demo, replications=2, out_dir=tmp_path)
        run(spec)
        once = len(spec.config.checkpoints) + len(spec.condition_grid)
        assert len(calls) == once
        calls.clear()
        assert main(["check", str(demo)]) == 0
        assert len(calls) == once


class TestThresholdOnAnAtom:
    """A threshold whose log is an atom's stored log compares as that atom, so
    ``N_ge - N_gt`` counts exactly the draws that sit on it."""

    @staticmethod
    def assert_counts_the_atom(config, atom):
        (row,), (point,) = run_replication(config, 0).rows[-1:], config.points[-1:]
        rng = montecarlo.stream(config.seed, 0)
        x = config.distribution.sample_array(rng.random(config.n_max))
        on_atom = int(np.count_nonzero(x == atom))
        assert point.threshold == atom and on_atom > 0
        assert row.count_ge - row.count_gt == on_atom
        assert row.count_gt == int(np.count_nonzero(x > atom))
        assert row.truncated == math.fsum(x[x <= atom].tolist())  # the atom's draws included
        return row

    def test_step_law_at_1e4(self, step):
        # t(1e4) is the atom 2**49; exp(49 ln 2) is 562949953421311.44
        plan = plan_standard(step, SquareStepThreshold(), 0.05)
        self.assert_counts_the_atom(ExperimentConfig(plan, (1000, 10000), 1, 20260810),
                                    2.0 ** 49)

    def test_shipped_st_petersburg_at_1e3(self):
        # t(1e3) is the atom 8; exp(log 8) is 7.999999999999998
        config = parse_config(Path(__file__).resolve().parents[1] / "configs"
                              / "st-petersburg.json").config
        row = self.assert_counts_the_atom(
            ExperimentConfig(config.plan, (1000,), 1, config.seed), 8.0)
        assert (row.count_gt, row.count_ge) == (123, 249)

    def test_jump_row_table_at_2000(self):
        table = Tabulated([(1.0, 0.5, "jump"), (8.0, 0.9, "jump"), (64.0, 0.95, "jump"),
                           (65.0, 0.95, "linear"), (1e9, 1.0, "linear")])
        plan = _plan_with(table, ProjectedPowerThreshold(0.3))
        self.assert_counts_the_atom(ExperimentConfig(plan, (2000,), 1, 1), 8.0)

    @pytest.mark.parametrize("atom, n, counts", [(5.0, 20, (10, 20, 50.0)),
                                                 (10.0, 100, (37, 100, 630.0))])
    def test_log_tail_threshold(self, atom, n, counts):
        # LogTail(atom) puts mass 1 - 1/log(atom) on the atom, which t(n)
        # reaches at once; exp(log 5) is 4.999999999999999, exp(log 10) is
        # 10.000000000000002
        plan = plan_default(LogTail(atom), 0.05)
        row = self.assert_counts_the_atom(ExperimentConfig(plan, (n,), 1, 1), atom)
        assert (row.count_gt, row.count_ge, row.truncated) == counts


class TestStepBeyondFloatRange:
    """A step-law path past n = 4.3e6, where t(n) reaches the k = 32 atom,
    2**1024, and d(n) overflows."""

    @pytest.fixture(scope="class")
    def far_config(self, step):
        plan = plan_standard(step, SquareStepThreshold(), 0.05)
        return ExperimentConfig(plan, (1000, 10 ** 6, 5 * 10 ** 6), 1, 20260810)

    @pytest.fixture(scope="class")
    def far_trace(self, far_config):
        return run_replication(far_config, 0)

    def test_ratios_over_an_infinite_scale_are_finite(self, far_config, far_trace):
        row, point = far_trace.rows[-1], far_config.points[-1]
        assert point.scale == math.inf and row.untrimmed == math.inf
        for ratio, total in ((row.ratio_trimmed, row.trimmed),
                             (row.ratio_truncated, row.truncated)):
            assert 0.0 < ratio < math.inf
            assert ratio == pytest.approx(math.exp(math.log(total) - point.log_scale),
                                          rel=1e-15)

    def test_aggregate_divides_in_log_space(self, far_config, far_trace):
        # inf / inf would warn, which this suite turns into an error, and
        # write nan
        summary = aggregate(far_config, [far_trace])
        assert np.all(summary.untrimmed_runmax_quantiles[:, -1] == math.inf)
        assert np.all(np.isfinite(summary.trimmed_quantiles))


class TestAgainstPrefixOracle:
    """The one-pass engine against the prefix engine it replaces, bit for bit."""

    @staticmethod
    def assert_same(config):
        for i in (0, 1):
            assert list(trace_csv_rows(config, [run_replication(config, i)])) == \
                list(trace_csv_rows(config, [run_replication_prefix(config, i)]))

    @pytest.mark.parametrize("law", ["pareto", "pareto_table", "logtail", "step",
                                     "pm", "mixed_table"])
    def test_builtin_laws(self, request, pareto_cfg, law):
        plan = (pareto_cfg.plan if law == "pareto"
                else plan_default(request.getfixturevalue(law), 0.05))
        self.assert_same(ExperimentConfig(plan, ORACLE_GRID, 2, 31))

    def test_thresholds_on_atoms(self):
        # thresholds 1, 2, 4, 4 on atoms: draws at a threshold count in N_ge
        # only, and leave N_ge when the threshold moves past them
        law = Tabulated([(1.0, 0.25, "jump"), (2.0, 0.5, "jump"),
                         (4.0, 0.75, "jump"), (8.0, 1.0, "jump")])
        cfg = ExperimentConfig(_plan_with(law, _Stepped()), ORACLE_GRID, 2, 31)
        assert [p.threshold for p in cfg.points] == [1.0, 2.0, 4.0, 4.0]
        assert all(r.count_ge > r.count_gt for r in run_replication(cfg, 0).rows)
        self.assert_same(cfg)

    @pytest.mark.parametrize("chunk", [64, 257, 1024])
    @pytest.mark.parametrize("law", ["pareto", "logtail", "step", "jump_table"])
    def test_small_blocks(self, request, pareto_cfg, monkeypatch, chunk, law):
        # many blocks per segment: first blocks with no floor, blocks that
        # overflow the pool (at 1024), trims within segments, inf draws (log
        # tail), and step-law bulks wider than the extraction band, whose
        # floor is an atom past 2**41 (at 1024).  The table's thresholds sit
        # on its atom at 8 from n = 2000 on, and the draws above t still
        # outgrow the pool
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        if law == "jump_table":
            table = Tabulated([(1.0, 0.5, "jump"), (8.0, 0.9, "jump"), (64.0, 0.95, "jump"),
                               (65.0, 0.95, "linear"), (1e9, 1.0, "linear")])
            plan = _plan_with(table, ProjectedPowerThreshold(0.3))
        elif law == "step":
            plan = plan_standard(request.getfixturevalue(law), SquareStepThreshold(), 0.05)
        else:
            plan = (pareto_cfg.plan if law == "pareto"
                    else plan_default(request.getfixturevalue(law), 0.05))
        self.assert_same(ExperimentConfig(plan, (1000, 3162, 10007, 40000), 2, 31))

    def test_pool_larger_than_a_block(self, pareto_table, monkeypatch):
        # b(2e5) exceeds a block: whole blocks enter the top-b pool while it
        # has no floor, the pool is trimmed in place within segments, and the
        # first checkpoints' trims are cut from a pool holding more draws
        cfg = ExperimentConfig(plan_default(pareto_table, 0.05),
                               (1000, 10000, 100000, 200000), 2, 31)
        assert max(p.trim for p in cfg.points) > montecarlo._CHUNK
        trims, trim = [], montecarlo._trim
        monkeypatch.setattr(montecarlo, "_trim", lambda top, used, keep, floor:
                            trims.append(used > keep) or trim(top, used, keep, floor))
        self.assert_same(cfg)
        # two replications trim at most once per checkpoint each; the rest
        # fall within segments
        assert sum(trims) > 2 * len(cfg.points)

    def test_pool_grows_below_the_trim_floor(self, pareto):
        # a trim of a tenth of the expected exceedances: the draws above t
        # outnumber 2 max b(n), so the pool must grow to hold them
        class Tenth:
            def raw_count(self, plan, n, expect_gt):
                return expect_gt / 10

        plan = TrimmingPlan(pareto, 0.05, PowerThreshold(0.8), Tenth(),
                            SummableFunction.power(9 / 8), SummableFunction.power(2.0))
        cfg = ExperimentConfig(plan, ORACLE_GRID, 2, 31)
        assert run_replication(cfg, 0).rows[-1].count_gt > 2 * max(p.trim for p in cfg.points)
        self.assert_same(cfg)

    def test_lossy_buckets_are_caught(self, pareto_cfg, monkeypatch):
        cfg = ExperimentConfig(pareto_cfg.plan, (1000,), 1, pareto_cfg.seed)
        t = cfg.points[0].threshold
        # with an exceedance on the path, the pool's slice of the draws above
        # t, summed at the checkpoint, is the only argument of the block
        # primitive that holds no entry at or below t; the oracle keeps the
        # intact one
        assert run_replication(cfg, 0).rows[0].count_gt > 0
        block = montecarlo._block

        def lossy(values, lo=None, hi=None, writable=False):
            if len(values) > 1 and values.min() > t:
                values = values[1:]
            return block(values, lo, hi, writable)

        monkeypatch.setattr(montecarlo, "_block", lossy)
        assert run_replication(cfg, 0) != run_replication_prefix(cfg, 0)

    def test_count_check_fires(self, pareto_cfg, monkeypatch):
        cfg = ExperimentConfig(pareto_cfg.plan, (1000,), 1, pareto_cfg.seed)
        # the one block's bulk loses a draw (a zero or one the pool let go)
        block = montecarlo._block
        monkeypatch.setattr(montecarlo, "_block", lambda values, lo=None, hi=None,
                            writable=False: block(values[1:], lo, hi, writable))
        with pytest.raises(MonteCarloError, match="pool hold 999 draws at n = 1000"):
            run_replication(cfg, 0)


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

    @given(rows=st.sampled_from([1, 2, 3, 5, 7, 100]), columns=st.integers(1, 4),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_quantiles_match_numpy_bit_for_bit(self, rows, columns, data):
        # finite entries within a range where no difference overflows, and a
        # few repeated values for ties; no -0.0, which ties with 0.0 in
        # another bit pattern, so sort and partition may order them apart
        # (no ratio is -0.0: a zero sum rounds to +0.0)
        entries = st.one_of(st.floats(-1e300, 1e300).map(lambda v: v + 0.0),
                            st.sampled_from([0.0, 1.0, 2.5]))
        matrix = np.array(data.draw(st.lists(entries, min_size=rows * columns,
                                             max_size=rows * columns))).reshape(rows, columns)
        expected = np.quantile(matrix, montecarlo.RATIO_QUANTILES, axis=0)
        assert np.array_equal(montecarlo._quantiles(matrix).view(np.uint64),
                              expected.view(np.uint64))

    def test_run_leaves_numpy_ma_unloaded(self, tmp_path):
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "HEAVYTRIM_WORKERS": "1"}
        probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
        if subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout.strip() == "True":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "distribution": {"family": "pareto", "alpha": 0.5, "scale": 1.0},
            "plan": {"rule": "standard", "epsilon": 0.05,
                     "threshold": {"rule": "power", "exponent": 0.8}},
            "experiment": {"checkpoints": [1000, 10000], "replications": 5, "seed": 1},
            "output": {"directory": str(tmp_path / "out")},
        }))
        probe = ("import sys; from heavytrim import expcli; "
                 f"expcli.run(expcli.parse_config({str(config)!r})); "
                 "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert (tmp_path / "out" / "aggregate.csv").exists()
        assert out.strip().splitlines()[-1] == "False"

    def test_parallel_merge_matches_sequential(self, pareto_cfg, pareto_table, monkeypatch):
        # on the laws of both benchmark workloads; two workers pickle the
        # table law and its plan across the process boundary
        for plan in (pareto_cfg.plan, plan_default(pareto_table, 0.05)):
            small = ExperimentConfig(plan, (1000, 10000, 100000), 4, pareto_cfg.seed)
            monkeypatch.setenv("HEAVYTRIM_WORKERS", "2")
            parallel = simulate(small)
            monkeypatch.setenv("HEAVYTRIM_WORKERS", "1")
            assert parallel == simulate(small)

    def test_one_process_per_replication_at_most(self, pareto_cfg, monkeypatch):
        # a pool forks all its workers at the first submit, so 2 replications
        # on 4 workers must ask for 2
        sizes, pool = [], concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: sizes.append(max_workers) or pool(max_workers))
        small = ExperimentConfig(pareto_cfg.plan, (1000, 10000), 2, pareto_cfg.seed)
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "4")
        parallel = simulate(small)
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "1")
        assert sizes == [2]
        assert parallel == simulate(small)

    def test_a_replication_pickles_without_its_config(self, pareto_table):
        # a worker sends back its path's rows; the table law and the plan
        # table stay with the caller (a trace that held its config took
        # ~137 kB on this law)
        trace = run_replication(ExperimentConfig(plan_default(pareto_table, 0.05),
                                                 (1000, 10000, 100000), 1, 31), 0)
        assert ConvergenceTrace._fields == ("replication", "rows")
        assert len(pickle.dumps(trace)) < 1024

    def test_malformed_workers_are_refused(self, pm_cfg, monkeypatch):
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "two")
        with pytest.raises(MonteCarloError,
                           match="HEAVYTRIM_WORKERS: expected an integer, got 'two'"):
            simulate(pm_cfg)
        monkeypatch.setenv("HEAVYTRIM_WORKERS", "0")
        assert montecarlo.workers() == 1

    def test_single_trace_quantiles_collapse(self, pareto_cfg):
        config = ExperimentConfig(pareto_cfg.plan, (1000, 10000), 1, 5)
        agg = aggregate(config, simulate(config))
        for j in range(2):
            col = agg.trimmed_quantiles[:, j]
            assert np.all(col == col[0])

    def test_median_error_shrinks_along_checkpoints(self, pareto_traces):
        ratios = np.array([[r.ratio_trimmed for r in t.rows] for t in pareto_traces])
        errs = np.median(np.abs(ratios - 1.0), axis=0)
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_exceedance_event_never_fires_at_desk_scale(self, pareto_cfg, pareto_traces):
        # the concentration budget puts the event probability around 1e-57
        # here; twenty paths must not produce one
        agg = aggregate(pareto_cfg, pareto_traces)
        assert agg.exceedance_violations == (0, 0, 0, 0, 0)

    def test_truncated_ratio_concentrates(self, pareto_traces):
        ratios = np.array([[r.ratio_truncated for r in t.rows] for t in pareto_traces])
        inside = np.mean((ratios[:, 2] >= 0.9) & (ratios[:, 2] <= 1.1))
        assert inside == 1.0

    def test_grid_mismatch_rejected(self, pareto_cfg, pareto_traces):
        other = simulate(ExperimentConfig(pareto_cfg.plan, (1000, 10000), 1, 5))
        with pytest.raises(MonteCarloError):
            aggregate(pareto_cfg, list(pareto_traces) + list(other))
        with pytest.raises(MonteCarloError, match="replication 0: rows do not follow"):
            list(trace_csv_rows(pareto_cfg, other))

    def test_csv_schema(self, pareto_cfg, pareto_traces):
        rows = list(trace_csv_rows(pareto_cfg, pareto_traces[:1]))
        assert rows[0] == ("replication", "n", "S_n", "S_trimmed", "T_truncated",
                           "N_gt", "N_ge", "b_n", "t_n", "d_n",
                           "ratio_trimmed", "ratio_truncated")
        assert len(rows) == 1 + len(pareto_traces[0].rows)


class TestDiagnostics:
    def test_point_mass_ratio_is_flat(self, pm_cfg):
        traces = simulate(pm_cfg)
        scale = np.array([p.scale for p in pm_cfg.points])
        raw = np.array([[r.untrimmed for r in t.rows] for t in traces]) / scale
        assert np.allclose(raw, 1.0)
        assert np.allclose(aggregate(pm_cfg, traces).untrimmed_runmax_quantiles, 1.0)

    def test_heavy_tail_running_max_grows(self, pareto_cfg, pareto_traces):
        # frozen seed: 14 of 20 paths grow tenfold by n = 1e5, all of them
        # keep the trimmed ratio in a fixed band on the same paths
        scale = np.array([p.scale for p in pareto_cfg.points])
        raw = np.array([[r.untrimmed for r in t.rows] for t in pareto_traces]) / scale
        growth = raw.max(axis=1) / raw[:, 0]  # running max at the end over the start
        assert np.mean(growth >= 10.0) >= 0.5
        assert float(np.median(growth)) > 3.0
        final_trimmed = [t.rows[-1].ratio_trimmed for t in pareto_traces]
        assert all(0.5 <= v <= 1.5 for v in final_trimmed)

    def test_running_extrema_are_monotone(self, pareto_cfg, pareto_traces):
        # each path's running max never falls, so neither does any quantile of it
        runmax = aggregate(pareto_cfg, pareto_traces).untrimmed_runmax_quantiles
        assert np.all(np.diff(runmax, axis=1) >= 0.0)
