import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from heavytrim.expcli import budget_csv_rows, parse_config
from heavytrim.trimming import (PowerThreshold, TrimmingError, borel_cantelli_budget,
                                geometric_grid, plan_standard)
from oracles import (BoundsError, _as_fractions, bernstein_max_tail, bernstein_relative,
                     max_deviation_tail_exact)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def max_deviation_tail_enumerate(support: Sequence, probs: Sequence, n: int,
                                 deviation) -> Fraction:
    """Same probability by brute-force path enumeration; n must stay small."""
    if len(support) ** n > 4_000_000:
        raise BoundsError("enumeration limited to |support|**n <= 4e6 paths")
    sup, pr = _as_fractions(support, probs)
    dev = Fraction(deviation)
    mean = sum(v * p for v, p in zip(sup, pr))
    total = Fraction(0)
    for path in product(range(len(sup)), repeat=n):
        z = Fraction(0)
        hit = False
        for k, i in enumerate(path, start=1):
            z += sup[i]
            if abs(z - k * mean) >= dev:
                hit = True
                break
        if hit:
            weight = Fraction(1)
            for i in path:
                weight *= pr[i]
            total += weight
    return total


class TestMaxTailBound:
    def test_hand_value(self):
        # 2 exp(-100 / (50 + 20/3)); the exponent is 30/17
        b = bernstein_max_tail(deviation=10.0, variance=25.0, amplitude=1.0)
        assert b.raw == pytest.approx(2.0 * math.exp(-30.0 / 17.0), rel=1e-12)
        assert b.raw == pytest.approx(0.34247, abs=5e-5)

    def test_vacuous_at_tiny_deviation(self):
        b = bernstein_max_tail(deviation=1e-12, variance=1.0, amplitude=1.0)
        assert b.raw == pytest.approx(2.0, rel=1e-9)

    def test_log_space_survives_huge_exponents(self):
        b = bernstein_relative(1.0, 1e8, 1.0)
        assert b.raw == 0.0          # underflows as a float
        assert b.log10 == pytest.approx((math.log(2.0) - 3.0 / 8.0 * 1e8) / math.log(10.0))

    @given(t1=st.floats(0.1, 50.0), t2=st.floats(0.1, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_deviation(self, t1, t2):
        lo, hi = sorted((t1, t2))
        mk = lambda t: bernstein_max_tail(
            deviation=t, variance=4.0, amplitude=1.0).log_value
        assert mk(hi) <= mk(lo)

    def test_input_domain(self):
        with pytest.raises(BoundsError):
            bernstein_max_tail(deviation=0.0, variance=1.0, amplitude=1.0)
        with pytest.raises(BoundsError):
            bernstein_max_tail(deviation=1.0, variance=-1.0, amplitude=1.0)
        with pytest.raises(BoundsError):
            bernstein_max_tail(deviation=1.0, variance=1.0, amplitude=0.0)


class TestRelativeBound:
    def test_hand_value(self):
        b = bernstein_relative(kappa=1.0, mean_total=100.0, upper=1.0)
        # 3 kappa^2 / (6 + 2 kappa) = 3/8
        assert b.log_value == pytest.approx(math.log(2.0) - 37.5, rel=1e-12)

    def test_coefficient_at_three_halves(self):
        # 3 (3/2)^2 / (6 + 3) = 3/4
        b = bernstein_relative(kappa=1.5, mean_total=1.0, upper=1.0)
        assert b.log_value == pytest.approx(math.log(2.0) - 0.75, rel=1e-12)

    def test_input_domain(self):
        with pytest.raises(BoundsError, match="mean_total"):
            bernstein_relative(kappa=1.0, mean_total=0.0, upper=1.0)
        with pytest.raises(BoundsError, match="upper"):
            bernstein_relative(kappa=1.0, mean_total=1.0, upper=0.0)

    def test_vacuous_as_mean_vanishes(self):
        b = bernstein_relative(kappa=1.0, mean_total=1e-12, upper=1.0)
        assert b.raw == pytest.approx(2.0, rel=1e-9)

    def test_equals_max_tail_at_matched_arguments(self):
        # deviation kappa*E with variance K*E and amplitude K gives the
        # same exponent; the relative form is that specialization
        for kappa, mean_total, upper in ((0.5, 40.0, 2.0), (2.0, 7.0, 1.0)):
            rel = bernstein_relative(kappa, mean_total, upper)
            mt = bernstein_max_tail(
                deviation=kappa * mean_total,
                variance=upper * mean_total,
                amplitude=upper)
            assert rel.log_value == pytest.approx(mt.log_value, rel=1e-12)

    @given(v=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_dominates_max_tail_under_variance_cap(self, v):
        kappa, mean_total, upper = 1.0, 20.0, 2.0
        cap = upper * mean_total
        mt = bernstein_max_tail(
            deviation=kappa * mean_total, variance=min(v, cap), amplitude=upper)
        rel = bernstein_relative(kappa, mean_total, upper)
        assert rel.log_value >= mt.log_value - 1e-12

    @given(e1=st.floats(1.0, 1e4), e2=st.floats(1.0, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_mean_total(self, e1, e2):
        lo, hi = sorted((e1, e2))
        assert bernstein_relative(1.0, hi, 1.0).log_value <= \
            bernstein_relative(1.0, lo, 1.0).log_value


class TestExactOracle:
    def test_dp_equals_enumeration_on_small_instances(self):
        half = Fraction(1, 2)
        tenth = Fraction(1, 10)
        cases = [
            ((0, 1), (half, half), 10, Fraction(3)),
            ((0, 1), (1 - tenth, tenth), 8, Fraction(3, 2)),
            ((0, 2), (half, half), 6, Fraction(2)),
        ]
        for support, probs, n, dev in cases:
            dp = max_deviation_tail_exact(support, probs, n, dev)
            brute = max_deviation_tail_enumerate(support, probs, n, dev)
            assert dp == brute

    def test_certain_and_impossible_deviations(self):
        half = Fraction(1, 2)
        # deviation 1/2 is hit by the very first step of a fair coin
        assert max_deviation_tail_exact((0, 1), (half, half), 5, half) == 1
        # deviation beyond n * max|step - mean| never happens
        assert max_deviation_tail_exact((0, 1), (half, half), 5, Fraction(10)) == 0

    def test_bound_dominates_exact_probability(self):
        half = Fraction(1, 2)
        p = (1 - half, half)
        for n in (10, 20):
            for dev in (1, 2, 3, 4, 6):
                exact = max_deviation_tail_exact((0, 1), p, n, Fraction(dev))
                bound = bernstein_max_tail(
                    deviation=float(dev), variance=n * 0.25, amplitude=0.5)
                assert bound.raw > float(exact)

    def test_probability_normalization_enforced(self):
        with pytest.raises(BoundsError):
            max_deviation_tail_exact((0, 1), (0.5, 0.4999), 5, 1)
        with pytest.raises(BoundsError):
            max_deviation_tail_enumerate((0, 1), (Fraction(1, 2), Fraction(1, 2)),
                                         40, 1)


class TestBudget:
    def test_pareto_budget_values(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        grid = geometric_grid(1000, 10 ** 6, 8)
        table = borel_cantelli_budget(0.5, plan.table(grid))
        coef = 3.0 * 0.25 / 7.0
        for row in table:
            n = row.n
            hand = coef * n * (n ** 0.4 - 1.0) / n ** 0.8
            assert row.exponent_arg == pytest.approx(hand, rel=1e-9)
            assert row.log10_summand == pytest.approx(-hand / math.log(10.0), rel=1e-9)
        sums = [r.partial_sum for r in table]
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_doubling_eps_shrinks_every_summand(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        grid = geometric_grid(1000, 10 ** 6, 8)
        small = borel_cantelli_budget(0.1, plan.table(grid))
        big = borel_cantelli_budget(0.2, plan.table(grid))
        for a, b in zip(small, big):
            assert b.exponent_arg > a.exponent_arg

    def test_tail_beats_squared_weight(self, pareto):
        # summand <= 1/n**2 on the tail: exponent argument beats 2 log n
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        grid = geometric_grid(1000, 10 ** 6, 8)
        table = borel_cantelli_budget(0.5, plan.table(grid))
        for row in table[-4:]:
            assert row.exponent_arg >= 2.0 * math.log(row.n)
        # the last two summands are below 1 / summable(n)
        assert all(r.exponent_arg >= plan.summable.log_value(r.n) for r in table[-2:])

    def test_csv_schema(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        table = plan.table(geometric_grid(1000, 10 ** 6, 8))
        rows = list(budget_csv_rows(borel_cantelli_budget(0.1, table)))
        assert rows[0] == ("n", "exponent_arg", "log10_summand", "partial_sum")
        assert len(rows[1]) == 4

    def test_eps_domain(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        with pytest.raises(TrimmingError):
            borel_cantelli_budget(0.0, plan.table(geometric_grid(1000, 10 ** 6, 8)))

    @pytest.mark.parametrize("workload", ["pareto-demo", "tabulated-table"])
    def test_exponent_is_the_relative_bernstein_bound(self, tmp_path, workload):
        # the budget's exponent and the oracle's are computed apart: on the
        # table each benchmark workload budgets, twice the summand is the bound
        config = workloads.write_config(workload, 1, tmp_path, tmp_path / "config.json")
        spec = parse_config(config)
        table = spec.config.plan.table(spec.condition_grid)
        assert all(p.scale < math.inf and p.threshold < math.inf for p in table)
        for eps in (spec.budget_eps, 0.5, 2.0):
            for p, row in zip(table, borel_cantelli_budget(eps, table)):
                bound = bernstein_relative(eps, p.scale, p.threshold)
                assert row.exponent_arg == pytest.approx(math.log(2.0) - bound.log_value,
                                                         rel=1e-12)
