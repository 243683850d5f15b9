import importlib.util
import math
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from heavytrim import trimming
from heavytrim.distributions import ParetoTail
from heavytrim.expcli import format_condition_report
from heavytrim.trimming import (PlanError, PowerThreshold, ProjectedPowerThreshold,
                                SquareStepThreshold, StandardTrimRule, SummableFunction,
                                TrimmingError, TrimmingPlan,
                                check_condition, check_plan, conditions_for_plan,
                                fluctuation_allowance, geometric_grid, plan_default,
                                plan_standard)
from oracles import rebase_summable

LN2 = math.log(2.0)
GRID_1E7 = geometric_grid(1000, 10_000_000, 9)
GRID_1E6 = geometric_grid(16, 1_000_000, 10)


class TestSummableFunction:
    def test_family_values(self):
        assert SummableFunction.power(2).log_value(5) == pytest.approx(math.log(25.0))
        assert SummableFunction("polylog", 2).log_value(4) == pytest.approx(
            math.log(4 * math.log(5) ** 2))
        assert SummableFunction("exponential", 2).log_value(10) == pytest.approx(math.log(1024.0))

    def test_log_values_match(self):
        for fn, value in ((SummableFunction.power(1.5), lambda n: n ** 1.5),
                          (SummableFunction("polylog", 2), lambda n: n * math.log(n + 1) ** 2),
                          (SummableFunction("exponential", 1.5), lambda n: 1.5 ** n)):
            for n in (1, 2, 7, 100):
                assert fn.log_value(n) == pytest.approx(math.log(value(n)), rel=1e-12)

    def test_log_value_survives_overflow(self):
        fn = SummableFunction("exponential", 2)
        assert fn.log_value(10_000) == pytest.approx(10_000 * LN2)

    def test_parameter_domains(self):
        for family, bad in (("power", 1.0), ("polylog", 0.9), ("exponential", 1.0)):
            with pytest.raises(TrimmingError):
                SummableFunction(family, bad)
        with pytest.raises(TrimmingError):
            SummableFunction("zeta", 2.0)
        with pytest.raises(TrimmingError, match="at least 1"):
            SummableFunction("power", 2.0).log_value(0)

    def test_reciprocal_sums_flatten(self):
        # the defining property, checked as a Cauchy-style heuristic: the
        # last decade contributes a vanishing share of the partial sum
        for fn in (SummableFunction.power(1.2), SummableFunction("polylog", 1.5),
                   SummableFunction("exponential", 1.1)):
            upto = lambda m: math.fsum(math.exp(-fn.log_value(k)) for k in range(1, m))
            total = upto(100_000)
            assert total - upto(10_000) < 0.10 * total


class TestFluctuationAllowance:
    def test_frozen_example(self):
        # independent recomputation: 8 * 100**0.6 * log(400)**0.4 at
        # floor(log n) = 20 with the squared weight
        n = round(math.e ** 20.5)
        got = fluctuation_allowance(100.0, n, 0.1, SummableFunction.power(2))
        hand = 8.0 * 100.0 ** 0.6 * math.log(400.0) ** 0.4
        assert got == hand
        assert got == pytest.approx(259.5, abs=0.05)

    def test_max_collapse_gives_pure_log_term(self):
        # count below the log term: exponents rejoin to 1
        n = round(math.e ** 20.5)
        log_term = SummableFunction.power(2).log_value(20)
        got = fluctuation_allowance(1.0, n, 0.1, SummableFunction.power(2))
        assert got == pytest.approx(8.0 * log_term, rel=1e-12)

    @given(k1=st.floats(1.0, 1e6), k2=st.floats(1.0, 1e6), eps=st.floats(0.01, 0.24))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_count(self, k1, k2, eps):
        lo, hi = sorted((k1, k2))
        fn = SummableFunction.power(9 / 8)
        a = fluctuation_allowance(lo, 50_000, eps, fn)
        b = fluctuation_allowance(hi, 50_000, eps, fn)
        assert a <= b

    def test_lower_bound_invariants(self):
        fn = SummableFunction.power(9 / 8)
        for n in (16, 1000, 10 ** 6):
            log_term = fn.log_value(math.floor(math.log(n)))
            for k in (0.0, 1.0, 50.0, 1e4):
                c = fluctuation_allowance(k, n, 0.05, fn)
                assert c >= 8.0 * log_term - 1e-12
                assert c >= 8.0 * k ** 0.55 * log_term ** 0.45 - 1e-9

    def test_domain_errors(self):
        fn = SummableFunction.power(2)
        with pytest.raises(TrimmingError):
            fluctuation_allowance(10.0, 2, 0.1, fn)
        with pytest.raises(TrimmingError):
            fluctuation_allowance(-1.0, 100, 0.1, fn)
        with pytest.raises(TrimmingError):
            # the polylog weight dips below 1 at index 1, log goes negative
            fluctuation_allowance(10.0, 3, 0.1, SummableFunction("polylog", 2))


class TestRebasedSummable:
    def test_worked_example(self):
        w = rebase_summable(SummableFunction.power(2), math.e, 2.0)
        # floor(10 * log 2) = 6, window {0, 1}: min(36, 49)
        assert w.log_value(10) == pytest.approx(math.log(36.0))

    def test_equal_bases_take_adjacent_minimum(self):
        w = rebase_summable(SummableFunction.power(2), 2.0, 2.0)
        assert w.log_value(5) == pytest.approx(math.log(25.0))
        assert w.log_value(3) == pytest.approx(math.log(9.0))

    def test_domination_inequality_smoke(self):
        # the full range is exercised in the acceptance suite
        base = SummableFunction.power(2)
        w = rebase_summable(base, math.e, 2.0)
        for m in range(8, 10_001):
            assert w.log_value(math.floor(math.log2(m))) <= base.log_value(
                math.floor(math.log(m)))

    def test_log_value_matches_window_definition(self):
        # min over j in 0..span of base(max(1, floor(n * log_a b) + j)),
        # the clamp at index 1 included
        w = rebase_summable(SummableFunction.power(2), math.e, 2.0)
        for n in range(1, 200):
            anchor = math.floor(n * math.log(2.0))
            hand = min(max(1, anchor + j) ** 2 for j in range(w.span + 1))
            assert w.log_value(n) == pytest.approx(math.log(hand), rel=1e-15)

    def test_reciprocal_sum_flattens(self):
        w = rebase_summable(SummableFunction.power(2), math.e, 2.0)
        upto = lambda m: math.fsum(math.exp(-w.log_value(k)) for k in range(1, m))
        total = upto(100_000)
        assert total - upto(10_000) < 0.01 * total

    def test_bad_bases(self):
        with pytest.raises(TrimmingError):
            rebase_summable(SummableFunction.power(2), 1.0, 2.0)
        with pytest.raises(TrimmingError):
            rebase_summable(SummableFunction.power(2), 2.0, 0.5)


class TestPlanStandardPareto:
    def test_closed_form_sequences(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        for n in (1000, 10 ** 5, 10 ** 7):
            p = plan.checkpoint(n)
            assert p.expect_gt == pytest.approx(n ** 0.6, rel=1e-12)
            assert p.expect_ge == pytest.approx(n ** 0.6, rel=1e-12)
            assert p.scale == pytest.approx(n * (n ** 0.4 - 1.0), rel=1e-12)
            ll = math.log(math.log(n))
            hand = math.ceil(n ** 0.6 + 9.0 * max(
                (n ** 0.6) ** 0.55 * ll ** 0.45, ll))
            assert p.trim == hand
            assert not p.clamped

    def test_trim_floor_holds_on_grid(self, pareto):
        # the ceiling formula dominates the allowance with the 9/8 weight
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        for p in plan.table(geometric_grid(100, 10 ** 7, 14)):
            assert not p.clamped
            assert p.trim >= p.expect_gt + p.allowance_gt

    def test_trim_floor_holds_when_tail_is_empty(self, pareto):
        # thresholds beyond all mass: expected exceedances vanish and the
        # slack reduces to the iterated-log term
        plan = plan_standard(pareto, PowerThreshold(2.5), 0.05)
        p = plan.checkpoint(10 ** 6)
        assert p.expect_gt == pytest.approx(10 ** -1.5, rel=1e-9)
        assert p.trim >= p.expect_gt + p.allowance_gt
        assert p.trim <= math.ceil(9.0 * math.log(math.log(10 ** 6))) + 1

    def test_proof_variant_uses_log_slot(self, pareto):
        plan = TrimmingPlan(pareto, 0.05, PowerThreshold(0.8),
                            StandardTrimRule(log_floor=True),
                            SummableFunction.power(9 / 8), SummableFunction.power(2))
        n = 1000
        p = plan.checkpoint(n)
        ll = math.log(math.log(n))
        hand = math.ceil(n ** 0.6 + 9.0 * max(
            (n ** 0.6) ** 0.55 * ll ** 0.45, math.log(n)))
        assert p.trim == hand


class TestPlanStandardStep:
    def test_sequences_from_definitions(self, step):
        # the atom at the threshold separates the two exceedance counts:
        # strict exceedances see level 1/(K+1)^2, weak ones see 1/K^2
        plan = plan_standard(step, SquareStepThreshold(), 0.05)
        for n in (1000, 10 ** 5, 10 ** 7):
            k = math.floor(n ** 0.225)
            p = plan.checkpoint(n)
            assert p.log_threshold == (k * k) * LN2
            assert p.expect_gt == pytest.approx(n / (k + 1) ** 2, rel=1e-12)
            assert p.expect_ge == pytest.approx(n / k ** 2, rel=1e-12)
            mass = 1.0 / k ** 2 - 1.0 / (k + 1) ** 2
            assert p.expect_ge - p.expect_gt == pytest.approx(n * mass, rel=1e-9)

    def test_epsilon_is_the_plans(self, step):
        # the plan owns epsilon: with 0.1 the threshold index is
        # floor(n**(1/4 - 0.05)) and the trim count the standard formula at
        # 0.1, and neither rule holds an epsilon of its own
        plan = plan_standard(step, SquareStepThreshold(), 0.1)
        assert vars(plan.threshold_rule) == {} and vars(plan.trim_rule) == {"log_floor": False}
        for n in (1000, 10 ** 5, 10 ** 7):
            k = math.floor(n ** 0.2)
            p = plan.checkpoint(n)
            assert p.log_threshold == (k * k) * LN2
            ll = math.log(math.log(n))
            slack = 9.0 * max(p.expect_gt ** (0.5 + 0.1) * ll ** (0.5 - 0.1), ll)
            assert p.trim == math.ceil(p.expect_gt + slack)

    def test_scale_matches_mpmath(self, step):
        mp.mp.prec = 4000
        plan = plan_standard(step, SquareStepThreshold(), 0.05)
        for n in (10 ** 5, 10 ** 7):
            k = math.floor(n ** 0.225)
            exact = mp.mpf(0)
            for j in range(1, k + 1):
                exact += (mp.mpf(1) / (j * j) - mp.mpf(1) / ((j + 1) * (j + 1))) \
                    * mp.power(2, j * j)
            p = plan.checkpoint(n)
            assert p.log_scale == pytest.approx(float(mp.log(n * exact)), rel=1e-12)

    def test_power_rule_rejected_off_the_atoms(self, step):
        plan = plan_standard(step, PowerThreshold(0.8), 0.05)
        with pytest.raises(PlanError, match="n = "):
            check_plan(plan, plan.table(GRID_1E6))

    def test_duck_typed_rule_named_off_the_atoms(self, step):
        class Custom:
            def log_threshold(self, plan, n):
                return math.log(3.0)

        plan = plan_standard(step, Custom(), 0.05)
        with pytest.raises(PlanError, match="rule <.*Custom object"):
            check_plan(plan, plan.table(geometric_grid(1000, 10 ** 6, 8)))


def _stall_warnings_quadratic(table):
    """The stall scan as a pairwise loop: each point against the first later
    point at least ten times its n."""
    out = []
    for i, p in enumerate(table):
        for q in table[i + 1:]:
            if q.n >= 10 * p.n:
                if q.log_threshold <= p.log_threshold:
                    out.append(f"threshold stalls between n = {p.n} and n = {q.n}; "
                               "divergence not visible on this grid")
                break
    return list(dict.fromkeys(out))


class TestStallScan:
    @pytest.fixture(scope="class")
    def lattice_grid(self):
        # the step-lattice benchmark workload's 2,000-point condition grid
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        return tuple(workloads.WORKLOADS["step-lattice"]()["conditions"]["grid"])

    @pytest.mark.parametrize("rule, count", [(SquareStepThreshold(), 0),
                                             (ProjectedPowerThreshold(0.3), 1332)],
                             ids=["square-step", "projected"])
    def test_matches_pairwise_scan_on_lattice_grid(self, step, lattice_grid, rule, count):
        assert len(lattice_grid) == 2000
        plan = plan_standard(step, rule, 0.1)
        table = plan.table(lattice_grid)
        stalls = [w for w in check_plan(plan, table) if w.startswith("threshold stalls")]
        assert len(stalls) == count
        assert stalls == _stall_warnings_quadratic(table)

    def test_matches_pairwise_scan_on_default_grid(self, step):
        plan = plan_default(step, 0.1)
        table = plan.table(GRID_1E6)
        stalls = [w for w in check_plan(plan, table) if w.startswith("threshold stalls")]
        assert stalls and stalls == _stall_warnings_quadratic(table)


class TestPlanDefault:
    def test_continuous_law_gets_the_power_target(self, pareto):
        plan = plan_default(pareto, 0.05)
        for n in (100, 10 ** 4, 10 ** 6):
            assert math.exp(plan.log_threshold(n)) == pytest.approx(
                n ** 0.4, rel=1e-12)

    def test_step_law_projects_to_an_atom(self, step):
        plan = plan_default(step, 0.1)
        # n = 100: target 100**0.3 ~ 3.98, projected to the atom at 2
        assert math.exp(plan.log_threshold(100)) == 2.0
        warnings = check_plan(plan, plan.table(geometric_grid(16, 10 ** 5, 10)))
        assert any("stalls" in w for w in warnings)

    def test_threshold_never_exceeds_target(self, step, pareto):
        for d in (step, pareto):
            plan = plan_default(d, 0.08)
            for n in (16, 100, 10 ** 4, 10 ** 6):
                assert math.exp(plan.log_threshold(n)) <= n ** (0.5 - 0.16) + 1e-9

    @pytest.mark.parametrize("law", ["step", "pareto"])
    def test_far_grid_thresholds_are_admissible(self, request, law):
        # projected in log space: through float locations the step law missed
        # atom 9 (log(2.0**81) is not 81 ln 2) and Pareto's cdf rounded to 1
        grid = geometric_grid(1000, 1e100, 40)
        assert all(type(n) is int for n in grid)
        plan = plan_default(request.getfixturevalue(law), 0.05)
        table = plan.table(grid)
        check_plan(plan, table)
        if law == "step":
            verdicts = {check_condition(plan, c, table).verdict for c in conditions_for_plan(plan)}
            assert verdicts == {"satisfied"}

    def test_far_grid_takes_an_int_stop(self):
        # an int stop beyond int64 made np.geomspace an object array and
        # raised TypeError; a stop beyond the float range is refused
        assert geometric_grid(1000, 10 ** 100, 40) == geometric_grid(1000, 1e100, 40)
        for stop in (10 ** 400, math.inf):
            with pytest.raises(TrimmingError, match="beyond the float range"):
                geometric_grid(1000, stop, 40)

    def test_empty_tail_reduces_trim_to_iterated_log(self, pm):
        # no expected exceedances at all: the slack term alone sets the trim
        plan = plan_default(pm, 0.05)
        p = plan.checkpoint(100)
        assert p.expect_gt == 0.0
        assert p.trim == math.ceil(9.0 * math.log(math.log(100)))


class TestPlanGeneral:
    def build(self, dist, eps=0.05):
        plan = TrimmingPlan(dist, eps, PowerThreshold(0.8), StandardTrimRule(),
                            SummableFunction.power(9 / 8), SummableFunction.power(2))
        check_plan(plan, plan.table(GRID_1E6))
        return plan

    def test_continuous_law_collapses_the_counts(self, pareto):
        plan = self.build(pareto)
        p = plan.checkpoint(10 ** 4)
        assert p.expect_gt == p.expect_ge

    def test_margin_sandwich_on_continuous_tail(self, pareto):
        # excess <= margin <= 2 * excess once the floor holds
        plan = self.build(pareto)
        for p in plan.table(geometric_grid(1000, 10 ** 6, 8)):
            excess, margin = p.trim - p.expect_gt, trimming._margin(plan, p)
            assert excess <= margin <= 2.0 * excess + 1e-9

    def test_margin_chain_bound(self, pareto, step):
        # margin stays within 18 * max(fluctuation term, log n), up to the
        # integer ceiling of the trim count
        for dist, rule in ((pareto, PowerThreshold(0.8)),
                           (step, SquareStepThreshold())):
            plan = plan_standard(dist, rule, 0.05)
            for p in plan.table(geometric_grid(16, 10 ** 6, 12)):
                ll = math.log(math.log(p.n))
                cap = 18.0 * max(p.expect_gt ** 0.55 * ll ** 0.45, math.log(p.n))
                assert trimming._margin(plan, p) <= cap + 2.0

    def test_floor_violation_is_a_verdict(self, pareto):
        # the floor is a pointwise hypothesis: the plan passes check_plan on
        # the grid and the trim-floor condition judges it there
        class Meager:
            def raw_count(self, plan, n, expect_gt):
                return expect_gt + 1.0

        plan = TrimmingPlan(pareto, 0.05, PowerThreshold(0.8), Meager(),
                            SummableFunction.power(9 / 8), SummableFunction.power(2))
        assert plan.checkpoint(1000).trim > 0
        table = plan.table(geometric_grid(16, 10 ** 5, 8))
        check_plan(plan, table)
        assert check_condition(plan, "trim-floor", table).verdict == "violated"

    def test_construction_evaluates_nothing(self, step):
        # a plan is a value: building it calls no rule, and check_plan on a
        # table is where its thresholds are judged
        class Unreachable(Exception):
            pass

        class Exploding:
            def log_threshold(self, plan, n):
                raise Unreachable(n)

        grid = geometric_grid(16, 10 ** 5, 10)
        for plan in (plan_standard(step, Exploding(), 0.05),
                     TrimmingPlan(step, 0.05, Exploding(), StandardTrimRule(),
                                  SummableFunction.power(9 / 8), SummableFunction.power(2))):
            with pytest.raises(Unreachable):
                check_plan(plan, plan.table(grid))

    def test_check_plan_is_the_constructor_check(self, step):
        # one implementation: construction checks nothing, and check_plan on
        # a grid's table returns the same warnings however often it is asked
        grid = geometric_grid(16, 10 ** 5, 10)
        plan = plan_default(step, 0.1)
        warnings = check_plan(plan, plan.table(grid))
        assert warnings and check_plan(plan, plan.table(grid)) == warnings
        off_atoms = plan_standard(step, PowerThreshold(0.8), 0.05)
        with pytest.raises(PlanError, match="not a quantile fixed point"):
            check_plan(off_atoms, off_atoms.table(grid))

    def test_exceedance_expectations_out_of_order(self):
        # a law whose P(X >= t) falls below P(X > t), on a grid and on a
        # one-point table, whose point was once never compared
        class Inverted(ParetoTail):
            def survival_left_at_log(self, log_x):
                return self.survival_at_log(log_x) / 2

        plan = plan_standard(Inverted(0.5), PowerThreshold(0.8), 0.05)
        for grid in (GRID_1E7, (1000,)):
            with pytest.raises(PlanError, match="exceedance expectations out of order "
                                                "at n = 1000$"):
                check_plan(plan, plan.table(grid))

    def test_empty_grid_skips_validation(self, pareto, step):
        class Meager:
            def raw_count(self, plan, n, expect_gt):
                return expect_gt + 1.0

        plan = TrimmingPlan(pareto, 0.05, PowerThreshold(0.8), Meager(),
                            SummableFunction.power(9 / 8), SummableFunction.power(2))
        assert plan.checkpoint(1000).trim > 0
        assert check_plan(plan, ()) == ()
        off_atoms = plan_standard(step, PowerThreshold(0.8), 0.05)
        assert check_plan(off_atoms, ()) == ()

    def test_epsilon_domain(self, pareto):
        with pytest.raises(PlanError):
            plan_standard(pareto, PowerThreshold(0.8), 0.3)

    def test_rule_and_sample_size_domains(self, pareto):
        for build in (lambda: PowerThreshold(0.0), lambda: PowerThreshold(1.0, 0.0),
                      lambda: ProjectedPowerThreshold(0.0),
                      lambda: plan_standard(pareto, PowerThreshold(0.8), 0.05).checkpoint(2)):
            with pytest.raises(TrimmingError, match="positive|at least 3"):
                build()


def _mp_standard_limit_pareto(n, beta, eps):
    """High-precision rederivation of the standard limit quantity for a
    unit-scale Pareto tail with exponent one half."""
    mp.mp.prec = 300
    n = mp.mpf(n)
    t = n ** mp.mpf(beta)
    a = n * t ** mp.mpf(-0.5)
    d = n * (mp.sqrt(t) - 1)
    fluct = max(a ** (mp.mpf(0.5) + eps) * mp.log(mp.log(n)) ** (mp.mpf(0.5) - eps),
                mp.log(n))
    return float(t / d * fluct)


def _mp_standard_limit_step(n, eps):
    mp.mp.prec = 4000
    k = math.floor(n ** (0.25 - eps / 2.0))
    t = mp.power(2, k * k)
    moment = mp.mpf(0)
    for j in range(1, k + 1):
        moment += (mp.mpf(1) / (j * j) - mp.mpf(1) / ((j + 1) * (j + 1))) \
            * mp.power(2, j * j)
    a = mp.mpf(n) / ((k + 1) * (k + 1))
    d = n * moment
    e = mp.mpf(eps)
    fluct = max(a ** (mp.mpf(0.5) + e) * mp.log(mp.log(n)) ** (mp.mpf(0.5) - e),
                mp.log(n))
    return float(t / d * fluct)


class TestConditionChecker:
    def test_pareto_values_match_mpmath(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        rep = check_condition(plan, "standard-limit", plan.table(GRID_1E7))
        for n, v in zip(rep.grid, rep.values):
            assert v == pytest.approx(_mp_standard_limit_pareto(n, 0.8, 0.05), rel=1e-9)

    def test_step_values_match_mpmath(self, step):
        plan = plan_standard(step, SquareStepThreshold(), 0.05)
        rep = check_condition(plan, "standard-limit", plan.table(GRID_1E7), tolerance=0.75)
        for n, v in zip(rep.grid, rep.values):
            assert v == pytest.approx(_mp_standard_limit_step(n, 0.05), rel=1e-9)
        assert rep.verdict == "satisfied"
        assert rep.trend < 0.0

    def test_pareto_limit_reaches_default_tolerance_on_long_grid(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        rep = check_condition(plan, "standard-limit",
                              plan.table(geometric_grid(1000, 10 ** 10, 11)))
        assert rep.verdict == "satisfied"
        assert rep.final_value < 1e-2

    def test_sabotage_rule_is_not_satisfied(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(2.5), 0.05)
        rep = check_condition(plan, "standard-limit", plan.table(GRID_1E7))
        assert rep.verdict != "satisfied"
        assert rep.trend > 0.0
        assert rep.values[-1] > rep.values[0]

    def test_truncation_limit(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        rep = check_condition(plan, "truncation-limit", plan.table(GRID_1E7))
        assert rep.verdict == "satisfied"
        # independent form: (t / moment) * log(weight(n)) / n
        for n, v in zip(rep.grid, rep.values):
            t = n ** 0.8
            moment = math.sqrt(t) - 1.0
            hand = t / moment * (9.0 / 8.0) * math.log(n) / n
            assert v == pytest.approx(hand, rel=1e-9)

    def test_pointwise_floor_verdicts(self, pareto):
        good = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        assert check_condition(good, "trim-floor", good.table(GRID_1E7)).verdict == "satisfied"

        class Meager:
            name = "meager"

            def raw_count(self, plan, n, expect_gt):
                return expect_gt + 1.0

        bad = TrimmingPlan(pareto, 0.05, PowerThreshold(0.8), Meager(),
                           SummableFunction.power(9 / 8), SummableFunction.power(2))
        rep = check_condition(bad, "trim-floor", bad.table(GRID_1E7))
        assert rep.verdict == "violated"
        assert any("floor fails" in note for note in rep.notes)

    def test_excess_conditions_on_continuous_law(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        assert check_condition(plan, "excess-floor", plan.table(GRID_1E7)).verdict == "satisfied"
        rep = check_condition(plan, "excess-limit",
                              plan.table(geometric_grid(1000, 10 ** 10, 11)), tolerance=0.1)
        assert rep.verdict == "satisfied"

    def test_degenerate_scale_is_inconclusive(self, pareto):
        # thresholds below the support leave no mass: scale vanishes
        plan = TrimmingPlan(pareto, 0.05, PowerThreshold(0.001, 0.01),
                            StandardTrimRule(), SummableFunction.power(9 / 8),
                            SummableFunction.power(2))
        rep = check_condition(plan, "standard-limit", plan.table(geometric_grid(16, 20000, 9)))
        assert rep.verdict == "inconclusive"
        assert any("scale vanishes" in note for note in rep.notes)

    def test_grid_preconditions(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        with pytest.raises(TrimmingError):
            check_condition(plan, "standard-limit", plan.table((16, 100, 1000, 10000)))
        with pytest.raises(TrimmingError):
            check_condition(plan, "standard-limit", plan.table(tuple(range(100, 900, 100))))
        with pytest.raises(TrimmingError):
            check_condition(plan, "standard-limit", plan.table((16, 16, 100, 1000, 2000,
                                                                4000, 8000, 32000)))
        with pytest.raises(TrimmingError):
            check_condition(plan, "no-such-condition", plan.table(GRID_1E7))

    def test_conditions_for_plan(self, pareto, step):
        p1 = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        assert "excess-floor" in conditions_for_plan(p1)
        p2 = plan_standard(step, SquareStepThreshold(), 0.05)
        assert "excess-floor" not in conditions_for_plan(p2)
        assert "standard-limit" in conditions_for_plan(p2)

    def test_report_formatting(self, pareto):
        plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
        reports = [check_condition(plan, c, plan.table(GRID_1E7))
                   for c in ("standard-limit", "trim-floor")]
        text = format_condition_report(reports)
        assert "condition standard-limit" in text
        assert "condition trim-floor" in text
        assert "verdict:" in text
        assert str(GRID_1E7[-1]) in text


class TestGeometricGrid:
    def test_strictly_increasing_unique(self):
        g = geometric_grid(16, 10 ** 6, 30)
        assert all(b > a for a, b in zip(g, g[1:]))
        assert g[0] == 16 and g[-1] == 10 ** 6

    def test_domain(self):
        with pytest.raises(TrimmingError):
            geometric_grid(2, 100, 5)
        with pytest.raises(TrimmingError):
            geometric_grid(100, 100, 5)
