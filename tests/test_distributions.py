import bisect
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from heavytrim import distributions, montecarlo
from heavytrim.distributions import (DistributionError, _ei, LogTail, ParetoTail,
                                     SquareStep, Tabulated)
from heavytrim.expcli import parse_config

from conftest import atomic_table, scan_cdf, scan_quantile, step_atoms_exact
from oracles import reference_quantile

LN2 = math.log(2.0)


def _log(x: int) -> float:
    """log x, read as the step law stores its atoms (m ln 2) when x = 2**m."""
    m = x.bit_length() - 1
    return m * LN2 if x == 1 << m else math.log(x)


def _moment(d, t: float) -> float:
    return math.exp(d.log_truncated_moment(math.log(t)))


class TestStepCdf:
    """Survival of the built-in step law against a rational atom-scan oracle."""

    def test_value_at_first_atom(self, step):
        assert step.survival_at_log(LN2) == 0.25

    def test_below_support(self, step):
        assert step.survival_at_log(math.log(1.5)) == 1.0
        assert step.survival_at_log(-math.inf) == 1.0

    def test_matches_scan_oracle_on_grid(self, step):
        atoms = step_atoms_exact(6)
        for x in [1, 2, 3, 15, 16, 17, 511, 512, 513, 65535, 65536, 70000]:
            assert 1.0 - step.survival_at_log(_log(x)) == pytest.approx(
                float(scan_cdf(atoms, x)), rel=1e-15)

    def test_left_limits(self, step):
        assert step.survival_left_at_log(LN2) == 1.0
        assert step.survival_left_at_log(4 * LN2) == 0.25
        no_atom = math.log(3.0)
        assert step.survival_left_at_log(no_atom) == step.survival_at_log(no_atom)

    def test_left_limit_drops_exactly_the_atom(self, step):
        for loc, mass in step_atoms_exact(4):
            z = _log(int(loc))
            assert step.survival_left_at_log(z) - step.survival_at_log(z) == pytest.approx(
                float(mass), rel=1e-15)


class TestParetoForms:
    def test_cdf_closed_form(self, pareto):
        assert pareto.survival_at_log(math.log(4.0)) == pytest.approx(0.5, rel=1e-15)
        assert pareto.survival_at_log(math.log(0.5)) == 1.0

    def test_quantile_inverts_survival(self, pareto):
        # every point of the support is a fixed point: the level 1 - 16**-1/2
        # is attained first at 16
        z = math.log(16.0)
        assert pareto.log_fixed_point(z) == z
        assert pareto.survival_at_log(pareto.log_fixed_point(z)) == pytest.approx(0.25, rel=1e-14)
        assert pareto.log_fixed_point(math.log(0.5)) == math.log(pareto.scale)

    def test_truncated_moment_closed_form_vs_quadrature(self, pareto):
        for t in [2.0, 4.0, 16.0, 100.0]:
            expected, err = integrate.quad(lambda x: x * 0.5 * x ** -1.5, 1.0, t)
            assert err < 1e-6
            assert _moment(pareto, t) == pytest.approx(expected, rel=1e-9)
        assert _moment(pareto, 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_moment_below_support_is_zero(self, pareto):
        assert pareto.log_truncated_moment(math.log(0.5)) == -math.inf


class TestQuantiles:
    """``log_fixed_point``: the largest quantile fixed point at or below a level."""

    def test_step_against_scan_oracle(self, step):
        atoms = step_atoms_exact(6)
        for x in [1, 2, 3, 15, 16, 17, 511, 512, 513, 65535, 65536, 70000]:
            expected = scan_quantile(atoms, scan_cdf(atoms, x))  # quantile(F(x))
            assert step.log_fixed_point(_log(x)) == _log(int(expected))

    def test_step_level_zero_is_support_min(self, step, pareto, logtail):
        assert step.log_fixed_point(-math.inf) == LN2
        assert step.log_fixed_point(math.log(1.5)) == LN2
        assert pareto.log_fixed_point(-1.0) == 0.0
        assert logtail.log_fixed_point(0.5) == 1.0

    def test_step_fixed_points(self, step):
        for n in range(1, 6):
            z = n * n * LN2
            assert step.log_fixed_point(z) == z
            assert step.survival_at_log(z) == pytest.approx(1.0 / (n + 1) ** 2, rel=1e-14)

    def test_unbounded_laws_project_beyond_float_range(self, step, pareto, logtail):
        # no level of an unbounded law reaches 1, and far targets stay exact
        for d in (pareto, logtail):
            assert d.log_fixed_point(1e6) == 1e6
        assert step.log_fixed_point(1e9) == step._logs[-1]

    def test_step_level_beyond_table_is_last_atom(self):
        small = SquareStep(max_index=4)
        assert small.log_fixed_point(25 * 25 * LN2) == 16 * LN2
        assert small.survival_at_log(25 * 25 * LN2) == pytest.approx(1.0 / 25.0, rel=1e-14)

    def test_step_atom_beyond_float_range_is_exact(self, step):
        # atom 33 sits at 2**1089, beyond float64; the contract reads its log
        log_x = step._logs[32]
        assert step.xs[32] == math.inf
        assert step.log_fixed_point(log_x) == log_x
        assert step.log_fixed_point(log_x + 1.0) == log_x
        gap = step.survival_left_at_log(log_x) - step.survival_at_log(log_x)
        assert gap == pytest.approx(1.0 / 33 ** 2 - 1.0 / 34 ** 2, rel=1e-9)

    def test_step_projection_keeps_the_stored_atom_log(self, step):
        # math.log(2.0**81) differs from the stored 81 ln 2 in the last bits,
        # so a projection through float locations misses atom 9
        assert math.log(2.0 ** 81) != 81 * LN2
        assert step.log_fixed_point(81 * LN2 + 1e-9) == step._logs[8]


class TestTruncatedMoments:
    def test_step_closed_form(self, step):
        # sum of (1/k^2 - 1/(k+1)^2) * 2^(k^2) over k <= 2
        assert math.exp(step.log_truncated_moment(4 * LN2)) == pytest.approx(67.0 / 18.0, rel=1e-15)
        assert step.log_truncated_moment(0.0) == -math.inf

    def test_step_table_is_the_per_call_sum(self, step):
        # the prefix table holds, bit for bit, what summing the atoms at or
        # below t on each call gives: at every atom, between atoms, and
        # beyond either end
        def levels(logs):
            return logs + [v + d for v in logs for d in (-1e-9, 1e-9)] + [-math.inf, math.inf]

        masses = [1.0 / (k * k) - 1.0 / ((k + 1) * (k + 1)) for k in range(1, 129)]
        for z in levels(list(step._logs)):
            terms = [v + math.log(m) for v, m in zip(step._logs, masses) if v <= z]
            assert step.log_truncated_moment(z) == distributions._logsumexp(terms)
        # jump rows sum their atoms exactly on each call, which agrees with a
        # log-sum-exp over the same atoms to within an ulp
        for atoms in ([(1.0, 1.0)], [(0.5, 0.25), (3.0, 0.5), (1e300, 0.125)]):
            law = atomic_table(atoms)
            for z in levels([math.log(x) for x, _ in atoms]):
                kept = [(x, m) for x, m in atoms if math.log(x) <= z]
                exact = math.fsum(x * m for x, m in kept)
                got = law.log_truncated_moment(z)
                assert got == (math.log(exact) if exact else -math.inf)
                assert got == pytest.approx(distributions._logsumexp(
                    [math.log(x) + math.log(m) for x, m in kept]), rel=1e-15)

    @pytest.mark.parametrize("max_index", [2, 31, 32, 33, 128, 600, 2000])
    def test_step_prefixes_equal_the_quadratic_form(self, max_index):
        # each prefix sums only the terms whose exp does not underflow to
        # 0.0; the table is every whole prefix's log-sum-exp, bit for bit
        ks = range(1, max_index + 1)
        terms = [(k * k) * LN2 + math.log(1.0 / (k * k) - 1.0 / ((k + 1) * (k + 1)))
                 for k in ks]
        quadratic = [distributions._logsumexp(terms[:i]) for i in range(max_index + 1)]
        assert [v.hex() for v in SquareStep(max_index)._moments] == [v.hex() for v in quadratic]

    def test_step_with_many_atoms_builds(self):
        # quadratic prefixes took minutes at 50,000 atoms
        step = SquareStep(50_000)
        assert len(step._moments) == 50_001
        assert step.log_truncated_moment(math.inf) == step._moments[-1] < math.inf

    def test_step_against_fraction_oracle(self, step):
        atoms = step_atoms_exact(5)
        for t in [2, 16, 512, 65536]:
            exact = sum((loc * m for loc, m in atoms if loc <= t), Fraction(0))
            got = math.exp(step.log_truncated_moment(_log(t)))
            assert got == pytest.approx(float(exact), rel=1e-14)

    def test_additive_over_atom_partition(self, step):
        atoms = step_atoms_exact(5)
        a, b = 4, 70000
        gap = sum((loc * m for loc, m in atoms if a < loc <= b), Fraction(0))
        got = _moment(step, b) - _moment(step, a)
        assert got == pytest.approx(float(gap), rel=1e-14)

    def test_nondecreasing(self, step, pareto, logtail, mixed_table):
        for d in (step, pareto, logtail, mixed_table):
            vals = [d.log_truncated_moment(z) for z in np.linspace(0.0, math.log(1e6), 40)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_logtail_matches_quadrature(self, logtail):
        for t in [10.0, 100.0, 1e4, 1e8]:
            expected, err = integrate.quad(
                lambda x: 1.0 / math.log(x) ** 2, math.e, t, limit=200)
            assert _moment(logtail, t) == pytest.approx(expected, rel=1e-9)

    def test_logtail_atom_at_threshold(self):
        # exp(log 5) rounds below 5, yet log 5 reaches the atom there
        for threshold in (10.0, 5.0):
            d = LogTail(threshold=threshold)
            # the jump of size F(threshold) there contributes threshold * F(threshold)
            base = threshold * (1.0 - 1.0 / math.log(threshold))
            assert _moment(d, threshold) == pytest.approx(base, rel=1e-12)
            tail, _ = integrate.quad(lambda x: 1.0 / math.log(x) ** 2, threshold, 50.0)
            assert _moment(d, 50.0) == pytest.approx(base + tail, rel=1e-9)

    def test_logtail_moment_past_the_float_range_refused(self):
        with pytest.raises(DistributionError, match="beyond float range"):
            LogTail().log_truncated_moment(800.0)

    def test_ei_matches_mpmath(self):
        # both branches of the series and the switch at 50, up to the
        # largest log(x) a float x can have
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for z in np.linspace(1.0, 709.0, 2000).tolist() + [50.0, 709.78]:
                exact = mp.ei(z)
                assert abs((_ei(z) - exact) / exact) < 1e-14, z


class TestTabulated:
    def test_cdf_values(self, mixed_table):
        t = mixed_table

        def cdf(x):
            return 1.0 - t.survival_at_log(math.log(x))

        assert cdf(0.5) == 0.0
        assert cdf(1.0) == pytest.approx(0.2, abs=1e-15)
        assert cdf(2.5) == pytest.approx(0.2 + 0.3 * 1.5 / 3.0)
        assert cdf(5.0) == 0.5          # flat before the jump at 8
        assert cdf(12.0) == pytest.approx(0.75 + 0.25 * 0.5)
        assert cdf(100.0) == 1.0
        assert t.survival_left_at_log(math.log(12.0)) == t.survival_at_log(math.log(12.0))
        assert t.survival_at_log(1000.0) == 0.0  # beyond the float range, past every row

    def test_quantile_inverts(self, mixed_table, partial_table, pareto_table):
        # at every breakpoint level, flat segments and jumps included, the
        # fixed point is the reference generalized inverse, bit for bit
        for d in (mixed_table, partial_table, pareto_table):
            for z, y in zip(d._logs, d.fs):
                assert d.log_fixed_point(z) == math.log(reference_quantile(d, y))
        t = mixed_table
        assert t.log_fixed_point(math.log(0.5)) == 0.0  # the support minimum, 1
        assert t.log_fixed_point(0.0) == 0.0            # the atom at 1
        assert t.log_fixed_point(math.log(2.5)) == pytest.approx(math.log(2.5), abs=1e-12)
        assert t.log_fixed_point(math.log(6.0)) == pytest.approx(math.log(4.0), abs=1e-12)
        assert t.log_fixed_point(math.log(100.0)) == pytest.approx(math.log(16.0), abs=1e-12)
        assert t.log_fixed_point(1000.0) == pytest.approx(math.log(16.0), abs=1e-12)
        # F interpolated just below the last row used to round above its level 1
        edge = Tabulated([(1.073, 0.079, "jump"), (5.465, 1.0, "linear")])
        z = 1.6983641216285017
        assert edge.survival_at_log(z) == 0.0
        assert edge.log_fixed_point(z) == pytest.approx(math.log(5.465), abs=1e-12)

    def test_truncated_moment_vs_hand_integral(self, mixed_table):
        t = mixed_table
        # atom 1*0.2 + ramp slope 0.1 over [1,4] + atom 8*0.25 + ramp over [8,16]
        ramp1 = 0.1 * (4.0 ** 2 - 1.0) / 2.0
        ramp2 = (0.25 / 8.0) * (16.0 ** 2 - 8.0 ** 2) / 2.0
        assert _moment(t, 20.0) == pytest.approx(0.2 + ramp1 + 2.0 + ramp2, rel=1e-14)
        assert _moment(t, 2.0) == pytest.approx(0.2 + 0.1 * (4.0 - 1.0) / 2.0, rel=1e-14)

    def test_jump_row_read_at_its_own_log(self, mixed_table):
        # exp(log 8) is 7.999999999999998: a level that is a row's log reads as
        # that row, so the atom at 8 counts in all four contract methods
        t = mixed_table
        z = math.log(8.0)
        assert t.survival_at_log(z) == 0.25
        assert t.survival_left_at_log(z) == 0.5
        assert t.log_fixed_point(z) == z
        assert _moment(t, 8.0) == pytest.approx(0.2 + 0.1 * (4.0 ** 2 - 1.0) / 2.0 + 2.0,
                                                rel=1e-14)

    def test_rejects_bad_tables(self):
        with pytest.raises(DistributionError):
            Tabulated([])
        with pytest.raises(DistributionError):
            Tabulated([(1.0, 0.5, "linear")])     # leading linear must carry F=0
        with pytest.raises(DistributionError):
            Tabulated([(1.0, 0.2, "jump"), (1.0, 0.4, "jump")])
        with pytest.raises(DistributionError):
            Tabulated([(1.0, 0.5, "jump"), (2.0, 0.4, "jump")])
        with pytest.raises(DistributionError):
            Tabulated([(1.0, 0.5, "wiggly")])
        with pytest.raises(DistributionError, match="breakpoints must be positive"):
            Tabulated([(-1.0, 0.5, "jump"), (2.0, 1.0, "jump")])
        with pytest.raises(DistributionError, match=r"F values must lie in \[0,1\]"):
            Tabulated([(1.0, 0.5, "jump"), (2.0, 1.5, "jump")])

    def test_point_mass(self, pm):
        assert pm.survival_at_log(0.0) == 0.0
        assert pm.survival_left_at_log(0.0) == 1.0
        assert pm.log_fixed_point(5.0) == 0.0
        assert pm.log_truncated_moment(0.0) == 0.0
        assert pm.sample_array(np.array([0.99])).tolist() == [1.0]

    def test_jump_rows_are_exact_fixed_points(self, pm):
        # check_plan grants a table with linear rows a 1e-12 tolerance; a jump
        # row's projection is its stored log, so atomic tables never need it
        stp = Path(__file__).resolve().parents[1] / "configs" / "st-petersburg.json"
        tables = [pm, parse_config(stp).config.distribution, _DKW_TABLE,
                  *(_GUIDE_LAWS[name]() for name in ("quarters", "crowded", "partial_atoms"))]
        for d in tables:
            assert set(d.kinds) == {"jump"}
            for x in d.xs:
                assert d.log_fixed_point(math.log(x)) == math.log(x)


class TestPrefixFsums:
    """The levels of the table laws: every prefix's ``math.fsum``, bit for bit."""

    @staticmethod
    def _assert_prefixes(masses):
        got = distributions.prefix_fsums(masses)
        assert [v.hex() for v in got] == [math.fsum(masses[: i + 1]).hex()
                                          for i in range(len(masses))]

    def test_prefix_past_the_float_range_reads_inf(self):
        # where fsum raises, a prefix rounds to +-inf as montecarlo's sums do,
        # and the running integer stays exact
        assert distributions.prefix_fsums([1.7e308, 1.7e308, -1.7e308]) == [1.7e308, math.inf,
                                                                              1.7e308]
        assert distributions.prefix_fsums([-1e308, -1e308]) == [-1e308, -math.inf]

    def test_random_tables_over_many_binades(self):
        rng = np.random.default_rng(20260810)
        for _ in range(300):
            size = int(rng.integers(1, 401))
            masses = np.ldexp(rng.random(size) + 0.5, rng.integers(-60, 1, size))
            self._assert_prefixes(masses.tolist())

    def test_step_law_and_st_petersburg_masses(self):
        self._assert_prefixes([2.0 ** -k for k in range(1, 1075)])
        assert SquareStep()._levels == tuple(math.fsum(
            1.0 / (k * k) - 1.0 / ((k + 1) * (k + 1)) for k in range(1, i + 1))
            for i in range(1, 129))


# laws whose levels sit on bucket-table bucket edges or crowd into one bucket
_GUIDE_LAWS = {
    "quarters": lambda: Tabulated([(float(k), k / 4, "jump") for k in range(1, 5)]),
    "crowded": lambda: Tabulated([(float(k), 1.0 - 2.0 ** -k, "jump") for k in range(1, 53)]),
    "square_step": SquareStep,
    "partial_atoms": lambda: atomic_table([(2.0, 0.5), (3.0, 0.25), (5.0, 0.125)]),
    "flat": lambda: Tabulated([(1.0, 0.0, "linear"), (2.0, 0.5, "linear"), (3.0, 0.5, "linear"),
                               (4.0, 0.5, "jump"), (5.0, 1.0, "linear")]),
}
# the step law's first nine atoms and one more at 2**121, as a table
_DKW_TABLE = atomic_table([(2.0 ** (k * k), 1.0 / k ** 2 - 1.0 / (k + 1) ** 2)
                           for k in range(1, 10)] + [(2.0 ** 121, 1.0 / 121.0)])
_LOOKUP_LAWS = ["mixed_table", "pm", "pareto_table", "partial_table", *_GUIDE_LAWS]


def _law_and_levels(request, name):
    d = _GUIDE_LAWS[name]() if name in _GUIDE_LAWS else request.getfixturevalue(name)
    return d, np.array(d.fs if isinstance(d, Tabulated) else d._levels)


def _edge_variates(levels):
    # every level and bucket-table bucket edge with their neighbours, the
    # extreme variates, and more than three blocks of draws
    m = distributions._BUCKETS
    points = [*levels, *(j / m for j in range(m + 1))]
    near = [v for p in points for v in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0))]
    draws = montecarlo.stream(5, 0).random(3 * montecarlo._CHUNK + 5)
    u = np.concatenate([near, [5e-324, 1.0 - 2.0 ** -53], draws])
    return u[(u > 0.0) & (u < 1.0)]


def _reference(d, u):
    return np.array([reference_quantile(d, float(v)) for v in u])


class TestSampling:
    def test_scalar_examples(self, step, pareto):
        assert step.sample_array(np.array([0.5])).tolist() == [2.0]
        assert pareto.sample_array(np.array([0.75]))[0] == pytest.approx(16.0, rel=1e-14)

    def test_sample_is_quantile(self, pareto, logtail, mixed_table):
        # a draw x is the quantile of u: F(x-) <= u <= F(x), up to rounding
        cases = [(pareto, [0.01, 0.3, 0.5, 0.77, 0.9, 0.999]),
                 (logtail, [0.01, 0.3, 0.5, 0.77, 0.9, 0.99]),
                 (mixed_table, [0.01, 0.3, 0.5, 0.77, 0.9, 0.999])]
        for d, us in cases:
            for u, x in zip(us, d.sample_array(np.array(us))):
                z = math.log(x)
                assert 1.0 - d.survival_at_log(z) >= u - 1e-12
                assert 1.0 - d.survival_left_at_log(z) <= u + 1e-12

    def test_vector_matches_scalar(self, step, pareto, logtail, mixed_table):
        rng = np.random.default_rng(7)
        u = rng.random(4096)
        # atomic and tabulated laws look values up: exact; closed-form laws
        # may differ from the scalar libm path in the last ulp
        for d in (step, mixed_table):
            assert np.array_equal(d.sample_array(u), _reference(d, u))
        for d in (pareto, logtail):
            np.testing.assert_allclose(d.sample_array(u), _reference(d, u), rtol=1e-15)

    def test_vector_path_is_deterministic(self, pareto):
        u = montecarlo.stream(5, 5).random(10_000)
        a = pareto.sample_array(u)
        b = pareto.sample_array(u.copy())
        assert np.array_equal(a, b)

    def test_beyond_range_draw_is_inf(self, logtail):
        u = 1.0 - 2.0 ** -53
        assert reference_quantile(logtail, u) == math.inf
        assert logtail.sample_array(np.array([0.5, u])).tolist()[1] == math.inf

    def test_dkw_band_continuous(self, pareto, logtail):
        # two-sided band at level 1e-3 for 1e5 draws; fixed seed
        n = 100_000
        eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
        for j, d in enumerate((pareto, logtail)):
            u = montecarlo.stream(2026, j).random(n)
            x = np.sort(d.sample_array(u))
            fx = np.array([1.0 - d.survival_at_log(math.log(v)) for v in x])
            i = np.arange(1, n + 1)
            gap = np.maximum(np.abs(i / n - fx), np.abs((i - 1) / n - fx))
            assert float(gap.max()) < eps

    def test_dkw_band_atomic(self):
        # for a purely atomic law the sup gap sits at the atoms, where both
        # the ECDF and F jump; evaluate the two one-sided gaps there
        n = 100_000
        eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
        d = _DKW_TABLE
        u = montecarlo.stream(2026, 2).random(n)
        x = np.sort(d.sample_array(u))
        worst = 0.0
        for atom, log_x in zip(d.xs, d._logs):
            ecdf = np.searchsorted(x, atom, side="right") / n
            ecdf_left = np.searchsorted(x, atom, side="left") / n
            worst = max(worst,
                        abs(ecdf - (1.0 - d.survival_at_log(log_x))),
                        abs(ecdf_left - (1.0 - d.survival_left_at_log(log_x))))
        assert worst < eps

    def test_uniform_domain_enforced(self, pareto):
        # Generator.random draws from [0, 1): 0.0 is in, 1.0 and negatives out
        with pytest.raises(DistributionError):
            pareto.sample_array(np.array([-5e-324]))
        with pytest.raises(DistributionError):
            pareto.sample_array(np.array([1.0]))

    @pytest.mark.parametrize("law, low", [
        (lambda: ParetoTail(0.5, 3.0), 3.0), (lambda: LogTail(10.0), 10.0),
        (lambda: LogTail(), math.e), (lambda: SquareStep(), 2.0),
        (lambda: Tabulated([(1.5, 0.2, "jump"), (4.0, 1.0, "linear")]), 1.5),
        (lambda: Tabulated([(1.5, 0.0, "linear"), (4.0, 1.0, "linear")]), 1.5),
    ], ids=["pareto", "logtail", "logtail-at-e", "step", "jump_linear_table", "linear_table"])
    def test_zero_draws_the_support_minimum(self, law, low):
        # Generator.random returns 0.0 with probability 2**-53 per draw
        d = law()
        assert d.sample_array(np.array([0.5, 0.0])).tolist()[1] == low
        assert reference_quantile(d, 0.0) == low

    @pytest.mark.parametrize("law", _LOOKUP_LAWS)
    def test_tabulated_vector_is_scalar_bit_for_bit(self, request, law):
        # tabulated and atomic laws alike
        d, levels = _law_and_levels(request, law)
        u = _edge_variates(levels)
        scalar = _reference(d, u)
        assert np.isinf(scalar).any() == d.atoms_persist
        assert np.array_equal(d.sample_array(u).view(np.uint64), scalar.view(np.uint64))

    @pytest.mark.parametrize("law", _LOOKUP_LAWS)
    def test_guide_index_is_searchsorted(self, request, law):
        # a bucket table over the law's levels whose one column is the row
        # number reads back, for every draw, the row that the draw samples
        d, levels = _law_and_levels(request, law)
        u = _edge_variates(levels)
        assert np.array_equal(d._table.levels, levels)
        index = distributions._BucketTable(d._table.levels, np.arange(len(levels) + 1.0)[None])
        got = index.sample(u, lambda u, j, columns: columns[0].take(j))
        assert np.array_equal(got, np.searchsorted(levels, u))

    @pytest.mark.parametrize("law", ["flat", "crowded", "partial_table", "quarters",
                                     "pareto_table", "square_step", "partial_atoms"])
    def test_guide_table_is_bisect_per_bucket(self, request, law):
        # flat segments (repeated levels), an all-jump table, a partial table
        # (F ends below 1), levels on bucket edges j/M, the tabulated-table
        # workload's law and the step law, against the scalar construction:
        # each bucket holds the row of bisect_left(levels, j/M), and nan
        # exactly where a level splits it
        d, levels = _law_and_levels(request, law)
        m = distributions._BUCKETS
        first = [bisect.bisect_left(levels.tolist(), j / m) for j in range(m + 1)]
        split = np.array([a != b for a, b in zip(first, first[1:])])
        want = d._table.rows[:, first[:-1]]
        want[:, split] = np.nan
        buckets = d._table.buckets
        assert buckets.shape == want.shape and buckets.flags.c_contiguous
        assert not np.isnan(d._table.rows).any()
        assert np.array_equal(np.isnan(buckets).any(axis=0), split)
        assert np.array_equal(np.isnan(buckets).all(axis=0), split)
        assert np.array_equal(buckets, want, equal_nan=True)

    def test_one_block_of_the_workload_table_peaks_below_32_bytes_a_draw(self, pareto_table):
        # one column gathered at a time: the bucket numbers, the output and
        # one column buffer make 24 bytes a draw
        u = montecarlo.stream(7, 0).random(montecarlo._CHUNK)
        pareto_table.sample_array(u)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pareto_table.sample_array(u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 32 * montecarlo._CHUNK

    @pytest.mark.parametrize("bad", [-5e-324, 1.0, math.nan])
    def test_tabulated_vector_domain_enforced(self, mixed_table, bad):
        u = np.full(montecarlo._CHUNK + 3, 0.5)
        u[-1] = bad
        with pytest.raises(DistributionError):
            mixed_table.sample_array(u)

    @pytest.mark.parametrize("law", ["pareto", "logtail", "step"])
    @pytest.mark.parametrize("bad", [-5e-324, 1.0, math.nan, -0.5, 1.5])
    def test_vector_domain_enforced(self, request, law, bad):
        with pytest.raises(DistributionError):
            request.getfixturevalue(law).sample_array(np.array([0.5, bad, 0.25]))

    @pytest.mark.parametrize("law", ["pareto", "logtail", "step", "mixed_table"])
    def test_vector_leaves_input_unchanged(self, request, law):
        u = montecarlo.stream(5, 1).random(1000)
        before = u.copy()
        request.getfixturevalue(law).sample_array(u)
        assert np.array_equal(u.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("alpha, scale", [(0.5, 3.0), (0.3, 0.25), (0.9, 1e10)])
    def test_pareto_vector_is_closed_form_bit_for_bit(self, alpha, scale):
        draws = montecarlo.stream(5, 2).random(1000)
        u = np.concatenate([[5e-324, 0.5, 1.0 - 2.0 ** -53], draws])
        expected = scale * (1.0 - u) ** (-1.0 / alpha)
        assert np.array_equal(ParetoTail(alpha, scale).sample_array(u).view(np.uint64),
                              expected.view(np.uint64))


def _assert_projection(d, z):
    """The defining properties of ``log_fixed_point`` at the level z."""
    fixed = d.log_fixed_point(z)
    bottom = d.log_fixed_point(-math.inf)  # the support minimum
    assert d.log_fixed_point(fixed) == fixed
    if z < bottom:
        assert fixed == bottom
    else:
        # at or below z, with no mass in between
        assert fixed <= z
        assert d.survival_at_log(fixed) == d.survival_at_log(z)


_STEP = SquareStep()


class TestOrderProperties:
    @given(x=st.floats(-10.0, 25.0), y=st.floats(-10.0, 25.0))
    @settings(max_examples=200, deadline=None)
    def test_cdf_monotone_step(self, x, y):
        d = SquareStep(max_index=8)
        lo, hi = sorted((x, y))
        assert d.survival_at_log(lo) >= d.survival_at_log(hi)
        assert d.survival_left_at_log(lo) >= d.survival_left_at_log(hi)

    @given(z=st.floats(-50.0, 5000.0), alpha=st.sampled_from([0.3, 0.5]),
           scale=st.sampled_from([1.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_galois_pareto(self, z, alpha, scale):
        # exact for the continuous families, the log tail as much as Pareto
        _assert_projection(ParetoTail(alpha, scale), z)
        _assert_projection(LogTail(threshold=scale + math.e), z)

    @given(z=st.one_of(st.floats(-10.0, 12000.0), st.sampled_from(_STEP._logs)))
    @settings(max_examples=300, deadline=None)
    def test_galois_on_step_atoms(self, z):
        _assert_projection(_STEP, z)
        assert _STEP.log_fixed_point(z) in _STEP._logs

    def test_cdf_left_below_cdf_iff_atom(self, step, pareto, mixed_table):
        assert step.survival_left_at_log(LN2) > step.survival_at_log(LN2)
        assert mixed_table.survival_left_at_log(0.0) > mixed_table.survival_at_log(0.0)
        for x in [3.0, 100.0, 1e5]:
            z = math.log(x)
            assert step.survival_left_at_log(z) == step.survival_at_log(z)
            assert pareto.survival_left_at_log(z) == pareto.survival_at_log(z)
        z = math.log(2.0)
        assert mixed_table.survival_left_at_log(z) == mixed_table.survival_at_log(z)

    def test_quantile_of_cdf_at_continuity_points(self, pareto, logtail):
        for d, xs in ((pareto, [1.0, 2.0, 31.4, 1e6]), (logtail, [3.0, 10.0, 1e5])):
            for x in xs:
                assert d.log_fixed_point(math.log(x)) == math.log(x)


class TestLogTwins:
    """The log-space contract inside and beyond the float range."""

    def test_cdf_at_log_matches_float_path(self, step, pareto, logtail, mixed_table):
        # against each law's CDF evaluated in floats from its closed form
        atoms = step_atoms_exact(6)
        closed = [
            (step, lambda x: float(scan_cdf(atoms, Fraction(x)))),
            (pareto, lambda x: 1.0 - x ** -0.5 if x >= 1.0 else 0.0),
            (logtail, lambda x: 1.0 - 1.0 / math.log(x) if x >= math.e else 0.0),
            (mixed_table, lambda x: (min(0.2 + 0.1 * (x - 1.0), 0.5) if x < 8.0
                                     else min(0.75 + (x - 8.0) / 32.0, 1.0))),
        ]
        for d, cdf in closed:
            for x in [1.0, 2.0, 3.7, 6.0, 12.0, 16.0, 512.0, 1e5, 1e8]:
                assert 1.0 - d.survival_at_log(math.log(x)) == pytest.approx(cdf(x), abs=1e-15)

    def test_survival_twins(self, step, pareto, logtail):
        atoms = step_atoms_exact(6)
        for x in [2, 16, 10 ** 4]:
            z = _log(x)
            assert step.survival_at_log(z) == pytest.approx(
                float(1 - scan_cdf(atoms, x)), abs=1e-15)
            assert step.survival_left_at_log(z) == pytest.approx(
                float(1 - scan_cdf(atoms, x - Fraction(1, 2))), abs=1e-15)
            for d in (pareto, logtail):
                assert d.survival_at_log(z) == d.survival_left_at_log(z)
            assert pareto.survival_at_log(z) == pytest.approx(x ** -0.5, rel=1e-14)
            expected = 1.0 / math.log(x) if x >= math.e else 1.0
            assert logtail.survival_at_log(z) == pytest.approx(expected, rel=1e-14)

    def test_pareto_survival_precise_in_far_tail(self, pareto):
        # 1 - cdf cancels catastrophically out here; the closed form must not
        log_x = 100.0
        assert pareto.survival_at_log(log_x) == pytest.approx(
            math.exp(-50.0), rel=1e-12)

    def test_log_moment_matches_float_range(self, step, pareto, logtail):
        atoms = step_atoms_exact(6)
        for x in [4, 16, 10 ** 5]:
            z = _log(x)
            exact = sum((loc * m for loc, m in atoms if loc <= x), Fraction(0))
            assert step.log_truncated_moment(z) == pytest.approx(math.log(exact), rel=1e-12)
            assert pareto.log_truncated_moment(z) == pytest.approx(
                math.log(math.sqrt(x) - 1.0), rel=1e-12)
            quad, _ = integrate.quad(lambda v: 1.0 / math.log(v) ** 2, math.e, x, limit=200)
            assert logtail.log_truncated_moment(z) == pytest.approx(math.log(quad), rel=1e-9)

    def test_step_log_moment_beyond_float_range_vs_mpmath(self, step):
        mp = pytest.importorskip("mpmath")
        mp.mp.prec = 4000
        for kmax in (32, 37, 50):
            exact = mp.mpf(0)
            for k in range(1, kmax + 1):
                mass = mp.mpf(1) / (k * k) - mp.mpf(1) / ((k + 1) * (k + 1))
                exact += mass * mp.power(2, k * k)
            got = step.log_truncated_moment((kmax * kmax) * LN2)
            assert got == pytest.approx(float(mp.log(exact)), rel=1e-12)

    def test_pareto_log_moment_huge(self, pareto):
        # closed form in log space: moment(t) = sqrt(t) - 1 for alpha = 1/2
        log_t = 4000.0
        assert pareto.log_truncated_moment(log_t) == pytest.approx(2000.0, rel=1e-12)

    def test_fixed_point_probes(self, step, pareto, logtail):
        assert step.log_fixed_point(169 * LN2) == 169 * LN2
        assert step.log_fixed_point(1369 * LN2) == 1369 * LN2
        assert step.log_fixed_point(math.log(3.0)) == LN2  # 3 is no atom
        assert pareto.log_fixed_point(math.log(2.0)) == math.log(2.0)
        assert pareto.log_fixed_point(math.log(0.5)) == 0.0  # below the scale
        assert logtail.log_fixed_point(math.log(5.0)) == math.log(5.0)


class TestConstruction:
    def test_step_atoms_beyond_float_range_are_inf(self, step):
        # 2**1024 is no float: exp(1024 ln 2) rounds to a finite float below
        # it, so the k = 32 atom stores inf, as every atom beyond it does
        assert step.xs[30] == 2.0 ** 961
        assert step.xs[31] == math.inf
        assert step._logs[31] == 1024 * LN2
        # a threshold on atom 31 compares as that atom; on atom 32 it stays
        # exp(log t), the finite float that 1024 ln 2 rounds to
        assert step.float_at_log(step._logs[30]) == 2.0 ** 961 != math.exp(961 * LN2)
        assert step.float_at_log(step._logs[31]) == math.exp(1024 * LN2) < math.inf
        # the levels in (1 - 1/32**2, 1 - 1/33**2] draw it
        assert step.sample_array(np.array([1.0 - 1.0 / 32.5 ** 2])).tolist() == [math.inf]

    def test_parameter_domains(self):
        with pytest.raises(DistributionError):
            ParetoTail(alpha=1.5)
        with pytest.raises(DistributionError):
            ParetoTail(alpha=0.5, scale=-1.0)
        with pytest.raises(DistributionError):
            LogTail(threshold=2.0)
        with pytest.raises(DistributionError):
            SquareStep(max_index=1)

    def test_grid_validation_passes(self, step, pareto, logtail, mixed_table):
        # survival is nonincreasing, within [0, 1] and at most its left limit on a grid
        zs = np.log(np.geomspace(0.5, 1e8, 60))
        for d in (step, pareto, logtail, mixed_table):
            values = [d.survival_at_log(z) for z in zs]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
            assert all(d.survival_left_at_log(z) >= v - 1e-15 for z, v in zip(zs, values))

    def test_atoms_persist(self, step, pareto, logtail, mixed_table, partial_table, pm):
        # a table covering less than mass 1 has atoms beyond its last row
        assert step.atoms_persist and partial_table.atoms_persist
        assert not any(d.atoms_persist for d in (pareto, logtail, mixed_table, pm))
