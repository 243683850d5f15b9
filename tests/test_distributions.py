import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from heavytrim.distributions import (Atom, AtomicStep, DistributionError, _ei,
                                     LogTail, ParetoTail, QuantileRangeError,
                                     Tabulated, UnboundedQuantileError,
                                     _SAMPLE_CHUNK, point_mass, square_step)

from conftest import scan_cdf, scan_quantile, step_atoms_exact

LN2 = math.log(2.0)


class TestStepCdf:
    """CDF of the built-in step law against a rational atom-scan oracle."""

    def test_value_at_first_atom(self, step):
        assert step.cdf(2.0) == 0.75

    def test_below_support(self, step):
        assert step.cdf(1.5) == 0.0
        assert step.cdf(0.0) == 0.0

    def test_matches_scan_oracle_on_grid(self, step):
        atoms = step_atoms_exact(6)
        for x in [1, 2, 3, 15, 16, 17, 511, 512, 513, 65535, 65536, 70000]:
            assert step.cdf(float(x)) == pytest.approx(float(scan_cdf(atoms, x)), rel=1e-15)

    def test_left_limits(self, step):
        assert step.cdf_left(2.0) == 0.0
        assert step.cdf_left(16.0) == 0.75
        assert step.cdf_left(3.0) == step.cdf(3.0)  # no atom at 3

    def test_left_limit_drops_exactly_the_atom(self, step):
        atoms = step_atoms_exact(4)
        for loc, mass in atoms[:4]:
            x = float(loc)
            assert step.cdf(x) - step.cdf_left(x) == pytest.approx(float(mass), rel=1e-15)


class TestParetoForms:
    def test_cdf_closed_form(self, pareto):
        assert pareto.cdf(4.0) == pytest.approx(0.5, rel=1e-15)
        assert pareto.cdf(0.5) == 0.0

    def test_quantile_inverts_survival(self, pareto):
        assert pareto.quantile(0.75) == pytest.approx(16.0, rel=1e-14)
        assert pareto.quantile(0.0) == pareto.support_min

    def test_truncated_moment_closed_form_vs_quadrature(self, pareto):
        for t in [2.0, 4.0, 16.0, 100.0]:
            expected, err = integrate.quad(lambda x: x * 0.5 * x ** -1.5, 1.0, t)
            assert err < 1e-6
            assert pareto.truncated_moment(t) == pytest.approx(expected, rel=1e-9)
        assert pareto.truncated_moment(4.0) == pytest.approx(1.0, rel=1e-12)

    def test_moment_below_support_is_zero(self, pareto):
        assert pareto.truncated_moment(0.5) == 0.0


class TestQuantiles:
    def test_step_against_scan_oracle(self, step):
        atoms = step_atoms_exact(6)
        for y in [Fraction(1, 10), Fraction(3, 4), Fraction(7, 8),
                  Fraction(8, 9), Fraction(9, 10), Fraction(35, 36)]:
            assert step.quantile(float(y)) == float(scan_quantile(atoms, y))

    def test_step_level_zero_is_support_min(self, step):
        assert step.quantile(0.0) == 2.0

    def test_step_fixed_points(self, step):
        for n in range(1, 6):
            s = 2.0 ** (n * n)
            assert step.quantile(step.cdf(s)) == s

    def test_unbounded_level_raises(self, step, pareto, logtail):
        for d in (step, pareto, logtail):
            with pytest.raises(UnboundedQuantileError):
                d.quantile(1.0)

    def test_step_level_beyond_table_raises(self):
        small = square_step(max_index=4)
        with pytest.raises(QuantileRangeError):
            small.quantile(1.0 - 1.0 / 26.0 ** 2)

    def test_step_atom_beyond_float_range_raises(self, step):
        # the level is covered by the table but the atom is not a float
        level = step.cdf_at_log(33 * 33 * LN2)
        with pytest.raises(QuantileRangeError):
            step.quantile(level)


class TestTruncatedMoments:
    def test_step_closed_form(self, step):
        # sum of (1/k^2 - 1/(k+1)^2) * 2^(k^2) over k <= 2
        assert step.truncated_moment(16.0) == pytest.approx(67.0 / 18.0, rel=1e-15)
        assert step.truncated_moment(1.0) == 0.0

    def test_step_against_fraction_oracle(self, step):
        atoms = step_atoms_exact(5)
        for t in [2, 16, 512, 65536]:
            exact = sum((loc * m for loc, m in atoms if loc <= t), Fraction(0))
            assert step.truncated_moment(float(t)) == pytest.approx(float(exact), rel=1e-14)

    def test_additive_over_atom_partition(self, step):
        atoms = step_atoms_exact(5)
        a, b = 4.0, 70000.0
        gap = sum((loc * m for loc, m in atoms if a < loc <= b), Fraction(0))
        got = step.truncated_moment(b) - step.truncated_moment(a)
        assert got == pytest.approx(float(gap), rel=1e-14)

    def test_nondecreasing(self, step, pareto, logtail, mixed_table):
        for d in (step, pareto, logtail, mixed_table):
            grid = np.geomspace(1.0, 1e6, 40)
            vals = [d.truncated_moment(float(t)) for t in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_logtail_matches_quadrature(self, logtail):
        for t in [10.0, 100.0, 1e4, 1e8]:
            expected, err = integrate.quad(
                lambda x: 1.0 / math.log(x) ** 2, math.e, t, limit=200)
            assert logtail.truncated_moment(t) == pytest.approx(expected, rel=1e-9)

    def test_logtail_atom_at_threshold(self):
        d = LogTail(threshold=10.0)
        # jump of size F(10) at the threshold contributes 10 * F(10)
        base = 10.0 * (1.0 - 1.0 / math.log(10.0))
        assert d.truncated_moment(10.0) == pytest.approx(base, rel=1e-12)
        tail, _ = integrate.quad(lambda x: 1.0 / math.log(x) ** 2, 10.0, 50.0)
        assert d.truncated_moment(50.0) == pytest.approx(base + tail, rel=1e-9)

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
        assert t.cdf(0.5) == 0.0
        assert t.cdf(1.0) == 0.2
        assert t.cdf(2.5) == pytest.approx(0.2 + 0.3 * 1.5 / 3.0)
        assert t.cdf(5.0) == 0.5          # flat before the jump at 8
        assert t.cdf(8.0) == 0.75
        assert t.cdf_left(8.0) == 0.5
        assert t.cdf(12.0) == pytest.approx(0.75 + 0.25 * 0.5)
        assert t.cdf(100.0) == 1.0

    def test_quantile_inverts(self, mixed_table):
        t = mixed_table
        assert t.quantile(0.1) == 1.0
        assert t.quantile(0.35) == pytest.approx(2.5)
        assert t.quantile(0.6) == 8.0     # inside the jump
        assert t.quantile(1.0) == 16.0

    def test_truncated_moment_vs_hand_integral(self, mixed_table):
        t = mixed_table
        # atom 1*0.2 + ramp slope 0.1 over [1,4] + atom 8*0.25 + ramp over [8,16]
        ramp1 = 0.1 * (4.0 ** 2 - 1.0) / 2.0
        ramp2 = (0.25 / 8.0) * (16.0 ** 2 - 8.0 ** 2) / 2.0
        assert t.truncated_moment(20.0) == pytest.approx(0.2 + ramp1 + 2.0 + ramp2, rel=1e-14)
        assert t.truncated_moment(2.0) == pytest.approx(0.2 + 0.1 * (4.0 - 1.0) / 2.0, rel=1e-14)

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

    def test_point_mass(self, pm):
        assert pm.cdf(1.0) == 1.0
        assert pm.cdf_left(1.0) == 0.0
        assert pm.quantile(0.5) == 1.0
        assert pm.truncated_moment(1.0) == 1.0
        assert pm.sample(0.99) == 1.0


class TestSampling:
    def test_scalar_examples(self, step, pareto):
        assert step.sample(0.5) == 2.0
        assert pareto.sample(0.75) == pytest.approx(16.0, rel=1e-14)

    def test_sample_is_quantile(self, pareto, logtail, mixed_table):
        cases = [(pareto, [0.01, 0.3, 0.5, 0.77, 0.9, 0.999]),
                 (logtail, [0.01, 0.3, 0.5, 0.77, 0.9, 0.99]),
                 (mixed_table, [0.01, 0.3, 0.5, 0.77, 0.9, 0.999])]
        for d, us in cases:
            for u in us:
                assert d.sample(u) == d.quantile(u)

    def test_vector_matches_scalar(self, step, pareto, logtail, mixed_table):
        rng = np.random.default_rng(7)
        u = rng.random(4096)
        # atomic and tabulated laws look values up: exact; closed-form laws
        # may differ from the scalar libm path in the last ulp
        for d in (step, mixed_table):
            assert np.array_equal(d.sample_array(u), np.array([d.sample(float(v)) for v in u]))
        for d in (pareto, logtail):
            vec = d.sample_array(u)
            scalar = np.array([d.sample(float(v)) for v in u])
            np.testing.assert_allclose(vec, scalar, rtol=1e-15)

    def test_vector_path_is_deterministic(self, pareto):
        u = np.random.Generator(np.random.Philox(key=[5, 5])).random(10_000)
        a = pareto.sample_array(u)
        b = pareto.sample_array(u.copy())
        assert np.array_equal(a, b)

    def test_beyond_range_draw_is_inf(self, logtail):
        u = 1.0 - 2.0 ** -53
        assert logtail.sample(u) == math.inf
        assert logtail.sample_array(np.array([0.5, u])).tolist()[1] == math.inf

    def test_dkw_band_continuous(self, pareto, logtail):
        # two-sided band at level 1e-3 for 1e5 draws; fixed seed
        n = 100_000
        eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
        for j, d in enumerate((pareto, logtail)):
            u = np.random.Generator(np.random.Philox(key=[2026, j])).random(n)
            x = np.sort(d.sample_array(u))
            fx = np.array([d.cdf(float(v)) for v in x])
            i = np.arange(1, n + 1)
            gap = np.maximum(np.abs(i / n - fx), np.abs((i - 1) / n - fx))
            assert float(gap.max()) < eps

    def test_dkw_band_atomic(self):
        # for a purely atomic law the sup gap sits at the atoms, where both
        # the ECDF and F jump; evaluate the two one-sided gaps there
        n = 100_000
        eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
        d = AtomicStep([(2.0 ** (k * k), 1.0 / k ** 2 - 1.0 / (k + 1) ** 2)
                        for k in range(1, 10)] + [(2.0 ** 121, 1.0 / 121.0)])
        u = np.random.Generator(np.random.Philox(key=[2026, 2])).random(n)
        x = np.sort(d.sample_array(u))
        worst = 0.0
        for a in d.atoms:
            ecdf = np.searchsorted(x, a.x, side="right") / n
            ecdf_left = np.searchsorted(x, a.x, side="left") / n
            worst = max(worst,
                        abs(ecdf - d.cdf(a.x)),
                        abs(ecdf_left - d.cdf_left(a.x)))
        assert worst < eps

    def test_uniform_domain_enforced(self, pareto):
        with pytest.raises(DistributionError):
            pareto.sample(0.0)
        with pytest.raises(DistributionError):
            pareto.sample(1.0)

    @pytest.mark.parametrize("law", ["mixed_table", "pm", "pareto_table", "partial_table"])
    def test_tabulated_vector_is_scalar_bit_for_bit(self, request, law):
        d = request.getfixturevalue(law)
        # every level, its neighbours, and more than two chunks of draws
        edges = [v for f in d.fs for v in (math.nextafter(f, 0.0), f, math.nextafter(f, 1.0))
                 if 0.0 < v < 1.0]
        draws = np.random.Generator(np.random.Philox(key=[5, 0])).random(3 * _SAMPLE_CHUNK + 5)
        u = np.concatenate([edges, [5e-324, 1.0 - 2.0 ** -53], draws])
        scalar = np.array([d.sample(float(v)) for v in u])
        assert np.isinf(scalar).any() == (d.total_mass < 1.0)
        assert np.array_equal(d.sample_array(u).view(np.uint64), scalar.view(np.uint64))

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan])
    def test_tabulated_vector_domain_enforced(self, mixed_table, bad):
        u = np.full(_SAMPLE_CHUNK + 3, 0.5)
        u[-1] = bad
        with pytest.raises(DistributionError):
            mixed_table.sample_array(u)


class TestOrderProperties:
    @given(x=st.floats(0.0, 1e9), y=st.floats(0.0, 1e9))
    @settings(max_examples=200, deadline=None)
    def test_cdf_monotone_step(self, x, y):
        d = square_step(max_index=8)
        lo, hi = sorted((x, y))
        assert d.cdf(lo) <= d.cdf(hi)

    @given(y=st.floats(0.001, 0.997))
    @settings(max_examples=200, deadline=None)
    def test_galois_pareto(self, y):
        # exact in the reals; floats may round the boundary by an ulp
        d = ParetoTail(0.5, 1.0)
        q = d.quantile(y)
        assert d.cdf(q) >= y - 1e-12
        below = q * (1.0 - 1e-9)
        if below < q:
            assert d.cdf(below) < y or below < d.support_min

    def test_galois_on_step_atoms(self, step):
        atoms = step_atoms_exact(5)
        levels = [float(scan_cdf(atoms, loc)) for loc, _ in atoms]
        for y in levels:
            q = step.quantile(y)
            for loc, _ in atoms:
                x = float(loc)
                assert (step.cdf(x) >= y) == (x >= q)

    def test_cdf_left_below_cdf_iff_atom(self, step, pareto, mixed_table):
        assert step.cdf_left(2.0) < step.cdf(2.0)
        assert mixed_table.cdf_left(8.0) < mixed_table.cdf(8.0)
        for x in [3.0, 100.0, 1e5]:
            assert step.cdf_left(x) == step.cdf(x)
            assert pareto.cdf_left(x) == pareto.cdf(x)
        assert mixed_table.cdf_left(2.0) == mixed_table.cdf(2.0)

    def test_quantile_of_cdf_at_continuity_points(self, pareto, logtail):
        for d, xs in ((pareto, [1.0, 2.0, 31.4, 1e6]), (logtail, [3.0, 10.0, 1e5])):
            for x in xs:
                assert d.quantile(d.cdf(x)) == pytest.approx(x, rel=1e-12)


class TestLogTwins:
    def test_cdf_at_log_matches_float_path(self, step, pareto, logtail, mixed_table):
        for d in (step, pareto, logtail, mixed_table):
            for x in [1.0, 2.0, 3.7, 16.0, 512.0, 1e5, 1e8]:
                assert d.cdf_at_log(math.log(x)) == pytest.approx(d.cdf(x), abs=1e-15)

    def test_survival_twins(self, step, pareto, logtail):
        for d in (step, pareto, logtail):
            for x in [2.0, 16.0, 1e4]:
                assert d.survival_at_log(math.log(x)) == pytest.approx(
                    1.0 - d.cdf(x), abs=1e-12)
                assert d.survival_left_at_log(math.log(x)) == pytest.approx(
                    1.0 - d.cdf_left(x), abs=1e-12)

    def test_pareto_survival_precise_in_far_tail(self, pareto):
        # 1 - cdf cancels catastrophically out here; the closed form must not
        log_x = 100.0
        assert pareto.survival_at_log(log_x) == pytest.approx(
            math.exp(-50.0), rel=1e-12)

    def test_log_moment_matches_float_range(self, step, pareto, logtail):
        for d in (step, pareto, logtail):
            for x in [4.0, 16.0, 1e5]:
                m = d.truncated_moment(x)
                assert d.log_truncated_moment(math.log(x)) == pytest.approx(
                    math.log(m), rel=1e-12)

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
        assert step.is_quantile_fixed_point(169 * LN2)
        assert step.is_quantile_fixed_point(1369 * LN2)
        assert not step.is_quantile_fixed_point(math.log(3.0))
        assert pareto.is_quantile_fixed_point(math.log(2.0))
        assert not pareto.is_quantile_fixed_point(math.log(0.5))
        assert logtail.is_quantile_fixed_point(math.log(5.0))


class TestInfiniteMeanHeuristic:
    def test_heavy_laws_flagged_unbounded(self, step, pareto, logtail):
        assert step.has_unbounded_moment()
        assert pareto.has_unbounded_moment()
        assert logtail.has_unbounded_moment()

    def test_finite_mean_laws_flagged_bounded(self, pm, mixed_table):
        assert not pm.has_unbounded_moment()
        assert not mixed_table.has_unbounded_moment()


class TestConstruction:
    def test_atom_validation(self):
        with pytest.raises(DistributionError):
            AtomicStep([])
        with pytest.raises(DistributionError):
            AtomicStep([(2.0, 0.0)])
        with pytest.raises(DistributionError):
            AtomicStep([(2.0, 0.5), (1.0, 0.1)])
        with pytest.raises(DistributionError):
            AtomicStep([(2.0, 0.9), (4.0, 0.2)])
        with pytest.raises(DistributionError):
            Atom.at_log(10.0, 0.5, x=5.0)   # inconsistent pinned location

    def test_parameter_domains(self):
        with pytest.raises(DistributionError):
            ParetoTail(alpha=1.5)
        with pytest.raises(DistributionError):
            ParetoTail(alpha=0.5, scale=-1.0)
        with pytest.raises(DistributionError):
            LogTail(threshold=2.0)
        with pytest.raises(DistributionError):
            square_step(max_index=1)

    def test_grid_validation_passes(self, step, pareto, logtail, mixed_table):
        xs = list(np.geomspace(0.5, 1e8, 60))
        for d in (step, pareto, logtail, mixed_table):
            d.validate_on_grid(xs)
