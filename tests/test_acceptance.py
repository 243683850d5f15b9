"""Acceptance checks, one per criterion, each printing a pass/fail line.

The statistical criteria share one seeded experiment (100 replications of
a unit-scale Pareto tail with exponent one half, threshold rule n**0.8,
epsilon 0.05, checkpoints every half decade from 1e3 to 1e6).  Statistical
tolerances below are frozen from pilot runs, as the acceptance contract
prescribes for quantities the theory constrains only in the limit.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from heavytrim.distributions import ParetoTail, SquareStep
from heavytrim.expcli import parse_config, run
from heavytrim.montecarlo import ExperimentConfig, aggregate, simulate, trimmed_sum
from heavytrim.trimming import (PowerThreshold, SquareStepThreshold,
                                SummableFunction, check_condition, check_plan,
                                geometric_grid, plan_standard)
from oracles import (bernstein_max_tail, max_deviation_tail_exact, pareto_half_trimmed_mean,
                     rebase_summable)

CHECKPOINTS = (1000, 3162, 10000, 31623, 100000, 316228, 1000000)
SEED = 20260810
LN2 = math.log(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def demo_run():
    pareto = ParetoTail(0.5, 1.0)
    plan = plan_standard(pareto, PowerThreshold(0.8), 0.05)
    config = ExperimentConfig(plan, CHECKPOINTS, 100, SEED)
    t0 = time.perf_counter()
    traces = simulate(config)
    elapsed = time.perf_counter() - t0
    return config, traces, aggregate(config, traces), elapsed


def test_criterion_01_quantile_fixed_points():
    t0 = time.perf_counter()
    step = SquareStep()
    # each atom 2**(n*n) is a fixed point, and a level above it projects onto it
    ok = all(step.log_fixed_point(n * n * LN2) == n * n * LN2
             and step.log_fixed_point(n * n * LN2 + 0.5) == n * n * LN2
             for n in range(1, 6))
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0,
           f"five exact quantile fixed points on the step law in {elapsed:.3f}s")


def test_criterion_02_truncated_moment_oracles():
    step = SquareStep()
    worst_step = 0.0
    for n in range(1, 6):
        closed = math.fsum((1.0 / k ** 2 - 1.0 / (k + 1) ** 2) * 2.0 ** (k * k)
                           for k in range(1, n + 1))
        got = math.exp(step.log_truncated_moment(n * n * LN2))
        worst_step = max(worst_step, abs(got - closed) / closed)
    pareto = ParetoTail(0.5, 1.0)
    worst_pareto = 0.0
    for t in (2.0, 4.0, 64.0, 1e4):
        quad, _ = integrate.quad(lambda x: x * 0.5 * x ** -1.5, 1.0, t)
        worst_pareto = max(worst_pareto,
                           abs(math.exp(pareto.log_truncated_moment(math.log(t))) - quad) / quad)
    report(2, worst_step < 1e-12 and worst_pareto < 1e-9,
           f"step closed form rel err {worst_step:.2e}, "
           f"quadrature rel err {worst_pareto:.2e}")


def test_criterion_03_condition_checker_verdicts():
    t0 = time.perf_counter()
    grid = geometric_grid(1000, 10_000_000, 9)
    step_plan = plan_standard(SquareStep(), SquareStepThreshold(), 0.05)
    step_table = step_plan.table(grid)
    check_plan(step_plan, step_table)
    # tolerance frozen from pilot runs: the quantity decays like
    # n**-0.0225 and stands at 0.5407 on this grid while trending down;
    # the sabotaged rule lands three orders of magnitude above 1
    good = check_condition(step_plan, "standard-limit", step_table, tolerance=0.75)
    sabotaged_plan = plan_standard(ParetoTail(0.5, 1.0), PowerThreshold(2.5), 0.05)
    bad = check_condition(sabotaged_plan, "standard-limit", sabotaged_plan.table(grid))
    elapsed = time.perf_counter() - t0
    ok = (good.verdict == "satisfied" and bad.verdict != "satisfied"
          and elapsed < 1.0)
    report(3, ok, f"step rule {good.verdict} (final {good.final_value:.3f}, "
                  f"slope {good.trend:.4f}); sabotage {bad.verdict} "
                  f"(final {bad.final_value:.1f}) in {elapsed:.3f}s")


def test_criterion_04_rebased_summable_exhaustive():
    t0 = time.perf_counter()
    base = SummableFunction.power(2)
    w = rebase_summable(base, math.e, 2.0)
    m = np.arange(8, 1_000_001)
    # every integer m maps to one (floor log2 m, floor ln m) pair; compare
    # the logs of both sides once per distinct pair
    pairs = np.unique(np.stack([np.floor(np.log2(m)), np.floor(np.log(m))], axis=1), axis=0)
    ok = all(w.log_value(int(k2)) <= base.log_value(int(ke)) for k2, ke in pairs)
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 10.0,
           f"window inequality on every integer in [8, 1e6] in {elapsed:.2f}s")


def test_criterion_05_bernstein_dominance():
    t0 = time.perf_counter()
    wins = 0
    cases = 0
    for p in (Fraction(1, 10), Fraction(1, 2)):
        for n in (10, 20):
            for dev in (1, Fraction(3, 2), 2, 3, 4):
                exact = max_deviation_tail_exact((0, 1), (1 - p, p), n, dev)
                bound = bernstein_max_tail(
                    deviation=float(dev),
                    variance=n * float(p) * (1.0 - float(p)),
                    amplitude=float(max(p, 1 - p)))
                cases += 1
                if bound.raw > float(exact):
                    wins += 1
    elapsed = time.perf_counter() - t0
    report(5, wins == cases == 20 and elapsed < 10.0,
           f"bound strictly above the exact maximal-deviation probability "
           f"in {wins}/{cases} cases in {elapsed:.2f}s")


def test_criterion_06_selection_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(987654321)
    exact = 0
    total = 1000
    for _ in range(total):
        n = int(rng.integers(1, 10_001))
        b = int(rng.integers(0, n + 1))
        kind = rng.integers(0, 3)
        if kind == 0:
            x = (1.0 - rng.random(n)) ** -2.0
        elif kind == 1:
            x = rng.random(n) * 1e9
        else:
            x = np.repeat(rng.random(n // 5 + 1), 5)[:n]
        if trimmed_sum(x, b) == math.fsum(np.sort(x)[: n - b].tolist()):
            exact += 1
    elapsed = time.perf_counter() - t0
    report(6, exact == total and elapsed < 30.0,
           f"selection equals the full-sort reference in {exact}/{total} "
           f"instances in {elapsed:.1f}s")


def test_criterion_07_strong_law_demonstration(demo_run):
    config, traces, agg, elapsed = demo_run
    idx = [CHECKPOINTS.index(n) for n in (1000, 10_000, 100_000)]
    ratios = np.array([[r.ratio_trimmed for r in t.rows] for t in traces])
    medians = np.median(np.abs(ratios[:, idx] - 1.0), axis=0)
    monotone = all(b <= a for a, b in zip(medians, medians[1:]))
    # frozen from pilot runs (observed 0.378 at n = 1e5); the trim-count
    # formula's slack keeps the ratio near 0.62 at this n, so the
    # demonstration asserts the decay and the calibrated band
    final_ok = medians[-1] < 0.45
    ok = monotone and final_ok and elapsed < 300.0
    report(7, ok, "median |trimmed/scale - 1| at (1e3, 1e4, 1e5) = "
                  f"({medians[0]:.3f}, {medians[1]:.3f}, {medians[2]:.3f}), "
                  f"run took {elapsed:.1f}s")


def test_criterion_08_exceedance_concentration(demo_run):
    config, traces, agg, _ = demo_run
    j = CHECKPOINTS.index(100_000)
    violations = agg.exceedance_violations[j]
    point = config.plan.checkpoint(100_000)
    bound = bernstein_max_tail(
        deviation=point.allowance_gt,
        variance=point.expect_gt,
        amplitude=1.0)
    consistent = bound.raw * len(traces) < 1e-2
    report(8, violations == 0 and consistent,
           f"count deviations beyond the allowance in 0/"
           f"{len(traces)} paths at n = 1e5; budget bound 1e{bound.log10:.1f}")


def test_criterion_09_dichotomy_contrast(demo_run):
    config, traces, agg, _ = demo_run
    scale = np.array([p.scale for p in config.points])
    raw = np.array([[r.untrimmed for r in t.rows] for t in traces]) / scale
    growing = int(np.sum(raw.max(axis=1) / raw[:, 0] >= 10.0))
    final_trimmed = [t.rows[-1].ratio_trimmed for t in traces]
    banded = all(0.5 <= v <= 1.5 for v in final_trimmed)
    report(9, growing >= 80 and banded,
           f"raw running max grew tenfold on {growing}/100 paths by n = 1e6 "
           f"while the trimmed ratio stayed in [0.5, 1.5] on all of them "
           f"(span [{min(final_trimmed):.3f}, {max(final_trimmed):.3f}])")


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = {
        "distribution": {"family": "pareto", "alpha": 0.5, "scale": 1.0},
        "plan": {"rule": "standard", "epsilon": 0.05,
                 "threshold": {"rule": "power", "exponent": 0.8}},
        "experiment": {"checkpoints": [1000, 3162, 10000, 31623, 100000],
                       "replications": 100, "seed": SEED},
        "conditions": {"grid": list(geometric_grid(1000, 10_000_000, 9))},
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(cfg))
    digests = []
    for tag in ("a", "b"):
        spec = parse_config(path, out_dir=tmp_path / tag)
        run(spec)
        digests.append({
            name: hashlib.sha256((tmp_path / tag / name).read_bytes()).hexdigest()
            for name in ("traces.csv", "aggregate.csv", "budget.csv",
                         "conditions.txt", "ratios.svg", "dichotomy.svg")})
    report(10, digests[0] == digests[1],
           "two runs of the demo config emit byte-identical artifacts")


def test_pareto_half_trimmed_mean_is_the_order_statistic_sum():
    for n in range(3, 25):
        for b in range(2, n + 1):
            exact = sum(Fraction(n * (n - 1), (k - 1) * (k - 2)) for k in range(b + 1, n + 1))
            assert pareto_half_trimmed_mean(n, b) == exact


def _controlled_mean(config, traces, j: int) -> tuple[float, float, float]:
    """The trimmed ratio's mean at checkpoint j, controlled by the two trace
    statistics of known mean (``ratio_truncated`` has mean 1 and ``N_gt``
    has mean ``expect_gt``): the intercept of the least-squares fit, its SE
    and the variance cut against the plain mean."""
    p = config.points[j]
    rows = [t.rows[j] for t in traces]
    y = np.array([r.ratio_trimmed for r in rows])
    x = np.column_stack([np.ones(len(rows)), [r.ratio_truncated - 1.0 for r in rows],
                         [r.count_gt - p.expect_gt for r in rows]])
    coef, rss, *_ = np.linalg.lstsq(x, y, rcond=None)
    s2 = rss[0] / (len(y) - x.shape[1])
    var = s2 * np.linalg.inv(x.T @ x)[0, 0]
    return coef[0], math.sqrt(var), np.var(y, ddof=1) / len(y) / var


def test_criterion_11_trimmed_ratio_mean_calibrated(demo_run):
    config, traces, _, _ = demo_run
    zs, cuts = [], []
    for j, p in enumerate(config.points):
        mean, se, cut = _controlled_mean(config, traces, j)
        exact = float(pareto_half_trimmed_mean(p.n, p.trim))
        zs.append((mean - exact / p.scale) / se)
        cuts.append(cut)
    # power: a d(n) 0.2 % high in the oracle must show at 1e6
    z_off = (mean - exact / (1.002 * p.scale)) / se
    report(11, all(abs(z) < 4 for z in zs) and abs(z_off) > 4,
           f"controlled z of the mean trimmed ratio against its exact mean: "
           f"{', '.join(f'{z:+.2f}' for z in zs)}; variance cut {cuts[0]:.1f}x at 1e3 "
           f"and {cuts[-1]:.0f}x at 1e6; z = {z_off:+.2f} with d(n) 0.2 % high")
