import math
from fractions import Fraction

import pytest

from heavytrim.distributions import (AtomicStep, LogTail, ParetoTail,
                                     Tabulated, point_mass, square_step)


@pytest.fixture(scope="session")
def step():
    return square_step()


@pytest.fixture(scope="session")
def pareto():
    return ParetoTail(alpha=0.5, scale=1.0)


@pytest.fixture(scope="session")
def logtail():
    return LogTail()


@pytest.fixture(scope="session")
def pm():
    return point_mass(1.0)


@pytest.fixture(scope="session")
def mixed_table():
    # atom at 1 (mass 0.2), linear ramp to 4 (adds 0.3), atom at 8 (0.25),
    # linear ramp to 16 (0.25): complete law with both kinds of segments
    return Tabulated([
        (1.0, 0.2, "jump"),
        (4.0, 0.5, "linear"),
        (8.0, 0.75, "jump"),
        (16.0, 1.0, "linear"),
    ])


@pytest.fixture(scope="session")
def pareto_table():
    # linear segments through (2**k, 1 - 2**(-k/2)), k = 0..59, then a jump
    # to F = 1 at 2**60: a 61-row tabulated Pareto-1/2 tail out to ~1e18
    rows = [(float(2 ** k), 1.0 - 2.0 ** (-k / 2), "linear") for k in range(60)]
    return Tabulated(rows + [(float(2 ** 60), 1.0, "jump")])


@pytest.fixture(scope="session")
def partial_table():
    # a flat linear segment on [2, 3] and mass 0.8 in all: levels above 0.8
    # lie beyond the table and draw inf
    return Tabulated([
        (1.0, 0.0, "linear"),
        (2.0, 0.3, "linear"),
        (3.0, 0.3, "linear"),
        (5.0, 0.6, "jump"),
        (9.0, 0.8, "linear"),
    ])


def step_atoms_exact(count=8):
    """Exact rational atom table of the built-in step law, for oracles."""
    return [(Fraction(2) ** (k * k), Fraction(1, k * k) - Fraction(1, (k + 1) * (k + 1)))
            for k in range(1, count + 1)]


def scan_cdf(atoms, x):
    """Brute-force CDF of an atom table: sum of masses at locations <= x."""
    return sum((m for loc, m in atoms if loc <= x), Fraction(0))


def scan_quantile(atoms, y):
    """Brute-force generalized inverse: first location whose level reaches y."""
    run = Fraction(0)
    for loc, m in atoms:
        run += m
        if run >= y:
            return loc
    raise AssertionError("level beyond table")
