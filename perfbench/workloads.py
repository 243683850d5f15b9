"""The benchmark's workloads: each one is a generated ``heavytrim run`` config.

The program sees only the config file written here; the workload seed is
the config's ``experiment.seed``.  Replication counts set how much work one
run does and are chosen so a run takes a few seconds on a small machine.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 20260810

HALF_DECADES = [1000, 3162, 10000, 31623, 100000, 316228, 1000000]
DECADES = [1000, 10000, 100000, 1000000]


def _geometric(lo: float, hi: float, points: int) -> list[int]:
    """Strictly increasing integers, geometrically spaced from lo to hi."""
    ratio = (hi / lo) ** (1.0 / (points - 1))
    out: list[int] = []
    for i in range(points):
        n = int(round(lo * ratio ** i))
        if out and n <= out[-1]:
            n = out[-1] + 1
        out.append(n)
    return out


def _pareto_demo() -> dict:
    return {
        "distribution": {"family": "pareto", "alpha": 0.5, "scale": 1.0},
        "plan": {"rule": "standard", "epsilon": 0.05,
                 "threshold": {"rule": "power", "exponent": 0.8}},
        "experiment": {"checkpoints": HALF_DECADES, "replications": 4},
        "conditions": {"grid": _geometric(1e3, 1e7, 9)},
    }


def _tabulated_table() -> dict:
    # linear segments through (2**k, 1 - 2**(-k/2)), k = 0..59, then a jump
    # to F = 1 at 2**60: a Pareto-1/2 tail out to ~1e18
    rows = [[float(2 ** k), 1.0 - 2.0 ** (-k / 2), "linear"] for k in range(60)]
    rows.append([float(2 ** 60), 1.0, "jump"])
    return {
        "distribution": {"family": "tabulated", "rows": rows},
        "plan": {"rule": "default", "epsilon": 0.05},
        "experiment": {"checkpoints": DECADES, "replications": 2},
    }


def _step_lattice() -> dict:
    return {
        "distribution": {"family": "square-step", "max-index": 128},
        "plan": {"rule": "standard", "epsilon": 0.05,
                 "threshold": {"rule": "square-step"}},
        "experiment": {"checkpoints": HALF_DECADES, "replications": 4},
        "conditions": {"grid": _geometric(1e3, 1e9, 2000)},
    }


WORKLOADS = {
    "pareto-demo": _pareto_demo,
    "tabulated-table": _tabulated_table,
    "step-lattice": _step_lattice,
}


def make_config(workload: str, seed: int, out_dir: Path) -> dict:
    """The config of one workload, with its seed and output directory."""
    config = WORKLOADS[workload]()
    config["experiment"]["seed"] = seed
    config["output"] = {"directory": str(out_dir)}
    return config


def write_config(workload: str, seed: int, out_dir: Path, path: Path) -> Path:
    path.write_text(json.dumps(make_config(workload, seed, out_dir), indent=1) + "\n")
    return path
