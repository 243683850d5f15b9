"""The benchmark's traced child runs against this tree.

``perfbench/child.py --trace`` wraps library functions by name and probes
the exact sums at checkpoints 1e5 and 1e6; a change that renames or deletes
one of them breaks the benchmark, not heavytrim's own API.  So this runs the
child on small configs of both law families the benchmark measures (Pareto
and a tabulated table), each reaching both probes, and reads its result with
the benchmark's own ``run.layer_metrics``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench_run  # noqa: E402


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the child's result")


def _check_traced_child(tmp_path, distribution, plan):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "distribution": distribution,
        "plan": plan,
        "experiment": {"checkpoints": [1000, 10000, 100000, 1000000], "replications": 1,
                       "seed": 20260810},
        "output": {"directory": str(tmp_path / "out")},
    }))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(config),
                    str(result), "--t0", "0", "--trace"],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   check=True, timeout=120)
    out = json.loads(result.read_text(), parse_constant=_reject_constant)
    assert out["error"] is None
    spans = {s["name"] for s in out["trace"]["spans"]}
    assert {"montecarlo.run_replication", "montecarlo.simulate"} <= spans

    # a traced child times no untraced run; a stand-in lets the trace.* metrics form
    metrics, missing = perfbench_run.layer_metrics(out["trace"], untraced_run_s=0.1)
    assert missing == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)


def test_traced_child_runs(tmp_path):
    _check_traced_child(tmp_path, {"family": "pareto", "alpha": 0.5, "scale": 1.0},
                        {"rule": "standard", "epsilon": 0.05,
                         "threshold": {"rule": "power", "exponent": 0.8}})


def test_traced_child_runs_on_a_table_law(tmp_path):
    # the tabulated-table workload's law: linear segments through
    # (2**k, 1 - 2**(-k/2)), k = 0..59, then a jump to F = 1 at 2**60
    rows = [[float(2 ** k), 1.0 - 2.0 ** (-k / 2), "linear"] for k in range(60)]
    _check_traced_child(tmp_path, {"family": "tabulated",
                                   "rows": rows + [[float(2 ** 60), 1.0, "jump"]]},
                        {"rule": "default", "epsilon": 0.05})
