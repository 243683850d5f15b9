"""The benchmark's traced child runs against this tree.

``perfbench/child.py --trace`` wraps library functions by name; a change
that renames or deletes one of them breaks the benchmark, not heavytrim's
own API, so this runs the child on a tiny config and reads its result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_runs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "distribution": {"family": "pareto", "alpha": 0.5, "scale": 1.0},
        "plan": {"rule": "standard", "epsilon": 0.05,
                 "threshold": {"rule": "power", "exponent": 0.8}},
        "experiment": {"checkpoints": [1000, 10000], "replications": 1, "seed": 20260810},
        "output": {"directory": str(tmp_path / "out")},
    }))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(config),
                    str(result), "--t0", "0", "--trace"],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   check=True, timeout=120)
    out = json.loads(result.read_text())
    assert out["error"] is None
    spans = {s["name"] for s in out["trace"]["spans"]}
    assert {"montecarlo.run_replication", "montecarlo.simulate"} <= spans
