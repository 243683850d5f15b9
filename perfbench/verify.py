"""Correctness checks on the artifacts of one ``heavytrim run``.

Three checks, from strongest to most general:

- Checksums against ``references.json``, recorded from an unchanged tree.
  ``conditions.txt``, ``budget.csv`` and the plan columns of ``traces.csv``
  do not depend on the seed and are checked for every seed; the other
  artifacts are checked for the seeds the file lists.  A reference of
  ``null`` records an artifact the recorded run did not write: it is
  reported as an absent reference, never as a match.
- Recomputation, for any seed: replication 0's sums and counts from the
  Philox stream with sorted ``math.fsum``, the ratio columns from the sums,
  and all of ``aggregate.csv`` from ``traces.csv``.
- Determinism: the run loop requires every run of one seed to reproduce
  the first run's checksums.

The recomputation needs numpy and heavytrim and runs in its own process
(``python3 perfbench/verify.py OUT_DIR CONFIG``, printing a JSON list of
problems): the benchmark's parent process stays small, because a child's
peak RSS as ``getrusage`` reports it starts from the high-water mark of the
process that started it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

ARTIFACTS = ("conditions.txt", "budget.csv", "traces.csv", "aggregate.csv",
             "ratios.svg", "dichotomy.svg")
SEED_FREE = ("conditions.txt", "budget.csv", "plan_columns")
TRACE_COLUMNS = ["replication", "n", "S_n", "S_trimmed", "T_truncated",
                 "N_gt", "N_ge", "b_n", "t_n", "d_n",
                 "ratio_trimmed", "ratio_truncated"]
QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)
REFERENCES = Path(__file__).with_name("references.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_traces(out_dir: Path) -> list[dict[str, str]] | None:
    path = out_dir / "traces.csv"
    if not path.is_file():
        return None
    lines = path.read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def plan_columns(rows: list[dict[str, str]]) -> str:
    """Checksum of the seed-free columns n, b_n, t_n and d_n."""
    text = "".join(f"{r['n']},{r['b_n']},{r['t_n']},{r['d_n']}\n" for r in rows)
    return _sha256(text.encode())


def checksums(out_dir: Path) -> dict[str, str | None]:
    """sha256 of each artifact plus the plan columns; ``None`` when absent."""
    out: dict[str, str | None] = {}
    for name in ARTIFACTS:
        path = out_dir / name
        out[name] = _sha256(path.read_bytes()) if path.is_file() else None
    rows = read_traces(out_dir)
    out["plan_columns"] = plan_columns(rows) if rows is not None else None
    return out


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def compare(found: dict[str, str | None], references: dict, workload: str,
            seed: int) -> dict[str, str]:
    """Status per artifact: match, mismatch, missing, absent-reference,
    unexpected (written where the reference records none) or unrecorded."""
    ref = references.get(workload, {})
    expected = dict(ref.get("seed_free", {}))
    expected.update(ref.get("seeds", {}).get(str(seed), {}))
    status = {}
    for name, sha in found.items():
        if name not in expected:
            status[name] = "unrecorded"
        elif expected[name] is None:
            status[name] = "absent-reference" if sha is None else "unexpected"
        elif sha is None:
            status[name] = "missing"
        else:
            status[name] = "match" if sha == expected[name] else "mismatch"
    return status



def recompute(out_dir: Path, config: Path) -> list[str]:
    """Problems found by recomputing ``traces.csv`` and ``aggregate.csv``.

    Returns an empty list when ``traces.csv`` is absent: a run that raised
    has nothing to recompute.
    """
    import numpy as np
    from heavytrim.expcli import parse_config

    rows = read_traces(out_dir)
    if rows is None:
        return []
    cfg = parse_config(config).config
    problems = []
    if (out_dir / "traces.csv").read_text().split("\n", 1)[0].split(",") != TRACE_COLUMNS:
        problems.append("traces.csv: header differs")
        return problems
    layout = [(str(r), str(n)) for r in range(cfg.replications) for n in cfg.checkpoints]
    if [(r["replication"], r["n"]) for r in rows] != layout:
        problems.append("traces.csv: rows are not one per replication and checkpoint")
        return problems

    for r in rows:
        s_n, s_tr, t_tr, d_n = (float(r[k]) for k in ("S_n", "S_trimmed", "T_truncated", "d_n"))
        if r["ratio_trimmed"] != repr(s_tr / d_n) or r["ratio_truncated"] != repr(t_tr / d_n):
            problems.append(f"traces.csv: ratio columns differ from sums at {r['replication']},{r['n']}")
        if not int(r["N_gt"]) <= int(r["N_ge"]) <= int(r["n"]):
            problems.append(f"traces.csv: counts out of order at {r['replication']},{r['n']}")

    u = np.random.Generator(np.random.Philox(key=[cfg.seed, 0])).random(cfg.n_max)
    x = cfg.distribution.sample_array(u)
    for r, n in zip(rows, cfg.checkpoints):
        prefix = np.sort(x[:n])
        t, b = float(r["t_n"]), int(r["b_n"])
        want = {
            "S_n": repr(math.fsum(prefix.tolist())),
            "S_trimmed": repr(math.fsum(prefix[: n - b].tolist())),
            "T_truncated": repr(math.fsum(prefix[prefix <= t].tolist())),
            "N_gt": str(int(np.count_nonzero(prefix > t))),
            "N_ge": str(int(np.count_nonzero(prefix >= t))),
        }
        for key, value in want.items():
            if r[key] != value:
                problems.append(f"traces.csv: replication 0, n = {n}: {key} is {r[key]}, "
                                f"recomputed {value}")

    expected = _aggregate_text(rows, cfg)
    found = (out_dir / "aggregate.csv").read_text() if (out_dir / "aggregate.csv").is_file() else None
    if found != expected:
        problems.append("aggregate.csv: differs from the recomputation from traces.csv")
    return problems


def _aggregate_text(rows: list[dict[str, str]], cfg) -> str:
    import numpy as np

    reps, grid = cfg.replications, cfg.checkpoints
    col = lambda key: np.array([float(r[key]) for r in rows]).reshape(reps, len(grid))
    d_n = col("d_n")
    trimmed = col("ratio_trimmed")
    truncated = col("ratio_truncated")
    runmax = np.maximum.accumulate(col("S_n") / d_n, axis=1)
    count_gt = col("N_gt")
    levels = np.asarray(QUANTILES)
    header = ["n"] + [f"{tag}_q{int(round(q * 100)):02d}"
                      for tag in ("trimmed", "truncated", "untrimmed_runmax")
                      for q in QUANTILES] + ["exceedance_violations", "replications"]
    lines = [",".join(header)]
    blocks = [np.quantile(m, levels, axis=0) for m in (trimmed, truncated, runmax)]
    for j, n in enumerate(grid):
        p = cfg.plan.checkpoint(n)
        bad = int(np.count_nonzero(np.abs(p.expect_gt - count_gt[:, j]) >= p.allowance_gt))
        cells = [str(n)] + [repr(float(v)) for block in blocks for v in block[:, j]]
        lines.append(",".join(cells + [str(bad), str(reps)]))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(json.dumps(recompute(Path(sys.argv[1]), Path(sys.argv[2]))))
