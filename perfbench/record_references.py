"""Record the artifact checksums ``verify.py`` compares runs against.

Usage, from the repository root of an unchanged tree:

    python3 perfbench/record_references.py

Runs every workload once for the default seed and for seeds 0..31 and
writes ``perfbench/references.json``.  Artifacts a run did not write are
recorded as ``null`` (absent), so a later run is never matched against
them.  Re-record only in a change that says why its outputs changed.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import verify
from run import WORK_DIR, environment, start_child
from workloads import DEFAULT_SEED, WORKLOADS, write_config

SEEDS = [DEFAULT_SEED] + list(range(32))
JOBS = 2


def record_one(root: Path, workload: str, seed: int) -> tuple[dict, str | None]:
    work = root / WORK_DIR / f"record-{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = write_config(workload, seed, work / "out", work / "config.json")
        result = start_child(root, config, work / "result.json")
        error = result["error"]["type"] if result.get("error") else None
        return verify.checksums(work / "out"), error
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    jobs = [(w, s) for w in WORKLOADS for s in SEEDS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda job: record_one(root, *job), jobs))

    refs: dict = {"_recorded": {"git_commit": environment(root)["git_commit"],
                                "seeds": f"{SEEDS[0]} and {SEEDS[1]}..{SEEDS[-1]}"}}
    for (workload, seed), (found, error) in zip(jobs, results):
        entry = refs.setdefault(workload, {"seed_free": None, "errors": {}, "seeds": {}})
        seed_free = {k: found[k] for k in verify.SEED_FREE}
        if entry["seed_free"] is None:
            entry["seed_free"] = seed_free
        elif entry["seed_free"] != seed_free:
            print(f"{workload}: seed {seed} changed a seed-free artifact", file=sys.stderr)
            return 1
        entry["seeds"][str(seed)] = {k: v for k, v in found.items() if k not in verify.SEED_FREE}
        if error:
            entry["errors"][str(seed)] = error
    verify.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {verify.REFERENCES} for {len(SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
