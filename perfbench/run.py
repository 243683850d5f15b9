"""The heavytrim benchmark: one workload as a closed loop of ``heavytrim run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload pareto-demo [--seed N] [--seconds S] [--trace 0|1]

Each run is one ``heavytrim.expcli.run`` of the workload's generated config,
in a fresh child process (``child.py``) with ``HEAVYTRIM_WORKERS=1``.  The
next run starts when the previous one has ended, until ``--seconds`` have
passed.  Every run's artifacts are checked (``verify.py``); a run that
raised, or whose artifacts fail a check, counts as failed and adds nothing
to ``run_s`` or ``peak_rss_mb``.

With ``--trace 1`` one traced run follows the loop: spans around calls into
``distributions``, ``trimming``, ``bounds``, ``montecarlo`` and ``expcli``
give the per-layer metrics, and the traced total minus the loop's median
``run_s`` is the tracing overhead.

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0
means the benchmark ran (runs may still have failed); 2 means it could not
run, for instance outside a source checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import verify
from tracing import descendants, self_times
from workloads import DEFAULT_SEED, WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"


# --------------------------------------------------------------------------
# summaries
# --------------------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median, count, and the highest whole percentile that has at least ten
    samples above it (nearest-rank); ``percentile`` is None below 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if n else None, "count": n,
           "percentile": None, "percentile_value": None}
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            out["percentile"], out["percentile_value"] = p, ordered[rank - 1]
            break
    return out


def tally(runs: list[dict]) -> dict:
    """Failure accounting over run records.

    A run failed when it raised (``error``) or its artifacts failed a check
    (``problems``).  Failed runs add to ``failed`` only: their run time and
    peak RSS are left out, so a run that used to crash early cannot make a
    fixed program look slower.  Set-up time counts whenever set-up finished.
    """
    failed = [r for r in runs if r.get("error") or r.get("problems")]
    ok = [r for r in runs if r not in failed]
    return {
        "attempted": len(runs),
        "failed": len(failed),
        "errors": Counter(r["error"]["type"] for r in failed if r.get("error")),
        "run_s": [r["run_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "setup_s": [r["setup_s"] for r in runs if r.get("setup_s") is not None],
    }


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HEAVYTRIM_WORKERS"] = "1"
    return env


def start_child(root: Path, config: Path, result: Path, *, trace=False,
                setup_only=False) -> dict:
    """Run one child to completion and return its result record."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(result)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=child_env(root),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": {"type": "Timeout", "stage": "child",
                          "message": f"child ran over {CHILD_TIMEOUT_S} s"}}
    if not result.is_file():
        return {"error": {"type": "ChildCrashed", "stage": "child",
                          "message": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}}
    return json.loads(result.read_text())


# --------------------------------------------------------------------------
# the loop
# --------------------------------------------------------------------------

def recompute(root: Path, out_dir: Path, config: Path) -> list[str]:
    """Run ``verify.py``'s recomputation in its own process."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "verify.py"), str(out_dir), str(config)],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"recomputation ran over {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0:
        return [f"recomputation raised: {proc.stderr.strip().splitlines()[-1:]}"]
    return json.loads(proc.stdout)


def check_run(record: dict, root: Path, out_dir: Path, config: Path, workload: str,
              seed: int, references: dict, first: dict | None) -> None:
    """Fill ``record["status"]`` and ``record["problems"]`` for one run.

    The first run that did not raise is recomputed; later runs must
    reproduce its checksums.
    """
    found = verify.checksums(out_dir)
    status = verify.compare(found, references, workload, seed)
    raised = bool(record.get("error"))
    problems = [f"{name}: {s}" for name, s in status.items()
                if s == "mismatch" or (s == "missing" and not raised)]
    if first is not None:
        problems += [f"{name}: differs from the first run of this seed"
                     for name, sha in found.items()
                     if sha is not None and first.get(name) not in (None, sha)]
    elif not raised:
        problems += recompute(root, out_dir, config)
    record.update(checksums=found, status=status, problems=problems)


def measure(root: Path, workload: str, seed: int, seconds: float, work: Path,
            trace: bool) -> dict:
    out_dir = work / "out"
    config = write_config(workload, seed, out_dir, work / "config.json")
    result = work / "result.json"
    references = verify.load_references()

    # warm-up: byte-compile and fill the file cache, which users do not pay per run
    start_child(root, config, result, setup_only=True)
    setup_only = [start_child(root, config, result, setup_only=True) for _ in range(SETUP_RUNS)]

    runs: list[dict] = []
    first = None
    deadline = time.monotonic() + seconds
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        shutil.rmtree(out_dir, ignore_errors=True)
        record = start_child(root, config, result)
        check_run(record, root, out_dir, config, workload, seed, references, first)
        if first is None and not record["error"]:
            first = record["checksums"]
        runs.append(record)

    traced = None
    if trace:
        shutil.rmtree(out_dir, ignore_errors=True)
        traced = start_child(root, config, result, trace=True)
        check_run(traced, root, out_dir, config, workload, seed, references, first)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"runs": runs, "setup_only": setup_only, "traced": traced}


# --------------------------------------------------------------------------
# per-layer metrics from the traced run
# --------------------------------------------------------------------------

LAYER_SPANS = {
    "expcli.import_s": "expcli.import",
    "expcli.parse_config_s": "expcli.parse_config",
    "expcli.plot_s": "expcli.plot",
    "trimming.check_condition_s": "trimming.check_condition",
    "trimming.table_s": "trimming.table",
    "bounds.budget_s": "bounds.budget",
    "distributions.sample_array_s": "distributions.sample_array",
    "montecarlo.simulate_s": "montecarlo.simulate",
    "montecarlo.aggregate_s": "montecarlo.aggregate",
    "montecarlo.trace_csv_rows_s": "montecarlo.trace_csv_rows",
}
LAYER_COUNTS = ("trimming.checkpoint_calls", "distributions.inf_draws",
                "montecarlo.sum_failed", "montecarlo.nonfinite_ratios",
                "montecarlo.threshold_ties")


def layer_metrics(trace: dict, untraced_run_s: float | None
                  ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, each as (value, unit), from one traced child's record.

    Also returns the names of metrics whose layer the run never reached
    because it raised first; they are left out of the metrics.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    counts = trace["counts"]
    total: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1

    out: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    for metric, name in LAYER_SPANS.items():
        if calls[name]:
            out[metric] = (total[name], "s")
        else:
            missing.append(metric)
    for name in LAYER_COUNTS:
        if name in counts:
            out[name] = (counts[name], "count")
        else:
            missing.append(name)
    if counts.get("distributions.draws"):
        out["distributions.sample_ns_per_draw"] = (
            total["distributions.sample_array"] / counts["distributions.draws"] * 1e9, "ns")
    if "montecarlo.rss_growth_bytes" in counts:
        out["montecarlo.bytes_per_sample"] = (
            counts["montecarlo.rss_growth_bytes"] / trace["n_max"], "B")
    else:
        missing.append("montecarlo.bytes_per_sample")
    reps = [(s["end"] - s["start"], selfs[i]) for i, s in enumerate(spans)
            if s["name"] == "montecarlo.run_replication" and s["error"] is None]
    if reps:
        durations = [d for d, _ in reps]
        out["montecarlo.run_replication_p50_s"] = (_quantile(durations, 0.5), "s")
        out["montecarlo.run_replication_p90_s"] = (_quantile(durations, 0.9), "s")
        out["montecarlo.run_replication_self_s"] = (sum(s for _, s in reps), "s")
    else:
        missing += [f"montecarlo.run_replication_{k}_s" for k in ("p50", "p90", "self")]
    for name, value in trace["probes"].items():
        out[name] = (value, "ns" if "_ns_" in name else "s")

    roots = [i for i, s in enumerate(spans) if s["name"] == "expcli.run"]
    if roots:
        root = roots[0]
        traced_s = spans[root]["end"] - spans[root]["start"]
        out["expcli.run_self_s"] = (selfs[root], "s")
        out["trace.total_s"] = (traced_s, "s")
        out["trace.self_sum_s"] = (sum(selfs[i] for i in descendants(spans, root)), "s")
        if untraced_run_s is not None:
            out["trace.untraced_run_s"] = (untraced_run_s, "s")
            out["trace.overhead_s"] = (traced_s - untraced_run_s, "s")
        else:
            missing += ["trace.untraced_run_s", "trace.overhead_s"]
    return out, missing


def span_table(spans: list[dict]) -> list[str]:
    """One line per span name: calls, total and self seconds."""
    rows: dict[str, list[float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own
    return [f"  span {name:<32} calls {c:>5}  total {t:10.6f} s  self {o:10.6f} s"
            for name, (c, t, o) in rows.items()]


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --------------------------------------------------------------------------
# environment and report
# --------------------------------------------------------------------------

def environment(root: Path) -> dict:
    def getconf(name: str) -> str:
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return out.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        commit = out.stdout.strip() or commit

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "HEAVYTRIM_WORKERS": "1 (pinned)",
        "HEAVYTRIM_MEMORY_MB": os.environ.get("HEAVYTRIM_MEMORY_MB", "unset (default 4096)"),
        "git_commit": commit,
        "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "loop": "closed, one run at a time, one fresh process per run",
        "not_measured": "wall-clock scaling across HEAVYTRIM_WORKERS: the machine "
                        "is small and shared, so parallel timings would not repeat",
    }


def _fmt_summary(name: str, unit: str, values: list[float]) -> str:
    s = summarize(values)
    if not s["count"]:
        return f"{name}: n/a, no run completed"
    tail = (f"p{s['percentile']} {s['percentile_value']:.6g} {unit}" if s["percentile"]
            else f"no percentile with ten runs beyond it")
    return f"{name}: median {s['median']:.6g} {unit}, {tail}, {s['count']} runs"


def report(workload: str, seed: int, measured: dict, trace: bool, env: dict) -> dict:
    runs = measured["runs"]
    counts = tally(runs)
    setup_values = counts["setup_s"] + [r["setup_s"] for r in measured["setup_only"]
                                        if r.get("setup_s") is not None]
    correct = not any(r["problems"] for r in runs)
    print(f"workload {workload}, seed {seed}: {counts['attempted']} runs attempted, "
          f"{counts['failed']} failed")
    print(f"failed_share: {counts['failed'] / counts['attempted']:.6g} "
          f"({counts['failed']}/{counts['attempted']})")
    for kind, n in counts["errors"].items():
        example = next(r["error"] for r in runs if (r.get("error") or {}).get("type") == kind)
        print(f"  error {kind} x{n} in {example['stage']}: {example['message']}")
    for r in runs:
        for p in r["problems"]:
            print(f"  check failed: {p}")
    statuses = Counter(f"{k}={v}" for r in runs for k, v in r["status"].items())
    print("artifact checks: " + ", ".join(f"{k} x{n}" for k, n in sorted(statuses.items())))
    print(_fmt_summary("run_s", "s", counts["run_s"]))
    print(_fmt_summary("setup_s", "s", setup_values))
    print(_fmt_summary("peak_rss_mb", "MiB", counts["peak_rss_mb"]))

    metrics: dict[str, dict] = {}
    attempted, failed = counts["attempted"], counts["failed"]
    if not trace:
        for name, unit, values in (("run_s", "s", counts["run_s"]),
                                   ("setup_s", "s", setup_values),
                                   ("peak_rss_mb", "MiB", counts["peak_rss_mb"])):
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        traced = measured["traced"]
        if traced.get("error"):
            e = traced["error"]
            print(f"traced run raised {e['type']} in {e['stage']}: {e['message']}")
        correct = correct and not traced.get("problems")
        attempted += 1
        failed += bool(traced.get("error") or traced.get("problems"))
        if "trace" in traced:
            layers, missing = layer_metrics(traced["trace"], summarize(counts["run_s"])["median"])
            print("\n".join(span_table(traced["trace"]["spans"])))
            for name, (value, unit) in layers.items():
                print(f"{name}: {value:.6g} {unit}")
                metrics[name] = {"value": value, "unit": unit}
            why = (f"the traced run raised {traced['error']['type']} first"
                   if traced.get("error") else "no untraced run completed")
            for name in missing:
                print(f"{name}: n/a, {why}")
            if "trace.overhead_s" in layers:
                overhead = layers["trace.overhead_s"][0]
                env["tracing_overhead_s"] = overhead
                print(f"accounting: span self times sum to {layers['trace.self_sum_s'][0]:.6g} s"
                      f" = untraced run_s {layers['trace.untraced_run_s'][0]:.6g} s"
                      f" + tracing overhead {overhead:.6g} s")
    print("environment " + json.dumps(env, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heavytrim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heavytrim" / "__init__.py").is_file():
        print("perfbench: run from the root of a heavytrim source checkout "
              "(src/heavytrim not found)", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measured = measure(root, args.workload, args.seed, args.seconds, work, bool(args.trace))
        line = report(args.workload, args.seed, measured, bool(args.trace), environment(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
