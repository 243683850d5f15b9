"""One ``heavytrim run`` in a fresh process, started by ``run.py``.

Usage: python3 perfbench/child.py CONFIG RESULT --t0 T [--trace] [--setup-only]

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, import and config parse.
The child writes one JSON result: set-up and run seconds, its own peak RSS,
and, when the run raised, the exception.  With ``--trace`` it also records
spans around calls into heavytrim's modules and runs the layer probes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

PROBE_SIZES = {"1e5": 100_000, "1e6": 1_000_000}
PROBE_REPEATS = 3


def peak_rss_bytes() -> int:
    """Peak RSS of this process plus that of its waited-for children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024


def instrument(tracer: Tracer, dist_type: type) -> None:
    """Wrap the public functions ``expcli.run`` reaches, module by module.

    ``TrimmingPlan.checkpoint`` is counted from before the config parse on,
    since the plan is validated while parsing.
    """
    import numpy as np
    from heavytrim import expcli, montecarlo, trimming

    counts = tracer.counts

    def count_draws(x, *args):
        counts["distributions.draws"] += len(x)
        counts["distributions.inf_draws"] += int(np.count_nonzero(np.isinf(x)))

    def inspect_traces(traces, *args):
        for t in traces:
            for r in t.rows:
                counts["montecarlo.nonfinite_ratios"] += (
                    (not np.isfinite(r.ratio_trimmed)) + (not np.isfinite(r.ratio_truncated)))
                counts["montecarlo.threshold_ties"] += r.count_ge - r.count_gt

    tracer.wrap(trimming.TrimmingPlan, "table", "trimming.table")
    tracer.wrap(expcli, "check_condition", "trimming.check_condition")
    tracer.wrap(expcli, "borel_cantelli_budget", "bounds.budget")
    tracer.wrap(dist_type, "sample_array", "distributions.sample_array", after=count_draws)
    tracer.wrap(montecarlo, "trimmed_sum", "montecarlo.trimmed_sum")
    tracer.wrap(montecarlo, "run_replication", "montecarlo.run_replication")
    tracer.wrap(expcli, "simulate", "montecarlo.simulate", after=inspect_traces)
    tracer.wrap(expcli, "trace_csv_rows", "montecarlo.trace_csv_rows", materialize=True)
    tracer.wrap(expcli, "aggregate", "montecarlo.aggregate")
    tracer.wrap(expcli, "plot", "expcli.plot")

    traced_simulate = expcli.simulate

    def simulate(config):
        before = peak_rss_bytes()
        traces = traced_simulate(config)
        counts["montecarlo.rss_growth_bytes"] = peak_rss_bytes() - before
        return traces

    expcli.simulate = simulate


def probes(spec, sample_array, sums) -> tuple[dict, int]:
    """Time the Philox draws and the exact sums on replication 0's prefixes.

    ``sample_array`` and ``sums`` are the unwrapped library callables.
    Returns the probe timings and the number of sum calls that raised.
    """
    import numpy as np

    cfg = spec.config
    out: dict[str, float] = {}
    draw_s = 0.0
    for rep in range(cfg.replications):
        t0 = time.perf_counter()
        u = np.random.Generator(np.random.Philox(key=[cfg.seed, rep])).random(cfg.n_max)
        draw_s += time.perf_counter() - t0
        if rep == 0:
            x = sample_array(cfg.distribution, u)
    out["montecarlo.draw_s"] = draw_s

    failed = 0
    for tag, n in PROBE_SIZES.items():
        if n not in cfg.checkpoints:
            continue
        point = cfg.plan.checkpoint(n)
        prefix = x[:n]
        calls = {
            "raw_sum": lambda: sums["trimmed_sum"](prefix, 0),
            "truncated_sum": lambda: sums["truncated_sum"](prefix, point.threshold),
            "trimmed_sum": lambda: sums["trimmed_sum"](prefix, point.trim),
            "exceedance_counts": lambda: sums["exceedance_counts"](prefix, point.threshold),
        }
        for label, call in calls.items():
            times, raised = [], False
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                try:
                    call()
                except ArithmeticError:
                    raised = True
                times.append(time.perf_counter() - t0)
            failed += raised
            out[f"montecarlo.{label}_{tag}_s"] = statistics.median(times)
        out[f"montecarlo.sum_ns_per_entry_{tag}"] = out[f"montecarlo.raw_sum_{tag}_s"] / n * 1e9
    return out, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    result: dict = {"setup_s": None, "run_s": None, "peak_rss_mb": None,
                    "error": None, "verdicts": None}
    tracer = Tracer() if args.trace else None
    stage = "import"
    try:
        if tracer:
            with tracer.span("expcli.import"):
                from heavytrim import expcli, montecarlo
        else:
            from heavytrim import expcli, montecarlo
        stage = "parse_config"
        if tracer:
            from heavytrim import trimming
            tracer.count_calls(trimming.TrimmingPlan, "checkpoint",
                               "trimming.checkpoint_calls")
            with tracer.span("expcli.parse_config"):
                spec = expcli.parse_config(args.config)
        else:
            spec = expcli.parse_config(args.config)
        result["setup_s"] = time.monotonic() - args.t0
        if args.setup_only:
            return _write(args.result, result)

        stage = "run"
        if tracer:
            dist_type = type(spec.config.distribution)
            sample_array = dist_type.sample_array
            sums = {name: getattr(montecarlo, name)
                    for name in ("trimmed_sum", "truncated_sum", "exceedance_counts")}
            instrument(tracer, dist_type)
            with tracer.span("expcli.run"):
                manifest = expcli.run(spec)
        else:
            t0 = time.perf_counter()
            manifest = expcli.run(spec)
            result["run_s"] = time.perf_counter() - t0
        result["verdicts"] = manifest.verdicts
    except Exception as exc:
        result["error"] = {"type": type(exc).__name__, "message": str(exc),
                           "stage": stage, "traceback": traceback.format_exc()}
    result["peak_rss_mb"] = peak_rss_bytes() / 2 ** 20

    if tracer and stage == "run":
        counts = dict(tracer.counts)
        probe_times, sum_failed = probes(spec, sample_array, sums)
        counts["montecarlo.sum_failed"] = sum_failed
        result["trace"] = {"spans": tracer.spans, "counts": counts,
                           "probes": probe_times, "n_max": spec.config.n_max,
                           "replications": spec.config.replications}
    return _write(args.result, result)


def _write(path: Path, result: dict) -> int:
    path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
