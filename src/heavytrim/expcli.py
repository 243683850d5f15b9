"""Batch front end: parse experiment configs, run all stages, emit artifacts.

A run executes condition reports, the deviation budget, the seeded
simulation, aggregation and SVG plots, writes everything under the output
directory and records a manifest with a checksum per artifact.  Outputs
are a pure function of (config, seed): rerunning reproduces every
checksum.

Config files are JSON (see ``CONFIG_GRAMMAR`` or the README for the full
key reference).  ``heavytrim run`` and ``heavytrim check`` exit 1 when a
pointwise plan hypothesis is violated; an inconclusive limit hypothesis
only warns, since no finite grid can settle an asymptotic statement.
Config errors (missing keys, malformed or out-of-range values, invalid
plans, a condition grid the plan cannot be evaluated on) are raised
before any artifact is written; they and I/O errors exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__
from .bounds import borel_cantelli_budget
from .distributions import (AtomicStep, Distribution, DistributionError, LogTail,
                            ParetoTail, Tabulated, square_step)
from .montecarlo import ExperimentConfig, aggregate, simulate, trace_csv_rows
from .trimming import (AllowanceTrimRule, ConditionReport, PlanPoint, PowerThreshold,
                       ProjectedPowerThreshold, ProofVariantTrimRule,
                       SquareStepThreshold, StandardTrimRule, SummableFunction,
                       TrimmingError, TrimmingPlan, check_condition,
                       check_condition_grid, conditions_for_plan,
                       format_condition_report, geometric_grid, plan_default,
                       plan_general, plan_standard)

__all__ = ["parse_config", "run", "plot", "main", "RunManifest", "ConfigError",
           "CONFIG_GRAMMAR"]

CONFIG_GRAMMAR = """\
JSON object with sections:

distribution:
  family: "pareto" | "log-tail" | "square-step" | "atomic-step" | "tabulated"
  pareto:      alpha in (0,1), scale > 0
  log-tail:    threshold >= e (optional, default e)
  square-step: max-index >= 2 (optional, default 128)
  atomic-step: atoms = [[location, mass], ...]
  tabulated:   rows = [[x, F, "jump" | "linear"], ...]
plan:
  rule: "standard" | "default" | "general"
  epsilon: number in (0, 1/4)
  threshold (standard/general): {rule: "power", exponent, coefficient?}
                              | {rule: "square-step"}
                              | {rule: "projected-power", exponent}
  trim (general): {rule: "standard" | "proof-variant" | "allowance"}
  summable, summable-alt (general): {family: "power" | "polylog"
                                     | "exponential", param}
  validate: bool (optional, default true; general plans only)
experiment:
  checkpoints: strictly increasing integers
  replications: positive integer
  seed: unsigned 64-bit integer (required; no implicit randomness)
  max-samples: optional ceiling, default 10000000
conditions (optional):
  grid: strictly increasing integers, 8+ points spanning 3+ decades
        (default: geometric up to n_max)
  tolerance: number (default 0.01)
budget (optional):
  eps: relative deviation > 0 for the budget table (default 0.1)
output (optional):
  directory: path for artifacts (default "heavytrim-out")
"""


class ConfigError(ValueError):
    """Config file rejected; the message carries the offending key path."""


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}: missing")
    return section[key]


def _integer(value, key: str) -> int:
    """An integer config value; an integral float such as 1e6 passes."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _integers(values, key: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{key}: expected a list of integers, got {values!r}")
    return tuple(_integer(v, key) for v in values)


def _number(value, key: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key}: expected a number, got {value!r}")


def _build_distribution(section: dict) -> Distribution:
    family = _need(section, "family", "distribution")
    try:
        if family == "pareto":
            return ParetoTail(alpha=float(_need(section, "alpha", "distribution")),
                              scale=float(section.get("scale", 1.0)))
        if family == "log-tail":
            return LogTail(threshold=float(section.get("threshold", math.e)))
        if family == "square-step":
            return square_step(int(section.get("max-index", 128)))
        if family == "atomic-step":
            atoms = _need(section, "atoms", "distribution")
            return AtomicStep([(float(x), float(m)) for x, m in atoms])
        if family == "tabulated":
            rows = _need(section, "rows", "distribution")
            return Tabulated([(float(x), float(f), str(kind)) for x, f, kind in rows])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"distribution: {exc}") from exc
    raise ConfigError(f"distribution.family: unknown family {family!r}")


def _build_threshold_rule(section: dict, epsilon: float):
    rule = _need(section, "rule", "plan.threshold")
    if rule == "power":
        return PowerThreshold(exponent=float(_need(section, "exponent", "plan.threshold")),
                              coefficient=float(section.get("coefficient", 1.0)))
    if rule == "square-step":
        return SquareStepThreshold(epsilon)
    if rule == "projected-power":
        return ProjectedPowerThreshold(float(_need(section, "exponent", "plan.threshold")))
    raise ConfigError(f"plan.threshold.rule: unknown rule {rule!r}")


def _build_summable(section: dict, where: str) -> SummableFunction:
    family = _need(section, "family", where)
    param = float(_need(section, "param", where))
    try:
        return SummableFunction(family, param)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_plan(section: dict, dist: Distribution, grid: tuple[int, ...]) -> TrimmingPlan:
    rule = _need(section, "rule", "plan")
    try:
        epsilon = float(_need(section, "epsilon", "plan"))
        if not 0.0 < epsilon < 0.25:
            raise ConfigError(f"plan.epsilon: must lie in (0, 1/4), got {epsilon}")
        if rule == "default":
            return plan_default(dist, epsilon, grid)
        if rule == "standard":
            t_rule = _build_threshold_rule(_need(section, "threshold", "plan"), epsilon)
            return plan_standard(dist, t_rule, epsilon, grid)
        if rule == "general":
            t_rule = _build_threshold_rule(_need(section, "threshold", "plan"), epsilon)
            summable = _build_summable(_need(section, "summable", "plan"), "plan.summable")
            summable_alt = _build_summable(_need(section, "summable-alt", "plan"),
                                           "plan.summable-alt")
            trim_section = _need(section, "trim", "plan")
            trim_name = _need(trim_section, "rule", "plan.trim")
            if trim_name == "standard":
                trim_rule = StandardTrimRule(epsilon)
            elif trim_name == "proof-variant":
                trim_rule = ProofVariantTrimRule(epsilon)
            elif trim_name == "allowance":
                trim_rule = AllowanceTrimRule(epsilon, summable)
            else:
                raise ConfigError(f"plan.trim.rule: unknown rule {trim_name!r}")
            check_grid = grid if section.get("validate", True) else ()
            return plan_general(dist, t_rule, trim_rule, epsilon,
                                summable, summable_alt, check_grid)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    raise ConfigError(f"plan.rule: unknown rule {rule!r}")


@dataclass(frozen=True)
class RunSpec:
    """Parsed config plus everything derived from it."""

    config: ExperimentConfig
    condition_grid: tuple[int, ...]
    condition_tolerance: float
    budget_eps: float
    output_dir: Path
    raw: dict


def parse_config(path: str | Path, *,
                 seed: int | None = None,
                 replications: int | None = None,
                 n_max: int | None = None,
                 out_dir: str | Path | None = None) -> RunSpec:
    """Load, validate and resolve a config file; keyword overrides win.

    Raises :class:`ConfigError` with the offending key path, or with line
    and column information for malformed JSON.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    exp = _need(raw, "experiment", "")
    checkpoints = _integers(_need(exp, "checkpoints", "experiment"), "experiment.checkpoints")
    if n_max is not None:
        checkpoints = tuple(n for n in checkpoints if n <= n_max)
        if not checkpoints:
            raise ConfigError("experiment.checkpoints: all above the --nmax override")
    if replications is None:
        replications = _integer(_need(exp, "replications", "experiment"),
                                "experiment.replications")
    if seed is None:
        if "seed" not in exp:
            raise ConfigError("experiment.seed: missing; runs must be "
                              "reproducible, there is no implicit randomness")
        seed = _integer(exp["seed"], "experiment.seed")

    dist = _build_distribution(_need(raw, "distribution", ""))

    cond = raw.get("conditions", {})
    if "grid" in cond:
        condition_grid = _integers(cond["grid"], "conditions.grid")
        try:
            check_condition_grid(condition_grid)
        except TrimmingError as exc:
            raise ConfigError(f"conditions.grid: {exc}") from exc
    else:
        top = max(20_000, checkpoints[-1] if checkpoints else 20_000)
        condition_grid = geometric_grid(16, top, 12)
    tolerance = _number(cond.get("tolerance", 1e-2), "conditions.tolerance")
    budget_eps = _number(raw.get("budget", {}).get("eps", 0.1), "budget.eps")
    if not budget_eps > 0.0:
        raise ConfigError(f"budget.eps: must be positive, got {budget_eps}")

    plan = _build_plan(_need(raw, "plan", ""), dist, condition_grid)

    try:
        config = ExperimentConfig(
            plan=plan,
            checkpoints=checkpoints,
            replications=replications,
            seed=seed,
            max_samples=_integer(exp.get("max-samples", 10_000_000),
                                 "experiment.max-samples"),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc

    out = Path(out_dir) if out_dir is not None else Path(
        raw.get("output", {}).get("directory", "heavytrim-out"))
    return RunSpec(
        config=config,
        condition_grid=condition_grid,
        condition_tolerance=tolerance,
        budget_eps=budget_eps,
        output_dir=out,
        raw=raw,
    )


# --------------------------------------------------------------------------
# deterministic SVG plots
# --------------------------------------------------------------------------

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 28, 44


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Frame:
    """Maps data coordinates onto the fixed SVG viewport.

    Non-finite values are not drawn: they neither size the frame nor
    appear in a line or band.
    """

    def __init__(self, xs, ys):
        ys = [v for v in ys if math.isfinite(v)] or [0.0]
        y_lo, y_hi = min(ys), max(ys)
        pad = 0.05 * (y_hi - y_lo or 1.0)
        self.x_lo, self.x_hi = min(xs), max(xs)
        self.y_lo, self.y_hi = y_lo - pad, y_hi + pad

    def x(self, v):
        f = (v - self.x_lo) / (self.x_hi - self.x_lo or 1.0)
        return _ML + f * (_W - _ML - _MR)

    def y(self, v):
        f = (v - self.y_lo) / (self.y_hi - self.y_lo or 1.0)
        return _H - _MB - f * (_H - _MT - _MB)

    def points(self, xs, ys) -> list[str]:
        return [f"{_fmt(self.x(a))},{_fmt(self.y(b))}"
                for a, b in zip(xs, ys) if math.isfinite(b)]

    def polyline(self, xs, ys, color, width=1.5, dash=""):
        pts = " ".join(self.points(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="{width}"{extra} points="{pts}"/>')

    def band(self, xs, lo, hi, color):
        pts = self.points(xs, lo) + self.points(reversed(xs), reversed(hi))
        return (f'<polygon fill="{color}" fill-opacity="0.25" stroke="none" '
                f'points="{" ".join(pts)}"/>')


def _svg_doc(title: str, frame: _Frame, body: list[str], x_label: str, y_label: str) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">{title}</text>',
    ]
    axis = (f'<polyline fill="none" stroke="black" stroke-width="1" points="'
            f'{_ML},{_MT} {_ML},{_H - _MB} {_W - _MR},{_H - _MB}"/>')
    parts.append(axis)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = frame.x_lo + frac * (frame.x_hi - frame.x_lo)
        yv = frame.y_lo + frac * (frame.y_hi - frame.y_lo)
        parts.append(f'<text x="{_fmt(frame.x(xv))}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                     f'{_fmt(xv)}</text>')
        parts.append(f'<text x="{_ML - 6}" y="{_fmt(frame.y(yv) + 3)}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="10">'
                     f'{_fmt(yv)}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">{x_label}</text>')
    parts.append(f'<text x="14" y="{_H // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 14 {_H // 2})">{y_label}</text>')
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_aggregate_csv(path: Path) -> dict[str, list[float]]:
    lines = path.read_text().splitlines()
    if len(lines) < 2:
        raise ConfigError(f"{path}: aggregate CSV has no data rows")
    header = lines[0].split(",")
    cols: dict[str, list[float]] = {h: [] for h in header}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}: malformed CSV row: {line!r}")
        for h, c in zip(header, cells):
            cols[h].append(float(c))
    return cols


def plot(aggregate_csv: str | Path, out_dir: str | Path) -> list[Path]:
    """Render the ratio-band and raw-running-max plots from an aggregate CSV.

    A pure function of the CSV bytes: identical input produces identical
    SVG output.  Single-replication aggregates collapse the band into the
    median line and only the line is drawn.
    """
    aggregate_csv = Path(aggregate_csv)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = _read_aggregate_csv(aggregate_csv)
    try:
        ns = cols["n"]
        reps = cols["replications"][0]
        tr_med = cols["trimmed_q50"]
        tr_lo, tr_hi = cols["trimmed_q05"], cols["trimmed_q95"]
        tc_med = cols["truncated_q50"]
        rm_med = cols["untrimmed_runmax_q50"]
        rm_lo, rm_hi = cols["untrimmed_runmax_q05"], cols["untrimmed_runmax_q95"]
    except KeyError as exc:
        raise ConfigError(f"{aggregate_csv}: missing column {exc}") from exc
    xs = [math.log10(n) for n in ns]
    single = reps <= 1

    ys = tr_med + tc_med + [1.0] + ([] if single else tr_lo + tr_hi)
    frame = _Frame(xs, ys)
    body = []
    if not single:
        body.append(frame.band(xs, tr_lo, tr_hi, "#4878b0"))
    body.append(frame.polyline(xs, [1.0] * len(xs), "#999999", 1.0, dash="4 3"))
    body.append(frame.polyline(xs, tr_med, "#2f5597", 2.0))
    body.append(frame.polyline(xs, tc_med, "#c04b4b", 1.5, dash="6 3"))
    ratios_path = out_dir / "ratios.svg"
    ratios_path.write_text(_svg_doc(
        "trimmed (solid) and truncated (dashed) sum over scale",
        frame, body, "log10 n", "ratio"))

    safelog = lambda v: 0.0 if v <= 0 else math.log10(v)  # inf and nan stay non-finite
    rm_med_l = [safelog(v) for v in rm_med]
    rm_lo_l = [safelog(v) for v in rm_lo]
    rm_hi_l = [safelog(v) for v in rm_hi]
    ys2 = rm_med_l + ([] if single else rm_lo_l + rm_hi_l)
    frame2 = _Frame(xs, ys2)
    body2 = []
    if not single:
        body2.append(frame2.band(xs, rm_lo_l, rm_hi_l, "#8f6db0"))
    body2.append(frame2.polyline(xs, rm_med_l, "#5e3d8f", 2.0))
    runmax_path = out_dir / "dichotomy.svg"
    runmax_path.write_text(_svg_doc(
        "running max of raw sum over scale",
        frame2, body2, "log10 n", "log10 running max"))
    return [ratios_path, runmax_path]


# --------------------------------------------------------------------------
# run orchestration
# --------------------------------------------------------------------------

@dataclass
class RunManifest:
    config_sha256: str
    seed: int
    version: str
    stage_seconds: dict[str, float] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    plan_warnings: tuple[str, ...] = ()
    failed: bool = False

    def to_json(self) -> str:
        payload = {
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "version": self.version,
            "stage_seconds": self.stage_seconds,
            "files": self.files,
            "verdicts": self.verdicts,
            "plan_warnings": list(self.plan_warnings),
            "failed": self.failed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        for row in rows:
            fh.write(",".join(str(c) for c in row))
            fh.write("\n")


def _condition_reports(spec: RunSpec) -> tuple[tuple[PlanPoint, ...], list[ConditionReport]]:
    """The plan table on the condition grid, and the reports judged on it.

    A plan that cannot be evaluated on the grid is a config error.
    """
    plan = spec.config.plan
    try:
        table = plan.table(spec.condition_grid)
    except (TrimmingError, DistributionError) as exc:
        raise ConfigError(f"conditions.grid: {exc}") from exc
    return table, [check_condition(plan, cid, table, spec.condition_tolerance)
                   for cid in conditions_for_plan(plan)]


def run(spec: RunSpec) -> RunManifest:
    """Execute all stages and write artifacts plus the manifest.

    Order: condition reports, budget table, traces, aggregate, plots.
    The plan table on the condition grid serves both the condition
    reports and the budget; it is built before the output directory, so
    a grid the plan cannot be evaluated on leaves no directory behind.
    ``manifest.failed`` is set when a pointwise hypothesis is violated.
    """
    t0 = time.perf_counter()
    table, reports = _condition_reports(spec)
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    cfg_bytes = json.dumps(spec.raw, sort_keys=True).encode()
    manifest = RunManifest(
        config_sha256=hashlib.sha256(cfg_bytes).hexdigest(),
        seed=spec.config.seed,
        version=__version__,
        plan_warnings=spec.config.plan.warnings,
    )

    (out / "conditions.txt").write_text(format_condition_report(reports))
    for r in reports:
        manifest.verdicts[r.condition] = r.verdict
    manifest.stage_seconds["conditions"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    budget = borel_cantelli_budget(spec.config.plan, spec.budget_eps, table)
    _write_csv(out / "budget.csv", budget.csv_rows())
    manifest.stage_seconds["budget"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    traces = simulate(spec.config)
    _write_csv(out / "traces.csv", trace_csv_rows(traces))
    manifest.stage_seconds["traces"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    summary = aggregate(traces)
    _write_csv(out / "aggregate.csv", summary.csv_rows())
    manifest.stage_seconds["aggregate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    svgs = plot(out / "aggregate.csv", out)
    manifest.stage_seconds["plots"] = time.perf_counter() - t0

    for name in ["conditions.txt", "budget.csv", "traces.csv", "aggregate.csv"]:
        manifest.files[name] = _sha256(out / name)
    for p in svgs:
        manifest.files[p.name] = _sha256(p)

    manifest.failed = any(v == "violated" for v in manifest.verdicts.values())
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest


def _cmd_run(args) -> int:
    spec = parse_config(args.config, seed=args.seed, replications=args.replications,
                        n_max=args.nmax, out_dir=args.out_dir)
    manifest = run(spec)
    for cid, verdict in manifest.verdicts.items():
        marker = {"satisfied": "ok", "violated": "FAIL", "inconclusive": "warn"}[verdict]
        print(f"[{marker}] {cid}: {verdict}")
    for w in manifest.plan_warnings:
        print(f"[warn] plan: {w}")
    print(f"artifacts in {spec.output_dir}")
    return 1 if manifest.failed else 0


def _cmd_check(args) -> int:
    spec = parse_config(args.config, seed=args.seed, replications=args.replications,
                        n_max=args.nmax, out_dir=args.out_dir)
    _, reports = _condition_reports(spec)
    print(format_condition_report(reports), end="")
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def _cmd_plot(args) -> int:
    paths = plot(args.csv, args.out_dir or ".")
    for p in paths:
        print(p)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavytrim",
        description="trimming plans, hypothesis checks and seeded Monte Carlo "
                    "for heavy-tailed sums")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--replications", type=int, default=None,
                       help="override the replication count")
        p.add_argument("--nmax", type=int, default=None,
                       help="drop checkpoints above this bound")
        p.add_argument("--out-dir", type=str, default=None,
                       help="override the output directory")

    p_run = sub.add_parser("run", help="run all stages and write artifacts")
    p_run.add_argument("config", type=Path)
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="evaluate plan hypotheses only")
    p_check.add_argument("config", type=Path)
    common(p_check)
    p_check.set_defaults(fn=_cmd_check)

    p_plot = sub.add_parser("plot", help="render SVG plots from an aggregate CSV")
    p_plot.add_argument("csv", type=Path)
    p_plot.add_argument("--out-dir", type=str, default=None)
    p_plot.set_defaults(fn=_cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error during {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
