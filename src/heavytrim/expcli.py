"""Batch front end: parse experiment configs, run all stages, emit artifacts.

A run executes condition reports, the deviation budget, the seeded
simulation, aggregation and SVG plots, writes everything under the output
directory and records a manifest with a checksum per artifact.  Outputs
are a pure function of (config, seed): rerunning reproduces every
checksum.

Config files are JSON (see ``CONFIG_GRAMMAR`` or the README for the full
key reference).  ``heavytrim run`` and ``heavytrim check`` exit 1 when a
pointwise plan hypothesis, the trim floor among them, is violated; an
inconclusive limit hypothesis only warns, since no finite grid can settle
an asymptotic statement.  Config errors (missing or unknown keys, sections
that are not objects, malformed, non-finite or out-of-range values, a plan
that fails a structural check on the checkpoints or the condition grid or
cannot be evaluated there) are raised before any artifact is written; they
and I/O errors exit 2.  Any other exception is an internal failure and exits 3.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from . import __version__
from .bounds import borel_cantelli_budget
from .distributions import (Distribution, DistributionError, LogTail, ParetoTail,
                            SquareStep, Tabulated, prefix_fsums)
from .montecarlo import ExperimentConfig, aggregate, simulate, trace_csv_rows, workers
from .trimming import (AllowanceTrimRule, ConditionReport, PlanError, PlanPoint,
                       PowerThreshold, ProjectedPowerThreshold, SquareStepThreshold,
                       StandardTrimRule, SummableFunction, TrimmingError, TrimmingPlan,
                       check_condition, check_condition_grid, check_plan,
                       conditions_for_plan, format_condition_report, geometric_grid,
                       plan_default, plan_standard)

__all__ = ["parse_config", "run", "plot", "main", "RunManifest", "ConfigError",
           "CONFIG_GRAMMAR"]

CONFIG_GRAMMAR = """\
JSON object with sections; a key not listed here, or listed for another
family or rule than the section names, is rejected:

distribution:
  family: "pareto" | "log-tail" | "square-step" | "atomic-step" | "tabulated"
  pareto:      alpha in (0,1), scale > 0
  log-tail:    threshold >= e (optional, default e)
  square-step: max-index >= 2 (optional, default 128); a lattice law
  atomic-step: atoms = [[location, mass], ...], masses > 0 summing to
               at most 1; read as the jump rows of the tabulated law
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
experiment:
  checkpoints: strictly increasing integers
  replications: positive integer
  seed: unsigned 64-bit integer (required; no implicit randomness)
conditions (optional):
  grid: strictly increasing integers, 8+ points spanning 3+ decades
        (default: geometric up to n_max)
  tolerance: number > 0 (default 0.01)
budget (optional):
  eps: relative deviation > 0 for the budget table (default 0.1)
output (optional):
  directory: path for artifacts (default "heavytrim-out")
"""


class ConfigError(ValueError):
    """Config file rejected; the message carries the offending key path."""


class _Section:
    """The config object at the key path ``where``, read one key at a time.

    A key outside ``allowed`` fails, so a misspelled key does not fall back
    on a default.  With ``variants``, the key ``allowed[0]`` names one of
    them, ``variant``, and the keys it maps to are the only others allowed:
    a key of another family or rule fails instead of being ignored.
    """

    def __init__(self, value, where: str, allowed: tuple[str, ...],
                 variants: dict[str, tuple[str, ...]] | None = None):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        self.value, self.where = value, where
        if variants is not None:
            tag = allowed[0]
            self.variant = self.get(tag, _as_is)
            if not (isinstance(self.variant, str) and self.variant in variants):
                raise ConfigError(f"{self.path(tag)}: unknown {tag} {self.variant!r}")
            allowed = (tag,) + variants[self.variant]
        for key in value:
            if key not in allowed:
                raise ConfigError(f"{self.path(key)}: unknown key; "
                                  f"expected one of {', '.join(allowed)}")

    def path(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key

    def get(self, key: str, kind, default=None):
        """The value at ``key``, or ``default`` unless that is ``None``, read
        by ``kind(value, path)``."""
        value = self.value.get(key, default)
        if value is None and key not in self.value:
            raise ConfigError(f"{self.path(key)}: missing")
        return kind(value, self.path(key))

    def section(self, key: str, allowed: tuple[str, ...],
                variants: dict[str, tuple[str, ...]] | None = None, default=None) -> _Section:
        """The object at ``key`` as a section of its own."""
        return self.get(key, lambda value, where: _Section(value, where, allowed, variants),
                        default)


def _as_is(value, key: str):
    return value


def _integer(value, key: str) -> int:
    """An integer config value; an integral float such as 1e6 passes."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _counts(values, key: str) -> tuple[int, ...]:
    """Integers that convert to floats, as sample counts on a grid must."""
    if not isinstance(values, list):
        raise ConfigError(f"{key}: expected a list of integers, got {values!r}")
    counts = tuple(_integer(v, key) for v in values)
    for count in counts:
        _number(count, key)
    return counts


def _number(value, key: str) -> float:
    """A finite number: JSON's ``NaN``, ``Infinity`` and ``1e400`` are not."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{key}: integer beyond the float range") from None
        if math.isfinite(number):
            return number
    raise ConfigError(f"{key}: expected a finite number, got {value!r}")


def _string(value, key: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key}: expected a string, got {value!r}")


def _rows(shape: str, *kinds):
    """The kind of a list of rows ``shape``, each a list of one value per kind."""
    def read(value, key: str) -> list[tuple]:
        if not (isinstance(value, list) and all(
                isinstance(row, list) and len(row) == len(kinds) for row in value)):
            raise ConfigError(f"{key}: expected a list of {shape}, got {value!r}")
        return [tuple(kind(v, key) for kind, v in zip(kinds, row)) for row in value]
    return read


def _build_distribution(config: _Section) -> Distribution:
    section = config.section("distribution", ("family",), {
        "pareto": ("alpha", "scale"), "log-tail": ("threshold",), "square-step": ("max-index",),
        "atomic-step": ("atoms",), "tabulated": ("rows",)})
    family = section.variant
    try:
        if family == "pareto":
            return ParetoTail(alpha=section.get("alpha", _number),
                              scale=section.get("scale", _number, 1.0))
        if family == "log-tail":
            return LogTail(threshold=section.get("threshold", _number, math.e))
        if family == "square-step":
            return SquareStep(section.get("max-index", _integer, 128))
        if family == "atomic-step":
            # jump rows of the table law, each at the running exact sum of the
            # masses, clamped to 1
            key = section.path("atoms")
            atoms = section.get("atoms", _rows("[location, mass] pairs", _number, _number))
            if not atoms or not all(m > 0.0 for _, m in atoms):
                raise ConfigError(f"{key}: expected a non-empty list of atoms of positive mass")
            levels = prefix_fsums([m for _, m in atoms])
            if levels[-1] > 1.0 + 1e-12:
                raise ConfigError(f"{key}: atom masses sum to {levels[-1]} > 1")
            try:
                return Tabulated([(x, min(f, 1.0), "jump") for (x, _), f in zip(atoms, levels)])
            except DistributionError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        return Tabulated(section.get("rows", _rows("[x, F, kind] rows",  # the tabulated family
                                                   _number, _number, _string)))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"distribution: {exc}") from exc


def _build_threshold_rule(plan: _Section):
    section = plan.section("threshold", ("rule",), {
        "power": ("exponent", "coefficient"), "square-step": (), "projected-power": ("exponent",)})
    if section.variant == "power":
        return PowerThreshold(exponent=section.get("exponent", _number),
                              coefficient=section.get("coefficient", _number, 1.0))
    if section.variant == "square-step":
        return SquareStepThreshold()
    return ProjectedPowerThreshold(section.get("exponent", _number))


def _build_summable(plan: _Section, key: str) -> SummableFunction:
    section = plan.section(key, ("family", "param"))
    family, param = section.get("family", _as_is), section.get("param", _number)
    try:
        return SummableFunction(family, param)
    except ValueError as exc:
        raise ConfigError(f"{section.where}: {exc}") from exc


def _build_plan(config: _Section, dist: Distribution) -> TrimmingPlan:
    section = config.section("plan", ("rule",), {
        "default": ("epsilon",), "standard": ("epsilon", "threshold"),
        "general": ("epsilon", "threshold", "trim", "summable", "summable-alt")})
    try:
        epsilon = section.get("epsilon", _number)
        if not 0.0 < epsilon < 0.25:
            raise ConfigError(f"plan.epsilon: must lie in (0, 1/4), got {epsilon}")
        if section.variant == "default":
            return plan_default(dist, epsilon)
        t_rule = _build_threshold_rule(section)
        if section.variant == "standard":
            return plan_standard(dist, t_rule, epsilon)
        summable = _build_summable(section, "summable")
        summable_alt = _build_summable(section, "summable-alt")
        trims = {"standard": StandardTrimRule(), "proof-variant": StandardTrimRule(log_floor=True),
                 "allowance": AllowanceTrimRule()}
        trim = section.section("trim", ("rule",), dict.fromkeys(trims, ())).variant
        return TrimmingPlan(dist, epsilon, t_rule, trims[trim], summable, summable_alt)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from exc


class RunSpec(NamedTuple):
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
    """Load and resolve a config file into objects; keyword overrides win.

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
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # not UTF-8, or an integer beyond int's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    root = _Section(raw, "", ("distribution", "plan", "experiment", "conditions", "budget",
                              "output"))

    exp = root.section("experiment", ("checkpoints", "replications", "seed"))
    # the overrides are written into a copy of the experiment section, so
    # that ``raw`` is the config the run used, as the manifest hashes it
    overrides = {"seed": seed, "replications": replications}
    if n_max is not None:
        overrides["checkpoints"] = [n for n in exp.get("checkpoints", _counts) if n <= n_max]
        if not overrides["checkpoints"]:
            raise ConfigError("experiment.checkpoints: all above the --nmax override")
    exp.value = {**exp.value, **{key: value for key, value in overrides.items()
                                 if value is not None}}
    raw = {**raw, "experiment": exp.value}
    checkpoints = exp.get("checkpoints", _counts)
    replications = exp.get("replications", _integer)
    if "seed" not in exp.value:
        raise ConfigError("experiment.seed: missing; runs must be "
                          "reproducible, there is no implicit randomness")
    seed = exp.get("seed", _integer)

    dist = _build_distribution(root)

    cond = root.section("conditions", ("grid", "tolerance"), default={})
    if "grid" in cond.value:
        condition_grid = cond.get("grid", _counts)
    else:
        top = max(20_000, checkpoints[-1] if checkpoints else 20_000)
        condition_grid = geometric_grid(16, top, 12)
    tolerance = cond.get("tolerance", _number, 1e-2)
    budget_eps = root.section("budget", ("eps",), default={}).get("eps", _number, 0.1)
    for key, number in (("conditions.tolerance", tolerance), ("budget.eps", budget_eps)):
        if not number > 0.0:
            raise ConfigError(f"{key}: must be positive, got {number}")

    plan = _build_plan(root, dist)

    try:
        config = ExperimentConfig(plan=plan, checkpoints=checkpoints, replications=replications,
                                  seed=seed)
    except PlanError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc

    directory = root.section("output", ("directory",), default={}).get(
        "directory", _string, "heavytrim-out")
    out = Path(out_dir) if out_dir is not None else Path(directory)
    return RunSpec(config=config, condition_grid=condition_grid, condition_tolerance=tolerance,
                   budget_eps=budget_eps, output_dir=out, raw=raw)


# --------------------------------------------------------------------------
# deterministic SVG plots
# --------------------------------------------------------------------------

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 28, 44


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _chart(path: Path, title: str, y_label: str, xs, band, lines, marks) -> Path:
    """Write to ``path`` one SVG chart against ``xs`` (log10 n): the ``(lo,
    hi, color)`` band unless it is ``None``, each ``(ys, color, width,
    dash)`` line, and the ``(xs, color)`` marks of values of inf on the top
    edge.  Non-finite values are not drawn: they neither size the frame nor
    appear in a line or band.
    """
    ys = [v for line in lines for v in line[0]] + ([] if band is None else band[0] + band[1])
    ys = [v for v in ys if math.isfinite(v)] or [0.0]
    pad = 0.05 * (max(ys) - min(ys) or 1.0)
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys) - pad, max(ys) + pad

    def x(v):
        return _ML + (v - x_lo) / (x_hi - x_lo or 1.0) * (_W - _ML - _MR)

    def y(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo or 1.0) * (_H - _MT - _MB)

    def points(xs, ys) -> list[str]:
        return [f"{_fmt(x(a))},{_fmt(y(b))}" for a, b in zip(xs, ys) if math.isfinite(b)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">{title}</text>',
        f'<polyline fill="none" stroke="black" stroke-width="1" points="'
        f'{_ML},{_MT} {_ML},{_H - _MB} {_W - _MR},{_H - _MB}"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv, yv = x_lo + frac * (x_hi - x_lo), y_lo + frac * (y_hi - y_lo)
        parts += [f'<text x="{_fmt(x(xv))}" y="{_H - _MB + 16}" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="10">{_fmt(xv)}</text>',
                  f'<text x="{_ML - 6}" y="{_fmt(y(yv) + 3)}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>']
    parts += [f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" '
              f'font-family="sans-serif" font-size="11">log10 n</text>',
              f'<text x="14" y="{_H // 2}" text-anchor="middle" font-family="sans-serif" '
              f'font-size="11" transform="rotate(-90 14 {_H // 2})">{y_label}</text>']
    if band is not None:
        lo, hi, color = band
        parts.append(f'<polygon fill="{color}" fill-opacity="0.25" stroke="none" '
                     f'points="{" ".join(points(xs, lo) + points(xs[::-1], hi[::-1]))}"/>')
    for ys, color, width, dash in lines:
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{extra} '
                     f'points="{" ".join(points(xs, ys))}"/>')
    off, color = marks
    if off:
        d = " ".join(f"M{_fmt(x(a))},{_MT} l-5,9 h10 z" for a in off)
        parts.append(f'<path fill="{color}" stroke="none" d="{d}"><title>inf</title></path>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def _read_aggregate_csv(path: Path) -> dict[str, list[float]]:
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if len(lines) < 2:
        raise ConfigError(f"{path}: aggregate CSV has no data rows")
    header = lines[0].split(",")
    cols: dict[str, list[float]] = {h: [] for h in header}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}: line {lineno}: malformed CSV row: {line!r}")
        for h, c in zip(header, cells):
            try:
                cols[h].append(float(c))
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: {h} is not a number: {c!r}") from None
    return cols


def plot(aggregate_csv: str | Path, out_dir: str | Path) -> list[Path]:
    """Render the ratio-band and raw-running-max plots from an aggregate CSV.

    A pure function of the CSV bytes: identical input produces identical
    SVG output.  Single-replication aggregates collapse the band into the
    median line and only the line is drawn.  The CSV is read and checked
    before ``out_dir`` is made, so a malformed one leaves nothing behind.
    """
    aggregate_csv = Path(aggregate_csv)
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
    for lineno, n in enumerate(ns, start=2):
        if not 0 < n < math.inf:  # plotted as log10 n
            raise ConfigError(f"{aggregate_csv}: line {lineno}: "
                              f"n must be positive and finite, got {n!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    xs = [math.log10(n) for n in ns]
    single = reps <= 1
    ratios = _chart(out_dir / "ratios.svg",
                    "trimmed (solid) and truncated (dashed) sum over scale", "ratio", xs,
                    None if single else (tr_lo, tr_hi, "#4878b0"),
                    [([1.0] * len(xs), "#999999", 1.0, "4 3"), (tr_med, "#2f5597", 2.0, ""),
                     (tc_med, "#c04b4b", 1.5, "6 3")],
                    ([], ""))
    safelog = lambda v: 0.0 if v <= 0 else math.log10(v)  # inf and nan stay non-finite
    rm_med, rm_lo, rm_hi = ([safelog(v) for v in col] for col in (rm_med, rm_lo, rm_hi))
    # a median of inf has no place on the axis: it is marked above the frame's data
    dichotomy = _chart(out_dir / "dichotomy.svg", "running max of raw sum over scale",
                       "log10 running max", xs, None if single else (rm_lo, rm_hi, "#8f6db0"),
                       [(rm_med, "#5e3d8f", 2.0, "")],
                       ([a for a, v in zip(xs, rm_med) if v == math.inf], "#5e3d8f"))
    return [ratios, dichotomy]


# --------------------------------------------------------------------------
# run orchestration
# --------------------------------------------------------------------------

class RunManifest(NamedTuple):
    """What ``manifest.json`` records of one run; ``to_json`` writes it."""

    config_sha256: str
    seed: int
    version: str
    stage_seconds: dict[str, float]
    files: dict[str, str]
    verdicts: dict[str, str]
    plan_warnings: tuple[str, ...]
    failed: bool

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv(rows) -> str:
    return "".join(",".join(str(c) for c in row) + "\n" for row in rows)


def _condition_reports(spec: RunSpec) -> tuple[tuple[PlanPoint, ...], tuple[str, ...],
                                               list[ConditionReport]]:
    """The plan table on the condition grid, the plan's warnings and the
    condition reports, all from that one table.  A grid unfit for verdicts,
    or a plan that cannot be evaluated or fails a check on it, is a config error.
    """
    plan = spec.config.plan
    try:
        check_condition_grid(spec.condition_grid)
        table = plan.table(spec.condition_grid)
    except (TrimmingError, DistributionError) as exc:
        raise ConfigError(f"conditions.grid: {exc}") from exc
    try:
        warnings = check_plan(plan, table)
    except (TrimmingError, DistributionError) as exc:
        raise ConfigError(f"plan: {exc}") from exc
    return table, warnings, [check_condition(plan, cid, table, spec.condition_tolerance)
                             for cid in conditions_for_plan(plan)]


def run(spec: RunSpec) -> RunManifest:
    """Execute all stages and write artifacts plus the manifest.

    Order: condition reports, budget table, traces, aggregate, plots.
    ``HEAVYTRIM_WORKERS`` is parsed, the plan table on the condition grid
    built once and checked (it serves the condition reports and the budget),
    and every CSV and text artifact computed before the output directory is
    made, so a run that fails before the plots writes nothing.
    ``manifest.failed`` is set when a pointwise hypothesis is violated.
    """
    try:
        workers()
    except ValueError as exc:  # a MonteCarloError naming the variable
        raise ConfigError(str(exc)) from None
    stage_seconds = {}
    last = time.perf_counter()

    def lap(stage: str) -> None:  # the stages run back to back
        nonlocal last
        now = time.perf_counter()
        stage_seconds[stage], last = now - last, now

    table, warnings, reports = _condition_reports(spec)
    texts = {"conditions.txt": format_condition_report(reports)}
    verdicts = {r.condition: r.verdict for r in reports}
    lap("conditions")
    texts["budget.csv"] = _csv(borel_cantelli_budget(spec.budget_eps, table).csv_rows())
    lap("budget")
    traces = simulate(spec.config)
    texts["traces.csv"] = _csv(trace_csv_rows(spec.config, traces))
    lap("traces")
    texts["aggregate.csv"] = _csv(aggregate(spec.config, traces).csv_rows())
    lap("aggregate")
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, newline="")
    written = [out / name for name in texts] + plot(out / "aggregate.csv", out)
    lap("plots")
    files = {p.name: _sha256(p) for p in written}

    cfg_bytes = json.dumps(spec.raw, sort_keys=True).encode()
    manifest = RunManifest(
        config_sha256=hashlib.sha256(cfg_bytes).hexdigest(), seed=spec.config.seed,
        version=__version__, stage_seconds=stage_seconds, files=files, verdicts=verdicts,
        plan_warnings=warnings, failed=any(v == "violated" for v in verdicts.values()))
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest


def _spec(args) -> RunSpec:
    return parse_config(args.config, seed=args.seed, replications=args.replications,
                        n_max=args.nmax, out_dir=args.out_dir)


def _cmd_run(args) -> int:
    spec = _spec(args)
    manifest = run(spec)
    for cid, verdict in manifest.verdicts.items():
        marker = {"satisfied": "ok", "violated": "FAIL", "inconclusive": "warn"}[verdict]
        print(f"[{marker}] {cid}: {verdict}")
    for w in manifest.plan_warnings:
        print(f"[warn] plan: {w}")
    print(f"artifacts in {spec.output_dir}")
    return 1 if manifest.failed else 0


def _cmd_check(args) -> int:
    _, warnings, reports = _condition_reports(_spec(args))
    print(format_condition_report(reports), end="")
    for w in warnings:
        print(f"[warn] plan: {w}")
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def _cmd_plot(args) -> int:
    paths = plot(args.csv, args.out_dir or ".")
    for p in paths:
        print(p)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    import argparse  # here, so that importing the library does not load it
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
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
