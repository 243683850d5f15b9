import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heavytrim
from heavytrim import expcli
from heavytrim.distributions import ParetoTail, SquareStep, Tabulated
from heavytrim.expcli import (CONFIG_GRAMMAR, ConfigError, main, parse_config,
                              plot, run)
from heavytrim.trimming import (AllowanceTrimRule, PowerThreshold, StandardTrimRule,
                                SummableFunction, check_plan)


def write_config(tmp_path: Path, overrides=None, drop=None) -> Path:
    cfg = {
        "distribution": {"family": "pareto", "alpha": 0.5, "scale": 1.0},
        "plan": {"rule": "standard", "epsilon": 0.05,
                 "threshold": {"rule": "power", "exponent": 0.8}},
        "experiment": {"checkpoints": [1000, 3162, 10000],
                       "replications": 4, "seed": 20260810},
        "conditions": {"grid": [1000, 3162, 10000, 31623, 100000,
                                316228, 1000000, 3162278, 10000000]},
        "output": {"directory": str(tmp_path / "out")},
    }
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    for path in drop or ():
        node = cfg
        keys = path.split(".")
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg, indent=1))
    return p


# a general plan that builds but breaks the pointwise trim floor at small n
FLOOR_VIOLATION = {
    "plan": {"rule": "general", "epsilon": 0.05,
             "threshold": {"rule": "power", "exponent": 0.8},
             "trim": {"rule": "standard"},
             "summable": {"family": "power", "param": 4.0},
             "summable-alt": {"family": "power", "param": 2.0}},
}


class TestParseConfig:
    def test_happy_path(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        assert isinstance(spec.config.distribution, ParetoTail)
        assert spec.config.replications == 4
        assert spec.config.seed == 20260810
        assert spec.condition_grid[-1] == 10_000_000

    def test_square_step_builtin_with_standard_plan(self, tmp_path):
        p = write_config(tmp_path, {
            "distribution": {"family": "square-step"},
            "plan.threshold": {"rule": "square-step"},
        })
        spec = parse_config(p)
        assert isinstance(spec.config.distribution, SquareStep)
        assert spec.config.plan.log_threshold(1000) == 16.0 * math.log(2.0)

    def test_tabulated_and_atomic_families(self, tmp_path):
        p = write_config(tmp_path, {
            "distribution": {"family": "tabulated",
                             "rows": [[1.0, 0.0, "linear"], [4.0, 1.0, "linear"]]},
            "plan": {"rule": "default", "epsilon": 0.05},
        })
        assert isinstance(parse_config(p).config.distribution, Tabulated)
        p2 = write_config(tmp_path, {
            "distribution": {"family": "atomic-step",
                             "atoms": [[2.0, 0.5], [8.0, 0.5]]},
            "plan": {"rule": "default", "epsilon": 0.05},
        })
        # jump rows at the running sum of the masses
        atomic = parse_config(p2).config.distribution
        assert isinstance(atomic, Tabulated)
        assert (atomic.xs, atomic.fs, atomic.kinds) == ((2.0, 8.0), (0.5, 1.0), ("jump", "jump"))

    @pytest.mark.parametrize("family, param", [("polylog", 2.0), ("exponential", 1.5)])
    @pytest.mark.parametrize("trim", ["standard", "proof-variant", "allowance"])
    def test_general_trim_rules(self, tmp_path, trim, family, param):
        p = write_config(tmp_path, {"plan": {**FLOOR_VIOLATION["plan"], "trim": {"rule": trim},
                                             "summable": {"family": family, "param": param}}})
        plan = parse_config(p).config.plan
        summable = SummableFunction(family, param)
        assert plan.summable == summable
        assert plan.summable_alt == SummableFunction.power(2.0)
        assert plan.trim_rule == {"standard": StandardTrimRule(),
                                  "proof-variant": StandardTrimRule(log_floor=True),
                                  "allowance": AllowanceTrimRule()}[trim]

    def test_missing_seed_rejected(self, tmp_path):
        p = write_config(tmp_path, drop=["experiment.seed"])
        with pytest.raises(ConfigError, match="seed"):
            parse_config(p)

    def test_epsilon_domain_rejected(self, tmp_path):
        p = write_config(tmp_path, {"plan.epsilon": 0.3})
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(p)

    def test_unknown_family_rejected(self, tmp_path):
        p = write_config(tmp_path, {"distribution": {"family": "cauchy"}})
        with pytest.raises(ConfigError, match="cauchy"):
            parse_config(p)

    def test_unsorted_checkpoints_rejected(self, tmp_path):
        p = write_config(tmp_path, {"experiment.checkpoints": [1000, 1000, 500]})
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(p)

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n "distribution": {,}\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(p)

    def test_overrides_win(self, tmp_path):
        spec = parse_config(write_config(tmp_path), seed=5, replications=2,
                            n_max=2000, out_dir=tmp_path / "elsewhere")
        assert spec.config.seed == 5
        assert spec.config.replications == 2
        assert spec.config.checkpoints == (1000,)
        assert spec.output_dir == tmp_path / "elsewhere"

    def test_grammar_documents_families(self):
        assert "square-step" in CONFIG_GRAMMAR
        assert "seed" in CONFIG_GRAMMAR


class TestRun:
    def test_artifacts_and_manifest(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        manifest = run(spec)
        out = spec.output_dir
        for name in ("conditions.txt", "budget.csv", "traces.csv",
                     "aggregate.csv", "ratios.svg", "dichotomy.svg",
                     "manifest.json"):
            assert (out / name).exists()
        saved = json.loads((out / "manifest.json").read_text())
        assert saved["files"] == manifest.files
        assert saved["seed"] == 20260810
        assert not manifest.failed
        assert manifest.verdicts["trim-floor"] == "satisfied"
        import hashlib
        for name, digest in manifest.files.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_shipped_demo_matches_its_pinned_digests(self, tmp_path):
        # configs/demo.json as shipped: 100 replications to 1e5.  Its six
        # artifacts are pinned in configs/demo.sha256.json; a change to the
        # engine that moves any sum, count or ratio moves a digest
        configs = Path(__file__).resolve().parents[1] / "configs"
        assert main(["run", str(configs / "demo.json"), "--out-dir", str(tmp_path)]) == 0
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["files"] == json.loads((configs / "demo.sha256.json").read_text())

    def test_shipped_st_petersburg_matches_its_pinned_digests(self, tmp_path):
        # configs/st-petersburg.json: atoms 2**k of mass 2**-k, k <= 49, read
        # as jump rows, under the default plan; digests pinned likewise
        configs = Path(__file__).resolve().parents[1] / "configs"
        assert main(["run", str(configs / "st-petersburg.json"), "--out-dir", str(tmp_path)]) == 0
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["files"] == json.loads((configs / "st-petersburg.sha256.json").read_text())

    def test_rerun_reproduces_checksums(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        first = run(spec)
        second = run(parse_config(write_config(tmp_path)))
        assert first.files == second.files

    def test_pointwise_violation_sets_failure(self, tmp_path):
        # the standard trim stays below the power(4) allowance's floor
        p = write_config(tmp_path, FLOOR_VIOLATION, drop=["conditions.grid"])
        manifest = run(parse_config(p))
        assert manifest.verdicts["trim-floor"] == "violated"
        assert manifest.failed


class TestPlot:
    def test_single_replication_has_no_band(self, tmp_path):
        p = write_config(tmp_path, {"experiment.replications": 1})
        spec = parse_config(p)
        run(spec)
        svg = (spec.output_dir / "ratios.svg").read_text()
        assert "<polygon" not in svg
        assert "<polyline" in svg

    def test_bands_present_with_many_replications(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        run(spec)
        svg = (spec.output_dir / "ratios.svg").read_text()
        assert "<polygon" in svg

    def test_plot_is_pure_function_of_csv(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        run(spec)
        csv = spec.output_dir / "aggregate.csv"
        a = plot(csv, tmp_path / "p1")
        b = plot(csv, tmp_path / "p2")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_infinite_running_max_is_not_drawn(self, tmp_path):
        # log-tail draws pass the float range, so S_n is inf on most paths
        p = write_config(tmp_path, {
            "distribution": {"family": "log-tail"},
            "plan": {"rule": "default", "epsilon": 0.05},
            "experiment.checkpoints": [1000, 10000, 100000],
            "experiment.seed": 1,
        }, drop=["conditions.grid"])
        spec = parse_config(p)
        run(spec)
        agg = (spec.output_dir / "aggregate.csv").read_text()
        assert "nan" not in agg
        assert "inf" in agg
        for name in ("ratios.svg", "dichotomy.svg"):
            svg = (spec.output_dir / name).read_text()
            assert "nan" not in svg
            for attr in re.findall(r'\b(?:points|x|y)="([^"]*)"', svg):
                assert all(math.isfinite(float(v)) for v in re.split(r"[ ,]", attr) if v)

    def test_infinite_running_max_is_marked_off_scale(self, tmp_path):
        # a median running max of inf gets a marker on the frame's top edge
        # at its checkpoint; the finite median keeps its line
        csv = tmp_path / "aggregate.csv"
        csv.write_text("n,replications,trimmed_q05,trimmed_q50,trimmed_q95,truncated_q50,"
                       "untrimmed_runmax_q05,untrimmed_runmax_q50,untrimmed_runmax_q95\n"
                       "1000,3,1,1,1,1,2,5,inf\n10000,3,1,1,1,1,3,inf,inf\n"
                       "100000,3,1,1,1,1,inf,inf,inf\n")
        svg = plot(csv, tmp_path / "plots")[1].read_text()
        marks = re.findall(r'd="([^"]*)"><title>inf</title>', svg)
        assert marks == ["M384,28 l-5,9 h10 z M704,28 l-5,9 h10 z"]  # log10 n = 4 and 5

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n\n")
        with pytest.raises(ConfigError):
            plot(bad, tmp_path)
        bad.write_text("n,trimmed_q50\n10,0.5,99\n")
        with pytest.raises(ConfigError):
            plot(bad, tmp_path)
        # checked before the output directory is made
        full = ("n,replications,trimmed_q05,trimmed_q50,trimmed_q95,truncated_q50,"
                "untrimmed_runmax_q05,untrimmed_runmax_q50,untrimmed_runmax_q95\n")
        for text, match in [("n,trimmed_q50\n1000,0.5\n1000,abc\n", "line 3: trimmed_q50"),
                            ("n,trimmed_q50\n1000,0.5\n", "missing column"),
                            (full + "0,4,1,1,1,1,1,1,1\n", "line 2: n must be positive")]:
            bad.write_text(text)
            with pytest.raises(ConfigError, match=match):
                plot(bad, tmp_path / "plots")
            assert not (tmp_path / "plots").exists()
        bad.write_bytes(b"n\n\xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            plot(bad, tmp_path / "plots")
        assert not (tmp_path / "plots").exists()


class TestMain:
    def test_run_roundtrip_exit_zero(self, tmp_path, capsys):
        code = main(["run", str(write_config(tmp_path))])
        assert code == 0
        outp = capsys.readouterr().out
        assert "trim-floor: satisfied" in outp

    def test_check_only(self, tmp_path, capsys):
        code = main(["check", str(write_config(tmp_path))])
        assert code == 0
        assert "condition standard-limit" in capsys.readouterr().out

    def test_plot_subcommand(self, tmp_path, capsys):
        spec = parse_config(write_config(tmp_path))
        run(spec)
        code = main(["plot", str(spec.output_dir / "aggregate.csv"),
                     "--out-dir", str(tmp_path / "plots")])
        assert code == 0
        assert (tmp_path / "plots" / "ratios.svg").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        p = write_config(tmp_path, drop=["experiment.seed"])
        assert main(["run", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("experiment.seed", "seven"),
        ("experiment.replications", 2.5),
        ("experiment.checkpoints", [1000, "3162", 10000]),
        ("conditions.tolerance", "tight"),
        ("budget.eps", "wide"),
        ("budget.eps", 0),
        ("conditions.grid", [1000, 10000, 100000, 1000000]),
        ("budget.eps", math.inf),
        ("conditions.tolerance", math.nan),
        ("conditions.tolerance", -1),
        ("conditions.tolerance", 0),
        ("distribution.alpha", math.nan),
        ("experiment.checkpoints", [1000, 10 ** 400]),
        ("conditions.grid", [1000, 3162, 10000, 31623, 100000, 316228, 1000000, 10 ** 400]),
    ], ids=["seed", "replications", "checkpoint", "tolerance", "eps-type",
            "eps-zero", "grid-points", "eps-infinite", "tolerance-nan",
            "tolerance-negative", "tolerance-zero", "alpha-nan", "checkpoint-beyond-float",
            "grid-beyond-float"])
    def test_malformed_value_exit_two(self, tmp_path, capsys, key, value):
        p = write_config(tmp_path, {key: value})
        assert main(["run", str(p)]) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("experiment", 5),
        ("conditions", [1]),
        ("plan.threshold", 0.8),
        ("conditions.tolerence", 0.01),
        ("distribution.scal", 2.0),
        ("experiment.max_samples", 1000000),
        ("experiment.max-samples", 10 ** 400),
        ("budgett", {"eps": 0.1}),
        ("plan.validate", False),
    ], ids=["experiment-number", "conditions-list", "threshold-number", "tolerance-typo",
            "scale-typo", "max-samples-typo", "max-samples-beyond-float", "budget-typo",
            "validate"])
    def test_config_shape_exit_two(self, tmp_path, capsys, key, value):
        # a section that is not an object, or a key no section knows; the
        # sample ceiling experiment.max-samples is no key
        p = write_config(tmp_path, {key: value})
        for command in ("check", "run"):
            assert main([command, str(p)]) == 2
            assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, overrides", [
        ("distribution.rows", [[1.0, 1.0, "jump"]], {}),
        ("distribution.max-index", 40, {}),
        ("distribution.alpha", 0.5, {"distribution": {"family": "log-tail"}}),
        ("plan.threshold", {"rule": "power", "exponent": 0.8},
         {"plan.rule": "default", "plan.trim": {"rule": "bogus"}}),
        ("plan.trim", {"rule": "bogus"}, {"plan": {"rule": "default", "epsilon": 0.05}}),
        ("plan.threshold.coefficient", 100, {"plan.threshold.rule": "projected-power"}),
        ("plan.threshold.exponent", 0.8, {"plan.threshold": {"rule": "square-step"}}),
    ], ids=["rows-on-pareto", "max-index-on-pareto", "alpha-on-log-tail",
            "threshold-on-default", "trim-on-default", "coefficient-on-projected-power",
            "exponent-on-square-step"])
    def test_key_of_another_variant_exit_two(self, tmp_path, capsys, key, value, overrides):
        # a section allows only the keys of the family or rule it names; a key
        # of another one was once ignored without a word
        p = write_config(tmp_path, {**copy.deepcopy(overrides), key: value})
        for command in ("check", "run"):
            assert main([command, str(p)]) == 2
            assert f"config error: {key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("plan.epsilon", [0.05]),
        ("plan.threshold.exponent", [0.8]),
        ("plan.threshold.coefficient", [1.0]),
        ("plan.summable.param", [2.0]),
        ("plan.summable-alt.param", None),
        ("output.directory", 5),
        ("distribution.alpha", "0.5"),
        ("distribution.scale", "1.0"),
        ("distribution.threshold", "3.0"),
        ("distribution.max-index", 40.9),
        ("distribution.max-index", True),
        ("distribution.atoms", [["2", 0.5], [8.0, 0.5]]),
        ("distribution.rows", [[1.0, "0", "linear"], [4.0, 1.0, "linear"]]),
        ("distribution.rows", [[1.0, 0.0, "linear"], [4.0, 1.0, 5]]),
        ("distribution.atoms", 5),
        ("distribution.atoms", [[2.0]]),
        ("distribution.atoms", {"a": 1}),
        ("distribution.rows", 5),
        ("distribution.rows", [[2.0]]),
        ("distribution.rows", {"a": 1}),
        ("distribution.rows", [[1.0, 0.0]]),
    ], ids=["epsilon", "exponent", "coefficient", "summable", "summable-alt", "directory",
            "alpha", "scale", "log-tail-threshold", "max-index-fraction", "max-index-bool",
            "atom", "row", "row-kind", "atoms-number", "atom-short", "atoms-object",
            "rows-number", "row-short", "rows-object", "row-without-kind"])
    def test_wrong_type_exit_two(self, tmp_path, capsys, key, value):
        # a value of the wrong JSON type names its key; each family's section
        # holds only its own keys
        power = {"family": "power", "param": 2.0}
        family = {"distribution.threshold": "log-tail", "distribution.max-index": "square-step",
                  "distribution.atoms": "atomic-step", "distribution.rows": "tabulated"}
        p = write_config(tmp_path, {
            "plan": {"rule": "general", "epsilon": 0.05,
                     "threshold": {"rule": "power", "exponent": 0.8},
                     "trim": {"rule": "standard"},
                     "summable": power, "summable-alt": dict(power)},
            "distribution": ({"family": family[key]} if key in family
                             else {"family": "pareto", "alpha": 0.5, "scale": 1.0}),
            key: value,
        })
        for command in ("check", "run"):
            assert main([command, str(p)]) == 2
            assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_atomic_step_rejections_exit_two(self, tmp_path, capsys):
        # an empty list, a zero mass, decreasing locations, masses over 1
        for atoms in ([], [[2.0, 0.0]], [[2.0, 0.5], [1.0, 0.1]], [[2.0, 0.9], [4.0, 0.2]]):
            p = write_config(tmp_path, {
                "distribution": {"family": "atomic-step", "atoms": atoms},
                "plan": {"rule": "default", "epsilon": 0.05},
            })
            for command in ("check", "run"):
                assert main([command, str(p)]) == 2
                assert "config error: distribution.atoms" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["distribution.alpha", "plan.epsilon", "budget.eps",
                                     "conditions.tolerance"])
    def test_integer_beyond_float_range_exit_two(self, tmp_path, capsys, key):
        # valid JSON: an integer literal has no size limit, a float has
        p = write_config(tmp_path, {key: 10 ** 400})
        for command in ("check", "run"):
            assert main([command, str(p)]) == 2
            assert f"config error: {key}: integer beyond the float range" in \
                capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_beyond_float_range_exit_two(self, tmp_path, capsys):
        # the default condition grid ends at the last checkpoint, so that
        # checkpoint is read as a count before the grid is built
        p = write_config(tmp_path, {"experiment.checkpoints": [1000, 10 ** 400]},
                         drop=["conditions.grid"])
        for command in ("check", "run"):
            assert main([command, str(p)]) == 2
            assert capsys.readouterr().err == (
                "config error: experiment.checkpoints: integer beyond the float range\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b'{"a": "\xff"}', b'{"a": 1' + b"0" * 5000 + b"}",
                                      b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "digit-limit", "too-deep"])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        for command in ("check", "run"):
            assert main([command, str(bad)]) == 2
            assert f"config error: {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "n,trimmed_q50\n1000,abc\n", "n,trimmed_q50\n1000,0.5\n",
        "n,replications,trimmed_q05,trimmed_q50,trimmed_q95,truncated_q50,untrimmed_runmax_q05,"
        "untrimmed_runmax_q50,untrimmed_runmax_q95\n1000,4,1,1,1,1,1,1,1\ninf,4,1,1,1,1,1,1,1\n",
    ], ids=["not-a-number", "missing-column", "n-infinite"])
    def test_malformed_csv_plot_exit_two(self, tmp_path, capsys, text):
        bad = tmp_path / "aggregate.csv"
        bad.write_text(text)
        assert main(["plot", str(bad), "--out-dir", str(tmp_path / "plots")]) == 2
        assert f"config error: {bad}" in capsys.readouterr().err
        assert not (tmp_path / "plots").exists()

    def test_internal_error_exit_three(self, tmp_path, capsys, monkeypatch):
        def crash(config):
            raise OverflowError("integer division result too large for a float")
        monkeypatch.setattr(expcli, "simulate", crash)
        assert main(["run", str(write_config(tmp_path))]) == 3
        assert capsys.readouterr().err == (
            "internal error: OverflowError: integer division result too large for a float\n")

    @pytest.mark.parametrize("stage", ["simulate", "aggregate"])
    def test_internal_error_writes_nothing(self, tmp_path, capsys, monkeypatch, stage):
        # every CSV and text artifact is computed before the output directory
        # is made; conditions.txt and budget.csv were once left behind
        def crash(*args):
            raise RuntimeError("crash")
        monkeypatch.setattr(expcli, stage, crash)
        assert main(["run", str(write_config(tmp_path))]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: crash\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("distribution", [
        {"family": "log-tail", "threshold": 1e308},
        {"family": "atomic-step", "atoms": [[1e308, 0.5], [1.7e308, 0.5]]},
    ], ids=["log-tail", "atomic-step"])
    def test_finite_sum_past_the_float_range_reads_inf(self, tmp_path, distribution):
        # every draw is finite, but 1000 of them sum past the float range; the
        # exact sum rounds to inf, as IEEE rounding does, where it once raised
        # OverflowError (exit 3)
        p = write_config(tmp_path, {"distribution": distribution,
                                    "plan": {"rule": "default", "epsilon": 0.05},
                                    "experiment": {"checkpoints": [1000, 3162],
                                                   "replications": 2, "seed": 1}},
                         drop=["conditions.grid"])
        assert main(["run", str(p)]) == 0
        with open(tmp_path / "out" / "traces.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["S_n"] == "inf" for r in rows)

    def test_check_has_no_sample_ceiling(self, tmp_path, capsys):
        # check draws nothing; a checkpoint at 1e9 was once refused by a
        # ceiling of 1e7 samples, which streaming paths made moot
        p = write_config(tmp_path, {"experiment.checkpoints": [1000, 1_000_000_000]},
                         drop=["conditions.grid"])
        assert parse_config(p).config.n_max == 10 ** 9
        assert main(["check", str(p)]) == 0
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["two", "", "2.0"])
    def test_malformed_workers_exit_two(self, tmp_path, capsys, monkeypatch, value):
        # run parses HEAVYTRIM_WORKERS before the output directory is made;
        # check does not read it
        monkeypatch.setenv("HEAVYTRIM_WORKERS", value)
        p = write_config(tmp_path)
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"config error: HEAVYTRIM_WORKERS: expected an integer, got {value!r}\n")
        assert not (tmp_path / "out").exists()
        assert main(["check", str(p)]) == 0

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unevaluable_condition_grid_exit_two(self, tmp_path, capsys, command):
        # the polylog(1.5) allowance is undefined at n = 4 (floor(log n) = 1);
        # the plan parses and only the condition grid exposes it
        polylog = {"family": "polylog", "param": 1.5}
        p = write_config(tmp_path, {
            "plan": {"rule": "general", "epsilon": 0.05,
                     "threshold": {"rule": "power", "exponent": 0.8},
                     "trim": {"rule": "standard"},
                     "summable": polylog, "summable-alt": polylog},
            "conditions.grid": [4 * 10 ** k for k in range(8)],
        })
        assert main([command, str(p)]) == 2
        assert "config error: conditions.grid: log weight" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_decreasing_threshold_exit_two(self, tmp_path, capsys, monkeypatch):
        # the checkpoint table, built while parsing, meets the rule first
        monkeypatch.setattr(PowerThreshold, "log_threshold",
                            lambda rule, dist, n: math.log(1e6 / n))
        power = {"family": "power", "param": 2.0}
        p = write_config(tmp_path, {
            "plan": {"rule": "general", "epsilon": 0.05,
                     "threshold": {"rule": "power", "exponent": 0.8},
                     "trim": {"rule": "standard"},
                     "summable": power, "summable-alt": power},
        })
        assert main(["run", str(p)]) == 2
        assert "config error: plan: threshold decreases" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("overrides, message", [
        # t(100) = 0.40 lies below the support, outside the condition grid
        ({"plan.threshold.coefficient": 0.01, "experiment.checkpoints": [100, 1000, 10000],
          "conditions.grid": [1000, 2000, 5000, 10000, 20000, 50000, 100000, 1000000]},
         "plan: threshold at n = 100 is not a quantile fixed point of the law; "),
        # the default threshold projects n**0.4 onto the support minimum 100
        ({"distribution.scale": 100.0, "plan": {"rule": "default", "epsilon": 0.05},
          "experiment.checkpoints": [1000, 10000]},
         "plan: d(n) vanishes at n = 1000"),
    ], ids=["below-support", "vanishing-scale"])
    def test_checkpoint_table_is_judged_exit_two(self, tmp_path, capsys, command, overrides,
                                                 message):
        # the checkpoints go through check_plan like the condition grid, and
        # d(n) must be positive there: no ZeroDivisionError after two artifacts
        p = write_config(tmp_path, overrides)
        assert main([command, str(p)]) == 2
        assert capsys.readouterr().err.startswith("config error: " + message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_floor_violation_exit_one(self, tmp_path, capsys, command):
        # one judge: a failing trim floor is the trim-floor verdict, not a
        # config error, whatever the plan rule
        p = write_config(tmp_path, FLOOR_VIOLATION, drop=["conditions.grid"])
        assert main([command, str(p)]) == 1
        outp = capsys.readouterr().out
        if command == "run":
            assert "[FAIL] trim-floor: violated" in outp
            saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert saved["failed"] and saved["verdicts"]["trim-floor"] == "violated"
        else:
            assert "condition trim-floor\n  kind: pointwise\n  quantity: " in outp
            assert "verdict: violated" in outp
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_structural_plan_failure_exit_two(self, tmp_path, capsys, command):
        # a power threshold misses the step law's atoms on the condition grid
        p = write_config(tmp_path, {"distribution": {"family": "square-step"}})
        assert main([command, str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: plan: threshold at n = 1000 is not a quantile fixed point")
        assert not (tmp_path / "out").exists()

    def test_plan_warnings_come_from_the_condition_grid(self, tmp_path):
        p = write_config(tmp_path, {"distribution": {"family": "square-step"},
                                    "plan": {"rule": "default", "epsilon": 0.1}})
        spec = parse_config(p)
        manifest = run(spec)
        plan = spec.config.plan
        assert manifest.plan_warnings == check_plan(plan, plan.table(spec.condition_grid))
        assert any("stalls" in w for w in manifest.plan_warnings)

    def test_check_prints_the_plan_warnings_of_run(self, tmp_path, capsys):
        p = write_config(tmp_path, {"distribution": {"family": "square-step"},
                                    "plan": {"rule": "default", "epsilon": 0.1}})
        printed = {}
        for command in ("run", "check"):
            assert main([command, str(p)]) == 0
            printed[command] = [line for line in capsys.readouterr().out.splitlines()
                                if line.startswith("[warn] plan: ")]
        assert len(printed["run"]) == 5
        assert all("stalls" in line for line in printed["run"])
        assert printed["check"] == printed["run"]

    def test_cli_overrides(self, tmp_path):
        p = write_config(tmp_path)
        code = main(["run", str(p), "--replications", "2", "--nmax", "2000",
                     "--out-dir", str(tmp_path / "ovr"), "--seed", "11"])
        assert code == 0
        traces = (tmp_path / "ovr" / "traces.csv").read_text().splitlines()
        # header + 2 replications x 1 checkpoint
        assert len(traces) == 3

    def test_manifest_hashes_the_config_the_run_used(self, tmp_path):
        # the overrides enter the hash as values of the experiment section;
        # without them, or with the file's own seed, the hash is the file's.
        # The output directory, which no artifact depends on, never enters it
        import hashlib
        p = write_config(tmp_path, {"experiment.checkpoints": [1000, 3162]})
        hashes = {}
        for flags in ([], ["--replications", "2"], ["--replications", "3"], ["--seed", "11"],
                      ["--nmax", "2000"], ["--seed", "20260810"]):
            out = tmp_path / f"run-{len(hashes)}"
            assert main(["run", str(p), "--out-dir", str(out), *flags]) == 0
            hashes[" ".join(flags)] = json.loads((out / "manifest.json").read_text())["config_sha256"]
        raw = json.dumps(json.loads(p.read_text()), sort_keys=True).encode()
        assert hashes[""] == hashes["--seed 20260810"] == hashlib.sha256(raw).hexdigest()
        assert len(set(hashes.values())) == 5

    def test_import_loads_no_scipy(self):
        src = str(Path(heavytrim.__file__).resolve().parents[1])
        probe = ("import sys, heavytrim.expcli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('scipy', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", probe],
                             env={**os.environ, "PYTHONPATH": src}, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "[]"
