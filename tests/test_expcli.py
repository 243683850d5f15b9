import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heavytrim
from heavytrim.distributions import AtomicStep, ParetoTail, Tabulated
from heavytrim.expcli import (CONFIG_GRAMMAR, ConfigError, main, parse_config,
                              plot, run)


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
        assert isinstance(spec.config.distribution, AtomicStep)
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
        assert isinstance(parse_config(p2).config.distribution, AtomicStep)

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

    def test_rerun_reproduces_checksums(self, tmp_path):
        spec = parse_config(write_config(tmp_path))
        first = run(spec)
        second = run(parse_config(write_config(tmp_path)))
        assert first.files == second.files

    def test_pointwise_violation_sets_failure(self, tmp_path):
        p = write_config(tmp_path, {
            "plan": {"rule": "general", "epsilon": 0.05,
                     "threshold": {"rule": "power", "exponent": 0.8},
                     "trim": {"rule": "allowance"},
                     "summable": {"family": "power", "param": 4.0},
                     "summable-alt": {"family": "power", "param": 2.0},
                     "validate": False},
        })
        spec = parse_config(p)

        # sabotage after construction: shrink the trim rule below the floor
        class Meager:
            name = "meager"

            def raw_count(self, n, expect_gt):
                return expect_gt + 1.0

        import dataclasses
        plan = dataclasses.replace(spec.config.plan, trim_rule=Meager())
        cfg = dataclasses.replace(spec.config, plan=plan)
        spec = dataclasses.replace(spec, config=cfg)
        manifest = run(spec)
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

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n\n")
        with pytest.raises(ConfigError):
            plot(bad, tmp_path)
        bad.write_text("n,trimmed_q50\n10,0.5,99\n")
        with pytest.raises(ConfigError):
            plot(bad, tmp_path)


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
    ], ids=["seed", "replications", "checkpoint", "tolerance", "eps-type",
            "eps-zero", "grid-points"])
    def test_malformed_value_exit_two(self, tmp_path, capsys, key, value):
        p = write_config(tmp_path, {key: value})
        assert main(["run", str(p)]) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unevaluable_condition_grid_exit_two(self, tmp_path, capsys, command):
        # the polylog(1.5) allowance is undefined at n = 4 (floor(log n) = 1);
        # without validation the plan parses and only the grid exposes it
        polylog = {"family": "polylog", "param": 1.5}
        p = write_config(tmp_path, {
            "plan": {"rule": "general", "epsilon": 0.05, "validate": False,
                     "threshold": {"rule": "power", "exponent": 0.8},
                     "trim": {"rule": "standard"},
                     "summable": polylog, "summable-alt": polylog},
            "conditions.grid": [4 * 10 ** k for k in range(8)],
        })
        assert main([command, str(p)]) == 2
        assert "config error: conditions.grid: log weight" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_overrides(self, tmp_path):
        p = write_config(tmp_path)
        code = main(["run", str(p), "--replications", "2", "--nmax", "2000",
                     "--out-dir", str(tmp_path / "ovr"), "--seed", "11"])
        assert code == 0
        traces = (tmp_path / "ovr" / "traces.csv").read_text().splitlines()
        # header + 2 replications x 1 checkpoint
        assert len(traces) == 3

    def test_import_loads_no_scipy(self):
        src = str(Path(heavytrim.__file__).resolve().parents[1])
        probe = ("import sys, heavytrim.expcli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe],
                             env={**os.environ, "PYTHONPATH": src}, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "[]"
