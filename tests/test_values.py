"""heavytrim's values are built without generated code and keep value semantics.

The package defines no dataclasses, since generating their methods was most
of its import time.  Records are NamedTuples and validated values are plain
classes on ``distributions.Value``: configs, plans, laws and rules compare,
hash, pickle and print by their fields and refuse assignment.
"""

import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heavytrim import (AllowanceTrimRule, ExperimentConfig, ParetoTail, PlanError,
                       PowerThreshold, SquareStepThreshold, StandardTrimRule, Tabulated,
                       bounds, distributions, expcli, montecarlo, plan_standard,
                       trimming)
from heavytrim.expcli import parse_config
from heavytrim.trimming import check_plan

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def test_no_class_is_a_dataclass():
    for module in (distributions, trimming, bounds, montecarlo, expcli):
        for name, obj in vars(module).items():
            if isinstance(obj, type):
                assert not hasattr(obj, "__dataclass_fields__"), f"{module.__name__}.{name}"


def _loaded_by_numpy_and_by_heavytrim(module):
    code = (f"import sys, numpy; numpy_loaded = {module!r} in sys.modules; "
            f"import heavytrim.expcli; print(numpy_loaded, {module!r} in sys.modules)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=120).stdout.split()


def test_import_loads_no_dataclasses():
    out = _loaded_by_numpy_and_by_heavytrim("dataclasses")
    if out[0] == "True":
        pytest.skip("numpy itself imports dataclasses")
    assert out == ["False", "False"]


def test_import_loads_no_argparse():
    # only the command line parses arguments; main() imports argparse itself
    out = _loaded_by_numpy_and_by_heavytrim("argparse")
    if out[0] == "True":
        pytest.skip("numpy itself imports argparse")
    assert out == ["False", "False"]


@pytest.fixture(params=["demo", "tabulated-table"])
def config_path(request, tmp_path):
    if request.param == "demo":
        return ROOT / "configs" / "demo.json"
    return workloads.write_config("tabulated-table", 20260810, tmp_path / "out",
                                  tmp_path / "config.json")


def test_parsed_twice_equal_and_hash_equal(config_path):
    a, b = (parse_config(config_path).config for _ in range(2))
    for x, y in ((a, b), (a.plan, b.plan), (a.distribution, b.distribution)):
        assert x is not y
        assert x == y and hash(x) == hash(y)
        assert repr(x) == repr(y)


def test_pickle_round_trip(config_path):
    # what HEAVYTRIM_WORKERS > 1 sends to and gets back from each worker
    config = parse_config(config_path).config
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and hash(copy) == hash(config)
    assert copy.plan == config.plan and copy.distribution == config.distribution
    assert copy.points == config.points
    u = montecarlo.stream(config.seed, 0).random(10_000)
    assert np.array_equal(copy.distribution.sample_array(u), config.distribution.sample_array(u))
    trace = montecarlo.run_replication(montecarlo.ExperimentConfig(
        config.plan, config.checkpoints[:2], 1, config.seed), 0)
    assert pickle.loads(pickle.dumps(trace)) == trace


def test_fields_refuse_assignment(config_path):
    config = parse_config(config_path).config
    law = config.distribution
    for obj, name in ((config, "seed"), (config, "points"), (config.plan, "epsilon"),
                      (config.plan.threshold_rule, "exponent"), (config.plan.summable, "param"),
                      (law, law._fields[0]), (law, "_table")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        config.points[0].n = 5
    assert config == parse_config(config_path).config


def test_fieldless_rules_are_not_equal_across_types():
    # NamedTuple equality ignores the type, so these must not be bare tuples
    assert SquareStepThreshold() == SquareStepThreshold()
    assert hash(SquareStepThreshold()) == hash(SquareStepThreshold())
    assert SquareStepThreshold() != AllowanceTrimRule()
    assert AllowanceTrimRule() != StandardTrimRule()
    assert StandardTrimRule() != StandardTrimRule(log_floor=True)
    assert PowerThreshold(0.8) != (0.8, 1.0)
    assert repr(AllowanceTrimRule()) == "AllowanceTrimRule()"


def test_inadmissible_threshold_names_the_rule():
    law = Tabulated([(2.0, 0.5, "jump"), (4.0, 0.75, "jump"), (8.0, 1.0, "jump")])
    plan = plan_standard(law, PowerThreshold(exponent=0.8, coefficient=1.0), 0.05)
    message = ("threshold at n = 1000 is not a quantile fixed point of the law; "
               "rule PowerThreshold(exponent=0.8, coefficient=1.0) is inadmissible there")
    with pytest.raises(PlanError, match=re.escape(message)):
        check_plan(plan, plan.table([1000, 10000]))


def test_readme_library_sketch(capsys):
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(sketch, namespace)
    verdict, medians = capsys.readouterr().out.splitlines()
    assert verdict in ("satisfied", "violated", "inconclusive")
    assert all(0.0 < float(v) < math.inf for v in medians.strip("[]").split())
    # the sketch's keyword constructors and their positional forms agree
    law, plan, config = namespace["law"], namespace["plan"], namespace["config"]
    assert law == ParetoTail(0.5, 1.0) == ParetoTail(0.5)
    assert repr(law) == "ParetoTail(alpha=0.5, scale=1.0)"
    assert plan.threshold_rule == PowerThreshold(exponent=0.8, coefficient=1.0)
    assert config == ExperimentConfig(plan, [10**3, 10**4, 10**5], 100, 20260810)
    assert config.points == plan.table(config.checkpoints)
