"""Tests of the benchmark's own code: failure accounting, artifact checks,
summaries and span self times.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import verify  # noqa: E402
from tracing import Tracer, covered, descendants, self_times  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


# -- failure accounting ------------------------------------------------------

def _run(run_s=1.0, rss=100.0, setup=0.5, error=None, problems=()):
    return {"run_s": run_s, "peak_rss_mb": rss, "setup_s": setup,
            "error": error, "problems": list(problems)}


def test_raising_run_counts_as_failed_and_adds_no_time_or_memory():
    boom = {"type": "OverflowError", "stage": "run", "message": "intermediate overflow"}
    runs = [_run(1.0, 100.0), _run(None, 900.0, error=boom), _run(3.0, 120.0)]
    t = run.tally(runs)
    assert (t["attempted"], t["failed"]) == (3, 1)
    assert t["errors"] == {"OverflowError": 1}
    assert t["run_s"] == [1.0, 3.0]
    assert t["peak_rss_mb"] == [100.0, 120.0]
    assert t["setup_s"] == [0.5, 0.5, 0.5]


def test_run_with_failed_check_counts_as_failed():
    t = run.tally([_run(2.0, problems=["traces.csv: mismatch"]), _run(1.0)])
    assert (t["attempted"], t["failed"]) == (2, 1)
    assert t["run_s"] == [1.0]


def test_all_runs_failing_leaves_no_timing():
    boom = {"type": "OverflowError", "stage": "run", "message": ""}
    t = run.tally([_run(error=boom), _run(error=boom)])
    assert t["failed"] == t["attempted"] == 2
    assert t["run_s"] == [] and t["peak_rss_mb"] == []


# -- summaries ---------------------------------------------------------------

def test_summary_median_and_percentile_with_ten_beyond():
    s = run.summarize([float(v) for v in range(1, 101)])
    assert s["median"] == 50.5 and s["count"] == 100
    # 90th percentile by nearest rank is the 90th value; ten values lie above it
    assert (s["percentile"], s["percentile_value"]) == (90, 90.0)


def test_summary_has_no_percentile_below_eleven_samples():
    s = run.summarize([3.0, 1.0, 2.0])
    assert s["median"] == 2.0 and s["count"] == 3
    assert s["percentile"] is None
    assert run.summarize([float(v) for v in range(11)])["percentile"] is not None


def test_summary_of_nothing():
    assert run.summarize([])["median"] is None


# -- spans -------------------------------------------------------------------

def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "error": None}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("root", 0.0, 10.0, None),
             _span("a", 1.0, 4.0, 0),
             _span("b", 3.0, 6.0, 0),      # overlaps a: union is [1, 6]
             _span("c", 2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert sum(self_times(spans)[i] for i in descendants(spans, 0)) == pytest.approx(11.0)
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_tracer_records_nesting_errors_and_generator_work():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        @staticmethod
        def rows():
            yield from range(3)

        @staticmethod
        def fail():
            raise OverflowError("boom")

    tracer.wrap(Layer, "rows", "rows", materialize=True)
    tracer.wrap(Layer, "fail", "fail")
    with tracer.span("root"):
        assert list(Layer.rows()) == [0, 1, 2]
        with pytest.raises(OverflowError):
            Layer.fail()
    names = [(s["name"], s["parent"], s["error"]) for s in tracer.spans]
    assert names == [("root", None, None), ("rows", 0, None), ("fail", 0, "OverflowError")]


# -- artifact checks -----------------------------------------------------------

def _fake_artifacts(out: Path) -> None:
    out.mkdir(parents=True)
    for name in verify.ARTIFACTS:
        (out / name).write_text(f"{name} contents\n")
    (out / "traces.csv").write_text(",".join(verify.TRACE_COLUMNS) + "\n"
                                    "0,1000,5.0,4.0,3.0,1,2,3,7.5,2.0,2.0,1.5\n")


def test_tampered_artifact_is_a_mismatch(tmp_path):
    out = tmp_path / "out"
    _fake_artifacts(out)
    found = verify.checksums(out)
    refs = {"w": {"seed_free": {k: found[k] for k in verify.SEED_FREE},
                  "seeds": {"7": {k: v for k, v in found.items() if k not in verify.SEED_FREE}}}}
    assert set(verify.compare(found, refs, "w", 7).values()) == {"match"}
    (out / "aggregate.csv").write_text("aggregate.csv contents!\n")
    status = verify.compare(verify.checksums(out), refs, "w", 7)
    assert status["aggregate.csv"] == "mismatch"
    assert status["conditions.txt"] == "match"
    # a seed without recorded references still checks the seed-free artifacts
    status = verify.compare(verify.checksums(out), refs, "w", 8)
    assert status["aggregate.csv"] == "unrecorded" and status["budget.csv"] == "match"


def test_absent_reference_is_never_a_match(tmp_path):
    out = tmp_path / "out"
    _fake_artifacts(out)
    (out / "traces.csv").unlink()
    found = verify.checksums(out)
    refs = {"w": {"seed_free": {}, "seeds": {"1": {"traces.csv": None}}}}
    assert verify.compare(found, refs, "w", 1)["traces.csv"] == "absent-reference"
    _fake_artifacts(tmp_path / "again")
    found = verify.checksums(tmp_path / "again")
    assert verify.compare(found, refs, "w", 1)["traces.csv"] == "unexpected"


def test_check_run_fails_a_run_with_a_tampered_artifact(tmp_path):
    out = tmp_path / "out"
    _fake_artifacts(out)
    first = verify.checksums(out)
    (out / "ratios.svg").write_text("<svg/>\n")
    record = _run()
    run.check_run(record, ROOT, out, tmp_path / "c.json", "w", 1, {}, first)
    assert record["problems"] == ["ratios.svg: differs from the first run of this seed"]
    assert run.tally([record])["failed"] == 1


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One real child run of a cut-down pareto-demo config."""
    work = tmp_path_factory.mktemp("bench")
    config = make_config("pareto-demo", 20260810, work / "out")
    config["experiment"].update(checkpoints=[1000, 3162, 10000], replications=3)
    path = work / "config.json"
    path.write_text(json.dumps(config))
    record = run.start_child(ROOT, path, work / "result.json")
    return work, path, record


def test_child_reports_setup_run_and_memory(small_run):
    _, _, record = small_run
    assert record["error"] is None
    assert 0 < record["setup_s"] < 60 and 0 < record["run_s"] < 60
    assert record["peak_rss_mb"] > 10


def test_recomputation_accepts_real_output_and_catches_tampering(small_run, tmp_path):
    work, config, _ = small_run
    assert run.recompute(ROOT, work / "out", config) == []

    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(work / "out", bad)
    lines = (bad / "traces.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 2 ** -40))      # S_n of replication 0
    lines[2] = ",".join(cells)
    (bad / "traces.csv").write_text("\n".join(lines) + "\n")
    problems = run.recompute(ROOT, bad, config)
    assert any("S_n" in p for p in problems)

    shutil.copytree(work / "out", tmp_path / "bad2")
    agg = tmp_path / "bad2" / "aggregate.csv"
    agg.write_text(agg.read_text().replace(",3\n", ",4\n", 1))
    assert run.recompute(ROOT, tmp_path / "bad2", config) == [
        "aggregate.csv: differs from the recomputation from traces.csv"]


def test_workloads_write_the_seed_into_the_config(tmp_path):
    for name in WORKLOADS:
        cfg = make_config(name, 42, tmp_path)
        assert cfg["experiment"]["seed"] == 42
        assert cfg["output"]["directory"] == str(tmp_path)
    grid = make_config("step-lattice", 1, tmp_path)["conditions"]["grid"]
    assert len(grid) == 2000 and grid[0] == 1000 and grid[-1] == 10 ** 9
    assert all(b > a for a, b in zip(grid, grid[1:]))
    rows = make_config("tabulated-table", 1, tmp_path)["distribution"]["rows"]
    assert len(rows) == 61 and rows[-1] == [2.0 ** 60, 1.0, "jump"]
