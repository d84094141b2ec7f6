"""Self-test of the benchmark harness; starts no worker process.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times, wrapped_sites  # noqa: E402


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,4] > b [2,3]; root > b [5,6]; root > c [7,9]
    t = Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 6, 7, 9, 10))
    t.begin("root")
    t.begin("a")
    t.begin("b")
    t.end()
    t.end()
    t.begin("b")
    t.end()
    t.begin("c")
    t.end()
    t.end()
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0, 0]
    assert self_times(t.spans) == {"root": (4, 1), "a": (2, 1), "b": (2, 2),
                                   "c": (2, 1)}


def test_install_wraps_at_lookup_site_and_uninstall_restores():
    mod = types.ModuleType("pkg.mod")

    def inner():
        return 2

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    package = types.SimpleNamespace(mod=mod)
    sites = (("mod", "outer"), ("mod", "inner"))
    t = Tracer()
    t.install(package, sites)
    assert wrapped_sites(package, sites) == ["mod.outer", "mod.inner"]
    assert mod.outer() == 3
    t.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert wrapped_sites(package, sites) == []
    assert [(s[0].rsplit(".", 1)[-1], s[3]) for s in t.spans] == [
        ("outer", -1), ("inner", 0)]


def test_layer_metrics_take_self_times_counts_and_finest_factor():
    t = Tracer(clock=_clock(0, 1, 2, 3, 5, 6, 7, 10))
    t.begin(tracer.ROOT_SPAN)          # [0, 10]
    t.begin("asgs_core.step")          # [1, 7]
    t.begin("manufactured.forcing")    # [2, 3]
    t.end()
    t.begin("linalg.DirectFactor.solve")  # [5, 6]
    t.end()
    t.end()
    t.end()
    t.factors += [(10, 50, 200), (40, 300, 4000), (20, 100, 900)]
    metrics, counts, wall = layer_metrics(t)
    assert wall == 10
    assert metrics["asgs_core.step_self_s"] == 4
    assert metrics["manufactured.forcing_s"] == 1
    assert metrics["linalg.backsolve_s"] == 1
    assert metrics["linalg.factor_s"] == 0
    assert metrics["asgs_core.steps"] == 1
    assert metrics["manufactured.forcing_calls"] == 1
    assert metrics["linalg.factor_nnz"] == 4000
    assert metrics["linalg.matrix_nnz"] == 300
    assert counts["asgs_core.step"] == 1
    assert set(metrics) == set(tracer.LAYER_METRICS) - {
        "trace.overhead_pct", "trace.self_coverage_pct"}


def test_op_counter_counts_attempted_and_failed():
    ops = workloads.OpCounter()
    assert ops.run(2, lambda: "ok") == "ok"

    def broken():
        raise ValueError("singular")

    assert ops.run(3, broken) is None
    assert (ops.attempted, ops.failed) == (5, 3)


def _round(attempted=4, failed=0, wall=1.0, problems=(), counts=None):
    r = {"setup_s": 0.5, "wall_s": wall, "peak_rss_mb": 100.0,
         "attempted": attempted, "failed": failed, "problems": list(problems)}
    if counts is not None:
        names = [n for n in tracer.LAYER_METRICS if not n.startswith("trace.")]
        r.update(layers=dict.fromkeys(names, 1), counts=counts,
                 self_coverage_pct=99.0)
    return r


def _run(monkeypatch, capsys, rounds, trace):
    feed = iter(rounds)
    monkeypatch.setattr(run, "run_worker", lambda *a, **k: next(feed))
    status = run.main(["--workload", "w", "--seed", "1", "--seconds", "0",
                       "--trace", str(trace)])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_untraced_run_prints_end_to_end_metrics_and_sums_operations(
        monkeypatch, capsys):
    rounds = [_round(attempted=4, failed=1)] + [_round()] * 4
    status, result = _run(monkeypatch, capsys, rounds, trace=0)
    assert status == 0
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_run_prints_layer_metrics_and_requires_equal_counts(
        monkeypatch, capsys):
    rounds = [_round(wall=1.0), _round(wall=1.1, counts={"x": 1}),
              _round(wall=1.3, counts={"x": 1})]
    status, result = _run(monkeypatch, capsys, rounds, trace=1)
    assert status == 0 and result["correct"] is True
    assert result["attempted"] == 12
    expected = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead_pct"]["value"] == pytest.approx(20)

    rounds = [_round(), _round(counts={"x": 1}), _round(counts={"x": 2})]
    _, result = _run(monkeypatch, capsys, rounds, trace=1)
    assert result["correct"] is False


def test_benchmark_json_matches_the_harness():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == tracer.LAYER_METRICS
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_run_without_the_solver_sources_exits_nonzero(monkeypatch, tmp_path,
                                                      capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    status = run.main(["--workload", "be_space_study", "--seed", "1",
                       "--seconds", "1"])
    assert status != 0
    assert capsys.readouterr().out == ""
