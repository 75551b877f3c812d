"""Tests of the benchmark itself, at smoke size (a few seconds in all).

    python3 -m pytest perfbench
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from griddistill import cli, evaluate, expert, gridenv, optim, rng, trainer  # noqa: E402


def _run(tmp_path, name, trace, seed=7):
    return bench.run(name, seed, 0.0, trace, str(tmp_path / name), str(ROOT), smoke=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, name):
    result = _run(tmp_path, name, trace=False)
    assert result.record["errors"] == []
    assert result.correct and result.failed == 0
    assert result.attempted >= bench.MIN_CYCLES
    assert list(result.metrics) == list(bench.END_TO_END_UNITS)
    assert all(value > 0 for value, _unit in result.metrics.values())
    assert all(ok for _name, ok, _detail in result.record["checks"])


def test_traced_run_matches_untraced_outputs(tmp_path):
    # same output directory: the config echo records it
    untraced = _run(tmp_path, "paper-default", trace=False)
    traced = _run(tmp_path, "paper-default", trace=True)
    assert traced.correct and traced.failed == 0
    assert traced.record["digests"] == untraced.record["digests"]
    assert list(traced.metrics) == list(bench.per_layer_units())
    metrics = {name: value for name, (value, _unit) in traced.metrics.items()}
    assert metrics["tinynet.forward.calls"] > 0
    assert metrics["rng.next_uniform_array.draws"] > 0
    # by-value imports are traced too: trainer/evaluate/expert/gridenv/cli
    # derive streams through their own `derive_stream` names
    assert metrics["rng.derive_stream.calls"] > metrics["gridenv.generate.calls"]


def _bindings() -> dict:
    """The names a traced run rebinds, including by-value imports."""
    return {
        "rng.derive_stream": rng.derive_stream,
        "trainer.derive_stream": trainer.derive_stream,
        "evaluate.derive_stream": evaluate.derive_stream,
        "expert.derive_stream": expert.derive_stream,
        "gridenv.derive_stream": gridenv.derive_stream,
        "cli.derive_stream": cli.derive_stream,
        "cli.distill": cli.distill,
        "Adam.step": optim.Adam.step,
        "SgdMomentum.step": optim.SgdMomentum.step,
        "RngStream.next_uniform_array": rng.RngStream.next_uniform_array,
    }


def test_wrappers_are_restored(tmp_path):
    before = _bindings()
    with tracer.traced(tracer.Tracer()):
        inside = _bindings()
        assert not hasattr(rng.RngStream.next_int, "__wrapped__")  # per-draw method left alone
    assert all(inside[name] is not before[name] for name in before)
    assert _bindings() == before
    # a whole traced run leaves nothing behind either
    _run(tmp_path, "eval-stochastic", trace=True)
    assert _bindings() == before


def test_wrappers_restored_when_the_block_raises():
    original = optim.SgdMomentum.step
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Tracer()):
            raise RuntimeError("boom")
    assert optim.SgdMomentum.step is original


def test_a_layer_missing_from_the_package_reports_zero(monkeypatch):
    gone = tracer.Layer("rng.removed_function", rng, "removed_function")
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (gone,))
    t = tracer.Tracer()
    with tracer.traced(t):
        rng.derive_stream(1, "x")
    metrics = t.metrics()
    assert metrics["rng.removed_function.calls"] == 0
    assert metrics["rng.derive_stream.calls"] == 1
    assert not hasattr(rng, "removed_function")


def test_self_time_excludes_traced_children():
    t = tracer.Tracer()
    with tracer.traced(t):
        params = cli.tinynet.init_params(cli.tinynet.NetShape(in_dim=144), rng.derive_stream(1, "x"))
    assert params.theta.size > 0
    stats = t.stats
    parent, child = stats["tinynet.init_params"], stats["rng.next_uniform_array"]
    assert child.calls == 2 and parent.calls == 1
    assert parent.self_s == pytest.approx(parent.s - child.s, abs=1e-9)


def test_a_failing_check_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "_check_expert_best", lambda cfg, out: (False, "forced"))
    result = _run(tmp_path, "distill-soft", trace=False)
    assert not result.correct
    assert result.failed == 1
    assert any("expert_best_id" in e for e in result.record["errors"])


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_run_refuses_a_directory_without_sources(tmp_path):
    import shutil
    import subprocess

    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    shutil.copy(HERE / "run.py", bench_dir / "run.py")
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "paper-default"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench")
