"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s or -rA to see the lines for passing
criteria).

The heavyweight criteria share one default pipeline run (the base_run
session fixture, root seed 42); the distillation-improvement criterion
runs its own ten collect+distill cycles at root seeds 0..9 as specified.
"""

import filecmp
import glob
import hashlib
import json
import math
import os
import time

import numpy as np

from griddistill import checks, cli, datasets, evaluate, trainer
from griddistill import distill as dst
from griddistill.rng import derive_stream


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _csv_rows(path):
    rows = {}
    for r in evaluate.read_csv(path):
        rows[(r.method, r.split)] = r
    return rows


def test_ac1_gradient_oracle():
    start = time.monotonic()
    worst = checks.check_bc_grad(n_cases=20, tol=1e-4)
    elapsed = time.monotonic() - start
    _report(
        "AC-1 bc_grad vs central finite differences",
        worst <= 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_ac2_second_order_oracle():
    start = time.monotonic()
    worst = checks.check_matching_grad(n_cases=10, tol=1e-3)
    elapsed = time.monotonic() - start
    _report(
        "AC-2 matching gradient vs finite differences",
        worst <= 1e-3 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_ac3_distillation_optimizes_matching_loss(tmp_path):
    wins = 0
    ratios = []
    per_run_ok = True
    for root_seed in range(10):
        config = cli.ExperimentConfig()
        config.root_seed = root_seed
        config.output_dir = str(tmp_path / f"run{root_seed}")
        start = time.monotonic()
        cli.cmd_collect(config)
        cli.cmd_distill(config)
        elapsed = time.monotonic() - start
        per_run_ok = per_run_ok and elapsed < 300.0
        hist = np.loadtxt(
            os.path.join(config.output_dir, "distill_loss.csv"), delimiter=",", skiprows=1
        )[:, 1]
        ratio = hist[-1] / hist[0]
        ratios.append(ratio)
        if hist[-1] < 0.5 * hist[0]:
            wins += 1
    _report(
        "AC-3 final-epoch loss < 0.5 x first-epoch loss in >= 9/10 runs",
        wins >= 9 and per_run_ok,
        f"{wins}/10 runs halved; ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_ac4_synthetic_vs_real_subset_and_bc100(base_run):
    out = str(base_run["out"])
    rows = _csv_rows(os.path.join(out, "results.csv"))
    syn_id = rows[("synthetic", "ID")]
    bc100_id = rows[("bc100", "ID")]

    # baseline: identical training protocol on 150 uniformly sampled real rows
    ds = datasets.load(os.path.join(out, "offline.jsonl"))
    config = cli.ExperimentConfig()
    baseline_rows = dst.init_synthetic(ds, 150, False, derive_stream(42, "ac4:real150"))
    cohort = trainer.train_cohort(
        baseline_rows.xs,
        baseline_rows.training_labels(),
        trainer.TrainConfig.for_synthetic(),
        config.net_shape(),
        config.student.n_students,
        derive_stream(42, "train:real150").next_u64(),
    )
    _expert_id, _expert_ood, base_id, _ = evaluate.evaluate_cohorts(
        {"real150": (cohort, 150)}, config.env, config.eval, config.collect.gamma, 42
    )

    gap = bc100_id.mean_return - syn_id.mean_return
    sigma = min(bc100_id.std_return, syn_id.std_return)
    _report(
        "AC-4 synthetic >= real-150 baseline and within 1 sigma of bc100",
        syn_id.mean_return >= base_id.mean_return and gap <= sigma,
        f"synthetic {syn_id.mean_return:.3f} vs real150 {base_id.mean_return:.3f}; "
        f"bc100 gap {gap:.3f} vs sigma {sigma:.3f}",
    )


def test_ac5_ood_generalization(base_run):
    rows = _csv_rows(os.path.join(str(base_run["out"]), "results.csv"))
    syn_id = rows[("synthetic", "ID")].mean_return
    syn_ood = rows[("synthetic", "OOD")].mean_return
    rel = abs(syn_ood - syn_id) / abs(syn_id)
    _report(
        "AC-5 synthetic OOD mean within 25% relative of ID mean",
        rel <= 0.25,
        f"ID {syn_id:.3f}, OOD {syn_ood:.3f}, relative gap {rel:.1%}",
    )


def test_ac6_percentile_filter_exactness(base_run):
    ds = datasets.load(os.path.join(str(base_run["out"]), "offline.jsonl"))
    n_episodes = len(ds.episode_ids())
    ok = True
    details = []
    for x in (10, 25, 40, 100):
        spec, _ = datasets.percentile_filter(ds, x)
        expected = math.ceil(x / 100.0 * n_episodes)
        g0 = ds.episode_g0()
        kept_min = min(g0[e] for e in spec.kept_episodes)
        dropped = [g for e, g in g0.items() if e not in spec.kept_episodes]
        exact = len(spec.kept_episodes) == expected and (not dropped or kept_min >= max(dropped))
        ok = ok and exact and spec.threshold_b == kept_min
        details.append(f"x={x}: kept {len(spec.kept_episodes)}/{expected}")
    _report("AC-6 percentile filter exactness", ok, "; ".join(details))


def test_ac7_planner_optimality_oracle():
    start = time.monotonic()
    n = checks.check_planner(n_specs=20)
    elapsed = time.monotonic() - start
    _report(
        "AC-7 greedy planner equals exhaustive search on 20 random 4x4 maps",
        n == 20 and elapsed < 60.0,
        f"{n} maps, {elapsed:.1f}s",
    )


def test_ac8_determinism(base_run, tmp_path):
    first = str(base_run["out"])
    second = str(tmp_path / "rerun")
    assert cli.main(["--seed", "42", "--out", second, "run-all"]) == 0

    def mismatches(a, b):
        files = ["offline.jsonl", "synthetic.json", "results.csv"]
        files += [
            os.path.relpath(p, a)
            for p in glob.glob(os.path.join(a, "checkpoints", "**", "student_*.json"), recursive=True)
        ]
        return [f for f in files if not filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)]

    bad_rerun = mismatches(first, second)
    _report(
        "AC-8 byte-identical outputs across reruns",
        not bad_rerun,
        f"rerun diffs {bad_rerun}",
    )


def _golden_digests(name: str) -> dict:
    """A tests/data sha256 record as {path: digest}. OpenBLAS picks its
    kernels per CPU, so another machine may differ in low bits and need its
    own record."""
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        pairs = [line.split("  ", 1) for line in fh.read().splitlines()]
    return {rel: digest for digest, rel in pairs}


def _output_digests(out: str, prefix: str = "") -> dict:
    """sha256 of every file under `out` but the config echo (it names the
    output directory), keyed by prefix + its relative path."""
    got = {}
    for root, _dirs, files in os.walk(out):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), out).replace(os.sep, "/")
            if rel != "config.echo.json":
                with open(os.path.join(root, name), "rb") as fh:
                    got[prefix + rel] = hashlib.sha256(fh.read()).hexdigest()
    return got


def _report_digests(name: str, golden: dict, got: dict):
    differ = sorted(rel for rel in golden.keys() | got.keys() if golden.get(rel) != got.get(rel))
    _report(name, not differ, f"{len(got)} files, differing {differ}")


def test_run_all_seed42_matches_golden_digests(base_run):
    _report_digests(
        "run-all --seed 42 outputs match tests/data/run_all_seed42.sha256",
        _golden_digests("run_all_seed42.sha256"),
        _output_digests(str(base_run["out"])),
    )


def test_smoke_runs_match_golden_digests(tmp_path):
    # run-all on the two smoke configs: the argmax and the stochastic
    # action rule
    got = {}
    for name in ("smoke", "smoke.stochastic"):
        config = os.path.join(os.path.dirname(__file__), "data", f"{name}.config.json")
        out = str(tmp_path / name)
        assert cli.main(["--config", config, "--out", out, "run-all"]) == 0
        got.update(_output_digests(out, prefix=f"{name}/"))
    _report_digests(
        "smoke run-all outputs match tests/data/smoke_seed42.sha256",
        _golden_digests("smoke_seed42.sha256"),
        got,
    )


def test_ac9_end_to_end_budget(base_run):
    elapsed = base_run["elapsed"]
    _report(
        "AC-9 full default pipeline under 15 minutes",
        elapsed < 900.0,
        f"{elapsed:.0f}s",
    )


def test_expert_dominates_students_on_id_split(base_run):
    # eval-module invariant: the planner's ID mean beats every student
    # cohort's ID mean by a wide margin (2 sigma slack on the pooled sem)
    rows = _csv_rows(os.path.join(str(base_run["out"]), "results.csv"))
    assert len(rows) == 12  # 6 methods x 2 splits
    expert_mean = rows[("expert", "ID")].mean_return
    for method in ("bc10", "bc25", "bc40", "bc100", "synthetic"):
        r = rows[(method, "ID")]
        sem = r.std_return / math.sqrt(r.n_episodes)
        assert expert_mean >= r.mean_return - 2 * sem, method


def test_pipeline_artifacts_match_protocol(base_run):
    # collection size, synthetic row count, and filtered dataset sizes
    out = str(base_run["out"])
    meta = json.load(open(os.path.join(out, "offline.meta.json")))
    assert meta["episode_count"] == 100
    syn = dst.load_synthetic(os.path.join(out, "synthetic.json"))
    assert len(syn) == 150
    sizes = {}
    for method in ("bc10", "bc25", "bc40", "bc100"):
        m = json.load(open(os.path.join(out, "checkpoints", method, "meta.json")))
        sizes[method] = m["dataset_size"]
    assert sizes["bc10"] < sizes["bc25"] < sizes["bc40"] < sizes["bc100"]
    assert sizes["bc100"] == meta["rows"]


def test_ac10_config_echo_pinned_hyperparameters(base_run):
    echo = json.load(open(os.path.join(str(base_run["out"]), "config.echo.json")))
    golden_path = os.path.join(os.path.dirname(__file__), "data", "config.echo.golden.json")
    golden = json.load(open(golden_path))
    echo_cmp = {k: v for k, v in echo.items() if k != "output_dir"}
    golden_cmp = {k: v for k, v in golden.items() if k != "output_dir"}
    pinned = (
        echo["student"]["bc"] == {"steps": 1000, "batch": 256, "lr": 5e-3}
        and echo["student"]["synthetic"] == {"steps": 100, "batch": 15, "lr": 5e-3}
        and echo["student"]["n_students"] == 10
        and echo["distill"]["lr"] == 0.1
        and echo["distill"]["momentum"] == 0.5
        and echo["distill"]["epochs"] == 1000
        and echo["distill"]["synthetic_size"] == 150
        and echo["collect"]["episodes"] == 100
    )
    _report(
        "AC-10 config echo records the pinned hyperparameters (golden file)",
        pinned and echo_cmp == golden_cmp,
        "root seed 42 echo vs tests/data/config.echo.golden.json",
    )
