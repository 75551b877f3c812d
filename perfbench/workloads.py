"""Workloads of the griddistill pipeline benchmark, and their output checks.

Every workload runs all four pipeline stages, collect -> distill -> train
-> eval, through the public `cli.cmd_*` functions on a scaled-down copy of
the default experiment. What tells workloads apart is their configuration
and where they split the pipeline: the stages before `split` are the
workload's set-up (the inputs its timed body needs), the stages from
`split` on are its timed body. Each stage's wall time is reported from
wherever it ran, so every workload reports every stage.

The checks read the outputs back through the package's own loaders and
test properties that hold for any root seed; they pin no golden values.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from griddistill import cli, datasets, evaluate
from griddistill.distill import load_synthetic

STAGES = ("collect", "distill", "train", "eval")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    split: int  # index in STAGES of the first stage of the timed body
    configure: Callable  # (ExperimentConfig) -> None, applied to the defaults

    @property
    def setup_stages(self) -> tuple:
        return STAGES[: self.split]

    @property
    def body_stages(self) -> tuple:
        return STAGES[self.split :]


def _paper_default(cfg: cli.ExperimentConfig) -> None:
    # Default run-all at about 1/20 of its cost: collection as published,
    # every other count cut, every per-step hyperparameter left alone.
    cfg.distill.epochs = 50
    cfg.student.n_students = 2
    cfg.student.bc.steps = 200
    cfg.eval.id_seed_count = 40
    cfg.eval.ood_seed_count = 20


def _distill_soft(cfg: cli.ExperimentConfig) -> None:
    # Soft-label distillation; only the synthetic cohort is trained, and it
    # is evaluated on a handful of seeds.
    cfg.percentiles = []
    cfg.distill.epochs = 100
    cfg.distill.learn_labels = True
    cfg.distill.balanced_init = True
    cfg.student.n_students = 2
    cfg.eval.id_seed_count = 20
    cfg.eval.ood_seed_count = 10


def _eval_stochastic(cfg: cli.ExperimentConfig) -> None:
    # Expert, bc100 and synthetic cohorts sampled from the policy on the
    # default ID/OOD seeds, two episodes per seed.
    cfg.percentiles = [100]
    cfg.distill.epochs = 20
    cfg.student.n_students = 2
    cfg.student.bc.steps = 300
    cfg.eval.action_rule = "stochastic"
    cfg.eval.episodes_per_seed = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-default",
            "default run-all scaled down: all four stages timed with the paper's per-step "
            "settings, so each stage costs its share of a real run",
            0,
            _paper_default,
        ),
        Workload(
            "distill-soft",
            "collect in set-up; times label-learning distillation with balanced init, which "
            "bypasses BC training and nearly all of eval",
            1,
            _distill_soft,
        ),
        Workload(
            "eval-stochastic",
            "collect, distill and train in set-up; times sampled-action eval of expert, bc100 "
            "and synthetic cohorts on the default seeds, no distill or training",
            3,
            _eval_stochastic,
        ),
    )
}


def shrink_for_smoke(cfg: cli.ExperimentConfig) -> None:
    """Cut every count to a few units so a whole workload runs in about a
    second; used by the benchmark's own tests."""
    cfg.collect.episodes = min(cfg.collect.episodes, 12)
    cfg.distill.epochs = min(cfg.distill.epochs, 3)
    cfg.distill.synthetic_size = min(cfg.distill.synthetic_size, 20)
    cfg.distill.real_batch = min(cfg.distill.real_batch, 32)
    cfg.student.bc.steps = min(cfg.student.bc.steps, 5)
    cfg.student.synthetic.steps = min(cfg.student.synthetic.steps, 5)
    cfg.eval.id_seed_count = min(cfg.eval.id_seed_count, 4)
    cfg.eval.ood_seed_count = min(cfg.eval.ood_seed_count, 2)


def make_config(workload: Workload, seed: int, out_dir: str, smoke: bool = False):
    cfg = cli.ExperimentConfig(root_seed=seed, output_dir=out_dir)
    workload.configure(cfg)
    if smoke:
        shrink_for_smoke(cfg)
    return cfg


def stage_ops(stage: str, cfg: cli.ExperimentConfig) -> list:
    """The operations of one stage as (name, thunk); each is one attempted
    operation of the benchmark."""
    if stage == "collect":
        return [("collect", lambda: cli.cmd_collect(cfg))]
    if stage == "distill":
        return [("distill", lambda: cli.cmd_distill(cfg))]
    if stage == "train":
        return [(f"train:{m}", lambda m=m: cli.cmd_train(cfg, m)) for m in cfg.methods()]
    if stage == "eval":
        return [("eval", lambda: cli.cmd_eval(cfg))]
    raise ValueError(f"unknown stage {stage!r}")


# -- workspace -------------------------------------------------------------


def list_files(root: str) -> list:
    """Relative paths of every file under root, sorted."""
    out = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


def digest(root: str) -> str:
    """sha256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for rel in list_files(root):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def total_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(root, rel)) for rel in list_files(root))


# -- output checks ---------------------------------------------------------


def _check_offline(cfg, out):
    ds = datasets.load(os.path.join(out, "offline.jsonl"))
    return len(ds) > 0, f"{len(ds)} rows"


def _check_distill_loss(cfg, out):
    with open(os.path.join(out, "distill_loss.csv")) as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = (
        lines[0] == "epoch,loss"
        and len(rows) == cfg.distill.epochs
        and all(int(r[0]) == i and math.isfinite(float(r[1])) for i, r in enumerate(rows))
    )
    return ok, f"{len(rows)} rows for {cfg.distill.epochs} epochs"


def _check_synthetic(cfg, out):
    syn = load_synthetic(os.path.join(out, "synthetic.json"))
    m = cfg.distill.synthetic_size
    ok = syn.xs.shape == (m, cfg.env.obs_dim) and bool(np.isfinite(syn.xs).all())
    if cfg.distill.learn_labels:
        logits = syn.label_logits
        ok = ok and logits is not None and logits.shape[0] == m
        ok = ok and bool(np.isfinite(logits).all())
    else:
        ok = ok and syn.label_logits is None
    return ok, f"{syn.xs.shape[0]} rows, logits={syn.label_logits is not None}"


def _expected_episodes(cfg, method: str, split: str) -> int:
    seeds = cfg.eval.id_seed_count if split == "ID" else cfg.eval.ood_seed_count
    students = 1 if method == "expert" else cfg.student.n_students
    return seeds * cfg.eval.episodes_per_seed * students


def _check_results_table(cfg, out):
    reports = evaluate.read_csv(os.path.join(out, "results.csv"))
    methods = ["expert"] + cfg.methods()
    ok = len(reports) == 2 * len(methods) and sorted({r.method for r in reports}) == sorted(methods)
    ok = ok and all(
        r.n_episodes == _expected_episodes(cfg, r.method, r.split) for r in reports
    )
    return ok, f"{len(reports)} rows"


def _method_meta(out, method):
    with open(os.path.join(out, "checkpoints", method, "meta.json")) as fh:
        return json.load(fh)


def _check_bc_sizes(cfg, out):
    bc = [m for m in cfg.methods() if m.startswith("bc")]
    sizes = [_method_meta(out, m)["dataset_size"] for m in bc]
    ok = sizes == sorted(sizes)
    detail = dict(zip(bc, sizes))
    if "bc100" in bc:
        rows = len(datasets.load(os.path.join(out, "offline.jsonl")))
        ok = ok and detail["bc100"] == rows
        detail["offline_rows"] = rows
    return ok, str(detail)


def _check_expert_best(cfg, out):
    reports = evaluate.read_csv(os.path.join(out, "results.csv"))
    id_means = {r.method: r.mean_return for r in reports if r.split == "ID"}
    expert = id_means.pop("expert")
    return all(expert >= v for v in id_means.values()), f"expert {expert:.3f} vs {id_means}"


def check_outputs(cfg: cli.ExperimentConfig) -> list:
    """Run every check that applies to a finished workload; each returns
    (name, ok, detail). A check that raises counts as failed."""
    checks = [
        ("offline_loads", _check_offline),
        ("distill_loss_rows", _check_distill_loss),
        ("synthetic_rows", _check_synthetic),
        ("results_table", _check_results_table),
        ("expert_best_id", _check_expert_best),
    ]
    if any(m.startswith("bc") for m in cfg.methods()):
        checks.append(("bc_sizes", _check_bc_sizes))
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn(cfg, cfg.output_dir)
        except Exception as exc:  # a check that cannot run is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def results_summary(cfg: cli.ExperimentConfig) -> dict:
    """Ungated record of what the run produced: mean return per method and
    split, and the first and last distillation loss."""
    out = cfg.output_dir
    summary = {}
    for r in evaluate.read_csv(os.path.join(out, "results.csv")):
        summary[f"{r.split}:{r.method}"] = r.mean_return
    with open(os.path.join(out, "distill_loss.csv")) as fh:
        losses = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
    summary["distill_loss_first"] = losses[0]
    summary["distill_loss_last"] = losses[-1]
    return summary
