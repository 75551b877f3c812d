"""Monte Carlo evaluation of trained students (and the planner itself) on
in-distribution and out-of-distribution seed sets, plus report emission.

On a fixed map a policy is a table from cell to action distribution: one
batched forward over the map's cell observations for a student, one-hot
greedy actions for the planner. Students act by argmax by default, so
cohort comparisons reflect training rather than action-sampling noise; the
`stochastic` action rule samples from the table instead, one stream per
episode. The planner always acts greedily. Reports carry both pooled
statistics over every episode and the mean of per-student statistics; the
CSV holds the pooled numbers, the markdown tables the per-student ones.
"""

import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import expert, gridenv, tinynet
from .gridenv import N_ACTIONS, EnvConfig
from .rng import RngStream, derive_stream

METHOD_ORDER = ("expert", "bc10", "bc25", "bc40", "bc100", "synthetic")


@dataclass
class EvalConfig:
    id_seeds: list = field(default_factory=lambda: list(range(200)))
    ood_seeds: list = field(default_factory=lambda: list(range(10000, 10100)))
    episodes_per_seed: int = 1
    action_rule: str = "argmax"  # or "stochastic"

    def __post_init__(self):
        if set(self.id_seeds) & set(self.ood_seeds):
            raise ValueError("ID and OOD seed sets must be disjoint")
        if self.episodes_per_seed < 1:
            raise ValueError("episodes_per_seed must be >= 1")
        if self.action_rule not in ("argmax", "stochastic"):
            raise ValueError(f"unknown action rule {self.action_rule!r}")


@dataclass
class EvalReport:
    method: str
    split: str  # "ID" | "OOD"
    mean_return: float
    std_return: float
    n_episodes: int
    dataset_size: int
    # mean of per-student means / population stds; equals the pooled stats
    # for a cohort of one
    student_mean: float | None = None
    student_std: float | None = None


def _sample_from(probs: np.ndarray, rng: RngStream) -> int:
    u = rng.next_uniform()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def _episode_return(table: np.ndarray, spec: gridenv.GridSpec, rng: RngStream | None) -> float:
    """One episode walking a (cells, N_ACTIONS) policy table; undiscounted
    return. Each visited cell's row gives the action: its argmax (ties break
    to the lowest index) when `rng` is None, else a draw from it."""
    greedy = table.argmax(axis=1).tolist()

    def choose(cell):
        return greedy[cell] if rng is None else _sample_from(table[cell], rng)

    return sum(s[3] for s in gridenv.run_episode(spec, choose))


def student_table(params: tinynet.PolicyParams, spec: gridenv.GridSpec) -> np.ndarray:
    """A student's action distribution on every cell of the map."""
    return tinynet.forward(params, gridenv.cell_observations(spec))


def planner_table(spec: gridenv.GridSpec, gamma: float) -> np.ndarray:
    """The planner's greedy action on every cell, as one-hot rows."""
    return np.eye(N_ACTIONS)[expert.value_iteration(spec, gamma=gamma).greedy_action]


def _evaluate(policies: list, streams, env_config, eval_cfg, method, dataset_size) -> tuple:
    """The evaluation body shared by cohorts and the planner. Member i's
    table on each map is `policies[i](spec)`, rolled episodes_per_seed times
    and dropped; `streams(split, i, seed, e)` gives each episode's stream, or
    None for argmax. Returns the (ID, OOD) reports, pooled across members."""
    reports = []
    for split, seeds in (("ID", eval_cfg.id_seeds), ("OOD", eval_cfg.ood_seeds)):
        by_member = [[] for _ in policies]
        for seed in seeds:
            spec = gridenv.generate(env_config, seed)
            for i, policy in enumerate(policies):
                table = policy(spec)
                by_member[i].extend(
                    _episode_return(table, spec, streams(split, i, seed, e))
                    for e in range(eval_cfg.episodes_per_seed)
                )
        pooled = np.concatenate(by_member)
        reports.append(
            EvalReport(
                method=method,
                split=split,
                mean_return=float(pooled.mean()),
                std_return=float(pooled.std()),
                n_episodes=len(pooled),
                dataset_size=dataset_size,
                student_mean=float(np.mean([float(np.mean(r)) for r in by_member])),
                student_std=float(np.mean([float(np.std(r)) for r in by_member])),
            )
        )
    return reports[0], reports[1]


def evaluate_cohort(
    cohort: list,
    env_config: EnvConfig,
    eval_cfg: EvalConfig,
    method: str,
    dataset_size: int,
    root_seed: int,
) -> tuple[EvalReport, EvalReport]:
    """Pool episode returns across all students (a list of PolicyParams in
    student order) and seeds per split."""
    if not cohort:
        raise ValueError("cohort is empty")

    def streams(split, i, seed, e):
        if eval_cfg.action_rule == "argmax":
            return None
        return derive_stream(root_seed, f"eval:{split}:{i}:{seed}:{e}")

    policies = [partial(student_table, params) for params in cohort]
    return _evaluate(policies, streams, env_config, eval_cfg, method, dataset_size)


def evaluate_expert(
    env_config: EnvConfig, eval_cfg: EvalConfig, gamma: float = 0.99
) -> tuple[EvalReport, EvalReport]:
    """The planner evaluated as a cohort of one (dataset_size 0: it never
    trains on the offline data). It acts greedily under either action rule
    and draws no randomness."""
    policies = [partial(planner_table, gamma=gamma)]
    return _evaluate(policies, lambda *_: None, env_config, eval_cfg, "expert", 0)


CSV_HEADER = "method,split,mean_return,std_return,n_episodes,dataset_size"


def write_csv(reports: list, path: str) -> None:
    rows = sorted(reports, key=lambda r: (r.split, r.method))
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.method},{r.split},{r.mean_return!r},{r.std_return!r},"
                f"{r.n_episodes},{r.dataset_size}\n"
            )


def read_csv(path: str) -> list:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    reports = []
    for line in lines[1:]:
        method, split, mean, std, n, size = line.split(",")
        reports.append(
            EvalReport(
                method=method,
                split=split,
                mean_return=float(mean),
                std_return=float(std),
                n_episodes=int(n),
                dataset_size=int(size),
            )
        )
    return reports


def _method_sort_key(method: str):
    try:
        return (0, METHOD_ORDER.index(method))
    except ValueError:
        return (1, method)


def _markdown_perf_table(title: str, reports: list) -> list:
    methods = sorted({r.method for r in reports}, key=_method_sort_key)
    by_method = {r.method: r for r in reports}
    lines = [f"## {title}", ""]
    lines.append("| Environment | " + " | ".join(m for m in methods) + " |")
    lines.append("|---" * (len(methods) + 1) + "|")
    cells = []
    for m in methods:
        r = by_method[m]
        mean = r.student_mean if r.student_mean is not None else r.mean_return
        std = r.student_std if r.student_std is not None else r.std_return
        cells.append(f"{mean:.2f} ± {std:.2f}")
    lines.append("| grid | " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def emit_report(reports: list, out_dir: str) -> None:
    """results.csv (pooled stats, canonical row order) and results.md
    (mean +/- std per method for each split, plus a dataset-size table)."""
    if not reports:
        raise ValueError("no reports to emit")
    os.makedirs(out_dir, exist_ok=True)
    write_csv(reports, os.path.join(out_dir, "results.csv"))
    lines = ["# Evaluation results", ""]
    for split, title in (("ID", "ID performance"), ("OOD", "OOD performance")):
        split_reports = [r for r in reports if r.split == split]
        if split_reports:
            lines.extend(_markdown_perf_table(title, split_reports))
    sized = [r for r in reports if r.split == "ID" and r.method != "expert"]
    if sized:
        methods = sorted({r.method for r in sized}, key=_method_sort_key)
        by_method = {r.method: r for r in sized}
        lines.extend(["## Dataset size", ""])
        lines.append("| Environment | " + " | ".join(methods) + " |")
        lines.append("|---" * (len(methods) + 1) + "|")
        lines.append(
            "| grid | " + " | ".join(str(by_method[m].dataset_size) for m in methods) + " |"
        )
        lines.append("")
    with open(os.path.join(out_dir, "results.md"), "w") as fh:
        fh.write("\n".join(lines))
