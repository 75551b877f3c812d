"""Monte Carlo evaluation of trained students (and the planner itself) on
in-distribution and out-of-distribution seed sets, plus report emission.

On a fixed map a policy is a table from cell to action distribution: one
batched forward over the map's cell observations for a student, one-hot
greedy actions for the planner. Each eval map is generated, observed and
solved once, and the planner and every student of every cohort roll their
episodes on it. Students act by argmax by default, so cohort comparisons
reflect training rather than action-sampling noise; the `stochastic`
action rule samples from the table instead, one stream per episode. The
planner always acts greedily. Reports carry both pooled statistics over
every episode and the mean of per-student statistics; the CSV holds the
pooled numbers, the markdown tables the per-student ones.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import expert, gridenv, tinynet
from .gridenv import N_ACTIONS, EnvConfig
from .rng import RngStream, derive_stream

METHOD_ORDER = ("expert", "bc10", "bc25", "bc40", "bc100", "synthetic")


@dataclass
class EvalConfig:
    """Two contiguous seed ranges, ID and OOD, checked when built."""

    id_seed_start: int = 0
    id_seed_count: int = 200
    ood_seed_start: int = 10000
    ood_seed_count: int = 100
    episodes_per_seed: int = 1
    action_rule: str = "argmax"  # or "stochastic"

    def __post_init__(self):
        if self.id_seed_count < 1 or self.ood_seed_count < 1:
            raise ValueError("each eval split needs at least one seed")
        id_seeds, ood_seeds = self.id_seeds, self.ood_seeds
        if id_seeds.start < ood_seeds.stop and ood_seeds.start < id_seeds.stop:
            raise ValueError("ID and OOD seed sets must be disjoint")
        if self.episodes_per_seed < 1:
            raise ValueError("episodes_per_seed must be >= 1")
        if self.action_rule not in ("argmax", "stochastic"):
            raise ValueError(f"unknown action rule {self.action_rule!r}")

    @property
    def id_seeds(self) -> range:
        return range(self.id_seed_start, self.id_seed_start + self.id_seed_count)

    @property
    def ood_seeds(self) -> range:
        return range(self.ood_seed_start, self.ood_seed_start + self.ood_seed_count)


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


def planner_table(spec: gridenv.GridSpec, gamma: float) -> np.ndarray:
    """The planner's greedy action on every cell, as one-hot rows."""
    return np.eye(N_ACTIONS)[expert.value_iteration(spec, gamma=gamma).greedy_action]


def _report(method: str, split: str, by_member: list, dataset_size: int) -> EvalReport:
    pooled = np.concatenate(by_member)
    return EvalReport(
        method=method,
        split=split,
        mean_return=float(pooled.mean()),
        std_return=float(pooled.std()),
        n_episodes=len(pooled),
        dataset_size=dataset_size,
        student_mean=float(np.mean([float(np.mean(r)) for r in by_member])),
        student_std=float(np.mean([float(np.std(r)) for r in by_member])),
    )


def evaluate_cohorts(
    cohorts: dict, env_config: EnvConfig, eval_cfg: EvalConfig, gamma: float, root_seed: int
) -> list:
    """The planner's (ID, OOD) reports, then each cohort's in `cohorts`
    order. `cohorts` maps a method to (students, dataset_size), the
    students a list of PolicyParams; returns pool over a cohort's students
    and seeds per split. The planner is a cohort of one with dataset size
    0 (it never trains on the offline data); it acts greedily under either
    action rule and draws no randomness."""
    for method, (students, _) in cohorts.items():
        if not students:
            raise ValueError(f"cohort {method!r} is empty")
    sampled = eval_cfg.action_rule == "stochastic"
    episodes = range(eval_cfg.episodes_per_seed)
    by_split = []
    for split, seeds in (("ID", eval_cfg.id_seeds), ("OOD", eval_cfg.ood_seeds)):
        planner = []
        returns = {method: [[] for _ in students] for method, (students, _) in cohorts.items()}
        for seed in seeds:
            spec = gridenv.generate(env_config, seed)
            greedy_return = _episode_return(planner_table(spec, gamma), spec, None)
            planner.extend([greedy_return] * len(episodes))
            obs = gridenv.cell_observations(spec)
            for method, (students, _) in cohorts.items():
                for i, params in enumerate(students):
                    table = tinynet.forward(params, obs)
                    for e in episodes:
                        label = f"eval:{split}:{i}:{seed}:{e}"
                        rng = derive_stream(root_seed, label) if sampled else None
                        returns[method][i].append(_episode_return(table, spec, rng))
        by_split.append(
            [_report("expert", split, [planner], 0)]
            + [_report(m, split, returns[m], size) for m, (_, size) in cohorts.items()]
        )
    return [report for pair in zip(*by_split) for report in pair]


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
