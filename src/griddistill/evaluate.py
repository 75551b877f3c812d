"""Monte Carlo evaluation of trained students (and the planner itself) on
in-distribution and out-of-distribution seed sets, plus report emission.

On a fixed map a policy is a table from cell to action distribution: a
forward over the map's cell observations for a student, the greedy actions
for the planner. Each split runs in two phases, both over the whole split
at once. First its maps are generated and solved as one block
(`gridenv.generate_maps`, `expert.solve_maps`), and each student's tables
come from one forward per chunk of 8 maps, on an (8, cells, obs_dim) stack
whose every slice is the same 36-row BLAS call as a one-map forward (8
keeps the stacks' memory small; `_CHUNK` gives the measured RSS); what the
walk reads of each table is kept: its argmax action per cell, or its
cumulative action probabilities under the `stochastic` rule. Then every
(student, map, episode) lane of the split walks in lockstep over the
maps' stacked transition tables, on the walker collection also uses
(`gridenv.Maps.walk`), and the planner walks one lane per map.
Students act by argmax by default, so cohort comparisons reflect training
rather than action-sampling noise; the `stochastic` rule samples instead,
each lane from its episode's own stream, whose states for the whole split
come from one `rng.derive_states` call. The planner always acts greedily.
Reports carry both pooled statistics over every episode and the mean of
per-student statistics; the CSV holds the pooled numbers, the markdown
tables the per-student ones.

The two splits share nothing: each has its own seeds, maps and episode
streams. So when a helper process fits beside this one (`helper.fits`),
the helper scores the OOD split while this process scores the ID split,
the larger one, and the reports are the bytes both splits give inline.
Otherwise, or when no helper takes the task (`helper.start`), both splits
run here.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import expert, fields, gridenv, helper, tinynet
from .datasets import write_atomic
from .gridenv import N_ACTIONS, EnvConfig
from .rng import derive_states
from .rng import derive_stream  # noqa: F401 -- a name perfbench's tracer rebinds

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
        fields.integer("id_seed_start", self.id_seed_start)
        fields.integer("id_seed_count", self.id_seed_count, 1)
        fields.integer("ood_seed_start", self.ood_seed_start)
        fields.integer("ood_seed_count", self.ood_seed_count, 1)
        fields.integer("episodes_per_seed", self.episodes_per_seed, 1)
        fields.choice("action_rule", self.action_rule, ("argmax", "stochastic"))
        id_seeds, ood_seeds = self.id_seeds, self.ood_seeds
        if id_seeds.start < ood_seeds.stop and ood_seeds.start < id_seeds.stop:
            raise ValueError(
                f"id_seed_* [{id_seeds.start}, {id_seeds.stop}) and ood_seed_* "
                f"[{ood_seeds.start}, {ood_seeds.stop}): ID and OOD seed sets must be disjoint"
            )

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


# Maps per stacked student forward; each slice of the stack is the same
# 36-row BLAS call as a one-map forward, so the tables are the same bytes.
# The chunk bounds the stack's memory. Evaluating eval-stochastic's
# cohorts (seed 42) in a fresh process raised its peak RSS by 13.6 MB with
# the whole 200-map split in one stack, 4.4 MB in chunks of 32 and 3.5 MB
# in chunks of 16, but 3.1 MB in chunks of 8, as in chunks of 4 or 1; and
# eval time stops falling at 8.
_CHUNK = 8


def _student_tables(students: list, maps: gridenv.Maps, sampled: bool) -> np.ndarray:
    """What the walk reads of every student's policy on every map, (S, maps,
    cells): the argmax action per cell, or under the `stochastic` rule the
    cumulative action probabilities, (S, maps, cells, N_ACTIONS). Each
    student's tables come from one forward per chunk of _CHUNK maps."""
    shape = (len(students), len(maps.start), maps.cells)
    if sampled:
        tables = np.empty((*shape, N_ACTIONS))
    else:
        tables = np.empty(shape, dtype=np.int8)
    for lo in range(0, len(maps.start), _CHUNK):
        obs = maps.observations(lo, lo + _CHUNK)
        for table, params in zip(tables[:, lo : lo + _CHUNK], students):
            probs = tinynet.forward(params, obs)
            if sampled:
                np.cumsum(probs, axis=2, out=table)
            else:
                table[:] = probs.argmax(axis=2)
        del obs  # freed before the next chunk's stack is built
    return tables


def _returns(maps: gridenv.Maps, cell, offset, policy, states=None) -> np.ndarray:
    """Every lane's undiscounted return on `maps.walk(cell, offset, policy,
    states)`: each reward added in step order from 0.0, so the returns
    equal sum() over the episode's rewards."""
    returns = np.zeros(len(cell))
    for lane, _, _, _, reward, _ in maps.walk(cell, offset, policy, states):
        returns[lane] += reward
    return returns


def _split_returns(
    cohorts: dict,
    env_config: EnvConfig,
    eval_cfg: EvalConfig,
    gamma: float,
    root_seed: int,
    split: str,
    seeds: range,
) -> tuple:
    """(planner returns, student returns) on one split. Each is ordered by
    map, then episode; the students' are one row per student, cohorts in
    order. The split's maps are generated and solved as one block, and
    every student's tables on them come in chunks of _CHUNK maps; then every
    episode of the split walks in lockstep, the planner's greedy walk (one
    lane per map) apart."""
    sampled = eval_cfg.action_rule == "stochastic"
    episodes = eval_cfg.episodes_per_seed
    students = [params for members, _ in cohorts.values() for params in members]
    maps = gridenv.generate_maps(env_config, seeds)
    planner = expert.solve_maps(maps, gamma)[1].astype(np.int8)
    policies = _student_tables(students, maps, sampled)
    planner_returns = _returns(maps, maps.start, np.zeros(len(seeds), dtype=np.int64), planner)
    per_student = len(seeds) * episodes  # one student's lanes: by map, then episode
    cell = np.tile(np.repeat(maps.start, episodes), len(students))
    offset = np.repeat(np.arange(len(students)) * (len(seeds) * maps.cells), per_student)
    states = None
    if sampled:
        # one stream per (index within the cohort, seed, episode): the i-th
        # students of all cohorts share one label, so they share its stream
        width = max((len(members) for members, _ in cohorts.values()), default=0)
        labels = [
            f"eval:{split}:{i}:{seed}:{e}"
            for i in range(width)
            for seed in seeds
            for e in range(episodes)
        ]
        by_index = derive_states(root_seed, labels).reshape(width, per_student, 4)
        member = [i for members, _ in cohorts.values() for i in range(len(members))]
        states = np.ascontiguousarray(by_index[member].reshape(-1, 4).T)
    returns = _returns(maps, cell, offset, policies.reshape(-1, *policies.shape[3:]), states)
    return np.repeat(planner_returns, episodes), returns.reshape(len(students), per_student)


def _report(method: str, split: str, by_member, dataset_size: int) -> EvalReport:
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
    args = (cohorts, env_config, eval_cfg, gamma, root_seed)
    splits = (("ID", eval_cfg.id_seeds), ("OOD", eval_cfg.ood_seeds))
    worker = None
    if helper.fits():
        worker = helper.start(_split_returns, (*args, *splits[1]))
    if worker is None:
        split_returns = [_split_returns(*args, *split) for split in splits]
    else:
        try:
            split_returns = [_split_returns(*args, *splits[0])]
        except BaseException:
            worker.close()
            raise
        split_returns.append(worker.result())
    by_split = []
    for (split, _), (planner, returns) in zip(splits, split_returns):
        reports = [_report("expert", split, [planner], 0)]
        first = 0
        for method, (students, size) in cohorts.items():
            reports.append(_report(method, split, returns[first : first + len(students)], size))
            first += len(students)
        by_split.append(reports)
    return [report for pair in zip(*by_split) for report in pair]


CSV_HEADER = "method,split,mean_return,std_return,n_episodes,dataset_size"


def write_csv(reports: list, path: str) -> None:
    rows = sorted(reports, key=lambda r: (r.split, r.method))
    with write_atomic(path) as fh:
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
    with write_atomic(os.path.join(out_dir, "results.md")) as fh:
        fh.write("\n".join(lines))
