"""Behavior policy for data collection: an exact value-iteration planner
per map, optionally epsilon-noised.

Solving each seed's deterministic MDP exactly sidesteps expert training
entirely; the epsilon mixture cycled across episodes manufactures the
return spread that percentile filtering needs to be a meaningful baseline.
The planner solves a block of maps in one elementwise sweep over their
stacked tables (`solve_maps`); collection generates and solves all of its
maps as one block, then rolls its episodes out one by one.
"""

from dataclasses import dataclass

import numpy as np

from . import gridenv
from .gridenv import N_ACTIONS, EnvConfig, GridSpec
from .rng import RngStream, derive_stream

_STAY = gridenv.ACTIONS.index("STAY")


@dataclass(frozen=True)
class ValueTable:
    """Converged state values and greedy action per cell (flat row-major).

    The goal cell is absorbing with value 0: its reward is collected on
    entry, after which the episode is over. Greedy ties break toward the
    lowest action index.
    """

    spec: GridSpec
    gamma: float
    values: np.ndarray  # (n*n,) float64
    greedy_action: np.ndarray  # (n*n,) int64
    residual: float


def solve_maps(maps: gridenv.Maps, gamma: float = 0.99, tol: float = 1e-8) -> tuple:
    """Stationary infinite-horizon value iteration on every map of the
    block at once: (values, greedy actions) over the block's global cells
    and each map's final Bellman residual. Every sweep is elementwise over
    the stacked tables, so each map's values are the bytes it would get
    swept alone. A map is frozen at the sweep where its own residual over
    its cells first drops to `tol`; the others sweep on.

    Every cell starts at its stay-forever value reward[STAY] / (1 - gamma),
    the goal at 0. A move's reward depends only on the cell it lands on, so
    STAY is the best self-loop, and staying forever is a feasible policy:
    the start is a lower bound (T v0 >= v0) and the sweeps rise
    monotonically to the optimum. Free cells walled off from the goal start
    at their exact value, and the rest settle in about as many sweeps as
    their path to the goal is long (at most 17 on the default ID and OOD
    maps). Against a zero start, greedy actions and goal-reachable values
    are bit-equal (tested on ID and OOD maps); other cells differ by less
    than tol / (1 - gamma). Greedy ties break toward the lowest action."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must be in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    count = len(maps.start)
    values = maps.reward[:, _STAY] / (1.0 - gamma)
    values[maps.goal] = 0.0
    residual = np.full(count, np.inf)
    live = np.ones(count, dtype=bool)
    while live.any():
        new_values = _q(maps, gamma, values).max(axis=1)
        new_values[maps.goal] = 0.0
        change = np.abs(new_values - values).reshape(count, maps.cells).max(axis=1)
        residual[live] = change[live]
        values = np.where(np.repeat(live, maps.cells), new_values, values)
        live &= residual > tol
    return values, _q(maps, gamma, values).argmax(axis=1), residual


def _q(maps: gridenv.Maps, gamma: float, values: np.ndarray) -> np.ndarray:
    """reward + gamma * values[next] on every global cell and action, in
    one buffer; IEEE products and sums commute, so these are the bytes of
    that expression."""
    q = values[maps.next]
    q *= gamma
    q += maps.reward
    return q


def value_iteration(spec: GridSpec, gamma: float = 0.99, tol: float = 1e-8) -> ValueTable:
    """One map's ValueTable: the block of one of `solve_maps`."""
    values, greedy, residual = solve_maps(gridenv.Maps.of(spec), gamma, tol)
    return ValueTable(
        spec=spec, gamma=gamma, values=values, greedy_action=greedy, residual=float(residual[0])
    )


@dataclass(frozen=True)
class ExpertPolicy:
    """epsilon-greedy wrapper: (1 - eps) on the greedy action plus eps/|A|
    spread over every action."""

    table: ValueTable
    epsilon: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")


def act(policy: ExpertPolicy, cell: int, rng: RngStream) -> int:
    """Sample from the epsilon-greedy distribution on flat cell `cell`."""
    if rng.next_uniform() < policy.epsilon:
        return rng.next_int(N_ACTIONS)
    return int(policy.table.greedy_action[cell])


@dataclass
class Episode:
    """One rollout: per-step (obs, action, next_obs, reward, done) tuples."""

    seed: int
    epsilon: float
    steps: list


def rollout(policy: ExpertPolicy, spec: GridSpec, rng: RngStream) -> Episode:
    obs = gridenv.cell_observations(spec)
    steps = gridenv.run_episode(spec, lambda cell: act(policy, cell, rng))
    return Episode(
        seed=spec.seed,
        epsilon=policy.epsilon,
        steps=[(obs[s], a, obs[s2], r, d) for s, a, s2, r, d in steps],
    )


def collect_rollouts(
    config: EnvConfig,
    seeds: list,
    episodes: int,
    epsilons: list,
    root_seed: int,
    gamma: float = 0.99,
) -> list:
    """Collect `episodes` expert episodes, round-robin over `seeds`, cycling
    epsilon through `epsilons`. The maps the episodes visit are generated
    and solved as one block first. Episode i rolls with its own derived
    stream so collection order never affects the data."""
    if not seeds:
        raise ValueError("need at least one seed")
    if not epsilons:
        raise ValueError("need at least one epsilon")
    if episodes < 1:
        return []
    used = list(dict.fromkeys(seeds[:episodes]))  # the seeds episodes visit, in order
    maps = gridenv.generate_maps(config, used)
    values, greedy, residual = solve_maps(maps, gamma)
    by_map = (len(used), -1)
    solved = zip(values.reshape(by_map), greedy.reshape(by_map), residual)
    tables = {
        seed: ValueTable(maps.spec(m), gamma, v, g, float(r))
        for m, (seed, (v, g, r)) in enumerate(zip(used, solved))
    }
    out = []
    for i in range(episodes):
        table = tables[seeds[i % len(seeds)]]
        policy = ExpertPolicy(table=table, epsilon=epsilons[i % len(epsilons)])
        stream = derive_stream(root_seed, f"rollout:{i}")
        out.append(rollout(policy, table.spec, stream))
    return out
