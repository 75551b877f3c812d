"""Behavior policy for data collection: an exact value-iteration planner
per map, optionally epsilon-noised.

Solving each seed's deterministic MDP exactly sidesteps expert training
entirely; the epsilon mixture cycled across episodes manufactures the
return spread that percentile filtering needs to be a meaningful baseline.
The planner solves a block of maps in one elementwise sweep over their
stacked tables (`solve_maps`). Collection generates and solves all of its
maps as one block, then walks all of its episodes in lockstep, one lane
each, on the walker evaluation uses (`gridenv.Maps.walk`), and the walk's
step records become the offline dataset's columns (`collect`).
"""

import numpy as np

from . import gridenv
from .datasets import OfflineDataset, from_walk
from .gridenv import EnvConfig
from .rng import derive_states
from .rng import derive_stream  # noqa: F401 -- a name perfbench's tracer rebinds

_STAY = gridenv.ACTIONS.index("STAY")


def solve_maps(maps: gridenv.Maps, gamma: float = 0.99, tol: float = 1e-8) -> tuple:
    """Stationary infinite-horizon value iteration on every map of the
    block at once: (values, greedy actions) over the block's global cells
    and each map's final Bellman residual. Every sweep is elementwise over
    the stacked tables of the maps still live, so each map's values are the
    bytes it would get swept alone. A map is frozen at the sweep where its
    own residual over its cells first drops to `tol`, and later sweeps
    skip it.

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
    # per-map views (map, cell[, action]) of the block's tables and values
    shape = (count, maps.cells, gridenv.N_ACTIONS)
    next_cell, reward = maps.next.reshape(shape), maps.reward.reshape(shape)
    goal, by_map = maps.goal.reshape(shape[:2]), values.reshape(shape[:2])
    residual = np.full(count, np.inf)
    live = np.arange(count)  # the maps still sweeping, and their tables:
    live_next, live_reward, live_goal = next_cell, reward, goal  # gathered as maps freeze
    while len(live):
        new_values = _q(live_next, live_reward, gamma, values).max(axis=2)
        new_values[live_goal] = 0.0
        residual[live] = np.abs(new_values - by_map[live]).max(axis=1)
        by_map[live] = new_values
        sweeping = residual[live] > tol
        if not sweeping.all():
            live = live[sweeping]
            live_next, live_reward, live_goal = next_cell[live], reward[live], goal[live]
    return values, _q(maps.next, maps.reward, gamma, values).argmax(axis=1), residual


def _q(next_cell: np.ndarray, reward: np.ndarray, gamma: float, values: np.ndarray) -> np.ndarray:
    """reward + gamma * values[next_cell] on the given cells and actions,
    in one buffer; IEEE products and sums commute, so these are the bytes
    of that expression."""
    q = values[next_cell]
    q *= gamma
    q += reward
    return q


def collect(
    config: EnvConfig,
    seeds: list,
    episodes: int,
    epsilons: list,
    root_seed: int,
    gamma: float = 0.99,
    meta: dict | None = None,
) -> OfflineDataset:
    """`episodes` planner episodes as an offline dataset with ids 0 ..
    episodes - 1: episode i plays seeds[i % len(seeds)], epsilon-greedy at
    epsilons[i % len(epsilons)] ((1 - eps) on the greedy action plus eps/|A|
    spread over every action), and draws from its own stream `rollout:i`,
    so collection order never affects the data. The maps the episodes
    visit are generated and solved as one block, and every episode is a
    lane of one lockstep walk over them (`Maps.walk`): each step a lane
    draws one uniform, and one next_int(N_ACTIONS) when the uniform is
    below its epsilon. The walk's step records are the dataset's rows."""
    if not seeds:
        raise ValueError("need at least one seed")
    if not epsilons:
        raise ValueError("need at least one epsilon")
    if not all(0.0 <= eps <= 1.0 for eps in epsilons):
        raise ValueError("epsilon must be in [0, 1]")
    lanes = range(max(episodes, 0))
    used = list(dict.fromkeys(seeds[: len(lanes)]))  # the seeds episodes visit, in order
    maps = gridenv.generate_maps(config, used)
    greedy = solve_maps(maps, gamma)[1]
    index = {seed: m for m, seed in enumerate(used)}
    lane_seeds = [seeds[i % len(seeds)] for i in lanes]
    start = maps.start[np.array([index[seed] for seed in lane_seeds], dtype=np.int64)]
    states = derive_states(root_seed, [f"rollout:{i}" for i in lanes]).T.copy()
    epsilon = np.array([epsilons[i % len(epsilons)] for i in lanes], dtype=np.float64)
    steps = list(maps.walk(start, np.zeros_like(start), greedy, states, epsilon))
    return from_walk(steps, lane_seeds, maps.observe, {} if meta is None else meta)
