"""Behavior policy for data collection: an exact value-iteration planner
per map, optionally epsilon-noised.

Solving each seed's deterministic MDP exactly sidesteps expert training
entirely; the epsilon mixture cycled across episodes manufactures the
return spread that percentile filtering needs to be a meaningful baseline.
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


def value_iteration(spec: GridSpec, gamma: float = 0.99, tol: float = 1e-8) -> ValueTable:
    """Stationary infinite-horizon value iteration on the deterministic
    grid MDP, swept until the Bellman residual over every cell drops below
    `tol`.

    Every cell starts at its stay-forever value reward[STAY] / (1 - gamma),
    the goal at 0. A move's reward depends only on the cell it lands on, so
    STAY is the best self-loop, and staying forever is a feasible policy:
    the start is a lower bound (T v0 >= v0) and the sweeps rise
    monotonically to the optimum. Free cells walled off from the goal start
    at their exact value, and the rest settle in about as many sweeps as
    their path to the goal is long. Against a zero start, greedy actions
    and goal-reachable values are bit-equal (tested on ID and OOD maps);
    other cells differ by less than tol / (1 - gamma)."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must be in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    nxt, rew = spec.next_cell, spec.reward
    goal_idx = spec.goal[0] * spec.config.grid_n + spec.goal[1]
    values = rew[_STAY] / (1.0 - gamma)
    values[goal_idx] = 0.0
    while True:
        q = rew + gamma * values[nxt]  # (A, cells)
        new_values = q.max(axis=0)
        new_values[goal_idx] = 0.0
        residual = float(np.abs(new_values - values).max())
        values = new_values
        if residual <= tol:
            break
    q = rew + gamma * values[nxt]
    greedy = q.argmax(axis=0)  # argmax takes the lowest index on ties
    return ValueTable(spec=spec, gamma=gamma, values=values, greedy_action=greedy, residual=residual)


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
    epsilon through `epsilons`. Episode i rolls with its own derived stream
    so collection order never affects the data."""
    if not seeds:
        raise ValueError("need at least one seed")
    if not epsilons:
        raise ValueError("need at least one epsilon")
    tables = {}
    out = []
    for i in range(episodes):
        seed = seeds[i % len(seeds)]
        eps = epsilons[i % len(epsilons)]
        if seed not in tables:
            spec = gridenv.generate(config, seed)
            tables[seed] = value_iteration(spec, gamma=gamma)
        table = tables[seed]
        policy = ExpertPolicy(table=table, epsilon=eps)
        stream = derive_stream(root_seed, f"rollout:{i}")
        out.append(rollout(policy, table.spec, stream))
    return out
