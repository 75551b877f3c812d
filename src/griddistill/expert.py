"""Behavior policy for data collection: an exact value-iteration planner
per map, optionally epsilon-noised.

Solving each seed's deterministic MDP exactly sidesteps expert training
entirely; the epsilon mixture cycled across episodes manufactures the
return spread that percentile filtering needs to be a meaningful baseline.
"""

from dataclasses import dataclass

import numpy as np

from . import gridenv
from .gridenv import ACTION_MOVES, N_ACTIONS, EnvConfig, GridSpec, GridState
from .rng import RngStream, derive_stream


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


def _transition_tables(spec: GridSpec):
    """Per-action next-cell indices and rewards over flat cells."""
    n = spec.config.grid_n
    cells = n * n
    goal_idx = spec.goal[0] * n + spec.goal[1]
    nxt = np.empty((N_ACTIONS, cells), dtype=np.int64)
    rew = np.empty((N_ACTIONS, cells), dtype=np.float64)
    for a, (dr, dc) in enumerate(ACTION_MOVES):
        for r in range(n):
            for c in range(n):
                s = r * n + c
                nr, nc = r + dr, c + dc
                if not (0 <= nr < n and 0 <= nc < n) or spec.walls[nr, nc]:
                    nr, nc = r, c
                s2 = nr * n + nc
                nxt[a, s] = s2
                if s2 == goal_idx:
                    rew[a, s] = spec.config.goal_reward
                else:
                    rew[a, s] = spec.config.step_reward
                    if (nr, nc) in spec.hazards:
                        rew[a, s] += spec.config.hazard_reward
    return nxt, rew, goal_idx


def value_iteration(spec: GridSpec, gamma: float = 0.99, tol: float = 1e-8) -> ValueTable:
    """Stationary infinite-horizon value iteration on the deterministic
    grid MDP, swept until the Bellman residual drops below `tol`."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must be in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    nxt, rew, goal_idx = _transition_tables(spec)
    cells = nxt.shape[1]
    values = np.zeros(cells, dtype=np.float64)
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

    def action_probs(self, state: GridState) -> np.ndarray:
        n = state.spec.config.grid_n
        cell = state.agent[0] * n + state.agent[1]
        probs = np.full(N_ACTIONS, self.epsilon / N_ACTIONS)
        probs[self.table.greedy_action[cell]] += 1.0 - self.epsilon
        return probs


def act(policy: ExpertPolicy, state: GridState, rng: RngStream) -> int:
    """Sample from the epsilon-greedy distribution."""
    if state.terminated:
        raise ValueError("cannot act in a terminated state")
    if rng.next_uniform() < policy.epsilon:
        return rng.next_int(N_ACTIONS)
    n = state.spec.config.grid_n
    cell = state.agent[0] * n + state.agent[1]
    return int(policy.table.greedy_action[cell])


@dataclass
class Episode:
    """One rollout: per-step (obs, action, next_obs, reward, done) tuples."""

    seed: int
    epsilon: float
    steps: list


def rollout(policy: ExpertPolicy, spec: GridSpec, rng: RngStream) -> Episode:
    steps = gridenv.run_episode(spec, lambda state: act(policy, state, rng))
    return Episode(
        seed=spec.seed,
        epsilon=policy.epsilon,
        steps=[(gridenv.observe(s), a, gridenv.observe(s2), r, d) for s, a, s2, r, d in steps],
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
