"""Seeded, procedurally generated gridworld MDP.

Every seed yields a different map (walls, hazards, start, goal) under the
same rules, mimicking procedural game benchmarks at desk scale. Transitions
are deterministic; observations are one-hot grid channels rather than
pixels, laid out channel-major as [agent | goal | wall | hazard], each
channel a row-major grid_n x grid_n block. `run_episode` is the one
episode loop; collection and evaluation both roll through it.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .rng import derive_stream

ACTIONS = ("UP", "DOWN", "LEFT", "RIGHT", "STAY")
ACTION_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
N_ACTIONS = 5


class GenerationError(Exception):
    """No reachable layout found; the config is too dense."""


@dataclass(frozen=True)
class EnvConfig:
    grid_n: int = 6
    wall_density: float = 0.2
    hazard_count: int = 2
    horizon: int = 40
    step_reward: float = -0.1
    hazard_reward: float = -1.0
    goal_reward: float = 10.0

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError("grid_n must be >= 2")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (0.0 <= self.wall_density < 1.0):
            raise ValueError("wall_density must be in [0, 1)")
        if self.hazard_count < 0:
            raise ValueError("hazard_count must be >= 0")

    @property
    def obs_dim(self) -> int:
        return self.grid_n * self.grid_n * 4


@dataclass(frozen=True)
class GridSpec:
    """One seed's map: immutable, shareable across threads."""

    seed: int
    config: EnvConfig
    walls: np.ndarray  # bool (n, n)
    hazards: frozenset  # of (row, col)
    goal: tuple
    start: tuple

    def __eq__(self, other):
        return (
            isinstance(other, GridSpec)
            and self.seed == other.seed
            and self.config == other.config
            and np.array_equal(self.walls, other.walls)
            and self.hazards == other.hazards
            and self.goal == other.goal
            and self.start == other.start
        )

    def __hash__(self):
        return hash((self.seed, self.config, self.goal, self.start))


@dataclass(frozen=True)
class GridState:
    spec: GridSpec
    agent: tuple
    t: int
    terminated: bool


def _bfs_reachable(walls: np.ndarray, start: tuple, goal: tuple) -> bool:
    n = walls.shape[0]
    seen = {start}
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        if (r, c) == goal:
            return True
        for dr, dc in ACTION_MOVES[:4]:
            nr, nc = r + dr, c + dc
            if 0 <= nr < n and 0 <= nc < n and not walls[nr, nc] and (nr, nc) not in seen:
                seen.add((nr, nc))
                queue.append((nr, nc))
    return False


def generate(config: EnvConfig, seed: int) -> GridSpec:
    """Deterministic map for (config, seed): Bernoulli walls, then start,
    goal and hazards drawn uniformly among free cells without collision.
    Retries the whole layout until the goal is BFS-reachable (<= 100 tries).
    """
    stream = derive_stream(seed, "env:gen")
    n = config.grid_n
    need_free = 2 + config.hazard_count
    for _ in range(100):
        walls = np.zeros((n, n), dtype=bool)
        for r in range(n):
            for c in range(n):
                walls[r, c] = stream.next_uniform() < config.wall_density
        free = [(r, c) for r in range(n) for c in range(n) if not walls[r, c]]
        if len(free) < need_free:
            continue
        start = free[stream.next_int(len(free))]
        candidates = [cell for cell in free if cell != start]
        goal = candidates[stream.next_int(len(candidates))]
        hazards = []
        candidates = [cell for cell in candidates if cell != goal]
        for _h in range(config.hazard_count):
            idx = stream.next_int(len(candidates))
            hazards.append(candidates.pop(idx))
        if _bfs_reachable(walls, start, goal):
            walls.flags.writeable = False
            return GridSpec(
                seed=seed,
                config=config,
                walls=walls,
                hazards=frozenset(hazards),
                goal=goal,
                start=start,
            )
    raise GenerationError(
        f"no reachable layout in 100 attempts for seed {seed} (config too dense?)"
    )


def initial_state(spec: GridSpec) -> GridState:
    return GridState(spec=spec, agent=spec.start, t=0, terminated=False)


def step(state: GridState, action: int) -> tuple[GridState, float, bool]:
    """Deterministic transition. Moves into walls or the boundary leave the
    agent in place; reaching the goal ends the episode with goal_reward,
    otherwise the step costs step_reward (plus hazard_reward on a hazard)
    and the episode ends when the horizon is exhausted.
    """
    if state.terminated:
        raise ValueError("cannot step a terminated state")
    if not (0 <= action < N_ACTIONS):
        raise ValueError(f"action index {action} out of range")
    spec = state.spec
    cfg = spec.config
    n = cfg.grid_n
    dr, dc = ACTION_MOVES[action]
    nr, nc = state.agent[0] + dr, state.agent[1] + dc
    if not (0 <= nr < n and 0 <= nc < n) or spec.walls[nr, nc]:
        nr, nc = state.agent
    t_next = state.t + 1
    if (nr, nc) == spec.goal:
        reward = cfg.goal_reward
        done = True
    else:
        reward = cfg.step_reward
        if (nr, nc) in spec.hazards:
            reward += cfg.hazard_reward
        done = t_next >= cfg.horizon
    return GridState(spec=spec, agent=(nr, nc), t=t_next, terminated=done), reward, done


def observe(state: GridState) -> np.ndarray:
    """One-hot channel encoding, length grid_n^2 * 4. Pure function."""
    n = state.spec.config.grid_n
    obs = np.zeros(4 * n * n, dtype=np.float64)
    cell = n * n
    obs[state.agent[0] * n + state.agent[1]] = 1.0
    obs[cell + state.spec.goal[0] * n + state.spec.goal[1]] = 1.0
    wall_idx = np.flatnonzero(state.spec.walls.ravel())
    obs[2 * cell + wall_idx] = 1.0
    for r, c in state.spec.hazards:
        obs[3 * cell + r * n + c] = 1.0
    return obs


def cell_observations(spec: GridSpec) -> np.ndarray:
    """Every cell's observation on this map, (grid_n^2, obs_dim): row
    r * grid_n + c is observe() with the agent on (r, c). Wall rows are
    included although the agent never stands there."""
    cells = spec.config.grid_n ** 2
    obs = np.tile(observe(initial_state(spec)), (cells, 1))
    obs[:, :cells] = np.eye(cells)
    return obs


def run_episode(spec: GridSpec, choose) -> list:
    """The episode loop: from the start state, step with `choose(state)`
    until the episode ends. Returns the (state, action, next_state, reward,
    done) steps in order."""
    state = initial_state(spec)
    steps = []
    while not state.terminated:
        action = choose(state)
        next_state, reward, done = step(state, action)
        steps.append((state, action, next_state, reward, done))
        state = next_state
    return steps
