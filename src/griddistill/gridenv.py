"""Seeded, procedurally generated gridworld MDP.

Every seed yields a different map (walls, hazards, start, goal) under the
same rules, mimicking procedural game benchmarks at desk scale. Transitions
are deterministic; observations are one-hot grid channels rather than
pixels, laid out channel-major as [agent | goal | wall | hazard], each
channel a row-major grid_n x grid_n block.

Each map carries its MDP over flat row-major cells (`GridSpec.next_cell`,
`GridSpec.reward`), and collection, evaluation and the planner all read
those tables. Maps are made as a block: `generate_maps` draws every seed's
first layout in one multi-stream lane pass, and `Maps` stacks a block's
tables over global cells, which the planner sweeps all at once and
evaluation walks all of a split's episodes over. `Maps.observations` gives
the cell observations of a run of its maps, which evaluation forwards 8
maps at a time: a whole split's stack would add ~10 MB of peak RSS (see
`evaluate._CHUNK`). `generate` is the block of one. `run_episode` walks
one map's tables one episode at a time, cell by cell, for collection.
`GridState`, `initial_state`, `step` and `observe` are the reference
semantics the tables are tested against.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import derive_stream, next_uniform_arrays

ACTIONS = ("UP", "DOWN", "LEFT", "RIGHT", "STAY")
ACTION_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
N_ACTIONS = 5


class GenerationError(Exception):
    """No reachable layout found; the config is too dense."""


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        for name, least in (("grid_n", 2), ("hazard_count", 0), ("horizon", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"env.{name} {value!r} is not an integer")
            if value < least:
                raise ValueError(f"env.{name} must be >= {least}")
        density = self.wall_density
        if not _is_real(density) or not 0.0 <= density < 1.0:
            raise ValueError(f"env.wall_density {density!r} is not in [0, 1)")
        for name in ("step_reward", "hazard_reward", "goal_reward"):
            value = getattr(self, name)
            if not _is_real(value) or not np.isfinite(value):
                raise ValueError(f"env.{name} {value!r} is not a finite number")

    @property
    def obs_dim(self) -> int:
        return self.grid_n * self.grid_n * 4


@dataclass(frozen=True)
class GridSpec:
    """One seed's map, frozen, with its MDP over flat cells s = r * grid_n + c:
    `next_cell[a, s]` is the cell action a leads to from s, and `reward[a, s]`
    what step() pays for that move, both read-only (N_ACTIONS, grid_n^2)
    arrays. They are derived from the other fields, and `walls` is a numpy
    array, so equality and hashing are written out below."""

    seed: int
    config: EnvConfig
    walls: np.ndarray  # bool (n, n)
    hazards: frozenset  # of (row, col)
    goal: tuple
    start: tuple
    next_cell: np.ndarray = field(init=False, repr=False)  # int64
    reward: np.ndarray = field(init=False, repr=False)  # float64

    def __post_init__(self):
        cfg = self.config
        n = cfg.grid_n
        blocked = np.ones((n + 2, n + 2), dtype=bool)  # walls inside a ring of boundary
        blocked[1:-1, 1:-1] = self.walls
        cells = np.arange(n * n).reshape(n, n)
        next_cell = np.array([
            np.where(blocked[1 + dr : n + 1 + dr, 1 + dc : n + 1 + dc], cells, cells + dr * n + dc)
            for dr, dc in ACTION_MOVES
        ]).reshape(N_ACTIONS, n * n)
        hazard = np.zeros(n * n, dtype=bool)
        hazard[[r * n + c for r, c in self.hazards]] = True
        reward = np.full(next_cell.shape, float(cfg.step_reward))
        reward[hazard[next_cell]] += cfg.hazard_reward
        reward[next_cell == self.goal[0] * n + self.goal[1]] = cfg.goal_reward
        for name, table in (("next_cell", next_cell), ("reward", reward)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

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


def reachable(spec: GridSpec, cell: int) -> np.ndarray:
    """Bool mask over flat cells of those some action sequence reaches from
    `cell`: a breadth-first search over `spec.next_cell`."""
    successors = spec.next_cell.T.tolist()
    seen = [False] * len(successors)
    queue = [cell]
    for s in queue:  # the queue grows while it is read
        if not seen[s]:
            seen[s] = True
            queue.extend(successors[s])
    return np.array(seen)


def generate_maps(config: EnvConfig, seeds) -> list:
    """The GridSpec of each seed, in order: Bernoulli walls, then start, goal
    and hazards drawn uniformly among free cells without collision, the
    whole layout retried until the goal is reachable (<= 100 tries). Each
    seed reads only its own stream; the first layout's grid_n^2 uniforms of
    all the seeds come from one multi-stream lane pass, and retries and the
    start, goal and hazard draws continue on each seed's stream, so a map
    reads exactly the words it would alone. Raises GenerationError naming
    the first seed with no reachable layout."""
    streams = [derive_stream(seed, "env:gen") for seed in seeds]
    first = next_uniform_arrays(streams, config.grid_n ** 2)
    return [_layout(config, seed, stream, u) for seed, stream, u in zip(seeds, streams, first)]


def _layout(config: EnvConfig, seed: int, stream, uniforms: np.ndarray) -> GridSpec:
    """One seed's map from its first layout's uniforms, drawing the rest of
    what it needs from its stream."""
    n = config.grid_n
    for attempt in range(100):
        if attempt:
            uniforms = stream.next_uniform_array(n * n)
        walls = (uniforms < config.wall_density).reshape(n, n)
        free = [divmod(int(s), n) for s in np.flatnonzero(~walls)]
        if len(free) < 2 + config.hazard_count:
            continue
        start = free[stream.next_int(len(free))]
        candidates = [cell for cell in free if cell != start]
        goal = candidates[stream.next_int(len(candidates))]
        candidates = [cell for cell in candidates if cell != goal]
        hazards = [
            candidates.pop(stream.next_int(len(candidates))) for _ in range(config.hazard_count)
        ]
        walls.flags.writeable = False
        spec = GridSpec(seed, config, walls, frozenset(hazards), goal, start)
        if reachable(spec, start[0] * n + start[1])[goal[0] * n + goal[1]]:
            return spec
    raise GenerationError(
        f"no reachable layout in 100 attempts for seed {seed} (config too dense?)"
    )


def generate(config: EnvConfig, seed: int) -> GridSpec:
    """Deterministic map for (config, seed): the block of one of
    `generate_maps`."""
    return generate_maps(config, [seed])[0]


class Maps:
    """Several maps (one config) stacked for block passes, over global cells
    g = m * cells + c, cell c of map m: `next[g, a]` is the global cell
    action a leads to from g, `reward[g, a]` what that move pays, `goal[g]`
    whether g is its map's goal, `start[m]` map m's start cell and
    `static[m]` the goal, wall and hazard channels of its observations, as
    bools. It keeps no GridSpec, so a block's specs can be freed once it is
    built."""

    def __init__(self, specs: list):
        config = specs[0].config
        n = config.grid_n
        self.cells = n * n
        self.horizon = config.horizon
        base = np.arange(len(specs)) * self.cells
        tables = np.stack([spec.next_cell.T for spec in specs])  # (maps, cells, actions)
        tables += base[:, None, None]
        self.next = tables.reshape(-1, N_ACTIONS)
        self.reward = np.stack([spec.reward.T for spec in specs]).reshape(-1, N_ACTIONS)
        self.goal = np.zeros(len(self.next), dtype=bool)
        self.goal[base + [spec.goal[0] * n + spec.goal[1] for spec in specs]] = True
        self.start = base + [spec.start[0] * n + spec.start[1] for spec in specs]
        static = [observe(initial_state(spec))[self.cells :] > 0 for spec in specs]
        self.static = np.stack(static)

    def observations(self, lo: int, hi: int) -> np.ndarray:
        """Every cell's observation on maps lo .. hi - 1, (maps, cells,
        obs_dim), as `cell_observations` gives each."""
        return _observations(self.static[lo:hi])


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


def _observations(static: np.ndarray) -> np.ndarray:
    """(maps, cells, obs_dim) from each map's goal, wall and hazard channels
    (maps, 3 * cells), as 0/1 values or bools: the agent channel of row c is
    one-hot on c."""
    cells = static.shape[1] // 3
    obs = np.empty((len(static), cells, 4 * cells))
    obs[:, :, :cells] = np.eye(cells)
    obs[:, :, cells:] = static[:, None, :]
    return obs


def cell_observations(spec: GridSpec) -> np.ndarray:
    """Every cell's observation on this map, (grid_n^2, obs_dim): row
    r * grid_n + c is observe() with the agent on (r, c). Wall rows are
    included although the agent never stands there."""
    cells = spec.config.grid_n ** 2
    return _observations(observe(initial_state(spec))[None, cells:])[0]


def run_episode(spec: GridSpec, choose) -> list:
    """The episode loop over flat cells: from the start, take `choose(cell)`
    through the map's tables until the goal or the horizon, as step() does
    (with its ValueError for an action outside [0, N_ACTIONS)). Returns the
    (cell, action, next_cell, reward, done) steps in order."""
    n, horizon = spec.config.grid_n, spec.config.horizon
    goal, cell = spec.goal[0] * n + spec.goal[1], spec.start[0] * n + spec.start[1]
    steps = []
    for t in range(1, horizon + 1):
        action = choose(cell)
        if not (0 <= action < N_ACTIONS):
            raise ValueError(f"action index {action} out of range")
        next_cell, reward = int(spec.next_cell[action, cell]), float(spec.reward[action, cell])
        steps.append((cell, action, next_cell, reward, next_cell == goal or t == horizon))
        if next_cell == goal:
            break
        cell = next_cell
    return steps
