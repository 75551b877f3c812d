"""Code that only the tests run: dataset queries; the one-map API
(`GridSpec`, `GridState`, `initial_state`, `step`, `observe`, `generate`)
whose `step` and `observe` re-derive every move and observation from the
map's fields, the reference semantics that the tables, observations and
lockstep walk of `gridenv.Maps` are held to; the per-map and per-episode
references that the block passes over maps and episodes replaced; one
student trained alone (`train_student`); and the gradient-matching
distance (`matching_loss`)."""

from dataclasses import InitVar, dataclass, field

import numpy as np

from griddistill import expert, gridenv, tinynet, trainer
from griddistill.datasets import _from_rows, _run_starts
from griddistill.gridenv import ACTION_MOVES, N_ACTIONS, EnvConfig, Maps
from griddistill.rng import RngStream, derive_stream

_STAY = gridenv.ACTIONS.index("STAY")


@dataclass(frozen=True)
class GridSpec:
    """One seed's map, frozen, with its MDP over flat cells s = r * grid_n + c:
    `next_cell[a, s]` is the cell action a leads to from s, and `reward[a, s]`
    what step() pays for that move, both read-only (N_ACTIONS, grid_n^2)
    arrays. They are derived from the other fields: by `map_spec` from the
    block the map was made in, or else as the map's block of one,
    `maps_of(spec)`. `walls` is a numpy array, so equality and hashing are
    written out below."""

    seed: int
    config: EnvConfig
    walls: np.ndarray  # bool (n, n)
    hazards: frozenset  # of (row, col)
    goal: tuple
    start: tuple
    next_cell: np.ndarray = field(init=False, repr=False)  # int64
    reward: np.ndarray = field(init=False, repr=False)  # float64
    tables: InitVar[tuple | None] = None  # (next_cell, reward), from the map's block

    def __post_init__(self, tables):
        if tables is None:
            maps = maps_of(self)
            tables = maps.next.T, maps.reward.T
        for name, table in zip(("next_cell", "reward"), tables):
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


def maps_of(spec) -> Maps:
    """The block of one map."""
    n = spec.config.grid_n
    hazards = np.zeros((1, n * n), dtype=bool)
    hazards[0, [r * n + c for r, c in spec.hazards]] = True
    goal, start = spec.goal[0] * n + spec.goal[1], spec.start[0] * n + spec.start[1]
    walls = np.reshape(spec.walls, (1, -1))
    return Maps(spec.config, [spec.seed], walls, hazards, [goal], [start])


def map_spec(maps, m) -> GridSpec:
    """Map m of the block as a GridSpec, its tables sliced from the
    block's."""
    n, cells = maps.config.grid_n, maps.cells
    base = m * cells
    goal, walls, hazards = maps.static[m].reshape(3, cells)
    walls = walls.reshape(n, n).copy()
    walls.flags.writeable = False
    rows = slice(base, base + cells)
    return GridSpec(
        maps.seeds[m],
        maps.config,
        walls,
        frozenset(divmod(int(c), n) for c in np.flatnonzero(hazards)),
        divmod(int(np.flatnonzero(goal)[0]), n),
        divmod(int(maps.start[m]) - base, n),
        ((maps.next[rows] - base).T, maps.reward[rows].T.copy()),
    )


def generate(config, seed) -> GridSpec:
    """Deterministic map for (config, seed): the block of one of
    `gridenv.generate_maps`."""
    return map_spec(gridenv.generate_maps(config, [seed]), 0)


def reachable(spec, cell) -> np.ndarray:
    """Bool mask over flat cells of those some action sequence reaches from
    `cell` on this map: the frontier sweep `gridenv.generate_maps` checks
    each layout with, on the map's table."""
    return gridenv._reach(spec.next_cell.T, [cell])


def initial_state(spec) -> GridState:
    return GridState(spec=spec, agent=spec.start, t=0, terminated=False)


def step(state, action) -> tuple:
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


def observe(state) -> np.ndarray:
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


def train_student(rows, targets, cfg, shape, rng) -> tinynet.PolicyParams:
    """One student: fresh init, then cfg.steps of sample / gradient / Adam
    step. targets[i] is row i's action, or its label distribution. The
    one-stream case of `trainer._train_block`."""
    return trainer._students(trainer._train_block(rows, targets, cfg, shape, [rng]), shape)[0]


def matching_loss(params, real_xs, real_labels, syn) -> float:
    """Squared L2 distance between the real-batch and synthetic-batch
    cloning gradients, flat layout: the objective whose gradient
    `tinynet.matching_grad_wrt_examples` computes analytically."""
    g_real = tinynet.bc_grad(params, real_xs, real_labels, np.ones(len(real_xs)))
    g_syn = tinynet.bc_grad(params, syn.xs, syn.training_labels(), np.ones(len(syn)))
    r = g_real - g_syn
    return float(r @ r)


def episode_ids(ds) -> list:
    """Distinct episode ids in first-appearance order."""
    return ds.episode_id[_run_starts(ds.episode_id)].tolist()


def episode_g0(ds) -> dict:
    starts = _run_starts(ds.episode_id)
    return dict(zip(ds.episode_id[starts].tolist(), ds.g_0[starts].tolist()))


def _reachable(spec, cell):
    """Bool mask over flat cells of those a breadth-first search over
    `spec.next_cell` reaches from `cell`, one map at a time."""
    successors = spec.next_cell.T.tolist()
    seen = [False] * len(successors)
    queue = [cell]
    for s in queue:  # the queue grows while it is read
        if not seen[s]:
            seen[s] = True
            queue.extend(successors[s])
    return np.array(seen)


def generate_reference(config, seed):
    """One seed's map drawn word by word from its own stream, every layout
    retried until the goal is reachable: the per-seed generation, list
    picks and breadth-first search that `gridenv.generate_maps` replaced.
    Returns (spec, layouts drawn)."""
    stream = derive_stream(seed, "env:gen")
    n = config.grid_n
    for attempt in range(1, 101):
        walls = np.array([stream.next_uniform() for _ in range(n * n)]) < config.wall_density
        walls = walls.reshape(n, n)
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
        spec = GridSpec(seed, config, walls, frozenset(hazards), goal, start)
        if _reachable(spec, start[0] * n + start[1])[goal[0] * n + goal[1]]:
            return spec, attempt
    raise gridenv.GenerationError(f"no reachable layout for seed {seed}")


def maps_reference(specs):
    """The block of `specs` as (next, reward, goal, start, static), stacked
    one spec at a time from each spec's tables and its observe() channels:
    the conversion that `gridenv.generate_maps` building its block in one
    pass replaced."""
    n = specs[0].config.grid_n
    cells = n * n
    base = np.arange(len(specs)) * cells
    next_cell = np.stack([spec.next_cell.T for spec in specs]) + base[:, None, None]
    reward = np.stack([spec.reward.T for spec in specs])
    goal = np.zeros(len(specs) * cells, dtype=bool)
    goal[base + [spec.goal[0] * n + spec.goal[1] for spec in specs]] = True
    start = base + [spec.start[0] * n + spec.start[1] for spec in specs]
    static = [observe(initial_state(spec))[cells:] > 0 for spec in specs]
    return (
        next_cell.reshape(-1, gridenv.N_ACTIONS),
        reward.reshape(-1, gridenv.N_ACTIONS),
        goal,
        start,
        np.stack(static),
    )


@dataclass(frozen=True)
class ValueTable:
    """Converged state values and greedy action per cell of one map (flat
    row-major). The goal cell is absorbing with value 0: its reward is
    collected on entry, after which the episode is over. Greedy ties break
    toward the lowest action index."""

    spec: GridSpec
    gamma: float
    values: np.ndarray  # (n*n,) float64
    greedy_action: np.ndarray  # (n*n,) int64
    residual: float


def value_iteration(spec, gamma=0.99, tol=1e-8) -> ValueTable:
    """One map's ValueTable: the block of one of `expert.solve_maps`."""
    values, greedy, residual = expert.solve_maps(maps_of(spec), gamma, tol)
    return ValueTable(spec, gamma, values, greedy, float(residual[0]))


def value_iteration_reference(spec, gamma=0.99, tol=1e-8):
    """One map swept alone from the stay-forever start until its residual
    drops to tol: the per-map sweep that `expert.solve_maps` replaced.
    Returns (values, greedy actions, residual, sweeps)."""
    nxt, rew = spec.next_cell, spec.reward
    goal_idx = spec.goal[0] * spec.config.grid_n + spec.goal[1]
    values = rew[_STAY] / (1.0 - gamma)
    values[goal_idx] = 0.0
    sweeps = 0
    while True:
        new_values = (rew + gamma * values[nxt]).max(axis=0)
        new_values[goal_idx] = 0.0
        residual = float(np.abs(new_values - values).max())
        values = new_values
        sweeps += 1
        if residual <= tol:
            break
    greedy = (rew + gamma * values[nxt]).argmax(axis=0)
    return values, greedy, residual, sweeps


def solve_maps_reference(maps, gamma=0.99, tol=1e-8):
    """Every map of the block swept at once until each map's residual drops
    to tol, every sweep over every map's cells, a frozen map's values kept
    by `np.where`: the full-block sweep that `expert.solve_maps` sweeping
    only the live maps replaced. Returns (values, greedy actions,
    residuals)."""
    count = len(maps.start)

    def q(values):
        return values[maps.next] * gamma + maps.reward

    values = maps.reward[:, _STAY] / (1.0 - gamma)
    values[maps.goal] = 0.0
    residual = np.full(count, np.inf)
    live = np.ones(count, dtype=bool)
    while live.any():
        new_values = q(values).max(axis=1)
        new_values[maps.goal] = 0.0
        change = np.abs(new_values - values).reshape(count, maps.cells).max(axis=1)
        residual[live] = change[live]
        values = np.where(np.repeat(live, maps.cells), new_values, values)
        live &= residual > tol
    return values, q(values).argmax(axis=1), residual


def cell_observations(spec):
    """Every cell's observation on one map, (grid_n^2, obs_dim): row
    r * grid_n + c is observe() with the agent on (r, c), wall cells
    included."""
    n = spec.config.grid_n
    return np.stack(
        [observe(GridState(spec, divmod(c, n), 0, False)) for c in range(n * n)]
    )


def run_episode(spec, choose) -> list:
    """The episode loop over flat cells: from the start, take `choose(cell)`
    through the map's tables until the goal or the horizon, as step() does
    (with its ValueError for an action outside [0, N_ACTIONS)). Returns the
    (cell, action, next_cell, reward, done) steps in order."""
    n, horizon = spec.config.grid_n, spec.config.horizon
    goal, cell = spec.goal[0] * n + spec.goal[1], spec.start[0] * n + spec.start[1]
    steps = []
    for t in range(1, horizon + 1):
        action = choose(cell)
        if not (0 <= action < gridenv.N_ACTIONS):
            raise ValueError(f"action index {action} out of range")
        next_cell, reward = int(spec.next_cell[action, cell]), float(spec.reward[action, cell])
        steps.append((cell, action, next_cell, reward, next_cell == goal or t == horizon))
        if next_cell == goal:
            break
        cell = next_cell
    return steps


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
        return rng.next_int(gridenv.N_ACTIONS)
    return int(policy.table.greedy_action[cell])


@dataclass
class Episode:
    """One rollout: per-step (obs, action, next_obs, reward, done) tuples."""

    seed: int
    epsilon: float
    steps: list


def rollout(policy: ExpertPolicy, spec, rng: RngStream) -> Episode:
    """One episode of the policy on the map, drawing from `rng`."""
    obs = cell_observations(spec)
    steps = run_episode(spec, lambda cell: act(policy, cell, rng))
    return Episode(
        seed=spec.seed,
        epsilon=policy.epsilon,
        steps=[(obs[s], a, obs[s2], r, d) for s, a, s2, r, d in steps],
    )


def collect_rollouts(config, seeds, episodes, epsilons, root_seed, gamma=0.99) -> list:
    """`episodes` Episodes, round-robin over `seeds`, cycling epsilon
    through `epsilons`, episode i rolled out alone on its own stream
    `rollout:i`: the per-episode collection that `expert.collect` walking
    every episode in lockstep replaced."""
    tables = {}
    out = []
    for i in range(episodes):
        seed = seeds[i % len(seeds)]
        if seed not in tables:
            tables[seed] = value_iteration(generate(config, seed), gamma)
        policy = ExpertPolicy(table=tables[seed], epsilon=epsilons[i % len(epsilons)])
        out.append(rollout(policy, tables[seed].spec, derive_stream(root_seed, f"rollout:{i}")))
    return out


def from_episodes(episodes: list, meta: dict):
    """An OfflineDataset from Episodes, ids 0..n-1, each episode's returns a
    reversed running sum of its rewards (+ 0.0 turns a -0.0 into 0.0)."""
    rows = []
    for i, ep in enumerate(episodes):
        rewards = np.array([step[3] for step in ep.steps], dtype=np.float64)
        g = np.cumsum(rewards[::-1])[::-1] + 0.0
        for t, (obs, action, next_obs, reward, done) in enumerate(ep.steps):
            rows.append((i, t, ep.seed, obs, action, next_obs, reward, done, g[t], g[0]))
    return _from_rows(rows, meta)
