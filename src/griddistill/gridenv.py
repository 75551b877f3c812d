"""Seeded, procedurally generated gridworld MDP.

Every seed yields a different map (walls, hazards, start, goal) under the
same rules, mimicking procedural game benchmarks at desk scale. Transitions
are deterministic; observations are one-hot grid channels rather than
pixels, laid out channel-major as [agent | goal | wall | hazard], each
channel a row-major grid_n x grid_n block.

Maps are made as a block: `generate_maps` keeps every seed's stream state
as a column of one uint64 array and draws all the pending maps' layouts at
once in rounds, lane-wise, retrying only the maps whose goal one frontier
sweep over the round's tables finds unreachable. It returns a `Maps`, the
one map type: it stacks the block's MDP tables over global cells, which
collection, evaluation and the planner all read. The planner sweeps them
all at once, and `Maps.walk` steps many episodes over them in lockstep,
one lane each: all of an eval split's episodes, or all of collection's.
`Maps.observe` gives the observation rows of any global cells
(collection's dataset rows), and `Maps.observations` those of every cell
of a run of maps, which evaluation forwards 8 maps at a time: a whole
split's stack would add ~10 MB of peak RSS (see `evaluate._CHUNK`). The
tests hold the tables, the walk and the observations to a one-map
reference that re-derives each move from the map's fields
(`tests/helpers.py`).
"""

from dataclasses import dataclass

import numpy as np

from . import fields
from .rng import _uniforms, derive_states, next_int_lanes, next_u64_lanes, next_uniform_lanes
from .rng import derive_stream  # noqa: F401 -- a name perfbench's tracer rebinds

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
        fields.integer("grid_n", self.grid_n, 2)
        fields.integer("hazard_count", self.hazard_count, 0)
        fields.integer("horizon", self.horizon, 1)
        fields.real("wall_density", self.wall_density, 0, 1)
        for name in ("step_reward", "hazard_reward", "goal_reward"):
            fields.real(name, getattr(self, name))

    @property
    def obs_dim(self) -> int:
        return self.grid_n * self.grid_n * 4


def _next_cells(config: EnvConfig, walls: np.ndarray) -> np.ndarray:
    """(maps, cells, N_ACTIONS) int64: the cell each action leads to from each
    cell of each map, given its walls (maps, cells) as bools; a move into a
    wall or the boundary (a ring of walls) stays put."""
    n, count = config.grid_n, len(walls)
    blocked = np.ones((count, n + 2, n + 2), dtype=bool)
    blocked[:, 1:-1, 1:-1] = walls.reshape(count, n, n)
    opened = ~np.stack(
        [blocked[:, 1 + dr : n + 1 + dr, 1 + dc : n + 1 + dc] for dr, dc in ACTION_MOVES], axis=-1
    )
    table = np.empty((count, n * n, N_ACTIONS), dtype=np.int64)
    np.multiply(opened.reshape(table.shape), [dr * n + dc for dr, dc in ACTION_MOVES], out=table)
    table += np.arange(n * n)[:, None]
    return table


def _reach(next_cell: np.ndarray, cells) -> np.ndarray:
    """Bool mask over the rows of the (cells, N_ACTIONS) table `next_cell`
    of those some action sequence reaches from any of `cells`: one
    breadth-first frontier sweep over the whole table, so over every map of
    a block at once."""
    seen = np.zeros(len(next_cell), dtype=bool)
    frontier = np.asarray(cells)
    seen[frontier] = True
    while len(frontier):
        fresh = np.zeros_like(seen)
        fresh[next_cell[frontier]] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return seen


def _nth_free(free: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per row of the bool (maps, cells) array `free`, the cell of its
    index-th True, counted from 0 in row-major order."""
    return (np.cumsum(free, axis=1) > index[:, None]).argmax(axis=1)


def _draw_layouts(config: EnvConfig, states: np.ndarray) -> tuple:
    """One layout attempt on each stream column of `states`, stepped in
    place: Bernoulli walls from grid_n^2 uniforms, then, on the lanes with
    at least 2 + hazard_count free cells, start, goal and hazards in that
    order, each a next_int index into the free cells not yet taken, in
    row-major order; the other lanes draw nothing more. Returns which lanes
    drew their cells and, over those lanes, (walls, hazards, goal, start):
    bool (lanes, cells) masks and local cells."""
    cells = config.grid_n ** 2
    walls = (_uniforms(next_u64_lanes(states, cells)) < config.wall_density).T
    count = cells - walls.sum(axis=1)
    drawn = count >= 2 + config.hazard_count
    walls, count, lanes = walls[drawn], count[drawn], states[:, drawn]
    free = ~walls
    rows = np.arange(len(free))
    picks = []
    for j in range(2 + config.hazard_count):  # start, goal, then the hazards
        cell = _nth_free(free, next_int_lanes(lanes, count - j).astype(np.int64))
        free[rows, cell] = False
        picks.append(cell)
    states[:, drawn] = lanes
    hazards = np.zeros_like(walls)
    for cell in picks[2:]:
        hazards[rows, cell] = True
    return drawn, (walls, hazards, picks[1], picks[0])


def generate_maps(config: EnvConfig, seeds) -> "Maps":
    """The block of maps of `seeds`, in order: Bernoulli walls, then start,
    goal and hazards drawn uniformly among free cells without collision, the
    whole layout retried until the goal is reachable (<= 100 tries). Each
    seed reads only its own `env:gen` stream, word for word as one map drawn
    alone would. The streams' states sit as the columns of one (4, M) uint64
    array, and each round draws a layout on every pending column at once
    (`_draw_layouts`) and checks its reachability with one frontier sweep;
    the maps whose goal is unreachable draw again in the next round. Raises
    GenerationError naming the first seed with no reachable layout."""
    seeds = list(seeds)
    cells = config.grid_n ** 2
    walls = np.zeros((len(seeds), cells), dtype=bool)
    hazards = np.zeros_like(walls)
    goal = np.zeros(len(seeds), dtype=np.int64)
    start = np.zeros_like(goal)
    pending = np.arange(len(seeds))
    states = np.ascontiguousarray(derive_states(seeds, "env:gen").T)
    for _ in range(100):
        if not len(pending):
            break
        drawn, layout = _draw_layouts(config, states)
        lane_walls, _, lane_goal, lane_start = layout
        lanes = np.flatnonzero(drawn)
        base = np.arange(len(lanes)) * cells
        table = _next_cells(config, lane_walls) + base[:, None, None]
        reached = _reach(table.reshape(-1, N_ACTIONS), base + lane_start)[base + lane_goal]
        done = lanes[reached]
        for out, value in zip((walls, hazards, goal, start), layout):
            out[pending[done]] = value[reached]
        retry = np.ones(len(pending), dtype=bool)
        retry[done] = False
        pending, states = pending[retry], states[:, retry]
    if len(pending):
        raise GenerationError(
            f"no reachable layout in 100 attempts for seed {seeds[pending[0]]} "
            "(config too dense?)"
        )
    return Maps(config, seeds, walls, hazards, goal, start)


class Maps:
    """Several maps (one config) stacked for block passes, over global cells
    g = m * cells + c, cell c of map m: `next[g, a]` is the global cell
    action a leads to from g, `reward[g, a]` what that move pays, `goal[g]`
    whether g is its map's goal, `start[m]` map m's start cell and
    `static[m]` the goal, wall and hazard channels of its observations, as
    bools. Built from each map's walls and hazards (bool (maps, cells)) and
    its goal and start cells."""

    def __init__(self, config: EnvConfig, seeds, walls, hazards, goal, start):
        count = len(walls)
        self.config = config
        self.seeds = list(seeds)
        self.cells = config.grid_n ** 2
        self.horizon = config.horizon
        base = np.arange(count) * self.cells
        table = _next_cells(config, walls)
        table += base[:, None, None]
        self.next = table.reshape(-1, N_ACTIONS)
        self.goal = np.zeros(len(self.next), dtype=bool)
        self.goal[base + goal] = True
        self.start = base + start
        enter = np.full(len(self.next), float(config.step_reward))  # what a move onto g pays
        enter[hazards.ravel()] += config.hazard_reward
        enter[self.goal] = config.goal_reward
        self.reward = enter[self.next]
        self.static = np.concatenate(
            [self.goal.reshape(count, self.cells), walls, hazards], axis=1
        )

    def observe(self, cells) -> np.ndarray:
        """The observation of the agent on each of the global cells `cells`,
        (len(cells), obs_dim): a one-hot agent channel, then its map's
        goal, wall and hazard channels."""
        maps, local = np.divmod(cells, self.cells)
        obs = np.zeros((len(cells), 4 * self.cells))
        obs[np.arange(len(cells)), local] = 1.0
        obs[:, self.cells :] = self.static[maps]
        return obs

    def observations(self, lo: int, hi: int) -> np.ndarray:
        """Every cell's observation on maps lo .. hi - 1 (hi clipped to the
        block), (maps, cells, obs_dim)."""
        hi = min(hi, len(self.start))
        obs = self.observe(np.arange(lo * self.cells, hi * self.cells))
        return obs.reshape(hi - lo, self.cells, -1)

    def walk(self, cell, offset, policy, states=None, epsilon=None):
        """Steps many episodes together over the block's tables, one lane
        each, and yields every step's records, (lane, cell, action, next
        cell, reward, done), each an array over the lanes still walking, in
        lane order. Lane l starts on global cell `cell[l]` and reads policy
        row `offset[l] + g` on cell g; it ends on its map's goal or at the
        horizon. How a lane acts:

        - without `states`, `policy` holds one action per row;
        - with `states` alone, its rows are cumulative action probabilities,
          and lane l samples from stream `states[:, l]`: one uniform u, then
          the first action a with u < row[a], else the last, as a running
          sum of the probabilities would pick;
        - with `states` and `epsilon`, `policy` holds greedy actions and
          lane l is epsilon[l]-greedy: one uniform u, and if u < epsilon[l]
          one next_int(N_ACTIONS) for its action, else the greedy one.

        `states` (4, L) is stepped in place until the first lane ends and
        copied from then on, so the caller reads nothing back from it."""
        lane = np.arange(len(cell))
        next_cell, reward = self.next.ravel(), self.reward.ravel()
        for t in range(1, self.horizon + 1):
            if not len(lane):
                return
            row = offset + cell
            if states is None:
                action = policy[row]
            elif epsilon is None:
                u = next_uniform_lanes(states)
                action = np.minimum((policy[row] <= u[:, None]).sum(axis=1), N_ACTIONS - 1)
            else:
                action = policy[row]
                noisy = np.flatnonzero(next_uniform_lanes(states) < epsilon)
                if len(noisy):
                    drawn = states[:, noisy]
                    action[noisy] = next_int_lanes(drawn, N_ACTIONS)
                    states[:, noisy] = drawn
            move = cell * N_ACTIONS + action
            after = next_cell[move]
            done = self.goal[after] if t < self.horizon else np.ones(len(lane), dtype=bool)
            yield lane, cell, action, after, reward[move], done
            cell = after
            if done.any():
                live = ~done
                lane, cell, offset = lane[live], cell[live], offset[live]
                if states is not None:
                    states = states[:, live]
                if epsilon is not None:
                    epsilon = epsilon[live]
