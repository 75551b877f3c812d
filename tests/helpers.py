"""Dataset queries that only the tests make, and the per-map references
that the block passes over maps are tested against."""

import numpy as np

from griddistill import gridenv
from griddistill.datasets import _run_starts
from griddistill.rng import derive_stream

_STAY = gridenv.ACTIONS.index("STAY")


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
        spec = gridenv.GridSpec(seed, config, walls, frozenset(hazards), goal, start)
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
    static = [gridenv.observe(gridenv.initial_state(spec))[cells:] > 0 for spec in specs]
    return (
        next_cell.reshape(-1, gridenv.N_ACTIONS),
        reward.reshape(-1, gridenv.N_ACTIONS),
        goal,
        start,
        np.stack(static),
    )


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
