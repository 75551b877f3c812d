"""Built-in verification: finite-difference gradient checks and the
planner-optimality oracle, runnable from the command line.

The oracles deliberately avoid the code paths they certify: gradients are
checked against central differences of the cloning loss (`_bc_loss`, which
only these checks evaluate), and the planner against a depth-limited
exhaustive search that re-derives the transition rules from the map's
walls, hazards, goal and start alone, never from its tables.
"""

import math

import numpy as np

from . import expert, gridenv, tinynet
from .gridenv import ACTION_MOVES, EnvConfig
from .rng import derive_stream, splitmix64


def _gauss(rng) -> float:
    """Standard normal via Box-Muller; draws two uniforms from `rng`."""
    u1 = rng.next_uniform()
    u2 = rng.next_uniform()
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def _bc_loss(params: tinynet.PolicyParams, xs, labels, weights) -> float:
    """Weighted cloning loss: (1/sum w) * sum_i w_i * CE(forward(x_i), y_i),
    with CE of a hard label a being -log p_a: the loss whose gradient
    `tinynet.bc_grad` computes analytically."""
    xs, y, w, wsum = tinynet._prepare_batch(params, xs, labels, weights)
    w1, b1, w2, b2 = tinynet.unpack(params)
    h = np.maximum(xs @ w1.T + b1, 0.0)
    logp = tinynet._log_softmax(h @ w2.T + b2)
    ce = -(y * logp).sum(axis=1)
    return float((w * ce).sum() / wsum)


def finite_diff_grad(f, x: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at
    a time."""
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def check_bc_grad(n_cases: int = 20, tol: float = 1e-4, root_seed: int = 1234) -> float:
    """Worst relative error of the analytic cloning gradient vs central
    finite differences (step 1e-5) over random small instances."""
    worst = 0.0
    for case in range(n_cases):
        rng = derive_stream(root_seed, f"bcgrad:{case}")
        in_dim = 3 + rng.next_int(5)
        hidden = 2 + rng.next_int(4)
        out_dim = 2 + rng.next_int(3)
        m = 1 + rng.next_int(4)
        shape = tinynet.NetShape(in_dim=in_dim, hidden=hidden, out_dim=out_dim)
        params = tinynet.init_params(shape, rng)
        xs = np.array([[_gauss(rng) for _ in range(in_dim)] for _ in range(m)])
        labels = rng.next_int_array(out_dim, m)
        weights = np.array([0.25 + rng.next_uniform() for _ in range(m)])
        analytic = tinynet.bc_grad(params, xs, labels, weights)

        def loss_at(theta):
            return _bc_loss(tinynet.PolicyParams(theta=theta, shape=shape), xs, labels, weights)

        numeric = finite_diff_grad(loss_at, params.theta.copy(), eps=1e-5)
        worst = max(worst, max_rel_err(analytic, numeric))
    if worst > tol:
        raise AssertionError(f"bc_grad vs finite differences: max rel err {worst:.3e} > {tol}")
    return worst


def check_matching_grad(n_cases: int = 10, tol: float = 1e-3, root_seed: int = 99) -> float:
    """Worst relative error of the second-order matching gradient vs
    central finite differences (step 1e-4) on small random instances,
    covering both fixed hard labels and learned label logits."""
    worst = 0.0
    for case in range(n_cases):
        rng = derive_stream(root_seed, f"matchgrad:{case}")
        shape = tinynet.NetShape(in_dim=4, hidden=3, out_dim=2)
        params = tinynet.init_params(shape, rng)
        m = 2 + rng.next_int(2)
        learn = case % 2 == 1
        xs = np.array([[_gauss(rng) for _ in range(4)] for _ in range(m)])
        real_xs = np.array([[_gauss(rng) for _ in range(4)] for _ in range(3)])
        real_labels = rng.next_int_array(2, 3)
        g_real = tinynet.bc_grad(params, real_xs, real_labels, np.ones(3))
        if learn:
            labels = np.array([[_gauss(rng) for _ in range(2)] for _ in range(m)])
        else:
            labels = rng.next_int_array(2, m)
        res = tinynet.matching_grad_wrt_examples(params, g_real, xs, labels, learn_labels=learn)

        def softmax_rows(z):
            zs = z - z.max(axis=1, keepdims=True)
            ez = np.exp(zs)
            return ez / ez.sum(axis=1, keepdims=True)

        def dist_at_x(flat):
            y = softmax_rows(labels) if learn else labels
            g_syn = tinynet.bc_grad(params, flat.reshape(m, 4), y, np.ones(m))
            r = g_syn - g_real
            return r @ r

        numeric_x = finite_diff_grad(dist_at_x, xs.ravel().copy(), eps=1e-4)
        worst = max(worst, max_rel_err(res.grad_x.ravel(), numeric_x))
        if learn:

            def dist_at_logits(flat):
                g_syn = tinynet.bc_grad(
                    params, xs, softmax_rows(flat.reshape(m, 2)), np.ones(m)
                )
                r = g_syn - g_real
                return r @ r

            numeric_l = finite_diff_grad(dist_at_logits, labels.ravel().copy(), eps=1e-4)
            worst = max(worst, max_rel_err(res.grad_label_logits.ravel(), numeric_l))
    if worst > tol:
        raise AssertionError(
            f"matching_grad vs finite differences: max rel err {worst:.3e} > {tol}"
        )
    return worst


def best_return_search(maps: gridenv.Maps, horizon: int) -> float:
    """Max undiscounted return on the block's one map over every action
    sequence of length <= horizon, via memoized depth-limited search.
    Transition rules are re-derived from the map's goal, wall and hazard
    channels (`maps.static`) and its start, independent of both the block's
    tables and the planner."""
    cfg = maps.config
    n = cfg.grid_n
    goal, walls, hazards = maps.static[0].reshape(3, n, n)
    cache = {}

    def best(cell, t):
        if t >= horizon:
            return 0.0
        key = (cell, t)
        if key in cache:
            return cache[key]
        out = -np.inf
        for dr, dc in ACTION_MOVES:
            nr, nc = cell[0] + dr, cell[1] + dc
            if not (0 <= nr < n and 0 <= nc < n) or walls[nr, nc]:
                nr, nc = cell
            if goal[nr, nc]:
                value = cfg.goal_reward
            else:
                reward = cfg.step_reward
                if hazards[nr, nc]:
                    reward += cfg.hazard_reward
                value = reward + best((nr, nc), t + 1)
            out = max(out, value)
        cache[key] = out
        return out

    return best(divmod(int(maps.start[0]), n), 0)


def greedy_rollout_return(maps: gridenv.Maps, gamma: float = 0.99) -> float:
    """The return of one walk of the planner's greedy table on the block's
    one map."""
    greedy = expert.solve_maps(maps, gamma)[1]
    steps = maps.walk(maps.start, np.zeros(1, dtype=np.int64), greedy)
    return sum(float(reward[0]) for _, _, _, _, reward, _ in steps)


def check_planner(n_specs: int = 20, root_seed: int = 4242) -> int:
    """Greedy planner return must equal the exhaustive-search maximum on
    random small maps."""
    config = EnvConfig(grid_n=4, horizon=8)
    rng = derive_stream(root_seed, "planner-specs")
    checked = 0
    while checked < n_specs:
        seed = rng.next_int(1 << 32)
        try:
            maps = gridenv.generate_maps(config, [seed])
        except gridenv.GenerationError:
            continue
        greedy = greedy_rollout_return(maps)
        optimal = best_return_search(maps, config.horizon)
        if abs(greedy - optimal) > 1e-9:
            raise AssertionError(
                f"planner suboptimal on seed {seed}: greedy {greedy} vs search {optimal}"
            )
        checked += 1
    return checked


def check_splitmix_reference() -> None:
    _, out = splitmix64(0)
    if out != 0xE220A8397B1DCDAF:
        raise AssertionError(f"splitmix64(0) output {out:#x} != reference")


def run_selfcheck(verbose: bool = True) -> bool:
    """Run every check; print one PASS/FAIL line each; True iff all pass."""
    checks = [
        ("splitmix64-reference", check_splitmix_reference),
        ("bc-grad-finite-diff", check_bc_grad),
        ("matching-grad-finite-diff", check_matching_grad),
        ("planner-optimality", check_planner),
    ]
    all_ok = True
    for name, fn in checks:
        try:
            fn()
            if verbose:
                print(f"PASS {name}")
        except AssertionError as err:
            all_ok = False
            if verbose:
                print(f"FAIL {name}: {err}")
    return all_ok
