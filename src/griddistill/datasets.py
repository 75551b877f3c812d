"""Offline transition dataset: return computation, percentile filtering,
batch sampling, and the JSONL + meta.json on-disk format.

Returns are undiscounted within-episode sums; the planner's discount never
leaks into the data. Percentile filtering operates on whole episodes ranked
by their start return g_0, because the filter weight is constant across an
episode.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

TRANSITION_FIELDS = (
    "episode_id",
    "t",
    "seed",
    "obs",
    "action",
    "next_obs",
    "reward",
    "done",
    "g_t",
    "g_0",
)


class SchemaError(Exception):
    """Dataset file does not match the expected schema."""


@dataclass(eq=False)
class Transition:
    episode_id: int
    t: int
    seed: int
    obs: np.ndarray
    action: int
    next_obs: np.ndarray
    reward: float
    done: bool
    g_t: float
    g_0: float

    def __eq__(self, other):
        if not isinstance(other, Transition):
            return NotImplemented
        return (
            self.episode_id == other.episode_id
            and self.t == other.t
            and self.seed == other.seed
            and np.array_equal(self.obs, other.obs)
            and self.action == other.action
            and np.array_equal(self.next_obs, other.next_obs)
            and self.reward == other.reward
            and self.done == other.done
            and self.g_t == other.g_t
            and self.g_0 == other.g_0
        )


@dataclass(eq=False)
class OfflineDataset:
    transitions: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.transitions)

    def __eq__(self, other):
        if not isinstance(other, OfflineDataset):
            return NotImplemented
        return self.meta == other.meta and self.transitions == other.transitions

    def episode_ids(self) -> list:
        """Distinct episode ids in first-appearance order."""
        seen = []
        last = None
        for tr in self.transitions:
            if tr.episode_id != last:
                seen.append(tr.episode_id)
                last = tr.episode_id
        return seen

    def episode_g0(self) -> dict:
        return {tr.episode_id: tr.g_0 for tr in self.transitions}

    def obs_matrix(self) -> np.ndarray:
        """All observations stacked (N, obs_dim); cached after first call."""
        if not hasattr(self, "_obs_matrix"):
            self._obs_matrix = np.stack([tr.obs for tr in self.transitions])
            self._obs_matrix.flags.writeable = False
        return self._obs_matrix

    def action_vector(self) -> np.ndarray:
        if not hasattr(self, "_actions"):
            self._actions = np.array([tr.action for tr in self.transitions], dtype=np.int64)
            self._actions.flags.writeable = False
        return self._actions


def compute_returns(steps: list, episode_id: int, seed: int) -> list:
    """Turn one episode's (obs, action, next_obs, reward, done) steps into
    Transitions with backward-accumulated undiscounted returns; g_0 is
    stamped on every row."""
    if not steps:
        raise ValueError("episode must be nonempty")
    g = 0.0
    g_values = [0.0] * len(steps)
    for i in range(len(steps) - 1, -1, -1):
        g = steps[i][3] + g
        g_values[i] = g
    g0 = g_values[0]
    out = []
    for t, (obs, action, next_obs, reward, done) in enumerate(steps):
        out.append(
            Transition(
                episode_id=episode_id,
                t=t,
                seed=seed,
                obs=obs,
                action=action,
                next_obs=next_obs,
                reward=reward,
                done=done,
                g_t=g_values[t],
                g_0=g0,
            )
        )
    return out


def from_episodes(episodes: list, meta: dict) -> OfflineDataset:
    """Assemble an OfflineDataset from expert Episodes, ids 0..n-1."""
    transitions = []
    for i, ep in enumerate(episodes):
        transitions.extend(compute_returns(ep.steps, episode_id=i, seed=ep.seed))
    return OfflineDataset(transitions=transitions, meta=meta)


@dataclass
class FilterSpec:
    percentile: float
    threshold_b: float
    kept_episodes: set


def percentile_filter(ds: OfflineDataset, x: float) -> tuple[FilterSpec, OfflineDataset]:
    """Keep the top ceil(x/100 * n_episodes) episodes by g_0 (ties broken by
    ascending episode id). The kept transitions stay in original order."""
    if not (0.0 < x <= 100.0):
        raise ValueError("percentile must be in (0, 100]")
    g0 = ds.episode_g0()
    ranked = sorted(g0.items(), key=lambda item: (-item[1], item[0]))
    keep = math.ceil(x / 100.0 * len(ranked))
    kept = ranked[:keep]
    kept_ids = {eid for eid, _ in kept}
    threshold = kept[-1][1]
    filtered = [tr for tr in ds.transitions if tr.episode_id in kept_ids]
    meta = dict(ds.meta)
    meta["episode_count"] = len(kept_ids)
    meta["percentile"] = x
    spec = FilterSpec(percentile=x, threshold_b=threshold, kept_episodes=kept_ids)
    return spec, OfflineDataset(transitions=filtered, meta=meta)


def sample_batch(ds: OfflineDataset, batch: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-with-replacement draw of (obs, action) rows, returned as a
    stacked (batch, obs_dim) matrix and (batch,) action vector."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if len(ds) == 0:
        raise ValueError("cannot sample from an empty dataset")
    obs = ds.obs_matrix()
    actions = ds.action_vector()
    idx = np.array([rng.next_int(len(ds)) for _ in range(batch)], dtype=np.int64)
    return obs[idx], actions[idx]


def _fmt(x: float) -> str:
    """17-significant-digit decimal: round-trips any float64 exactly."""
    return format(float(x), ".17g")


def _fmt_array(arr) -> str:
    return "[" + ",".join(_fmt(v) for v in arr) + "]"


def _transition_line(tr: Transition) -> str:
    parts = [
        f'"episode_id":{tr.episode_id}',
        f'"t":{tr.t}',
        f'"seed":{tr.seed}',
        f'"obs":{_fmt_array(tr.obs)}',
        f'"action":{tr.action}',
        f'"next_obs":{_fmt_array(tr.next_obs)}',
        f'"reward":{_fmt(tr.reward)}',
        f'"done":{"true" if tr.done else "false"}',
        f'"g_t":{_fmt(tr.g_t)}',
        f'"g_0":{_fmt(tr.g_0)}',
    ]
    return "{" + ",".join(parts) + "}"


def _meta_path(path: str) -> str:
    base = path[:-6] if path.endswith(".jsonl") else path
    return base + ".meta.json"


def save(ds: OfflineDataset, path: str) -> None:
    """JSON Lines body (one transition per line) plus a <name>.meta.json
    sidecar holding the meta record and the row count."""
    with open(path, "w") as fh:
        for tr in ds.transitions:
            fh.write(_transition_line(tr) + "\n")
    meta = dict(ds.meta)
    meta["rows"] = len(ds.transitions)
    with open(_meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _validate_g_consistency(transitions: list) -> None:
    by_episode = {}
    for tr in transitions:
        by_episode.setdefault(tr.episode_id, []).append(tr)
    for eid, rows in by_episode.items():
        if any(rows[i].t != i for i in range(len(rows))):
            raise SchemaError(f"episode {eid}: transitions not contiguous/t-ordered")
        if not rows[-1].done:
            raise SchemaError(f"episode {eid} does not end with done=true")
        g_next = 0.0
        for tr in reversed(rows):
            if abs(tr.g_t - (tr.reward + g_next)) > 1e-9:
                raise SchemaError(f"episode {eid}, t={tr.t}: g_t != reward + g_(t+1)")
            g_next = tr.g_t
        if any(abs(tr.g_0 - rows[0].g_t) > 1e-9 for tr in rows):
            raise SchemaError(f"episode {eid}: g_0 mismatch")


def load(path: str) -> OfflineDataset:
    """Load and validate a saved dataset; raises SchemaError on a line that
    is not a JSON object, missing fields, row-count mismatch, or broken
    return consistency."""
    meta_path = _meta_path(path)
    if not os.path.exists(meta_path):
        raise SchemaError(f"missing meta sidecar {meta_path}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if "rows" not in meta:
        raise SchemaError("meta.json missing row count")
    expected_rows = meta.pop("rows")
    transitions = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno + 1}: malformed JSON ({exc.msg})") from exc
            if not isinstance(row, dict):
                raise SchemaError(f"line {lineno + 1}: not a JSON object")
            missing = [f for f in TRANSITION_FIELDS if f not in row]
            if missing:
                raise SchemaError(f"line {lineno + 1}: missing fields {missing}")
            transitions.append(
                Transition(
                    episode_id=int(row["episode_id"]),
                    t=int(row["t"]),
                    seed=int(row["seed"]),
                    obs=np.asarray(row["obs"], dtype=np.float64),
                    action=int(row["action"]),
                    next_obs=np.asarray(row["next_obs"], dtype=np.float64),
                    reward=float(row["reward"]),
                    done=bool(row["done"]),
                    g_t=float(row["g_t"]),
                    g_0=float(row["g_0"]),
                )
            )
    if len(transitions) != expected_rows:
        raise SchemaError(f"row count mismatch: meta says {expected_rows}, file has {len(transitions)}")
    _validate_g_consistency(transitions)
    return OfflineDataset(transitions=transitions, meta=meta)
