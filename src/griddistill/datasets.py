"""Offline transition dataset: return computation, percentile filtering,
batch sampling, and the JSONL + meta.json on-disk format. Every output
file of the package is written through `write_atomic`.

In memory a dataset is a set of numpy columns, one entry per transition,
each episode one contiguous run of rows in t order:

- `episode_id`, `t` (int64) and `seed` (Python ints, any size);
- `obs`, `next_obs` (float64, rows x obs_dim) and `action` (int64);
- `reward` (float64) and `done` (bool);
- `g_t`, the return from step t, and `g_0`, the episode's return from its
  first step, repeated on every row (float64).

Returns are undiscounted within-episode sums; the planner's discount never
leaks into the data. Percentile filtering operates on whole episodes ranked
by their start return g_0, because the filter weight is constant across an
episode.

`load` keeps the last dataset it parsed, keyed by the exact bytes of the
file and its sidecar, so a process that loads one `offline.jsonl` content
again (every BC cohort of a run-all) parses it once. Loaded columns are
read-only.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .gridenv import N_ACTIONS
from .rng import RngStream

COLUMNS = {
    "episode_id": np.int64,
    "t": np.int64,
    "seed": object,
    "obs": np.float64,
    "action": np.int64,
    "next_obs": np.float64,
    "reward": np.float64,
    "done": bool,
    "g_t": np.float64,
    "g_0": np.float64,
}


class SchemaError(Exception):
    """Dataset file does not match the expected schema."""


@dataclass(eq=False)
class OfflineDataset:
    episode_id: np.ndarray
    t: np.ndarray
    seed: np.ndarray
    obs: np.ndarray
    action: np.ndarray
    next_obs: np.ndarray
    reward: np.ndarray
    done: np.ndarray
    g_t: np.ndarray
    g_0: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.episode_id)


def _run_starts(episode_id: np.ndarray) -> np.ndarray:
    """Row index where each run of equal episode ids begins."""
    change = np.ones(len(episode_id), dtype=bool)
    change[1:] = episode_id[1:] != episode_id[:-1]
    return np.flatnonzero(change)


def _from_rows(rows: list, meta: dict) -> OfflineDataset:
    """Columns from per-transition tuples in COLUMNS order."""
    values = zip(*rows) if rows else [()] * len(COLUMNS)
    cols = {name: np.array(col, dtype=dtype) for (name, dtype), col in zip(COLUMNS.items(), values)}
    return OfflineDataset(**cols, meta=meta)


def compute_returns(rewards) -> np.ndarray:
    """One episode's undiscounted returns g_t = reward_t + g_(t+1): a
    reversed running sum, bit-equal to the backward loop from g = 0.0
    (adding that 0.0 turns a -0.0 sum into 0.0, as the loop does)."""
    if len(rewards) == 0:
        raise ValueError("episode must be nonempty")
    return np.cumsum(np.asarray(rewards, dtype=np.float64)[::-1])[::-1] + 0.0


def from_episodes(episodes: list, meta: dict) -> OfflineDataset:
    """Assemble an OfflineDataset from expert Episodes, ids 0..n-1."""
    rows = []
    for i, ep in enumerate(episodes):
        g = compute_returns([step[3] for step in ep.steps])
        for t, (obs, action, next_obs, reward, done) in enumerate(ep.steps):
            rows.append((i, t, ep.seed, obs, action, next_obs, reward, done, g[t], g[0]))
    return _from_rows(rows, meta)


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
    starts = _run_starts(ds.episode_id)
    if len(starts) == 0:
        raise ValueError("cannot filter a dataset with no episodes")
    ids, g0 = ds.episode_id[starts], ds.g_0[starts]
    kept = np.lexsort((ids, -g0))[: math.ceil(x / 100.0 * len(ids))]
    meta = dict(ds.meta)
    meta["episode_count"] = len(kept)
    meta["percentile"] = x
    spec = FilterSpec(
        percentile=x, threshold_b=float(g0[kept[-1]]), kept_episodes=set(ids[kept].tolist())
    )
    rows = np.isin(ds.episode_id, ids[kept])
    return spec, OfflineDataset(**{name: getattr(ds, name)[rows] for name in COLUMNS}, meta=meta)


def sample_batch(ds: OfflineDataset, batch: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-with-replacement draw of (obs, action) rows, returned as a
    stacked (batch, obs_dim) matrix and (batch,) action vector."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if len(ds) == 0:
        raise ValueError("cannot sample from an empty dataset")
    idx = rng.next_int_array(len(ds), batch)
    return ds.obs[idx], ds.action[idx]


def _fmt(x: float) -> str:
    """The text of one float in every artifact: `%.17g`, 17 significant
    digits, which round-trip any float64 exactly. An integral float is
    written without a decimal point (1.0 as 1, 1e16 as 10000000000000000).
    Negative zero is written -0.0, since JSON reads -0 as the integer 0."""
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def _fmt_array(values) -> str:
    """A 1-D array as a JSON list of `_fmt` tokens, formatted by one
    C-level `%` over the whole array. Negative zero is mended afterwards:
    `%.17g` writes it -0, and no other token can be -0 followed by a comma
    or the closing bracket, since exponents have at least two digits
    (1e-05). Raises ValueError for an array that is not 1-D."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {values.shape}")
    text = ("[" + ",".join(("%.17g",) * len(values)) + "]") % tuple(values.tolist())
    return text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")


def _meta_path(path: str) -> str:
    base = path[:-6] if path.endswith(".jsonl") else path
    return base + ".meta.json"


@contextlib.contextmanager
def write_atomic(path: str):
    """Open `path` for writing text, atomically: the body writes
    `path + ".tmp"`, which replaces `path` only once it is complete and
    closed, so a reader never sees a partial file. If the body raises, the
    temp file is removed and `path` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save(ds: OfflineDataset, path: str) -> None:
    """JSON Lines body (one transition per line) plus a <name>.meta.json
    sidecar holding the meta record and the row count."""
    columns = [getattr(ds, name) for name in COLUMNS]
    with write_atomic(path) as fh:
        for episode_id, t, seed, obs, action, next_obs, reward, done, g_t, g_0 in zip(*columns):
            parts = [
                f'"episode_id":{episode_id}',
                f'"t":{t}',
                f'"seed":{seed}',
                f'"obs":{_fmt_array(obs)}',
                f'"action":{action}',
                f'"next_obs":{_fmt_array(next_obs)}',
                f'"reward":{_fmt(reward)}',
                f'"done":{"true" if done else "false"}',
                f'"g_t":{_fmt(g_t)}',
                f'"g_0":{_fmt(g_0)}',
            ]
            fh.write("{" + ",".join(parts) + "}\n")
    meta = dict(ds.meta)
    meta["rows"] = len(ds)
    with write_atomic(_meta_path(path)) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _validate_episodes(ds: OfflineDataset) -> None:
    """Each episode one contiguous run with t = 0, 1, ..., ending done,
    with g_t = reward + g_(t+1) and g_0 = the first row's g_t (both within
    1e-9); else SchemaError naming the first bad episode (in row order)."""
    n = len(ds)
    starts = _run_starts(ds.episode_id)
    run_ids = ds.episode_id[starts].tolist()
    if len(set(run_ids)) < len(run_ids):
        eid = next(e for i, e in enumerate(run_ids) if e in run_ids[:i])
        raise SchemaError(f"episode {eid}: rows are not one contiguous run")
    first = np.repeat(starts, np.diff(starts, append=n))  # each row's episode start
    is_end = np.zeros(n, dtype=bool)
    is_end[starts - 1] = True  # the row before a start; -1 wraps to the last row
    g_next = np.where(is_end, 0.0, np.roll(ds.g_t, -1))
    bad_g = np.abs(ds.g_t - (ds.reward + g_next)) > 1e-9
    checks = (
        (ds.t != np.arange(n) - first, "episode {eid}: transitions not contiguous/t-ordered"),
        (is_end & ~ds.done, "episode {eid} does not end with done=true"),
        (bad_g, "episode {eid}, t={t}: g_t != reward + g_(t+1)"),
        (np.abs(ds.g_0 - ds.g_t[first]) > 1e-9, "episode {eid}: g_0 mismatch"),
    )
    bad = np.logical_or.reduce([rows for rows, _ in checks])
    if bad.any():
        eid = int(ds.episode_id[np.argmax(bad)])
        episode = ds.episode_id == eid
        for rows, message in checks:
            if (rows & episode).any():
                raise SchemaError(message.format(eid=eid, t=ds.t[rows & episode][-1]))


# the JSON type of each scalar field; a bool is not an integer here
_SCALAR_TYPES = {
    **dict.fromkeys(("episode_id", "t", "seed"), ("an integer", lambda v: type(v) is int)),
    "action": (f"an integer in [0, {N_ACTIONS})", lambda v: type(v) is int and 0 <= v < N_ACTIONS),
    "done": ("a bool", lambda v: type(v) is bool),
    **dict.fromkeys(
        ("reward", "g_t", "g_0"),
        ("a finite number", lambda v: type(v) is int or type(v) is float and math.isfinite(v)),
    ),
}


def _vector(row: dict, key: str, dim: int | None, lineno: int) -> np.ndarray:
    """row[key] as a finite float vector of length dim (any nonzero length
    when dim is None), else SchemaError naming the line."""
    try:
        v = np.asarray(row[key], dtype=np.float64)
    except (TypeError, ValueError):
        v = None
    ok = v is not None and v.ndim == 1 and v.size > 0 and np.isfinite(v).all()
    if not ok or (dim is not None and len(v) != dim):
        want = "" if dim is None else f" of length {dim}"
        raise SchemaError(f"line {lineno}: {key} is not a finite vector{want}")
    return v


def _text(data: bytes) -> io.TextIOWrapper:
    """`data` read as `open(path)` reads a file: the locale's encoding and
    universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data))


def _parse_rows(body: bytes, expected_rows: int) -> OfflineDataset:
    """The dataset in a JSON Lines body, validated, with an empty meta;
    SchemaError as in `load`."""
    rows = []
    dim = None
    for lineno, line in enumerate(_text(body)):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {lineno + 1}: malformed JSON ({exc.msg})") from exc
        if not isinstance(row, dict):
            raise SchemaError(f"line {lineno + 1}: not a JSON object")
        missing = [f for f in COLUMNS if f not in row]
        if missing:
            raise SchemaError(f"line {lineno + 1}: missing fields {missing}")
        for key, (kind, ok) in _SCALAR_TYPES.items():
            if not ok(row[key]):
                raise SchemaError(f"line {lineno + 1}: {key} {row[key]!r} is not {kind}")
        row["obs"] = _vector(row, "obs", dim, lineno + 1)
        dim = len(row["obs"])
        row["next_obs"] = _vector(row, "next_obs", dim, lineno + 1)
        rows.append(tuple(row[name] for name in COLUMNS))
    if len(rows) != expected_rows:
        raise SchemaError(f"row count mismatch: meta says {expected_rows}, file has {len(rows)}")
    ds = _from_rows(rows, {})
    _validate_episodes(ds)
    return ds


# the last dataset `load` parsed: (sidecar bytes, body bytes, dataset)
_last = None


def load(path: str) -> OfflineDataset:
    """Load and validate a saved dataset; raises SchemaError on a sidecar
    or line that is not a JSON object, a sidecar row count that is not a
    JSON integer >= 0 (a bool is not one), missing fields, a scalar of the
    wrong JSON type (episode_id, t, seed: integer; action: integer in
    [0, N_ACTIONS); done: bool; reward, g_t, g_0: finite number), an
    obs/next_obs that is not a finite vector of the first row's length,
    row-count mismatch, an episode split over several runs of rows, or
    broken return consistency.

    Each file is read once, as bytes. The last dataset parsed is kept
    with the bytes it came from, and a load of files holding exactly
    those bytes returns it without parsing, so repeated loads of one
    content (distill and every BC cohort of a run-all) parse it once per
    process. The columns are read-only on every return, hit or miss, and
    each call returns its own OfflineDataset with its own `meta`. A
    failed load keeps nothing."""
    global _last
    meta_path = _meta_path(path)
    if not os.path.exists(meta_path):
        raise SchemaError(f"missing meta sidecar {meta_path}")
    with open(meta_path, "rb") as fh:
        sidecar = fh.read()
    try:
        meta = json.load(_text(sidecar))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{meta_path}: malformed JSON ({exc.msg})") from exc
    if not isinstance(meta, dict):
        raise SchemaError(f"{meta_path}: not a JSON object")
    if "rows" not in meta:
        raise SchemaError(f"{meta_path}: missing row count")
    expected_rows = meta.pop("rows")
    if type(expected_rows) is not int or expected_rows < 0:
        raise SchemaError(f"{meta_path}: rows {expected_rows!r} is not an integer >= 0")
    with open(path, "rb") as fh:
        body = fh.read()
    if _last is None or _last[:2] != (sidecar, body):
        ds = _parse_rows(body, expected_rows)
        for name in COLUMNS:
            getattr(ds, name).flags.writeable = False
        _last = (sidecar, body, ds)
    return replace(_last[2], meta=meta)
