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

Collection builds the columns from a lockstep walk's step records
(`from_walk`). Returns are undiscounted within-episode sums, every
episode's summed from its last step back, all episodes a step at a time;
the planner's discount never leaks into the data. Percentile filtering
operates on whole episodes ranked by their start return g_0, because the
filter weight is constant across an episode.

Every artifact loader (`load`, `tinynet.load_checkpoint`,
`distill.load_synthetic`) reads its file once, as bytes, and goes through
one per-path memo (`memoized`): what this process last wrote or parsed at
that path, keyed by the length and built-in `hash()` of the file's bytes
(and of its sidecar's). A load of bytes with the same lengths and hashes
returns the memoized value without parsing. The savers that hold the
whole text they write (`tinynet.save_checkpoint`,
`distill.save_synthetic`) prime the memo with a read-only copy of what
they wrote, or with the array itself when nothing can write it (`prime`),
so a run-all parses no checkpoint and no synthetic set it wrote itself,
and parses `offline.jsonl` once. Loaded arrays are read-only.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fields
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


def compute_returns(rewards, lengths=None) -> np.ndarray:
    """Undiscounted returns g_t = reward_t + g_(t+1) of episodes laid back
    to back in `rewards`, episode k `lengths[k]` steps long (by default one
    episode of them all). Every episode is summed from its last step back
    from 0.0, all of them a step at a time, so each is bit-equal to the
    backward loop from g = 0.0 (which turns a -0.0 sum into 0.0)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    lengths = np.array([len(rewards)] if lengths is None else lengths, dtype=np.int64)
    if (lengths < 1).any():
        raise ValueError("episode must be nonempty")
    end = np.cumsum(lengths)  # one past each episode's last row
    g = np.zeros(len(lengths))
    out = np.empty(len(rewards))
    for back in range(lengths.max(initial=0)):
        live = lengths > back
        rows = end[live] - 1 - back
        g[live] += rewards[rows]
        out[rows] = g[live]
    return out


def from_walk(steps: list, seeds, observe, meta: dict) -> OfflineDataset:
    """The dataset of a lockstep walk (`gridenv.Maps.walk`), lane l as
    episode l on seed `seeds[l]`: `steps` holds each step's records (lane,
    cell, action, next cell, reward, done), arrays over the lanes that took
    it, and `observe(cells)` gives the observation rows of cells. Rows go
    episode by episode, each in step order."""
    if not steps:
        return _from_rows([], meta)
    records = [np.concatenate(field) for field in zip(*steps)]
    order = np.argsort(records[0], kind="stable")  # each lane's records stay in step order
    lane, cell, action, next_cell, reward, done = (field[order] for field in records)
    lengths = np.bincount(lane)  # every lane takes at least one step
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)  # each row's episode start
    g_t = compute_returns(reward, lengths)
    return OfflineDataset(
        episode_id=lane,
        t=np.arange(len(lane)) - first,
        seed=np.array(seeds, dtype=object)[lane],
        obs=observe(cell),
        action=action.astype(np.int64),
        next_obs=observe(next_cell),
        reward=reward,
        done=done,
        g_t=g_t,
        g_0=g_t[first],
        meta=meta,
    )


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


def _fmt_array(values) -> str:
    """A 1-D array as a JSON list of the text every artifact writes a float
    as: `%.17g`, 17 significant digits, which round-trip any float64
    exactly. An integral float is written without a decimal point (1.0 as
    1, 1e16 as 10000000000000000), and negative zero as -0.0, since JSON
    reads -0 as the integer 0. One C-level `%` formats the whole array, and
    negative zero is mended afterwards: `%.17g` writes it -0, and no other
    token can be -0 followed by a comma or the closing bracket, since
    exponents have at least two digits (1e-05). Raises ValueError for an
    array that is not 1-D."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {values.shape}")
    text = ("[" + ",".join(("%.17g",) * len(values)) + "]") % tuple(values.tolist())
    return text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")


_ONE = np.float64(1.0).view(np.uint64)


def _fmt_rows(matrix) -> list:
    """Each row of a 2-D array as `_fmt_array` writes it. When every entry
    is exactly 0.0 or 1.0, with no -0.0 (one-hot observations), every row
    is "[" then its entries' digits joined by commas then "]", so all the
    rows are built at once as one byte table and cut apart; any other
    matrix is written row by row by `_fmt_array`."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    bits = matrix.view(np.uint64)
    if matrix.ndim != 2 or not matrix.shape[1] or not ((bits == 0) | (bits == _ONE)).all():
        return [_fmt_array(row) for row in matrix]
    rows, width = len(matrix), 2 * matrix.shape[1] + 1
    table = np.full((rows, width), ord(","), dtype=np.uint8)
    table[:, 0], table[:, -1] = ord("["), ord("]")
    np.add(matrix, ord("0"), out=table[:, 1::2], casting="unsafe")
    text = table.tobytes().decode("ascii")
    return [text[i : i + width] for i in range(0, rows * width, width)]


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


# one line of the JSON Lines body, fields in COLUMNS order
_LINE = "{" + ",".join(f'"{name}":%s' for name in COLUMNS) + "}\n"

# rows `save` formats at a time: holding every row's text at once (~2,700
# small strings for the default collection) raised the distill-soft
# benchmark's peak RSS by ~0.3 MB, and blocks of 32 rows cost no more time
_SAVE_ROWS = 32


def save(ds: OfflineDataset, path: str) -> None:
    """JSON Lines body (one transition per line) plus a <name>.meta.json
    sidecar holding the meta record and the row count. Each block of
    _SAVE_ROWS rows is formatted a column at a time: integers as Python
    ints, floats by `_fmt_array` (vectors by `_fmt_rows`) and `done` as
    true/false."""
    with write_atomic(path) as fh:
        for lo in range(0, len(ds), _SAVE_ROWS):
            block = {name: getattr(ds, name)[lo : lo + _SAVE_ROWS] for name in COLUMNS}
            text = {name: block[name].tolist() for name in ("episode_id", "t", "seed", "action")}
            text.update(obs=_fmt_rows(block["obs"]), next_obs=_fmt_rows(block["next_obs"]))
            for name in ("reward", "g_t", "g_0"):
                text[name] = _fmt_array(block[name])[1:-1].split(",")
            text["done"] = ["true" if done else "false" for done in block["done"].tolist()]
            fh.writelines(_LINE % row for row in zip(*(text[name] for name in COLUMNS)))
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


def parse_json(path: str, data: bytes):
    """The JSON value in `data`, the bytes of the file at `path`, read as
    `json.load(open(path))` reads it; SchemaError naming the path if the
    JSON is malformed."""
    try:
        return json.load(_text(data))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON ({exc.msg})") from exc


# what this process last wrote or parsed at each path: (the length and
# hash() of each file's bytes it came from, the value they hold)
_memo = {}


def _key(files: tuple) -> tuple:
    return tuple((len(data), hash(data)) for data in files)


def memoized(path: str, files: tuple, parse):
    """The value of `files`, the bytes just read for `path` (its own, then
    its sidecar's if it has one): the memo's, when what this process last
    wrote or parsed there has the same lengths and hash(), else `parse()`,
    kept for the next load. A parse that raises keeps nothing."""
    key = _key(files)
    entry = _memo.get(path)
    if entry is None or entry[0] != key:
        entry = _memo[path] = (key, parse())
    return entry[1]


def prime(path: str, text: str, value) -> None:
    """Memoize `value()` at `path` as the value of `text`, just written
    there, so the next load skips the parse. `value` builds it with the
    loader's own checks; if it raises SchemaError, nothing is kept and the
    next load parses the file (and raises). Bytes on disk other than
    `text.encode()` (another encoding or newline) just miss."""
    try:
        _memo[path] = (_key((text.encode(),)), value())
    except SchemaError:
        _memo.pop(path, None)


def _parse_rows(body: bytes, expected_rows: int) -> OfflineDataset:
    """The dataset in a JSON Lines body, validated, with an empty meta and
    read-only columns; SchemaError as in `load`."""
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
    for name in COLUMNS:
        getattr(ds, name).flags.writeable = False
    return ds


def load(path: str) -> OfflineDataset:
    """Load and validate a saved dataset; raises SchemaError on a sidecar
    or line that is not a JSON object, a sidecar row count that is not a
    JSON integer >= 0 (a bool is not one), missing fields, a scalar of the
    wrong JSON type (episode_id, t, seed: integer; action: integer in
    [0, N_ACTIONS); done: bool; reward, g_t, g_0: finite number), an
    obs/next_obs that is not a finite vector of the first row's length,
    row-count mismatch, an episode split over several runs of rows, or
    broken return consistency.

    Each file is read once, as bytes, and the dataset is memoized at
    `path` (`memoized`) under the body's and the sidecar's bytes,
    so repeated loads of one content (distill and every BC cohort of a
    run-all) parse it once per process. `save` writes a block at a time
    and does not prime the memo, so the first load after it parses. The
    columns are read-only on every return, hit or miss, and each call
    returns its own OfflineDataset with its own `meta`. A failed load
    keeps nothing."""
    meta_path = _meta_path(path)
    if not os.path.exists(meta_path):
        raise SchemaError(f"missing meta sidecar {meta_path}")
    with open(meta_path, "rb") as fh:
        sidecar = fh.read()
    meta = parse_json(meta_path, sidecar)
    if not isinstance(meta, dict):
        raise SchemaError(f"{meta_path}: not a JSON object")
    if "rows" not in meta:
        raise SchemaError(f"{meta_path}: missing row count")
    expected_rows = meta.pop("rows")
    fields.integer(f"{meta_path}: rows", expected_rows, 0, SchemaError)
    with open(path, "rb") as fh:
        body = fh.read()
    ds = memoized(path, (body, sidecar), lambda: _parse_rows(body, expected_rows))
    return replace(ds, meta=meta)
