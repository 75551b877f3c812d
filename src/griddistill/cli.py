"""Command-line pipeline: collect -> distill -> train -> eval, driven by a
JSON experiment config with full-default fallback.

Flag precedence is flags > config file > built-in defaults. The flags are
merged into the file's JSON and the config is built from it in one pass,
`config_from_dict`, before anything is written. That pass checks every
section, nested ones (`student.bc`) the same way as top-level ones: each
must be a JSON object without unknown keys, and each field is checked for
type and bounds by its section (`fields`). Every error message starts with
the dotted field name, e.g. `collect.episodes 2.5 is not an integer >= 1`.
Every command writes config.echo.json with the fully resolved
configuration so runs are self-describing, and every output lands under
the configured output directory.
"""

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

from . import checks, datasets, evaluate, expert, fields, tinynet
from .distill import DistillConfig, distill, load_synthetic, save_synthetic
from .evaluate import EvalConfig
from .gridenv import EnvConfig
from .rng import derive_stream
from .trainer import TrainConfig, train_cohort


@dataclass
class CollectConfig:
    episodes: int = 100
    epsilons: list = field(default_factory=lambda: [0.0, 0.1, 0.3])
    seed_start: int = 0
    seed_count: int = 200
    gamma: float = 0.99

    def __post_init__(self):
        fields.integer("episodes", self.episodes, 1)
        fields.integer("seed_start", self.seed_start)
        fields.integer("seed_count", self.seed_count, 1)
        if not isinstance(self.epsilons, list) or not self.epsilons:
            raise ValueError("epsilons needs at least one epsilon")
        bad = [e for e in self.epsilons if not (fields.is_real(e) and 0.0 <= e <= 1.0)]
        if bad:
            raise ValueError(f"epsilons {bad} are not in [0, 1]")
        fields.real("gamma", self.gamma, 0, 1, low_open=True)

    def seeds(self) -> list:
        return list(range(self.seed_start, self.seed_start + self.seed_count))


@dataclass
class StudentConfig:
    n_students: int = 10
    bc: TrainConfig = field(default_factory=TrainConfig.for_real)
    synthetic: TrainConfig = field(default_factory=TrainConfig.for_synthetic)

    def __post_init__(self):
        fields.integer("n_students", self.n_students, 1)


@dataclass
class ExperimentConfig:
    root_seed: int = 42
    env: EnvConfig = field(default_factory=EnvConfig)
    collect: CollectConfig = field(default_factory=CollectConfig)
    percentiles: list = field(default_factory=lambda: [10, 25, 40, 100])
    distill: DistillConfig = field(default_factory=DistillConfig)
    student: StudentConfig = field(default_factory=StudentConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    output_dir: str = "out"

    def __post_init__(self):
        fields.integer("root_seed", self.root_seed)
        if not isinstance(self.percentiles, list):
            raise ValueError(f"percentiles {self.percentiles!r} is not a list")
        bad = [x for x in self.percentiles if isinstance(x, bool) or x not in range(1, 101)]
        if bad:
            raise ValueError(f"percentiles {bad} are not integers in [1, 100]")
        if len(set(self.percentiles)) != len(self.percentiles):
            raise ValueError(f"percentiles {self.percentiles} repeat a value")
        fields.text("output_dir", self.output_dir)

    def methods(self) -> list:
        return [f"bc{int(x)}" for x in self.percentiles] + ["synthetic"]

    def net_shape(self) -> tinynet.NetShape:
        return tinynet.NetShape(in_dim=self.env.obs_dim)


def _build_section(cls, data, path: str):
    """Build `cls` from `data`, the JSON object at `path` ("" at the top,
    else dotted with a trailing dot: "student.bc."). A field that is itself
    a section is built from its own object the same way, and every error
    message starts with `path`."""
    where = path.rstrip(".") or "config"
    if not isinstance(data, dict):
        raise ValueError(f"{where} {data!r} is not a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - types.keys())
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")
    kwargs = {
        key: _build_section(types[key], value, f"{path}{key}.")
        if dataclasses.is_dataclass(types[key])
        else value
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}{exc}") from None


def config_from_dict(data) -> ExperimentConfig:
    return _build_section(ExperimentConfig, data, "")


def write_echo(config: ExperimentConfig) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    echo = dataclasses.asdict(config)
    with datasets.write_atomic(os.path.join(config.output_dir, "config.echo.json")) as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _offline_path(config: ExperimentConfig) -> str:
    return os.path.join(config.output_dir, "offline.jsonl")


def _synthetic_path(config: ExperimentConfig) -> str:
    return os.path.join(config.output_dir, "synthetic.json")


def _method_dir(config: ExperimentConfig, method: str) -> str:
    return os.path.join(config.output_dir, "checkpoints", method)


def cmd_collect(config: ExperimentConfig) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    meta = {
        "env": dataclasses.asdict(config.env),
        "seeds": config.collect.seeds(),
        "episode_count": config.collect.episodes,
        "root_seed": config.root_seed,
        "epsilons": config.collect.epsilons,
    }
    ds = expert.collect(
        config.env,
        config.collect.seeds(),
        config.collect.episodes,
        config.collect.epsilons,
        root_seed=config.root_seed,
        gamma=config.collect.gamma,
        meta=meta,
    )
    datasets.save(ds, _offline_path(config))
    print(
        f"collected {config.collect.episodes} episodes, {len(ds)} transitions "
        f"-> {_offline_path(config)}"
    )


def cmd_distill(config: ExperimentConfig) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    ds = datasets.load(_offline_path(config))
    rng = derive_stream(config.root_seed, "distill")
    syn, history = distill(ds, config.distill, config.net_shape(), rng)
    syn.provenance["root_seed"] = config.root_seed
    save_synthetic(syn, _synthetic_path(config))
    loss_path = os.path.join(config.output_dir, "distill_loss.csv")
    with datasets.write_atomic(loss_path) as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(history):
            fh.write(f"{i},{loss!r}\n")
    final = history[-1] if history else float("nan")
    print(f"distilled {len(syn)} rows over {config.distill.epochs} epochs, final loss {final:.6g}")


# the BC method names `methods()` makes, so the only ones eval reads
_BC_METHODS = frozenset(f"bc{k}" for k in range(1, 101))


def _train_source(config: ExperimentConfig, method: str):
    """(rows, targets, train config) for one method name: `synthetic`, or
    `bc<k>` for an integer percentile k in [1, 100] written without
    leading zeros; any other name raises ValueError before a file is read."""
    if method == "synthetic":
        syn = load_synthetic(_synthetic_path(config))
        return syn.xs, syn.training_labels(), config.student.synthetic
    if method in _BC_METHODS:
        ds = datasets.load(_offline_path(config))
        _, filtered = datasets.percentile_filter(ds, float(method[2:]))
        return filtered.obs, filtered.action, config.student.bc
    raise ValueError(
        f"unknown training method {method!r}: expected 'synthetic' or 'bc<k>' with k an "
        "integer in [1, 100] written without leading zeros (e.g. bc10, bc100)"
    )


def cmd_train(config: ExperimentConfig, method: str) -> None:
    rows, targets, train_cfg = _train_source(config, method)
    size = len(rows)
    cohort_seed = derive_stream(config.root_seed, f"train:{method}").next_u64()
    cohort = train_cohort(
        rows, targets, train_cfg, config.net_shape(), config.student.n_students, cohort_seed
    )
    method_dir = _method_dir(config, method)
    os.makedirs(method_dir, exist_ok=True)
    for i, params in enumerate(cohort):
        tinynet.save_checkpoint(params, os.path.join(method_dir, f"student_{i}.json"))
    with datasets.write_atomic(os.path.join(method_dir, "meta.json")) as fh:
        json.dump(
            {
                "method": method,
                "dataset_size": size,
                "steps": train_cfg.steps,
                "batch": train_cfg.batch,
                "lr": train_cfg.lr,
                "n_students": len(cohort),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"trained {len(cohort)} students on {method} (dataset size {size}) -> {method_dir}")


def _load_cohort(config: ExperimentConfig, method: str):
    """The method's students and dataset size; raises SchemaError naming
    the file for a malformed meta.json or checkpoint, an n_students that
    is not an integer >= 1 or a dataset_size that is not an integer >= 0
    (a bool is not one), or a checkpoint that does not fit
    config.net_shape()."""
    method_dir = _method_dir(config, method)
    meta_path = os.path.join(method_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"no trained cohort for method '{method}' (expected {meta_path}); "
            f"run `train --method {method}` first"
        )
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise datasets.SchemaError(f"{meta_path}: malformed JSON ({exc.msg})") from exc
    if not isinstance(meta, dict) or not {"n_students", "dataset_size"} <= meta.keys():
        raise datasets.SchemaError(
            f"{meta_path}: expected an object with n_students and dataset_size"
        )
    for key, least in (("n_students", 1), ("dataset_size", 0)):
        fields.integer(f"{meta_path}: {key}", meta[key], least, datasets.SchemaError)
    shape = config.net_shape()
    cohort = []
    for i in range(meta["n_students"]):
        path = os.path.join(method_dir, f"student_{i}.json")
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing checkpoint for method '{method}': {path}")
        params = tinynet.load_checkpoint(path)
        if params.shape != shape:
            raise datasets.SchemaError(
                f"{path}: network shape {params.shape} is not the config's {shape}"
            )
        cohort.append(params)
    return cohort, meta["dataset_size"]


def cmd_eval(config: ExperimentConfig) -> None:
    cohorts = {method: _load_cohort(config, method) for method in config.methods()}
    reports = evaluate.evaluate_cohorts(
        cohorts, config.env, config.eval, config.collect.gamma, config.root_seed
    )
    evaluate.emit_report(reports, config.output_dir)
    print(f"wrote {len(reports)} report rows -> {config.output_dir}/results.csv")


def cmd_run_all(config: ExperimentConfig) -> None:
    cmd_collect(config)
    cmd_distill(config)
    for method in config.methods():
        cmd_train(config, method)
    cmd_eval(config)


def cmd_selfcheck() -> bool:
    return checks.run_selfcheck(verbose=True)


def _parse_seed_range(text: str) -> tuple[int, int]:
    """'a..b' (inclusive) -> (start, count); a bare 'a' means one seed."""
    lo, sep, hi = text.partition("..")
    try:
        start = int(lo)
        end = int(hi) if sep else start
    except ValueError:
        raise ValueError(f"--seeds {text!r} is not a seed 'a' or a range 'a..b'") from None
    if end < start:
        raise ValueError(f"--seeds {text!r} ends before it starts")
    return start, end - start + 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="griddistill",
        description="Distill a synthetic training set from offline gridworld "
        "trajectories and benchmark student policies against percentile "
        "behavioral cloning.",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
    parser.add_argument("--out", type=str, default=None, help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="roll out experts and write offline.jsonl")
    p_collect.add_argument("--episodes", type=int, default=None)
    p_collect.add_argument("--seeds", type=str, default=None, help="seed range 'a..b' (inclusive)")
    p_collect.add_argument("--epsilons", type=str, default=None, help="comma-separated epsilons")

    p_distill = sub.add_parser("distill", help="learn the synthetic dataset from offline.jsonl")
    p_distill.add_argument("--synthetic-size", type=int, default=None)
    p_distill.add_argument("--epochs", type=int, default=None)
    p_distill.add_argument("--learn-labels", action="store_true", default=None)
    p_distill.add_argument("--balanced-init", action="store_true", default=None)

    p_train = sub.add_parser("train", help="train a 10-student cohort for one method")
    p_train.add_argument(
        "--method",
        required=True,
        help="bc<k> for an integer percentile k in [1, 100] (e.g. bc10, bc100), or synthetic",
    )

    sub.add_parser("eval", help="evaluate expert and all trained cohorts on ID/OOD seeds")
    sub.add_parser("run-all", help="collect, distill, train all methods, evaluate")
    sub.add_parser("selfcheck", help="run gradient and planner oracle checks")
    return parser


def _parse_epsilons(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--epsilons {text!r} is not a comma-separated list of numbers") from None


def resolve_config(args) -> ExperimentConfig:
    """The config file's JSON (or none) with the flags merged in, built in
    one `config_from_dict` pass, so flag values pass the same checks."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    collect, distill = {}, {}
    if getattr(args, "episodes", None) is not None:
        collect["episodes"] = args.episodes
    if getattr(args, "seeds", None) is not None:
        collect["seed_start"], collect["seed_count"] = _parse_seed_range(args.seeds)
    if getattr(args, "epsilons", None) is not None:
        collect["epsilons"] = _parse_epsilons(args.epsilons)
    if getattr(args, "synthetic_size", None) is not None:
        distill["synthetic_size"] = args.synthetic_size
    if getattr(args, "epochs", None) is not None:
        distill["epochs"] = args.epochs
    if getattr(args, "learn_labels", None):
        distill["learn_labels"] = True
    if getattr(args, "balanced_init", None):
        distill["balanced_init"] = True
    if isinstance(data, dict):  # if not, config_from_dict names it
        for key, value in (("root_seed", args.seed), ("output_dir", args.out)):
            if value is not None:
                data[key] = value
        for key, flags in (("collect", collect), ("distill", distill)):
            if flags and isinstance(data.setdefault(key, {}), dict):
                data[key].update(flags)
    return config_from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selfcheck":
        return 0 if cmd_selfcheck() else 1
    config = resolve_config(args)
    write_echo(config)
    if args.command == "collect":
        cmd_collect(config)
    elif args.command == "distill":
        cmd_distill(config)
    elif args.command == "train":
        cmd_train(config, args.method)
    elif args.command == "eval":
        cmd_eval(config)
    elif args.command == "run-all":
        cmd_run_all(config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
