import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import griddistill
from griddistill import checks, cli, datasets, expert, gridenv, optim, rng, tinynet, trainer
from griddistill import distill as dst
from griddistill.rng import derive_stream
from helpers import episode_ids, generate, initial_state, step, value_iteration

SMALL_CONFIG = {
    "env": {"grid_n": 4, "hazard_count": 1, "horizon": 12},
    "collect": {"episodes": 6, "seed_start": 0, "seed_count": 3, "epsilons": [0.0, 0.3]},
    "percentiles": [50, 100],
    "distill": {"epochs": 4, "synthetic_size": 8, "real_batch": 16, "inits_per_epoch": 2},
    "student": {
        "n_students": 2,
        "bc": {"steps": 8, "batch": 8},
        "synthetic": {"steps": 5, "batch": 4},
    },
    "eval": {"id_seed_count": 3, "ood_seed_count": 2},
    "root_seed": 5,
}


DATA = pathlib.Path(__file__).parent / "data"


def _leaf_fields(cls=cli.ExperimentConfig, prefix=""):
    """(dotted name, annotated type) of every field of every config
    section, nested sections included."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _leaf_fields(f.type, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.type


_WRONG_TYPES = {int: [True, 2.5, "4"], float: [True, "1", float("nan")], bool: [1], str: [5]}
_WRONG_TYPE_CASES = [
    (name, value) for name, kind in _leaf_fields() for value in _WRONG_TYPES.get(kind, [])
]


def write_small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def run_cli(args):
    return cli.main(args)


class TestConfig:
    def test_defaults_round_trip(self):
        config = cli.ExperimentConfig()
        rebuilt = cli.config_from_dict(json.loads(json.dumps(_as_dict(config))))
        assert rebuilt == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            cli.config_from_dict({"no_such_key": 1})
        with pytest.raises(ValueError):
            cli.config_from_dict({"env": {"grid_m": 4}})

    @pytest.mark.parametrize(
        "section, reason",
        [
            ({"action_rule": "sampled"}, "action_rule 'sampled' is not one of 'argmax', 'stochastic'"),
            ({"id_seed_count": 20, "ood_seed_start": 10}, "must be disjoint"),
            ({"episodes_per_seed": 0}, "episodes_per_seed must be >= 1"),
            ({"id_seed_count": 0}, "id_seed_count must be >= 1, not 0"),
            ({"ood_seed_count": -3}, "ood_seed_count must be >= 1, not -3"),
            ({"episodes_per_seed": 2.0}, r"episodes_per_seed 2.0 is not an integer"),
            ({"episodes_per_seed": True}, r"episodes_per_seed True is not an integer"),
            ({"id_seed_start": 0.5}, r"id_seed_start 0.5 is not an integer"),
            ({"id_seed_count": 3.0}, r"id_seed_count 3.0 is not an integer"),
            ({"ood_seed_start": "10000"}, r"ood_seed_start '10000' is not an integer"),
            ({"ood_seed_count": False}, r"ood_seed_count False is not an integer"),
        ],
    )
    def test_bad_eval_section_rejected_at_load(self, section, reason):
        with pytest.raises(ValueError, match=reason):
            cli.config_from_dict({"eval": section})

    @pytest.mark.parametrize(
        "section, field",
        [
            ({"action_rule": "sampled"}, "action_rule"),
            ({"id_seed_count": 20, "ood_seed_start": 10}, "id_seed_"),
            ({"episodes_per_seed": 0}, "episodes_per_seed"),
            ({"id_seed_count": 0}, "id_seed_count"),
            ({"ood_seed_count": -3}, "ood_seed_count"),
            ({"id_seed_count": 3.0}, "id_seed_count"),
            ({"ood_seed_start": "10000"}, "ood_seed_start"),
        ],
    )
    def test_eval_errors_name_the_dotted_field(self, section, field):
        with pytest.raises(ValueError, match=rf"^eval\.{field}"):
            cli.config_from_dict({"eval": section})

    @pytest.mark.parametrize(
        "percentiles, reason",
        [
            ([10.5], r"percentiles \[10.5\] are not integers in \[1, 100\]"),
            ([0, 100], r"percentiles \[0\] are not"),
            ([101], r"percentiles \[101\] are not"),
            ([-10], r"percentiles \[-10\] are not"),
            (["10"], r"percentiles \['10'\] are not"),
            ([True], r"percentiles \[True\] are not"),
            ([float("nan")], r"percentiles \[nan\] are not"),
            ([25, 10, 25], r"repeat a value"),
            ([10, 10.0], r"repeat a value"),
        ],
    )
    def test_bad_percentiles_rejected_at_load(self, percentiles, reason):
        with pytest.raises(ValueError, match=reason):
            cli.config_from_dict({"percentiles": percentiles})

    @pytest.mark.parametrize(
        "data, reason",
        [
            ({"student": {"n_students": 0}}, "student.n_students must be >= 1"),
            ({"collect": {"gamma": 1.0}}, r"collect.gamma 1.0 is not a finite number in \(0, 1\)"),
            ({"collect": {"gamma": 0}}, r"collect.gamma 0 is not a finite number in \(0, 1\)"),
            ({"collect": {"seed_count": 0}}, "collect.seed_count must be >= 1"),
            ({"collect": {"epsilons": []}}, "collect.epsilons needs at least one epsilon"),
            ({"collect": {"epsilons": [0.0, 1.5]}}, r"collect.epsilons \[1.5\] are not in \[0, 1\]"),
            ({"collect": {"epsilons": [-0.1]}}, r"collect.epsilons \[-0.1\] are not in \[0, 1\]"),
            ({"collect": {"episodes": 0}}, "collect.episodes must be >= 1"),
            ({"student": {"bc": {"lr": float("nan")}}}, r"student.bc.lr nan is not a finite number > 0"),
            ({"student": {"bc": {"lr": float("inf")}}}, r"student.bc.lr inf is not a finite number > 0"),
            ({"student": {"synthetic": {"lr": 0}}}, r"student.synthetic.lr 0 is not a finite number > 0"),
            ({"student": {"bc": {"lr": -5e-3}}}, r"student.bc.lr -0.005 is not a finite number > 0"),
            ({"student": {"bc": {"lr": "5e-3"}}}, r"student.bc.lr '5e-3' is not a finite number > 0"),
            ({"student": {"bc": {"lr": True}}}, r"student.bc.lr True is not a finite number > 0"),
            ({"student": {"bc": {"steps": True}}}, r"student.bc.steps True is not an integer"),
            ({"student": {"bc": {"steps": 10.0}}}, r"student.bc.steps 10.0 is not an integer"),
            ({"student": {"synthetic": {"batch": False}}}, r"student.synthetic.batch False is not an integer"),
            ({"student": {"synthetic": {"batch": "15"}}}, r"student.synthetic.batch '15' is not an integer"),
            ({"student": {"bc": {"batch": 0}}}, r"student.bc.batch must be >= 1"),
            ({"distill": {"lr": float("nan")}}, r"distill.lr nan is not a finite number > 0"),
            ({"distill": {"lr": -1}}, r"distill.lr -1 is not a finite number > 0"),
            ({"distill": {"lr": "0.1"}}, r"distill.lr '0.1' is not a finite number > 0"),
            ({"distill": {"momentum": float("inf")}}, r"distill.momentum inf is not a finite number in \[0, 1\)"),
            ({"distill": {"momentum": 1.0}}, r"distill.momentum 1.0 is not a finite number in \[0, 1\)"),
            ({"distill": {"epochs": 2.5}}, r"distill.epochs 2.5 is not an integer"),
            ({"distill": {"epochs": True}}, r"distill.epochs True is not an integer"),
            ({"distill": {"real_batch": 0}}, r"distill.real_batch must be >= 1"),
            ({"distill": {"learn_labels": 1}}, r"distill.learn_labels 1 is not a boolean"),
            ({"student": {"n_students": 2.5}}, r"student.n_students 2.5 is not an integer"),
            ({"student": {"n_students": True}}, r"student.n_students True is not an integer"),
            ({"student": {"n_students": "3"}}, r"student.n_students '3' is not an integer"),
            ({"root_seed": True}, r"root_seed True is not an integer"),
            ({"root_seed": "42"}, r"root_seed '42' is not an integer"),
            ({"root_seed": 42.0}, r"root_seed 42.0 is not an integer"),
            ({"collect": {"episodes": 2.5}}, r"collect.episodes 2.5 is not an integer"),
            ({"env": {"grid_n": 6.0}}, r"env.grid_n 6.0 is not an integer"),
            ({"env": {"hazard_count": 1.5}}, r"env.hazard_count 1.5 is not an integer"),
            ({"env": {"horizon": True}}, r"env.horizon True is not an integer"),
            ({"collect": {"seed_start": "0"}}, r"collect.seed_start '0' is not an integer"),
            ({"collect": {"seed_count": True}}, r"collect.seed_count True is not an integer"),
            ({"collect": {"epsilons": [True]}}, r"collect.epsilons \[True\] are not in \[0, 1\]"),
            ({"collect": {"gamma": "0.9"}}, r"collect.gamma '0.9' is not a finite number in \(0, 1\)"),
            ({"env": {"wall_density": "0.2"}}, r"env.wall_density '0.2' is not a finite number in \[0, 1\)"),
            ([], r"^config \[\] is not a JSON object$"),
            ({"env": None}, r"^env None is not a JSON object$"),
            ({"env": [1, 2]}, r"^env \[1, 2\] is not a JSON object$"),
            ({"student": {"bc": 5}}, r"^student.bc 5 is not a JSON object$"),
            ({"student": {"bc": {"stepz": 2}}}, r"^student.bc has unknown keys \['stepz'\]$"),
            ({"percentiles": 10}, r"^percentiles 10 is not a list$"),
            ({"output_dir": 5}, r"^output_dir 5 is not a nonempty string$"),
            ({"output_dir": ""}, r"^output_dir '' is not a nonempty string$"),
            ({"env": {"goal_reward": 10**400}}, r"^env.goal_reward 10{400} is not a finite number$"),
            ({"distill": {"lr": -(10**400)}}, r"^distill.lr -10{400} is not a finite number > 0$"),
        ],
    )
    def test_bad_collect_and_student_values_rejected_at_load(self, data, reason):
        with pytest.raises(ValueError, match=reason):
            cli.config_from_dict(data)

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["collect", "--episodes", "-1"], "collect.episodes must be >= 1"),
            (["collect", "--epsilons", ","], r"--epsilons ',' is not a comma-separated list of numbers"),
            (["collect", "--epsilons", "0,2"], r"collect.epsilons \[2.0\] are not in \[0, 1\]"),
            (["distill", "--synthetic-size", "0"], "synthetic_size must be >= 1"),
            (["distill", "--epochs", "-1"], "distill.epochs must be >= 0"),
        ],
    )
    def test_bad_flags_rejected_before_any_output(self, tmp_path, flags, reason):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=reason):
            run_cli(["--out", str(out), *flags])
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"collect": ', "", "[1,"])
    def test_malformed_config_json_names_the_file_before_any_output(self, tmp_path, text):
        path, out = tmp_path / "bad.config.json", tmp_path / "out"
        path.write_text(text)
        with pytest.raises(datasets.SchemaError, match=f"^{re.escape(str(path))}: malformed JSON"):
            run_cli(["--config", str(path), "--out", str(out), "collect"])
        assert not out.exists()

    @pytest.mark.parametrize("name, value", _WRONG_TYPE_CASES)
    def test_every_field_rejects_a_wrong_type_naming_it(self, name, value):
        data = value
        for key in reversed(name.split(".")):
            data = {key: data}
        with pytest.raises(ValueError, match=f"^{re.escape(name)} {re.escape(repr(value))} is not "):
            cli.config_from_dict(data)

    def test_wrong_type_cases_reach_every_section(self):
        names = {name for name, _ in _WRONG_TYPE_CASES}
        assert {"root_seed", "env.step_reward", "distill.inits_per_epoch", "student.bc.steps",
                "student.synthetic.lr", "collect.gamma", "eval.episodes_per_seed"} <= names

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.config.json")))
    def test_config_file_round_trips_through_its_echo(self, tmp_path, name):
        config = cli.config_from_dict(json.loads((DATA / name).read_text()))
        config.output_dir = str(tmp_path / "out")
        cli.write_echo(config)
        echo = json.loads((tmp_path / "out" / "config.echo.json").read_text())
        assert cli.config_from_dict(echo) == config

    def test_integer_valued_percentiles_accepted(self):
        config = cli.config_from_dict({"percentiles": [1, 40.0, 100]})
        assert config.methods() == ["bc1", "bc40", "bc100", "synthetic"]

    def test_flag_precedence_over_config(self, tmp_path):
        path = write_small_config(tmp_path)
        parser = cli.build_parser()
        args = parser.parse_args(["--config", path, "--seed", "99", "collect"])
        config = cli.resolve_config(args)
        assert config.root_seed == 99
        assert config.collect.episodes == 6  # from file

    def test_seed_range_parsing(self):
        assert cli._parse_seed_range("0..0") == (0, 1)
        assert cli._parse_seed_range("5..9") == (5, 5)
        assert cli._parse_seed_range("7") == (7, 1)
        with pytest.raises(ValueError, match=r"--seeds '9..5' ends before it starts"):
            cli._parse_seed_range("9..5")

    @pytest.mark.parametrize("text", ["5..", "..5", "a..b", "1..2..3", "x", ""])
    def test_malformed_seed_range_names_the_flag(self, tmp_path, text):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"--seeds '{re.escape(text)}' is not a seed"):
            run_cli(["--out", str(out), "collect", "--seeds", text])
        assert not out.exists()


def _as_dict(config):
    return dataclasses.asdict(config)


class TestCollect:
    def test_collect_writes_dataset(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["--config", config_path, "--out", str(out), "collect"]) == 0
        ds = datasets.load(str(out / "offline.jsonl"))
        assert len(episode_ids(ds)) == 6
        meta = json.load(open(out / "offline.meta.json"))
        assert meta["episode_count"] == 6

    def test_collect_byte_identical_across_runs(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["--config", config_path, "--out", str(out1), "collect"])
        run_cli(["--config", config_path, "--out", str(out2), "collect"])
        assert (out1 / "offline.jsonl").read_bytes() == (out2 / "offline.jsonl").read_bytes()

    def test_single_greedy_episode_flags(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            ["--seed", "3", "--out", str(out), "collect",
             "--episodes", "1", "--seeds", "0..0", "--epsilons", "0"]
        )
        assert rc == 0
        ds = datasets.load(str(out / "offline.jsonl"))
        assert len(episode_ids(ds)) == 1
        # replay the planner greedily and compare the stored actions
        spec = generate(gridenv.EnvConfig(), 0)
        table = value_iteration(spec)
        state = initial_state(spec)
        n = spec.config.grid_n
        for action in ds.action.tolist():
            cell = state.agent[0] * n + state.agent[1]
            assert action == table.greedy_action[cell]
            state, _, _ = step(state, action)


class TestDistillCmd:
    def test_loss_csv_rows_and_provenance(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        run_cli(["--config", config_path, "--out", str(out), "collect"])
        run_cli(["--config", config_path, "--out", str(out), "distill"])
        lines = (out / "distill_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + SMALL_CONFIG["distill"]["epochs"]
        syn = dst.load_synthetic(str(out / "synthetic.json"))
        assert syn.provenance["final_loss"] == float(lines[-1].split(",")[1])
        assert len(syn) == SMALL_CONFIG["distill"]["synthetic_size"]

    def test_synthetic_size_flag(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        run_cli(["--config", config_path, "--out", str(out), "collect"])
        run_cli(
            ["--config", config_path, "--out", str(out), "distill",
             "--synthetic-size", "5", "--epochs", "2"]
        )
        syn = dst.load_synthetic(str(out / "synthetic.json"))
        assert len(syn) == 5


class TestTrainCmd:
    @pytest.fixture()
    def collected(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        run_cli(["--config", config_path, "--out", str(out), "collect"])
        run_cli(["--config", config_path, "--out", str(out), "distill"])
        return config_path, out

    def test_bc100_uses_all_transitions(self, collected):
        config_path, out = collected
        run_cli(["--config", config_path, "--out", str(out), "train", "--method", "bc100"])
        meta = json.load(open(out / "checkpoints" / "bc100" / "meta.json"))
        ds = datasets.load(str(out / "offline.jsonl"))
        assert meta["dataset_size"] == len(ds)
        for i in range(SMALL_CONFIG["student"]["n_students"]):
            assert (out / "checkpoints" / "bc100" / f"student_{i}.json").exists()

    def test_filtered_sizes_monotone(self, collected):
        config_path, out = collected
        run_cli(["--config", config_path, "--out", str(out), "train", "--method", "bc50"])
        run_cli(["--config", config_path, "--out", str(out), "train", "--method", "bc100"])
        m50 = json.load(open(out / "checkpoints" / "bc50" / "meta.json"))
        m100 = json.load(open(out / "checkpoints" / "bc100" / "meta.json"))
        assert m50["dataset_size"] <= m100["dataset_size"]

    def test_synthetic_method_records_size_and_steps(self, collected):
        config_path, out = collected
        run_cli(["--config", config_path, "--out", str(out), "train", "--method", "synthetic"])
        meta = json.load(open(out / "checkpoints" / "synthetic" / "meta.json"))
        assert meta["dataset_size"] == SMALL_CONFIG["distill"]["synthetic_size"]
        assert meta["steps"] == SMALL_CONFIG["student"]["synthetic"]["steps"]

    def test_unknown_method_rejected(self, collected):
        config_path, out = collected
        with pytest.raises(ValueError):
            run_cli(["--config", config_path, "--out", str(out), "train", "--method", "boost"])

    @pytest.mark.parametrize(
        "method",
        ["bc050", "bc1e1", "bc100.0", "bc10.5", "bcfoo", "bc0", "bc101", "bc", "bc-5", "bc+5",
         "bc 5", "BC10", "bc٥", "synthetic2"],
    )
    def test_method_eval_never_reads_rejected_before_any_read(self, tmp_path, method):
        # bc050, bc1e1 and bc100.0 used to train cohorts into directories
        # eval never reads; the out dir here holds no dataset, so a name
        # that got as far as a file read would fail with another error
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        pattern = rf"unknown training method {re.escape(repr(method))}: expected 'synthetic' or 'bc<k>'"
        with pytest.raises(ValueError, match=pattern):
            run_cli(["--config", config_path, "--out", str(out), "train", "--method", method])
        assert sorted(p.name for p in out.iterdir()) == ["config.echo.json"]

    def test_every_configured_method_accepted(self):
        config = cli.ExperimentConfig(percentiles=list(range(1, 101)))
        assert set(config.methods()) == cli._BC_METHODS | {"synthetic"}


class TestEvalCmd:
    def test_missing_cohort_error_names_method(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        run_cli(["--config", config_path, "--out", str(out), "collect"])
        with pytest.raises(FileNotFoundError, match="bc50"):
            run_cli(["--config", config_path, "--out", str(out), "eval"])

    def test_full_small_pipeline_row_count(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["--config", config_path, "--out", str(out), "run-all"]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        # expert + bc50 + bc100 + synthetic, two splits each, plus header
        assert len(rows) == 1 + 4 * 2
        assert (out / "results.md").exists()
        assert not list(out.rglob("*.tmp"))  # every atomic write was moved into place

    @pytest.fixture()
    def trained(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        run_cli(["--config", config_path, "--out", str(out), "run-all"])
        return config_path, out

    @pytest.mark.parametrize(
        "text, reason",
        [('{"batch": 8, "datase', "malformed JSON"), ("[]", "expected an object with n_students")],
    )
    def test_bad_cohort_meta_raises_naming_it(self, trained, text, reason):
        config_path, out = trained
        meta_path = out / "checkpoints" / "bc50" / "meta.json"
        meta_path.write_text(text)
        with pytest.raises(datasets.SchemaError, match=f"^{re.escape(str(meta_path))}: {reason}"):
            run_cli(["--config", config_path, "--out", str(out), "eval"])

    @pytest.mark.parametrize(
        "key, value, least",
        [
            ("n_students", True, 1),
            ("n_students", -1, 1),
            ("n_students", 0, 1),
            ("n_students", 2.0, 1),
            ("n_students", "2", 1),
            ("dataset_size", -1, 0),
            ("dataset_size", True, 0),
            ("dataset_size", 8.0, 0),
            ("dataset_size", "8", 0),
        ],
    )
    def test_bad_cohort_count_raises_naming_meta(self, trained, key, value, least):
        config_path, out = trained
        meta_path = out / "checkpoints" / "bc50" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        if type(value) is int:
            message = f"{key} must be >= {least}, not {value}"
        else:
            message = f"{key} {re.escape(repr(value))} is not an integer >= {least}"
        with pytest.raises(datasets.SchemaError, match=f"^{re.escape(str(meta_path))}: {message}"):
            run_cli(["--config", config_path, "--out", str(out), "eval"])

    def test_checkpoint_missing_a_weight_raises_naming_it(self, trained):
        config_path, out = trained
        path = out / "checkpoints" / "bc100" / "student_1.json"
        obj = json.loads(path.read_text())
        del obj["theta"][-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(datasets.SchemaError, match=f"^{re.escape(str(path))}: theta length"):
            run_cli(["--config", config_path, "--out", str(out), "eval"])

    def test_checkpoint_of_another_shape_raises_naming_it(self, trained):
        config_path, out = trained
        path = out / "checkpoints" / "synthetic" / "student_0.json"
        other = tinynet.init_params(tinynet.NetShape(in_dim=100), derive_stream(0, "other"))
        tinynet.save_checkpoint(other, str(path))
        with pytest.raises(datasets.SchemaError, match=f"^{re.escape(str(path))}: network shape"):
            run_cli(["--config", config_path, "--out", str(out), "eval"])

    def test_each_map_generated_and_solved_once(self, trained, monkeypatch):
        config_path, out = trained
        generated, solved = [], []
        generate_maps, solve_maps = gridenv.generate_maps, expert.solve_maps

        def counting_generate_maps(config, seeds):
            generated.extend(seeds)
            return generate_maps(config, seeds)

        def counting_solve_maps(maps, *args, **kwargs):
            solved.append(len(maps.start))
            return solve_maps(maps, *args, **kwargs)

        monkeypatch.setattr(gridenv, "generate_maps", counting_generate_maps)
        monkeypatch.setattr(expert, "solve_maps", counting_solve_maps)
        run_cli(["--config", config_path, "--out", str(out), "eval"])
        seeds = [0, 1, 2, 10_000, 10_001]  # SMALL_CONFIG's ID and OOD seeds
        assert sorted(generated) == seeds
        assert solved == [3, 2]  # one block per split

    def test_rerun_eval_byte_identical(self, tmp_path):
        config_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        run_cli(["--config", config_path, "--out", str(out), "run-all"])
        first = (out / "results.csv").read_bytes()
        run_cli(["--config", config_path, "--out", str(out), "eval"])
        assert (out / "results.csv").read_bytes() == first


class TestEcho:
    def test_echo_written_with_resolved_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(["--seed", "42", "--out", "out", "collect", "--episodes", "2", "--seeds", "0..1"])
        echo = json.load(open("out/config.echo.json"))
        assert echo["root_seed"] == 42
        assert echo["collect"]["episodes"] == 2
        assert echo["student"]["bc"]["steps"] == 1000

    def test_echo_matches_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = cli.ExperimentConfig()
        cli.write_echo(config)
        got = open("out/config.echo.json", "rb").read()
        golden = open(os.path.join(os.path.dirname(__file__), "data", "config.echo.golden.json"), "rb").read()
        assert got == golden


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert run_cli(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_selfcheck_fails_when_gradient_perturbed(self, monkeypatch, capsys):
        from griddistill import tinynet

        true_grad = tinynet.bc_grad

        def broken(params, xs, labels, weights):
            g = true_grad(params, xs, labels, weights)
            return g + 1e-2

        monkeypatch.setattr(tinynet, "bc_grad", broken)
        assert run_cli(["selfcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_selfcheck_fails_when_planner_greedy_table_wrong(self, monkeypatch, capsys):
        # the planner oracle searches the map's fields, not the tables the
        # planner solves, so a wrong greedy table must fail it
        true_solve = expert.solve_maps

        def all_stay(maps, *args):
            values, greedy, residual = true_solve(maps, *args)
            greedy = greedy.copy()
            greedy.fill(gridenv.ACTIONS.index("STAY"))
            return values, greedy, residual

        monkeypatch.setattr(expert, "solve_maps", all_stay)
        assert run_cli(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL planner-optimality" in out
        assert out.count("PASS") == 3


class TestPublicApi:
    def test_star_import_binds_every_exported_name(self):
        namespace = {}
        exec("from griddistill import *", namespace)
        assert set(griddistill.__all__) <= set(namespace)
        for name in griddistill.__all__:
            assert namespace[name] is getattr(griddistill, name), name

    def test_one_map_api_and_test_only_helpers_are_gone(self):
        # they live on in tests/helpers.py and as private helpers in checks
        removed = ["GridSpec", "GridState", "generate", "observe", "step", "bc_loss"]
        for name in [*removed, "train_student"]:
            assert name not in griddistill.__all__ and not hasattr(griddistill, name), name
        gone = [
            (gridenv, [*removed[:5], "initial_state", "reachable"]),
            (gridenv.Maps, ["of", "spec"]),
            (tinynet, ["bc_loss"]),
            (trainer, ["train_student"]),
            (checks, ["matching_loss"]),
            (rng.RngStream, ["next_gauss"]),
        ]
        for owner, names in gone:
            for name in names:
                assert not hasattr(owner, name), (owner.__name__, name)
        assert hasattr(optim.Adam, "step") and hasattr(gridenv.Maps, "observe")


class TestEntryPoint:
    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "griddistill.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("collect", "distill", "train", "eval", "run-all", "selfcheck"):
            assert name in proc.stdout
