import os
import shutil
import signal
import threading
import time

import pytest

from griddistill import cli, evaluate, expert, gridenv, helper, tinynet, trainer
from griddistill.rng import derive_stream
from griddistill.tinynet import NetShape

from test_distill import HELPER_CASES, SMOKE_CONFIG, distilled, failing_fork, no_fork
from test_distill import small_collection  # noqa: F401 (a fixture)
from test_trainer import random_source

SHAPE = NetShape(in_dim=144)

# 40 rows: gathered at batch 16, count-weighted at batch 64
COHORTS = {
    "gathered": (40, False, 16, 4),
    "count-weighted": (40, False, 64, 4),
    "soft labels": (40, True, 16, 4),
    "soft labels, count-weighted": (40, True, 64, 4),
    "three students": (40, False, 16, 3),
    "one student": (40, False, 16, 1),
}


def trained(name):
    """The cohort's students as bytes."""
    n, soft, batch, students = COHORTS[name]
    rows, targets = random_source(n, soft)
    cfg = trainer.TrainConfig(steps=12, batch=batch)
    cohort = trainer.train_cohort(rows, targets, cfg, SHAPE, students, 7)
    return [params.theta.tobytes() for params in cohort]


@pytest.fixture(scope="module")
def expected():
    mp = pytest.MonkeyPatch()
    mp.setattr(helper, "fits", lambda: False)
    try:
        return {name: trained(name) for name in COHORTS}
    finally:
        mp.undo()


class TestSplitCohort:
    """A cohort split between this process and the helper gives the bytes
    of the whole cohort trained inline."""

    @pytest.mark.usefixtures("own_helper")
    def test_every_case_on_one_helper_gives_the_inline_bytes(self, expected):
        pids = set()
        for name in COHORTS:
            assert trained(name) == expected[name], name
            if COHORTS[name][3] > 1:
                pids.add(helper._helper.pid)
        assert len(pids) == 1

    @pytest.mark.usefixtures("own_helper")
    def test_the_halves_join_into_one_read_only_block(self):
        rows, targets = random_source(40, False)
        cfg = trainer.TrainConfig(steps=3, batch=16)
        cohort = trainer.train_cohort(rows, targets, cfg, SHAPE, 5, 7)
        block = cohort[0].theta.base
        assert block.shape == (5, SHAPE.param_count) and not block.flags.writeable
        assert all(params.theta.base is block for params in cohort)

    @pytest.mark.usefixtures("own_helper")
    def test_one_student_sends_no_task(self, expected, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        assert trained("one student") == expected["one student"]
        assert helper._helper is None

    @pytest.mark.usefixtures("inline")
    def test_inline_path_forks_nothing(self, expected, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        assert trained("gathered") == expected["gathered"]

    @pytest.mark.usefixtures("own_helper")
    def test_a_failed_fork_trains_the_whole_cohort_here(self, expected, monkeypatch):
        monkeypatch.setattr(os, "fork", failing_fork)
        assert trained("gathered") == expected["gathered"]
        assert helper._helper is None

    @pytest.mark.usefixtures("own_helper")
    def test_a_helper_ended_while_idle_leaves_the_cohort_here(self, expected):
        worker = helper.shared()
        os.kill(worker.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert trained("gathered") == expected["gathered"]
        assert worker.closed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert trained("gathered") == expected["gathered"]
        assert helper._helper.pid != worker.pid

    @pytest.mark.usefixtures("own_helper")
    def test_distill_train_distill_on_one_helper(self, small_collection, expected):
        cfg, shape = HELPER_CASES["hard labels"]
        mp = pytest.MonkeyPatch()
        mp.setattr(helper, "fits", lambda: False)
        try:
            inline = distilled(small_collection, cfg, shape, 20)
        finally:
            mp.undo()
        assert distilled(small_collection, cfg, shape, 20) == inline
        pid = helper._helper.pid
        assert trained("soft labels") == expected["soft labels"]
        assert distilled(small_collection, cfg, shape, 20) == inline
        assert helper._helper.pid == pid

    @pytest.mark.usefixtures("own_helper")
    def test_a_failure_in_the_helper_is_raised_as_its_own(self, monkeypatch):
        parent, draw = os.getpid(), trainer.next_int_arrays

        def failing_in_the_helper(*args):
            if os.getpid() != parent:
                raise FloatingPointError("helper half failed")
            return draw(*args)

        # patched before the helper is forked, so the helper runs it
        monkeypatch.setattr(trainer, "next_int_arrays", failing_in_the_helper)
        with pytest.raises(FloatingPointError, match="^helper half failed$"):
            trained("gathered")
        assert helper._helper.closed

    @pytest.mark.usefixtures("own_helper")
    def test_a_failure_of_this_half_ends_the_busy_helper(self, expected, monkeypatch):
        parent, draw = os.getpid(), trainer.next_int_arrays

        def failing_here(*args):
            if os.getpid() == parent:
                raise FloatingPointError("own half failed")
            return draw(*args)

        monkeypatch.setattr(trainer, "next_int_arrays", failing_here)
        with pytest.raises(FloatingPointError, match="^own half failed$"):
            trained("gathered")
        assert helper._helper.closed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(trainer, "next_int_arrays", draw)
        assert trained("gathered") == expected["gathered"]

    def test_a_helper_killed_during_training_fails_the_command_and_writes_nothing(
        self, tmp_path, monkeypatch, own_helper
    ):
        def run(out, *command):
            return cli.main(["--config", str(SMOKE_CONFIG), "--out", str(out), *command])

        out, ref = tmp_path / "out", tmp_path / "ref"
        run(out, "collect")
        worker = helper.shared()  # forked now, so it draws with the real next_int_arrays
        draw = trainer.next_int_arrays

        def killing_the_helper(*args):
            os.kill(worker.pid, signal.SIGKILL)
            return draw(*args)

        monkeypatch.setattr(trainer, "next_int_arrays", killing_the_helper)
        with pytest.raises(RuntimeError, match=rf"process {worker.pid} ended with exit status -9 "):
            run(out, "train", "--method", "bc100")
        assert worker.closed
        assert not (out / "checkpoints").exists()
        assert not list(out.rglob("*.tmp"))

        monkeypatch.setattr(trainer, "next_int_arrays", draw)
        run(out, "train", "--method", "bc100")
        assert helper._helper.pid != worker.pid
        monkeypatch.setattr(helper, "fits", lambda: False)
        run(ref, "collect")
        run(ref, "train", "--method", "bc100")
        files = sorted(p.name for p in (ref / "checkpoints" / "bc100").iterdir())
        assert len(files) == 5  # four students and meta.json
        for name in files:
            got = (out / "checkpoints" / "bc100" / name).read_bytes()
            assert got == (ref / "checkpoints" / "bc100" / name).read_bytes(), name


# cohort sizes and episodes per seed, each under both action rules
EVAL_CASES = {
    f"{name}, {rule}": (sizes, episodes, rule)
    for name, (sizes, episodes) in {
        "one cohort of one student": ({"synthetic": 1}, 1),
        "several cohorts, two episodes": ({"bc40": 3, "bc100": 2, "synthetic": 4}, 2),
    }.items()
    for rule in ("argmax", "stochastic")
}


def evaluated(name, out, env=gridenv.EnvConfig()):
    """The case's reports, and the bytes of the files they are emitted to."""
    sizes, episodes, rule = EVAL_CASES[name]
    cohorts = {
        method: ([tinynet.init_params(SHAPE, derive_stream(3, f"{method}:{i}")) for i in range(n)], n)
        for method, n in sizes.items()
    }
    cfg = evaluate.EvalConfig(
        id_seed_count=12, ood_seed_count=6, episodes_per_seed=episodes, action_rule=rule
    )
    reports = evaluate.evaluate_cohorts(cohorts, env, cfg, 0.99, 11)
    evaluate.emit_report(reports, str(out))
    return reports, {name: (out / name).read_bytes() for name in ("results.csv", "results.md")}


@pytest.fixture(scope="module")
def expected_eval(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(helper, "fits", lambda: False)
    try:
        return {name: evaluated(name, tmp_path_factory.mktemp("inline")) for name in EVAL_CASES}
    finally:
        mp.undo()


def run(config, out, *command):
    return cli.main(["--config", str(config), "--out", str(out), *command])


def outputs(out):
    """Every output file's bytes but the config echo (it names the directory)."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "config.echo.json"
    }


STOCHASTIC_CONFIG = SMOKE_CONFIG.with_name("smoke.stochastic.config.json")


@pytest.fixture(scope="module")
def inline_run(tmp_path_factory):
    """The sampled-action smoke run-all, inline."""
    out = tmp_path_factory.mktemp("inline-run") / "out"
    mp = pytest.MonkeyPatch()
    mp.setattr(helper, "fits", lambda: False)
    try:
        run(STOCHASTIC_CONFIG, out, "run-all")
    finally:
        mp.undo()
    return out


@pytest.fixture()
def trained_run(tmp_path, inline_run):
    """A copy of the inline run without its evaluation results."""
    out = tmp_path / "out"
    shutil.copytree(inline_run, out)
    (out / "results.csv").unlink()
    (out / "results.md").unlink()
    return out


def assert_eval_wrote_nothing(out):
    assert not (out / "results.csv").exists() and not (out / "results.md").exists()
    assert not list(out.rglob("*.tmp"))


class TestSplitEval:
    """The helper scores the OOD split while this process scores the ID
    split; the reports are the bytes of both splits scored inline."""

    @pytest.mark.usefixtures("own_helper")
    def test_every_case_on_one_helper_gives_the_inline_bytes(self, expected_eval, tmp_path):
        pids = set()
        for i, name in enumerate(EVAL_CASES):
            assert evaluated(name, tmp_path / str(i)) == expected_eval[name], name
            pids.add(helper._helper.pid)
        assert len(pids) == 1

    @pytest.mark.usefixtures("inline")
    def test_inline_path_forks_nothing(self, expected_eval, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        name = "several cohorts, two episodes, stochastic"
        assert evaluated(name, tmp_path) == expected_eval[name]

    @pytest.mark.usefixtures("own_helper")
    def test_distill_train_eval_on_one_helper(self, inline_run, tmp_path, monkeypatch):
        tasks, start = [], helper.start

        def recording(fn, *args):
            worker = start(fn, *args)
            tasks.append((fn.__name__, worker.pid))
            return worker

        monkeypatch.setattr(helper, "start", recording)
        run(STOCHASTIC_CONFIG, tmp_path / "out", "run-all")
        assert outputs(tmp_path / "out") == outputs(inline_run)
        assert {fn for fn, _ in tasks} == {"_descend_rows", "_train_block", "_split_returns"}
        assert {pid for _, pid in tasks} == {helper._helper.pid}

    @pytest.mark.usefixtures("own_helper")
    def test_a_failed_fork_scores_both_splits_here(self, expected_eval, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", failing_fork)
        name = "several cohorts, two episodes, stochastic"
        assert evaluated(name, tmp_path) == expected_eval[name]
        assert helper._helper is None

    @pytest.mark.usefixtures("own_helper")
    def test_a_helper_ended_while_idle_scores_both_splits_here(self, expected_eval, tmp_path):
        name = "several cohorts, two episodes, argmax"
        worker = helper.shared()
        os.kill(worker.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert evaluated(name, tmp_path / "a") == expected_eval[name]
        assert worker.closed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert evaluated(name, tmp_path / "b") == expected_eval[name]
        assert helper._helper.pid != worker.pid

    def test_an_over_dense_config_raises_the_same_error_on_both_paths(self, tmp_path, request):
        dense = gridenv.EnvConfig(grid_n=2, wall_density=0.0, hazard_count=10)
        name = "one cohort of one student, argmax"
        errors = []
        for path in ("inline", "own_helper"):
            request.getfixturevalue(path)
            with pytest.raises(gridenv.GenerationError) as info:
                evaluated(name, tmp_path / path, dense)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "for seed 0 " in errors[0]
        assert helper._helper.closed
        assert not (tmp_path / "own_helper").exists()

    @pytest.mark.usefixtures("own_helper")
    def test_a_failure_of_the_id_split_ends_the_busy_helper(
        self, expected_eval, tmp_path, monkeypatch
    ):
        parent, generate_maps = os.getpid(), gridenv.generate_maps

        def failing_here(*args):
            if os.getpid() == parent:
                raise FloatingPointError("ID split failed")
            return generate_maps(*args)

        # patched before the helper is forked; the helper runs it too
        monkeypatch.setattr(gridenv, "generate_maps", failing_here)
        name = "several cohorts, two episodes, stochastic"
        with pytest.raises(FloatingPointError, match="^ID split failed$"):
            evaluated(name, tmp_path / "a")
        assert helper._helper.closed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(gridenv, "generate_maps", generate_maps)
        assert evaluated(name, tmp_path / "b") == expected_eval[name]

    @pytest.mark.usefixtures("own_helper")
    def test_a_failure_in_the_helper_fails_eval_and_writes_nothing(self, trained_run, monkeypatch):
        parent, generate_maps = os.getpid(), gridenv.generate_maps

        def failing_in_the_helper(*args):
            if os.getpid() != parent:
                raise FloatingPointError("OOD split failed")
            return generate_maps(*args)

        monkeypatch.setattr(gridenv, "generate_maps", failing_in_the_helper)
        with pytest.raises(FloatingPointError, match="^OOD split failed$"):
            run(STOCHASTIC_CONFIG, trained_run, "eval")
        assert helper._helper.closed
        assert_eval_wrote_nothing(trained_run)

    @pytest.mark.usefixtures("own_helper")
    def test_a_helper_killed_during_eval_fails_the_command_and_writes_nothing(
        self, trained_run, inline_run, monkeypatch
    ):
        parent, solve_maps = os.getpid(), expert.solve_maps

        def killing_the_helper(*args):
            if os.getpid() == parent:
                os.kill(worker.pid, signal.SIGKILL)
            else:
                time.sleep(30)  # the helper is still on its split when it is killed
            return solve_maps(*args)

        # patched before the helper is forked, so the helper waits in it
        monkeypatch.setattr(expert, "solve_maps", killing_the_helper)
        worker = helper.shared()
        with pytest.raises(RuntimeError, match=rf"process {worker.pid} ended with exit status -9 "):
            run(STOCHASTIC_CONFIG, trained_run, "eval")
        assert worker.closed
        assert_eval_wrote_nothing(trained_run)

        monkeypatch.setattr(expert, "solve_maps", solve_maps)
        run(STOCHASTIC_CONFIG, trained_run, "eval")
        assert helper._helper.pid != worker.pid
        assert outputs(trained_run) == outputs(inline_run)


def a_lock():
    return threading.Lock()


class TwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raising_two_args():
    raise TwoArgs(1, 2)


class TestReplies:
    """What the helper cannot send as itself still reaches the parent, as
    RuntimeError naming the task's function and the cause."""

    @pytest.mark.parametrize(
        "fn, message",
        [
            (a_lock, "a_lock: TypeError: cannot pickle '_thread.lock' object"),
            (raising_two_args, "raising_two_args: TwoArgs: 1 and 2"),
        ],
        ids=["value that cannot be pickled", "exception that cannot be rebuilt"],
    )
    @pytest.mark.usefixtures("own_helper")
    def test_a_lost_reply_names_its_cause(self, fn, message):
        worker = helper.start(fn, ())
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            worker.result()
        assert worker.closed
        assert helper.start(abs, (-3,)).result() == 3
        assert helper._helper.pid != worker.pid
