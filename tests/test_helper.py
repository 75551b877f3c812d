import os
import signal

import pytest

from griddistill import cli, helper, trainer
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
