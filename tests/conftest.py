import time

import pytest

from griddistill import cli, datasets, helper


@pytest.fixture(scope="session")
def base_run(tmp_path_factory):
    """One full default pipeline at the default root seed; several
    acceptance criteria read from it."""
    out = tmp_path_factory.mktemp("pipeline") / "base"
    start = time.monotonic()
    rc = cli.main(["--seed", "42", "--out", str(out), "run-all"])
    elapsed = time.monotonic() - start
    assert rc == 0
    return {"out": out, "elapsed": elapsed}


@pytest.fixture()
def unmemoized(monkeypatch):
    """Every load in the test parses its file: loads bypass the memo, and
    the memo the test's saves prime is an empty one of its own."""
    monkeypatch.setattr(datasets, "_memo", {})
    monkeypatch.setattr(datasets, "memoized", lambda path, files, parse: parse())


@pytest.fixture()
def inline(monkeypatch):
    """distill and training run in this process, as on one CPU."""
    monkeypatch.setattr(helper, "fits", lambda: False)


@pytest.fixture()
def own_helper(monkeypatch):
    """distill and training take the helper path, on a helper of the
    test's own, which is closed after the test; the process's helper so
    far is closed first, so the test's is this process's only child."""
    monkeypatch.setattr(helper, "fits", lambda: True)
    if helper._helper is not None:
        helper._helper.close()
    monkeypatch.setattr(helper, "_helper", None)
    yield
    if helper._helper is not None:
        helper._helper.close()
