import time

import pytest

from griddistill import cli, datasets


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
