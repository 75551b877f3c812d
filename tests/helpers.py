"""Dataset queries that only the tests make."""

from griddistill.datasets import _run_starts


def episode_ids(ds) -> list:
    """Distinct episode ids in first-appearance order."""
    return ds.episode_id[_run_starts(ds.episode_id)].tolist()


def episode_g0(ds) -> dict:
    starts = _run_starts(ds.episode_id)
    return dict(zip(ds.episode_id[starts].tolist(), ds.g_0[starts].tolist()))
