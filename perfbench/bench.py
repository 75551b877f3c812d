"""Measurement loop of the griddistill pipeline benchmark.

A run repeats cycles of set-up + timed body + output checks until the time
budget is spent, so set-up and body samples are spread over the whole run
and see the same host speed. An untraced run (`trace=False`) reports the
median of each end-to-end metric over its cycles. A traced run
(`trace=True`) spends half its budget on untraced cycles and half on cycles
with every layer wrapped (see `tracer.py`); it reports the median of each
per-layer metric over the traced cycles, plus the tracing overhead: median
traced body wall time minus median untraced body wall time.

Every stage call and every output check is one attempted operation; it
fails if it raises or its check fails. All cycles of one invocation,
traced or not, must leave byte-identical outputs.
"""

import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import tracer
import workloads
from griddistill import cli

MIN_CYCLES = 3  # per untraced run, whatever the budget

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    **{f"{stage}_s": "s" for stage in workloads.STAGES},
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.untraced_wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "cli.bytes_written": "bytes",
}


def per_layer_units() -> dict:
    return {**tracer.layer_metric_units(), **TRACE_UNITS}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    record: dict


@dataclass
class _Session:
    """One invocation: its config, operation counts and output digests."""

    workload: workloads.Workload
    cfg: cli.ExperimentConfig
    argv: list  # the command line whose config resolution starts every set-up
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # "setup"/"body" -> first digest
    stage_samples: dict = field(default_factory=lambda: {s: [] for s in workloads.STAGES})
    last_checks: list = field(default_factory=list)

    def _count(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {detail}")
        return ok

    def _run_stages(self, stages) -> bool:
        """Run and time each stage; False once an operation fails."""
        with contextlib.redirect_stdout(io.StringIO()):
            for stage in stages:
                t0 = time.perf_counter()
                for name, fn in workloads.stage_ops(stage, self.cfg):
                    try:
                        fn()
                    except Exception as exc:  # recorded as a failed operation
                        return self._count(name, False, f"{type(exc).__name__}: {exc}")
                    self._count(name, True)
                self.stage_samples[stage].append(time.perf_counter() - t0)
        return True

    def _check_digest(self, kind: str) -> bool:
        value = workloads.digest(self.cfg.output_dir)
        first = self.digests.setdefault(kind, value)
        return self._count(f"{kind}_digest", value == first, f"{value} != {first}")

    def setup(self) -> float | None:
        """Fresh workspace; then, timed: the CLI's own config resolution and
        echo, and the set-up stages. Returns the set-up wall time, or None if
        an operation failed."""
        shutil.rmtree(self.cfg.output_dir, ignore_errors=True)
        t0 = time.perf_counter()
        self.cfg = cli.resolve_config(cli.build_parser().parse_args(self.argv))
        cli.write_echo(self.cfg)
        ok = self._run_stages(self.workload.setup_stages)
        elapsed = time.perf_counter() - t0
        return elapsed if ok and self._check_digest("setup") else None

    def body(self) -> float | None:
        """The timed body on the workspace set-up just left; returns its
        wall time, or None if an operation failed. Checks are not timed."""
        t0 = time.perf_counter()
        ok = self._run_stages(self.workload.body_stages)
        elapsed = time.perf_counter() - t0
        return elapsed if ok else None

    def verify(self) -> bool:
        """Every output check plus the digest comparison, each counted."""
        self.last_checks = workloads.check_outputs(self.cfg)
        # a list, not a generator: every check is counted, not just up to the first failure
        ok = all([self._count(name, passed, detail) for name, passed, detail in self.last_checks])
        return self._check_digest("body") and ok


def _repeat(step, budget_s: float, min_reps: int) -> list | None:
    """Call step() at least min_reps times, then while one more call is
    predicted to end within budget_s of the start; None on a failure."""
    samples, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        value = step()
        if value is None:
            return None
        samples.append(value)
        durations.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if len(samples) >= min_reps and spent + statistics.median(durations) > budget_s:
            return samples


def _cycle(session: _Session, layer_samples: list | None = None):
    """Set-up, body and checks; with `layer_samples`, set-up and body run
    traced and the cycle's per-layer metrics are appended. Returns
    (setup seconds, body seconds), or None on a failed operation."""
    tr = tracer.Tracer()
    with tracer.traced(tr) if layer_samples is not None else contextlib.nullcontext():
        setup = session.setup()
        wall = session.body() if setup is not None else None
    if wall is None or not session.verify():
        return None
    if layer_samples is not None:
        metrics = tr.metrics()
        metrics["cli.bytes_written"] = workloads.total_bytes(session.cfg.output_dir)
        layer_samples.append(metrics)
    return setup, wall


def _git_sha(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def environment(root: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_lines": _src_lines(root),
    }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    root: str,
    smoke: bool = False,
) -> Result:
    """One benchmark invocation: measure `workload_name` at `seed` for
    about `seconds`, with outputs under `work_dir`."""
    workload = workloads.WORKLOADS[workload_name]
    cfg = workloads.make_config(workload, seed, work_dir, smoke=smoke)
    config_path = work_dir.rstrip("/") + ".config.json"
    os.makedirs(os.path.dirname(config_path) or ".", exist_ok=True)
    with open(config_path, "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
    argv = ["--config", config_path, "--seed", str(seed), "--out", work_dir, "run-all"]
    session = _Session(workload=workload, cfg=cfg, argv=argv)
    samples = {}
    metrics = {}
    if not trace:
        cycles = _repeat(lambda: _cycle(session), seconds, MIN_CYCLES)
        if cycles is not None:
            samples = {"setup_s": [c[0] for c in cycles], "wall_s": [c[1] for c in cycles]}
            for stage in workloads.STAGES:
                samples[f"{stage}_s"] = session.stage_samples[stage]
            values = {name: statistics.median(v) for name, v in samples.items()}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        layer_samples = []
        plain = _repeat(lambda: _cycle(session), seconds / 2, 1)
        traced = None
        if plain is not None:
            traced = _repeat(lambda: _cycle(session, layer_samples), seconds / 2, 1)
        if traced is not None:
            samples = {
                "untraced_wall_s": [c[1] for c in plain],
                "traced_wall_s": [c[1] for c in traced],
            }
            values = {
                name: statistics.median([rep[name] for rep in layer_samples]) for name in layer_samples[0]
            }
            values["trace.untraced_wall_s"] = statistics.median(samples["untraced_wall_s"])
            values["trace.wall_s"] = statistics.median(samples["traced_wall_s"])
            values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
            metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    correct = session.failed == 0 and bool(metrics)
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "setup_stages": list(workload.setup_stages),
        "body_stages": list(workload.body_stages),
        "environment": environment(root),
        "argv": argv,
        "config": dataclasses.asdict(session.cfg),
        "samples": samples,
        "digests": session.digests,
        "checks": session.last_checks,
        "errors": session.errors,
        "summary": workloads.results_summary(session.cfg) if correct else None,
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
    }
    return Result(correct, session.attempted, session.failed, metrics, record)


def result_line(result: Result) -> dict:
    """The benchmark's final output object."""
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
        },
    }
