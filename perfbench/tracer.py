"""Per-layer tracing for the pipeline benchmark.

The tracer wraps the public functions of each griddistill module from the
outside: it rebinds the module attribute, every by-value copy of the same
function that another griddistill module imported with `from .x import y`,
and the optimizer/RNG methods on their classes. Each wrapper records a span
(inclusive seconds, self seconds = inclusive minus the traced child spans
it contains, one call) plus an optional work counter (rows, draws, bytes).

The per-draw RNG methods (`RngStream.next_int`, `next_u64`, `next_uniform`)
are deliberately left unwrapped: they run millions of times per pipeline
run, and a wrapper on them would swamp the trace. Their cost shows as the
self time of their callers.

Spans are kept as running sums in memory; wrappers are removed when the
`traced` context exits, so untraced code afterwards runs the original
functions. A listed function the package no longer defines is reported as
zero time and zero calls rather than failing the run.
"""

import contextlib
import os
import sys
import time
from dataclasses import dataclass, field

from griddistill import cli, datasets, distill, evaluate, expert, gridenv, optim, rng
from griddistill import tinynet, trainer


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else int(shape[0])


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


@dataclass(frozen=True)
class Layer:
    """One traced function: `name` is the metric prefix, `owner.attr` the
    function or method, `counter` an optional (unit, fn(args, kwargs)) pair
    evaluated after the call, and `self_time` whether `.self_s` is
    reported (only for layers whose work contains traced children)."""

    name: str
    owner: object
    attr: str
    counter: tuple | None = None
    self_time: bool = False


LAYERS = (
    Layer("rng.derive_stream", rng, "derive_stream"),
    Layer(
        "rng.next_uniform_array",
        rng.RngStream,
        "next_uniform_array",
        ("draws", lambda a, k: _arg(a, k, 1, "k")),
    ),
    Layer("rng.shuffle", rng.RngStream, "shuffle"),
    Layer("tinynet.init_params", tinynet, "init_params", self_time=True),
    Layer("tinynet.forward", tinynet, "forward", ("rows", lambda a, k: _rows(_arg(a, k, 1, "x")))),
    Layer("tinynet.bc_grad", tinynet, "bc_grad", ("rows", lambda a, k: _rows(_arg(a, k, 1, "xs")))),
    Layer("tinynet.bc_loss", tinynet, "bc_loss", ("rows", lambda a, k: _rows(_arg(a, k, 1, "xs")))),
    Layer("tinynet.matching_grad_wrt_examples", tinynet, "matching_grad_wrt_examples"),
    Layer(
        "tinynet.save_checkpoint",
        tinynet,
        "save_checkpoint",
        ("bytes", lambda a, k: _size(_arg(a, k, 1, "path"))),
    ),
    Layer(
        "tinynet.load_checkpoint",
        tinynet,
        "load_checkpoint",
        ("bytes", lambda a, k: _size(_arg(a, k, 0, "path"))),
    ),
    Layer(
        "datasets.sample_batch",
        datasets,
        "sample_batch",
        ("rows", lambda a, k: _arg(a, k, 1, "batch")),
    ),
    Layer("datasets.load", datasets, "load", ("bytes", lambda a, k: _size(_arg(a, k, 0, "path")))),
    Layer("datasets.save", datasets, "save", ("bytes", lambda a, k: _size(_arg(a, k, 1, "path")))),
    Layer("optim.Adam.step", optim.Adam, "step"),
    Layer("optim.SgdMomentum.step", optim.SgdMomentum, "step"),
    Layer("trainer.train_cohort", trainer, "train_cohort", self_time=True),
    Layer("trainer.train_student", trainer, "train_student", self_time=True),
    Layer("distill.distill", distill, "distill", self_time=True),
    Layer("distill.init_synthetic", distill, "init_synthetic", self_time=True),
    Layer(
        "distill.save_synthetic",
        distill,
        "save_synthetic",
        ("bytes", lambda a, k: _size(_arg(a, k, 1, "path"))),
    ),
    Layer(
        "distill.load_synthetic",
        distill,
        "load_synthetic",
        ("bytes", lambda a, k: _size(_arg(a, k, 0, "path"))),
    ),
    Layer("evaluate.evaluate_cohort", evaluate, "evaluate_cohort", self_time=True),
    Layer("evaluate.evaluate_expert", evaluate, "evaluate_expert", self_time=True),
    Layer("evaluate.run_policy", evaluate, "run_policy", self_time=True),
    Layer("evaluate.emit_report", evaluate, "emit_report"),
    Layer("gridenv.generate", gridenv, "generate", self_time=True),
    Layer("gridenv.step", gridenv, "step"),
    Layer("gridenv.observe", gridenv, "observe"),
    Layer("expert.value_iteration", expert, "value_iteration"),
    Layer("expert.rollout", expert, "rollout", self_time=True),
    Layer("expert.collect_rollouts", expert, "collect_rollouts", self_time=True),
    Layer("cli.cmd_collect", cli, "cmd_collect", self_time=True),
    Layer("cli.cmd_distill", cli, "cmd_distill", self_time=True),
    Layer("cli.cmd_train", cli, "cmd_train", self_time=True),
    Layer("cli.cmd_eval", cli, "cmd_eval", self_time=True),
)


def layer_metric_units() -> dict:
    """Every per-layer metric the tracer reports, name -> unit, in order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.s"] = "s"
        if layer.self_time:
            units[f"{layer.name}.self_s"] = "s"
        units[f"{layer.name}.calls"] = "count"
        if layer.counter is not None:
            unit = layer.counter[0]
            units[f"{layer.name}.{unit}"] = unit
    return units


@dataclass
class _Stat:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    work: int = 0


@dataclass
class Tracer:
    """Running span sums for one traced pass. Not thread-safe: the
    benchmark trains cohorts with one worker."""

    stats: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def wrap(self, layer: Layer, fn):
        stat = self.stats.setdefault(layer.name, _Stat())
        stack = self._stack
        counter = layer.counter[1] if layer.counter is not None else None
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.s += dt
                stat.self_s += dt - child[0]
                stat.calls += 1
                if counter is not None:
                    stat.work += counter(args, kwargs)

        traced_call.__wrapped__ = fn
        traced_call.__name__ = getattr(fn, "__name__", layer.attr)
        return traced_call

    def metrics(self) -> dict:
        """name -> value for every metric in `layer_metric_units()`."""
        out = {}
        for layer in LAYERS:
            st = self.stats.get(layer.name, _Stat())
            out[f"{layer.name}.s"] = st.s
            if layer.self_time:
                out[f"{layer.name}.self_s"] = st.self_s
            out[f"{layer.name}.calls"] = st.calls
            if layer.counter is not None:
                out[f"{layer.name}.{layer.counter[0]}"] = st.work
        return out


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "griddistill" or name.startswith("griddistill."))
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a wrapper for every layer for the duration of the block, then
    put every original back, whatever the block raised."""
    patches = []  # (namespace owner, attr, original)
    try:
        modules = _package_modules()
        for layer in LAYERS:
            original = layer.owner.__dict__.get(layer.attr)
            if original is None:
                continue  # gone from the package: reported as zero
            wrapper = tracer.wrap(layer, original)
            setattr(layer.owner, layer.attr, wrapper)
            patches.append((layer.owner, layer.attr, original))
            if isinstance(layer.owner, type):
                continue
            # by-value imports (`from .rng import derive_stream`) in sibling modules
            for mod in modules:
                if mod is layer.owner:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patches.append((mod, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
