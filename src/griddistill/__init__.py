"""griddistill: distill a small synthetic training set from offline
gridworld trajectories via gradient matching, and benchmark student
policies against percentile behavioral cloning on procedurally generated
maps."""

from .distill import DistillConfig, SyntheticDataset
from .evaluate import EvalConfig, EvalReport, evaluate_cohorts
from .gridenv import EnvConfig, GridSpec, GridState, generate, observe, step
from .rng import RngStream, derive_stream
from .tinynet import NetShape, PolicyParams, bc_grad, bc_loss, forward, init_params
from .trainer import TrainConfig, train_cohort, train_student

__all__ = [
    "DistillConfig",
    "SyntheticDataset",
    "EvalConfig",
    "EvalReport",
    "evaluate_cohorts",
    "EnvConfig",
    "GridSpec",
    "GridState",
    "generate",
    "observe",
    "step",
    "RngStream",
    "derive_stream",
    "NetShape",
    "PolicyParams",
    "bc_grad",
    "bc_loss",
    "forward",
    "init_params",
    "TrainConfig",
    "train_cohort",
    "train_student",
]

__version__ = "0.1.0"
