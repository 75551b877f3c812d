"""griddistill: distill a small synthetic training set from offline
gridworld trajectories via gradient matching, and benchmark student
policies against percentile behavioral cloning on procedurally generated
maps."""

from .distill import DistillConfig, SyntheticDataset
from .evaluate import EvalConfig, EvalReport, evaluate_cohorts
from .gridenv import EnvConfig, Maps, generate_maps
from .rng import RngStream, derive_stream
from .tinynet import NetShape, PolicyParams, bc_grad, forward, init_params
from .trainer import TrainConfig, train_cohort

__all__ = [
    "DistillConfig",
    "SyntheticDataset",
    "EvalConfig",
    "EvalReport",
    "evaluate_cohorts",
    "EnvConfig",
    "Maps",
    "generate_maps",
    "RngStream",
    "derive_stream",
    "NetShape",
    "PolicyParams",
    "bc_grad",
    "forward",
    "init_params",
    "TrainConfig",
    "train_cohort",
]

__version__ = "0.1.0"
