"""bitstorm: fault injection for sequential CNN inference.

Corrupts operation or layer outputs with configurable hardware-fault models
(bit flips, stuck-at-zero, random words) and measures the classification
accuracy degradation through seeded, reproducible campaigns.
"""

__version__ = "0.1.0"

from .engine import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    INVALID_PREDICTION,
    MaxPool2D,
    Model,
    PReLU,
    ReLU,
    Softmax,
    forward,
    forward_layer,
    predict,
)
from .errors import BitstormError, ResourceError, ValidationError
from .faults import FaultSpec, InjectionRecord, corrupt_element, derive_stream, flip_bit, maybe_inject
from .microops import expand_prelu
from .model_io import CampaignSpec, Dataset, RunConfig, load_config, load_dataset, load_model, save_dataset, save_model
from .executor import ActivationCache, build_cache, golden_run, run_tail
from .campaign import accuracy, cma, converged, emit_report, run_deterministic_100, run_stochastic

__all__ = [
    "ActivationCache",
    "BitstormError",
    "CampaignSpec",
    "Conv2D",
    "Dataset",
    "Dense",
    "Dropout",
    "FaultSpec",
    "Flatten",
    "INVALID_PREDICTION",
    "InjectionRecord",
    "MaxPool2D",
    "Model",
    "PReLU",
    "ReLU",
    "ResourceError",
    "RunConfig",
    "Softmax",
    "ValidationError",
    "accuracy",
    "build_cache",
    "cma",
    "converged",
    "corrupt_element",
    "derive_stream",
    "emit_report",
    "expand_prelu",
    "flip_bit",
    "forward",
    "forward_layer",
    "golden_run",
    "load_config",
    "load_dataset",
    "load_model",
    "maybe_inject",
    "predict",
    "run_deterministic_100",
    "run_stochastic",
    "run_tail",
    "save_dataset",
    "save_model",
]
