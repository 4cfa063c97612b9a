"""Heterogeneous data-economy toolkit: threshold equilibrium, comparative
statics, jump-diffusion friction matching, and brute-force verification."""

from .model import ModelParams, LossSpec, default_params, load_params, validate
from .numerics import make_stream
from .threshold import ThresholdSolution, solve_threshold
from .statics import Theorem1Report, theorem1_report
from .wealth import expected_capital, solve_lambda

__all__ = [
    "LossSpec",
    "ModelParams",
    "Theorem1Report",
    "ThresholdSolution",
    "default_params",
    "expected_capital",
    "load_params",
    "make_stream",
    "solve_lambda",
    "solve_threshold",
    "theorem1_report",
    "validate",
]
