"""Adversarial domain adaptation with conditioned discriminators and
cycle-consistent feature translation, runnable at desk scale."""

__version__ = "0.1.0"

from .autodiff import Tensor, finite_diff_check, grad_reversal, no_grad
from .conditioning import RandomizedMaps, condition
from .data import DomainPair, ShiftSpec, gen_gaussian_shift_pair, gen_two_moons_pair
from .losses import LossBreakdown, LossWeights, resolve_weights, total_loss
from .models import ArchConfig, ModelSuite, build_suite, predict
from .nn import LinearLayer, Mlp, Sgd
from .trainer import (
    MetricsRow,
    TrainConfig,
    TrainResult,
    ablation_run,
    default_train_config,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "__version__",
    "Tensor",
    "finite_diff_check",
    "grad_reversal",
    "no_grad",
    "RandomizedMaps",
    "condition",
    "DomainPair",
    "ShiftSpec",
    "gen_gaussian_shift_pair",
    "gen_two_moons_pair",
    "LossBreakdown",
    "LossWeights",
    "resolve_weights",
    "total_loss",
    "ArchConfig",
    "ModelSuite",
    "build_suite",
    "predict",
    "LinearLayer",
    "Mlp",
    "Sgd",
    "MetricsRow",
    "TrainConfig",
    "TrainResult",
    "ablation_run",
    "default_train_config",
    "evaluate",
    "load_checkpoint",
    "save_checkpoint",
    "train",
]
