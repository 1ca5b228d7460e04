"""From-scratch CNN demodulator: model, training loop, and weights files."""

from .model import (
    ModelConfig,
    ModelState,
    backward,
    build_model,
    forward,
    forward_train,
    loss_ce,
    parameter_counts,
)
from .training import (
    GRAD_CHECK_CONFIG,
    AdamState,
    TrainConfig,
    TrainLog,
    adam_init,
    adam_step,
    grad_check,
    model_demodulator,
    train,
    train_step,
)
from .weights import load_weights, save_weights

__all__ = [
    "GRAD_CHECK_CONFIG",
    "AdamState",
    "ModelConfig",
    "ModelState",
    "TrainConfig",
    "TrainLog",
    "adam_init",
    "adam_step",
    "backward",
    "build_model",
    "forward",
    "forward_train",
    "grad_check",
    "load_weights",
    "loss_ce",
    "model_demodulator",
    "parameter_counts",
    "save_weights",
    "train",
    "train_step",
]
