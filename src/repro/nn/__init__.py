"""Numpy feed-forward neural-network substrate.

This package replaces the PyTorch dependency of the original
nn-dependability-kit implementation with a self-contained numpy stack:
layers, activations, losses, optimizers, a mini-batch trainer and network
serialization.  The :class:`~repro.nn.network.Sequential` class mirrors the
paper's notation with ``forward_to`` (``G^k``) and ``forward_from_to``
(``G^{l↪k}``) layer slicing.  Sound bound propagation through a network
lives in :mod:`repro.symbolic.propagation`.
"""

from .activations import (
    ELU,
    Activation,
    HardTanh,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softplus,
    Tanh,
    get_activation,
)
from .initializers import (
    Constant,
    GlorotNormal,
    GlorotUniform,
    HeNormal,
    HeUniform,
    Initializer,
    LeCunNormal,
    Orthogonal,
    RandomNormal,
    RandomUniform,
    Zeros,
    get_initializer,
)
from .layers import ActivationLayer, Dense, Dropout, Flatten, Layer, Scale, layer_from_config
from .losses import (
    Huber,
    Loss,
    MeanAbsoluteError,
    MeanSquaredError,
    SoftmaxCrossEntropy,
    get_loss,
    one_hot,
    softmax,
)
from .network import Sequential, mlp
from .optimizers import SGD, Adam, Momentum, Optimizer, RMSProp, get_optimizer
from .serialization import load_network, save_network
from .training import (
    Trainer,
    TrainingHistory,
    accuracy,
    predict_probabilities,
    train_classifier,
    train_regressor,
)

__all__ = [
    "Activation",
    "Identity",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Softplus",
    "HardTanh",
    "ELU",
    "get_activation",
    "Initializer",
    "Zeros",
    "Constant",
    "RandomNormal",
    "RandomUniform",
    "GlorotUniform",
    "GlorotNormal",
    "HeUniform",
    "HeNormal",
    "LeCunNormal",
    "Orthogonal",
    "get_initializer",
    "Layer",
    "Dense",
    "ActivationLayer",
    "Dropout",
    "Flatten",
    "Scale",
    "layer_from_config",
    "Loss",
    "MeanSquaredError",
    "MeanAbsoluteError",
    "SoftmaxCrossEntropy",
    "Huber",
    "get_loss",
    "one_hot",
    "softmax",
    "Sequential",
    "mlp",
    "Optimizer",
    "SGD",
    "Momentum",
    "Adam",
    "RMSProp",
    "get_optimizer",
    "Trainer",
    "TrainingHistory",
    "accuracy",
    "train_classifier",
    "train_regressor",
    "predict_probabilities",
    "save_network",
    "load_network",
]
