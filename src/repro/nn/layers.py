"""Layer implementations for the numpy feed-forward DNN substrate.

The paper models a DNN as ``G = g_n ∘ ... ∘ g_1`` where every ``g_k`` is the
transformation of the ``k``-th layer.  Layers here carry two capabilities:

* **concrete evaluation** (:meth:`Layer.forward`) used when the trained
  network classifies or regresses an operational input;
* **gradient computation** (:meth:`Layer.backward`) used only while the
  reproduction trains its own networks.

Sound bound propagation (box, zonotope, star) is not a layer method: the one
layer walk in :mod:`repro.symbolic.propagation` dispatches on the layer type
and reads each layer's structure — ``weights`` / ``bias`` of an affine
layer (which sets ``is_affine``), the ``activation`` of an activation layer,
``scale`` / ``shift`` of a :class:`Scale`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from .activations import Activation, get_activation
from .initializers import GlorotUniform, HeNormal, Initializer, Zeros

__all__ = [
    "Layer",
    "Dense",
    "ActivationLayer",
    "Dropout",
    "Flatten",
    "Scale",
    "layer_from_config",
]


class Layer:
    """Base class for all layers of the sequential network."""

    #: True when the layer computes ``W x + b`` (exposes weights/bias).
    is_affine = False
    #: True when the layer has trainable parameters.
    trainable = False

    def __init__(self) -> None:
        self.input_dim: Optional[int] = None
        self.output_dim: Optional[int] = None
        self._last_input: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def build(self, input_dim: int, rng: np.random.Generator) -> None:
        """Finalise the layer for a given input dimension."""
        self.input_dim = int(input_dim)
        self.output_dim = int(input_dim)

    # ------------------------------------------------------------------
    # concrete evaluation
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Evaluate the layer on a batch ``x`` of shape ``(batch, input_dim)``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``dL/d_output`` to ``dL/d_input``; accumulate grads."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def parameters(self) -> Dict[str, np.ndarray]:
        """Return the trainable parameter arrays keyed by name."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Return gradients matching :meth:`parameters` keys."""
        return {}

    def zero_gradients(self) -> None:
        for grad in self.gradients().values():
            grad.fill(0.0)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def get_config(self) -> Dict[str, object]:
        """Return a JSON-serialisable description of the layer."""
        return {"type": self.__class__.__name__}

    def get_weights(self) -> List[np.ndarray]:
        return []

    def set_weights(self, weights: List[np.ndarray]) -> None:
        if weights:
            raise ConfigurationError(
                f"{self.__class__.__name__} does not accept weights"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.__class__.__name__}(input_dim={self.input_dim}, "
            f"output_dim={self.output_dim})"
        )


class Dense(Layer):
    """Fully connected affine layer computing ``x @ W + b``.

    ``W`` has shape ``(input_dim, units)`` and ``b`` shape ``(units,)``.
    """

    is_affine = True
    trainable = True

    def __init__(
        self,
        units: int,
        weight_initializer: Optional[Initializer] = None,
        bias_initializer: Optional[Initializer] = None,
    ) -> None:
        super().__init__()
        if units <= 0:
            raise ConfigurationError("Dense units must be a positive integer")
        self.units = int(units)
        self.weight_initializer = weight_initializer or GlorotUniform()
        self.bias_initializer = bias_initializer or Zeros()
        self.weights: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None
        self._grad_weights: Optional[np.ndarray] = None
        self._grad_bias: Optional[np.ndarray] = None

    def build(self, input_dim: int, rng: np.random.Generator) -> None:
        self.input_dim = int(input_dim)
        self.output_dim = self.units
        self.weights = self.weight_initializer((input_dim, self.units), rng)
        self.bias = self.bias_initializer((self.units,), rng)
        self._grad_weights = np.zeros_like(self.weights)
        self._grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if self.weights is None:
            raise ConfigurationError("Dense layer used before build()")
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ShapeError(
                f"Dense expected inputs with {self.input_dim} features, "
                f"got shape {x.shape}"
            )
        self._last_input = x if training else None
        return x @ self.weights + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise ConfigurationError("backward() called before forward(training=True)")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self._grad_weights += self._last_input.T @ grad_output
        self._grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weights.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weights": self._grad_weights, "bias": self._grad_bias}

    def get_config(self) -> Dict[str, object]:
        return {
            "type": "Dense",
            "units": self.units,
            "weight_initializer": self.weight_initializer.name,
            "bias_initializer": self.bias_initializer.name,
        }

    def get_weights(self) -> List[np.ndarray]:
        return [self.weights, self.bias]

    def set_weights(self, weights: List[np.ndarray]) -> None:
        if len(weights) != 2:
            raise ConfigurationError("Dense.set_weights expects [weights, bias]")
        w, b = (np.asarray(a, dtype=np.float64) for a in weights)
        if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
            raise ShapeError(f"inconsistent Dense weights: {w.shape} and {b.shape}")
        self.weights = w
        self.bias = b
        self.input_dim = w.shape[0]
        self.output_dim = w.shape[1]
        self.units = w.shape[1]
        self._grad_weights = np.zeros_like(w)
        self._grad_bias = np.zeros_like(b)


class ActivationLayer(Layer):
    """Wrap an elementwise :class:`~repro.nn.activations.Activation` as a layer."""

    def __init__(self, activation) -> None:
        super().__init__()
        if isinstance(activation, str):
            activation = get_activation(activation)
        if not isinstance(activation, Activation):
            raise ConfigurationError(
                "ActivationLayer requires an Activation instance or name"
            )
        self.activation = activation

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._last_input = x if training else None
        return self.activation.value(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise ConfigurationError("backward() called before forward(training=True)")
        return np.asarray(grad_output) * self.activation.derivative(self._last_input)

    def get_config(self) -> Dict[str, object]:
        return {"type": "ActivationLayer", "activation": self.activation.name}


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    At monitor-construction and operation time the network is evaluated in
    inference mode, so dropout never affects monitor semantics; it only adds
    regularisation while the reproduction trains its own networks.
    """

    def __init__(self, rate: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError("dropout rate must lie in [0, 1)")
        self.rate = float(rate)
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def get_config(self) -> Dict[str, object]:
        return {"type": "Dropout", "rate": self.rate}


class Flatten(Layer):
    """Flatten trailing dimensions into a single feature axis.

    The substrate stores inputs as already-flattened vectors, so Flatten is a
    shape-checking identity that exists for API familiarity when datasets are
    produced as images.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim <= 2:
            return x
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64)

    def get_config(self) -> Dict[str, object]:
        return {"type": "Flatten"}


class Scale(Layer):
    """Fixed elementwise affine rescaling ``x * scale + shift``.

    Useful to bake input normalisation into the network so that monitors and
    bound propagation operate on raw input units.
    """

    is_affine = False

    def __init__(self, scale: float = 1.0, shift: float = 0.0) -> None:
        super().__init__()
        self.scale = float(scale)
        self.shift = float(shift)
        if self.scale == 0.0:
            raise ConfigurationError("Scale factor must be non-zero")

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.scale + self.shift

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output, dtype=np.float64) * self.scale

    def get_config(self) -> Dict[str, object]:
        return {"type": "Scale", "scale": self.scale, "shift": self.shift}


_LAYER_TYPES = {
    "Dense": Dense,
    "ActivationLayer": ActivationLayer,
    "Dropout": Dropout,
    "Flatten": Flatten,
    "Scale": Scale,
}


def layer_from_config(config: Dict[str, object]) -> Layer:
    """Reconstruct a layer from the dictionary produced by ``get_config``."""
    config = dict(config)
    layer_type = config.pop("type", None)
    if layer_type == "Dense":
        from .initializers import get_initializer

        return Dense(
            units=int(config["units"]),
            weight_initializer=get_initializer(
                str(config.get("weight_initializer", "glorot_uniform"))
            ),
            bias_initializer=get_initializer(
                str(config.get("bias_initializer", "zeros"))
            ),
        )
    if layer_type == "ActivationLayer":
        return ActivationLayer(str(config["activation"]))
    if layer_type == "Dropout":
        return Dropout(rate=float(config.get("rate", 0.5)))
    if layer_type == "Flatten":
        return Flatten()
    if layer_type == "Scale":
        return Scale(
            scale=float(config.get("scale", 1.0)),
            shift=float(config.get("shift", 0.0)),
        )
    raise ConfigurationError(f"unknown layer type '{layer_type}'")


# Convenience default: HeNormal is the idiomatic choice for ReLU stacks.
DEFAULT_RELU_INITIALIZER = HeNormal()
