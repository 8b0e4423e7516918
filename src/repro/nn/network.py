"""Sequential feed-forward networks with layer-sliced evaluation.

The paper's notation is reproduced directly in the API:

* ``G^k(v)`` — :meth:`Sequential.forward_to` evaluates the first ``k`` layers
  (``G^0`` is the identity, matching the paper's convention that
  ``G^0(v) = v``);
* ``G^{l↪k}(v)`` — :meth:`Sequential.forward_from_to` evaluates layers
  ``l..k`` given the output of layer ``l-1``;
* the monitored feature vector of an input is simply ``forward_to(k)``.

Layer indices are therefore 1-based, exactly as in the paper; index ``0``
denotes the raw input.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, LayerIndexError
from .activations import get_activation
from .layers import ActivationLayer, Dense, Layer, layer_from_config

__all__ = ["Sequential", "mlp"]


class Sequential:
    """A feed-forward network ``G = g_n ∘ ... ∘ g_1``.

    Parameters
    ----------
    layers:
        The ordered layer list ``[g_1, ..., g_n]``.
    input_dim:
        Dimensionality ``d_0`` of the input vector.
    seed:
        Seed for parameter initialisation (reproducibility of experiments).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_dim: int,
        seed: Optional[int] = None,
    ) -> None:
        if input_dim <= 0:
            raise ConfigurationError("input_dim must be positive")
        if not layers:
            raise ConfigurationError("a network needs at least one layer")
        self.input_dim = int(input_dim)
        self.layers: List[Layer] = list(layers)
        rng = np.random.default_rng(seed)
        current_dim = self.input_dim
        for layer in self.layers:
            layer.build(current_dim, rng)
            current_dim = layer.output_dim if layer.output_dim else current_dim
        self.output_dim = current_dim

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of layers ``n`` in the paper's notation."""
        return len(self.layers)

    def layer_output_dim(self, k: int) -> int:
        """Return ``d_k``, the dimensionality of the output of layer ``k``."""
        self._check_layer_index(k, allow_zero=True)
        if k == 0:
            return self.input_dim
        dim = self.layers[k - 1].output_dim
        if dim is None:  # pragma: no cover - defensive
            raise ConfigurationError("network layer was never built")
        return dim

    def _check_layer_index(self, k: int, allow_zero: bool = False) -> None:
        lowest = 0 if allow_zero else 1
        if not lowest <= k <= self.num_layers:
            raise LayerIndexError(
                f"layer index {k} outside valid range [{lowest}, {self.num_layers}]"
            )

    def _as_batch(self, x: np.ndarray) -> Tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return x[None, :], True
        if x.ndim == 2:
            return x, False
        return x.reshape(x.shape[0], -1), False

    # ------------------------------------------------------------------
    # concrete evaluation
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Evaluate the whole network ``G(x)``."""
        return self.forward_to(self.num_layers, x, training=training)

    def forward_to(self, k: int, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Evaluate ``G^k(x)``; ``k = 0`` returns ``x`` unchanged."""
        self._check_layer_index(k, allow_zero=True)
        batch, squeeze = self._as_batch(x)
        out = batch
        for layer in self.layers[:k]:
            out = layer.forward(out, training=training)
        return out[0] if squeeze else out

    def forward_from_to(
        self, l: int, k: int, x: np.ndarray, training: bool = False
    ) -> np.ndarray:
        """Evaluate ``G^{l↪k}(x)`` where ``x`` is the output of layer ``l-1``."""
        self._check_layer_index(l)
        self._check_layer_index(k)
        if l > k:
            raise LayerIndexError(f"slice start {l} exceeds slice end {k}")
        batch, squeeze = self._as_batch(x)
        out = batch
        for layer in self.layers[l - 1 : k]:
            out = layer.forward(out, training=training)
        return out[0] if squeeze else out

    def activations(self, x: np.ndarray, depth: Optional[int] = None) -> List[np.ndarray]:
        """Return the layer outputs ``[G^1(x), ..., G^depth(x)]``.

        ``depth`` defaults to every layer (``n``); a monitor of layer ``k``
        needs only ``depth = k``, and the layers past it are not evaluated.
        """
        layers = self.layers
        if depth is not None:
            self._check_layer_index(depth)
            layers = layers[:depth]
        batch, squeeze = self._as_batch(x)
        outputs: List[np.ndarray] = []
        out = batch
        for layer in layers:
            out = layer.forward(out, training=False)
            outputs.append(out[0] if squeeze else out)
        return outputs

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Alias of :meth:`forward` in inference mode."""
        return self.forward(x, training=False)

    def predict_classes(self, x: np.ndarray) -> np.ndarray:
        """Return the argmax class of the network output for each input."""
        logits = self.forward(x, training=False)
        return np.argmax(np.atleast_2d(logits), axis=-1)

    # ------------------------------------------------------------------
    # training support
    # ------------------------------------------------------------------
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate gradients through every layer (after a training pass)."""
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> Dict[str, np.ndarray]:
        """Flat dict of all trainable parameters keyed by ``layer{i}.{name}``."""
        params: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers, start=1):
            for name, value in layer.parameters().items():
                params[f"layer{index}.{name}"] = value
        return params

    def gradients(self) -> Dict[str, np.ndarray]:
        """Flat dict of gradients matching :meth:`parameters`."""
        grads: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers, start=1):
            for name, value in layer.gradients().items():
                grads[f"layer{index}.{name}"] = value
        return grads

    def zero_gradients(self) -> None:
        for layer in self.layers:
            layer.zero_gradients()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.size for p in self.parameters().values()))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def get_config(self) -> Dict[str, object]:
        return {
            "input_dim": self.input_dim,
            "layers": [layer.get_config() for layer in self.layers],
        }

    def get_weights(self) -> List[np.ndarray]:
        weights: List[np.ndarray] = []
        for layer in self.layers:
            weights.extend(layer.get_weights())
        return weights

    def set_weights(self, weights: Iterable[np.ndarray]) -> None:
        weights = list(weights)
        cursor = 0
        for layer in self.layers:
            count = len(layer.get_weights())
            layer.set_weights(weights[cursor : cursor + count])
            cursor += count
        if cursor != len(weights):
            raise ConfigurationError(
                f"set_weights received {len(weights)} arrays but the network "
                f"consumes {cursor}"
            )

    @classmethod
    def from_config(
        cls, config: Dict[str, object], seed: Optional[int] = None
    ) -> "Sequential":
        layers = [layer_from_config(c) for c in config["layers"]]  # type: ignore[index]
        return cls(layers, input_dim=int(config["input_dim"]), seed=seed)

    def copy(self) -> "Sequential":
        """Deep copy: same architecture and same weights."""
        clone = Sequential.from_config(self.get_config(), seed=0)
        clone.set_weights([np.array(w, copy=True) for w in self.get_weights()])
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = [self.input_dim] + [layer.output_dim for layer in self.layers]
        return f"Sequential(dims={dims})"


def mlp(
    input_dim: int,
    hidden_dims: Sequence[int],
    output_dim: int,
    activation: str = "relu",
    output_activation: Optional[str] = None,
    seed: Optional[int] = None,
) -> Sequential:
    """Build a standard multi-layer perceptron.

    The returned network alternates :class:`Dense` and activation layers,
    matching the ``g_k`` decomposition of the paper (each ``g_k`` is either an
    affine map or an elementwise non-linearity).  The close-to-output hidden
    activation layer is the natural choice for the monitored layer ``k``.

    Parameters
    ----------
    input_dim: dimensionality of the raw input ``d_0``.
    hidden_dims: widths of the hidden dense layers.
    output_dim: dimensionality of the network output ``d_n``.
    activation: hidden activation name (default ``"relu"``).
    output_activation: optional output activation name (``None`` keeps logits).
    seed: initialisation seed.
    """
    if not hidden_dims:
        raise ConfigurationError("mlp() requires at least one hidden layer")
    get_activation(activation)  # validate the name eagerly
    layers: List[Layer] = []
    for width in hidden_dims:
        layers.append(Dense(width))
        layers.append(ActivationLayer(activation))
    layers.append(Dense(output_dim))
    if output_activation is not None:
        layers.append(ActivationLayer(output_activation))
    return Sequential(layers, input_dim=input_dim, seed=seed)
