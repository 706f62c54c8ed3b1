"""Minimal feedforward network engine for the three benchmarked models.

Supports exactly the pieces those models need: a weight-sharing input layer
(each of d neurons applies one scalar weight and bias elementwise to the
whole d-vector, giving a d x d activation map that is flattened downstream),
dense layers, batch normalization, inverted dropout, softmax/cross-entropy
and the Adadelta update rule.  Everything runs in float64 numpy with
reverse-mode gradients written out by hand.

Each layer class declares its stored form: ``KIND`` (its type in a document),
constructor ``ARGS``, trained ``PARAMS`` and other arrays ``STATE``; its
``backward`` leaves the gradient of parameter ``name`` at ``d<name>``.  Only a
train-mode forward caches what ``backward`` reads; an inference forward
allocates its output once, never writes to its input and caches nothing.

Blocks are ordered affine -> batch norm -> activation -> dropout.  Training
is deterministic given the initialization seed and the training seed.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .dataset import N_CLASSES, check_count, check_finite, check_training_set, one_hot
from .rng import LANES, LaneReader, XoshiroLanes

ADADELTA_RHO = 0.95
ADADELTA_EPS = 1e-6
BN_MOMENTUM = 0.99
BN_EPS = 1e-5
PROB_FLOOR = 1e-12

# a made-ahead block of a training run's lane draws: 128 steps of every lane, 512 KB.
# 32-step blocks woke the draw worker four times as often and slowed the forked fits.
DRAW_BLOCK = 128 * LANES


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probabilities: np.ndarray, target_onehot: np.ndarray) -> float:
    """-log p_target, with the probability floored at 1e-12 before the log."""
    p = (probabilities * target_onehot).sum(axis=-1)
    return float(np.mean(-np.log(np.maximum(p, PROB_FLOOR))))


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


class SharedInputLayer:
    """d neurons, each mapping the whole d-vector with one weight and bias.

    Forward of a batch (B, d) is (B, d*d): entry (i, j) of the per-sample
    map is w[i] * x[j] + b[i], flattened row-major over (i, j).
    """

    KIND, ARGS = "shared", ("d",)
    PARAMS, STATE = ("w", "b"), ()

    def __init__(self, d: int):
        check_count(f"{self.KIND} layer's 'd'", d, 1)
        self.d = d
        self.w = np.zeros(d)
        self.b = np.zeros(d)
        self._cache = None

    def init_params(self, rng: XoshiroLanes) -> None:
        limit = np.sqrt(6.0)  # fan-in of one scalar per neuron
        self.w = rng.uniform(-limit, limit, self.d)
        self.b = np.zeros(self.d)

    def forward(self, x: np.ndarray, train: bool, rng) -> np.ndarray:
        z = self.w[None, :, None] * x[:, None, :]
        z += self.b[None, :, None]
        if train:
            self._cache = x
        return z.reshape(x.shape[0], self.d * self.d)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._cache
        g = grad.reshape(x.shape[0], self.d, self.d)
        self.dw = np.einsum("bij,bj->i", g, x)
        self.db = g.sum(axis=(0, 2))
        return np.einsum("bij,i->bj", g, self.w)


class Dense:
    KIND, ARGS = "dense", ("n_in", "n_out")
    PARAMS, STATE = ("weight", "bias"), ()

    def __init__(self, n_in: int, n_out: int):
        check_count(f"{self.KIND} layer's 'n_in'", n_in, 1)
        check_count(f"{self.KIND} layer's 'n_out'", n_out, 1)
        self.n_in = n_in
        self.n_out = n_out
        self.weight = np.zeros((n_out, n_in))
        self.bias = np.zeros(n_out)
        self._cache = None

    def init_params(self, rng: XoshiroLanes) -> None:
        limit = np.sqrt(6.0 / self.n_in)
        self.weight = rng.uniform(-limit, limit, (self.n_out, self.n_in))
        self.bias = np.zeros(self.n_out)

    def forward(self, x: np.ndarray, train: bool, rng) -> np.ndarray:
        if train:
            self._cache = x
        return x @ self.weight.T + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._cache
        self.dweight = grad.T @ x
        self.dbias = grad.sum(axis=0)
        return grad @ self.weight


class Relu:
    KIND, ARGS = "relu", ()
    PARAMS, STATE = (), ()

    def forward(self, x: np.ndarray, train: bool, rng) -> np.ndarray:
        if train:
            self._cache = x
        return _relu(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * (self._cache > 0)


class BatchNorm:
    """Per-unit batch normalization with learned scale and shift.

    Train mode normalizes by batch statistics (population variance) and
    updates the running stats by ``BN_MOMENTUM``; inference mode uses the
    running stats only and caches nothing, so ``backward`` follows a train forward.
    """

    KIND, ARGS = "batchnorm", ("units",)
    PARAMS, STATE = ("gamma", "beta"), ("running_mean", "running_var")

    def __init__(self, units: int):
        check_count(f"{self.KIND} layer's 'units'", units, 1)
        self.units = units
        self.gamma = np.ones(units)
        self.beta = np.zeros(units)
        self.running_mean = np.zeros(units)
        self.running_var = np.ones(units)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool, rng) -> np.ndarray:
        if train:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs a batch of >= 2 in train mode")
            mu = x.mean(axis=0)
            xmu = x - mu
            # x.var(axis=0) spelled out to reuse the centred batch; numpy
            # computes it with these same operations, so the bits agree
            var = (xmu * xmu).sum(axis=0) / x.shape[0]
            ivar = 1.0 / np.sqrt(var + BN_EPS)
            xhat = xmu * ivar
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mu
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            self._cache = (xmu, ivar, xhat)
            out = self.gamma * xhat
        else:
            # the running statistics' fixed per-unit affine map, applied in place
            # on one buffer; the order (x - mean) * ivar * gamma + beta fixes the bits
            ivar = 1.0 / np.sqrt(self.running_var + BN_EPS)
            out = x - self.running_mean
            out *= ivar
            out *= self.gamma
        out += self.beta
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xmu, ivar, xhat = self._cache
        self.dgamma = (grad * xhat).sum(axis=0)
        self.dbeta = grad.sum(axis=0)
        dxhat = grad * self.gamma
        m = grad.shape[0]
        dvar = (dxhat * xmu).sum(axis=0) * (-0.5) * ivar**3
        dmu = -(dxhat.sum(axis=0) * ivar) + dvar * (-2.0 / m) * xmu.sum(axis=0)
        return dxhat * ivar + dvar * (2.0 / m) * xmu + dmu / m


class Dropout:
    """Inverted dropout: zero with probability ``rate`` and rescale survivors."""

    KIND, ARGS = "dropout", ("rate",)
    PARAMS, STATE = (), ()

    def __init__(self, rate: float):
        check_finite(f"{self.KIND} layer's 'rate'", rate, ())  # a real number, not a bool
        if not 0 <= rate < 1:
            raise ValueError(f"{self.KIND} layer's 'rate' must be in [0, 1), got {rate!r}")
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = rng.doubles(x.shape) >= self.rate
        self._mask = keep / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


@dataclass
class TrainConfig:
    batch_size: int
    epochs: int
    dropout: float
    seed: int = 0

    def __post_init__(self):
        check_count("batch_size", self.batch_size, 1)
        check_count("epochs", self.epochs, 0)
        Dropout(self.dropout)  # it becomes every dropout layer's rate: the layer's rule


Layer = SharedInputLayer | Dense | BatchNorm | Relu | Dropout


@dataclass(eq=False)
class Network:
    """Ordered layer stack ending in a 4-unit softmax output, checked at construction."""

    layers: list[Layer]

    def __post_init__(self):
        self.width = width = None  # read by the first sized layer, made by the last
        for i, layer in enumerate(self.layers):
            reads = makes = width  # relu and dropout pass their input on
            if isinstance(layer, Layer):  # the encoder names what is not a layer
                # each array finite in the shape that the layer's constructor allocates
                fresh = type(layer)(*(getattr(layer, a) for a in layer.ARGS))
                for name in layer.PARAMS + layer.STATE:
                    check_finite(f"{layer.KIND} layer's {name!r}", getattr(layer, name),
                                 getattr(fresh, name).shape)
            if isinstance(layer, BatchNorm):
                # training never stores a negative variance, and inference takes its square root
                if (layer.running_var < 0).any():
                    raise ValueError("batchnorm layer's 'running_var' must be >= 0")
                reads = makes = layer.units
            elif isinstance(layer, Dense):
                reads, makes = layer.n_in, layer.n_out
            elif isinstance(layer, SharedInputLayer):
                reads, makes = layer.d, layer.d * layer.d
            if width is not None and reads != width:
                raise ValueError(f"{layer.KIND} layer {i} reads {reads} values, but gets {width}")
            self.width, width = self.width or reads, makes
        if width != N_CLASSES:
            raise ValueError(f"a network's last dense, shared or batchnorm layer must be "
                             f"{N_CLASSES} wide, got {width}")

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        return softmax(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_finite("features", x, (None, self.width))
        return self.forward(x).argmax(axis=1)

    def parameters(self) -> list[np.ndarray]:
        return [getattr(layer, name) for layer in self.layers for name in layer.PARAMS]

    def gradients(self) -> list[np.ndarray]:
        return [getattr(layer, "d" + name) for layer in self.layers for name in layer.PARAMS]

    def init_params(self, seed: int) -> None:
        rng = XoshiroLanes(seed)
        for layer in self.layers:
            if hasattr(layer, "init_params"):
                layer.init_params(rng)


def backprop(model: Network, batch: np.ndarray, target_onehot: np.ndarray, rng=None):
    """Train-mode softmax outputs and exact gradients of the mean cross-entropy loss.

    Returns ``(probs, gradients)``, one gradient per parameter in
    ``model.parameters()`` order.  Dropout masks are drawn once during the
    forward pass and reused by the backward pass; reseeding ``rng``
    reproduces them exactly.
    """
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    probs = model.forward(batch, True, rng)
    grad = (probs - target_onehot) / batch.shape[0]
    for layer in reversed(model.layers):
        grad = layer.backward(grad)
    return probs, model.gradients()


def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive parts of ``flat``, one per shape."""
    views = []
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


@dataclass
class AdadeltaState:
    """Decaying accumulators of squared gradients and squared updates.

    Each accumulator is one flat buffer over all parameters' entries in
    ``shapes`` order.
    """

    shapes: list

    def __post_init__(self):
        size = sum(math.prod(s) for s in self.shapes)
        self.grad_sq = np.zeros(size)
        self.delta_sq = np.zeros(size)

    def step(self, g: np.ndarray) -> np.ndarray:
        """One update from the flat gradient ``g``; returns the flat delta to add.

        Elementwise, so the result is bit-identical to updating each
        parameter on its own.
        """
        rho, eps = ADADELTA_RHO, ADADELTA_EPS
        self.grad_sq *= rho
        self.grad_sq += (1 - rho) * g * g
        delta = -np.sqrt(self.delta_sq + eps) / np.sqrt(self.grad_sq + eps) * g
        self.delta_sq *= rho
        self.delta_sq += (1 - rho) * delta * delta
        return delta


def _flatten(arrays) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrays])


def adadelta_step(state: AdadeltaState, gradients: list) -> list:
    """One Adadelta update; returns the per-parameter deltas to add."""
    return _split(state.step(_flatten(gradients)), state.shapes)


PRESET_NAMES = ("FNN1", "DFNN3", "DFNN_WS")


def build_preset(name: str, input_width: int, dropout: float, init_seed: int = 0) -> Network:
    """One of the three benchmarked feedforward architectures.

    FNN1:    dense 16 -> softmax(4)
    DFNN3:   dense 16 -> 8 -> 4 -> softmax(4)
    DFNN_WS: shared input layer (d neurons over the d-vector) -> flatten ->
             dense 16 -> 8 -> 4 -> softmax(4), with batch normalization and
             dropout in every block (affine -> norm -> relu -> dropout).
    """
    check_count("input_width", input_width, 1)
    key = name.upper()
    d = input_width
    if key == "FNN1":
        layers = [Dense(d, 16), Relu(), Dense(16, 4)]
    elif key == "DFNN3":
        layers = [Dense(d, 16), Relu(), Dense(16, 8), Relu(), Dense(8, 4), Relu(),
                  Dense(4, 4)]
    elif key == "DFNN_WS":
        layers = [SharedInputLayer(d), BatchNorm(d * d), Relu(), Dropout(dropout)]
        n_in = d * d
        for n_out in (16, 8, 4):
            layers += [Dense(n_in, n_out), BatchNorm(n_out), Relu(), Dropout(dropout)]
            n_in = n_out
        layers.append(Dense(4, 4))
    else:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    net = Network(layers)
    net.init_params(init_seed)
    return net


def _kept_batches(n: int, batch_size: int, has_bn: bool) -> list[slice]:
    """The slices of every epoch's permutation that train, in order.  A singleton
    remainder batch cannot be batch-normalized, so a network with batch norm skips it."""
    batches = []
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        if stop - start > 1 or not has_bn or n == 1:
            batches.append(slice(start, stop))
    return batches


def train_network(model: Network, features: np.ndarray, labels: np.ndarray,
                  config: TrainConfig, log=None) -> Network:
    """Seeded mini-batch training with Adadelta on mean cross-entropy.

    ``features`` are expected to be standardized already.  ``config.dropout``
    overrides the rate of every dropout layer in the model.  The returned
    model is left in inference mode (prediction uses running batch-norm
    statistics).  Bit-identical results for identical (model, data, config).

    Training first rebinds every layer's parameters as views of one flat
    buffer, which each batch updates in one step; arrays fetched from the
    model before training keep the old values and no longer alias the
    trained weights.  Raises ``ValueError`` naming the epoch after which a
    weight is no longer finite.

    The lane draws depend only on the seed, never on the weights.  When the run
    draws dropout masks, ``parallel.made_ahead`` may make the lane stream in a
    forked worker, in blocks of ``DRAW_BLOCK`` doubles ahead of the batches, and
    each draw reads its whole steps from them (``LaneReader``); a worker that
    dies raises ``ValueError``.
    """
    check_training_set(features, labels)
    check_finite("features", features, (None, model.width))
    n = features.shape[0]
    has_bn = any(isinstance(layer, BatchNorm) for layer in model.layers)
    if has_bn and config.batch_size == 1:
        raise ValueError("batch size 1 cannot train a network with batch norm: "
                         "every batch is a singleton")
    for layer in model.layers:
        if isinstance(layer, Dropout):
            layer.rate = config.dropout
    named = [(layer, name) for layer in model.layers for name in layer.PARAMS]
    params = model.parameters()
    shapes = [p.shape for p in params]
    theta = _flatten(params)
    for (layer, name), view in zip(named, _split(theta, shapes)):
        setattr(layer, name, view)
    state = AdadeltaState(shapes=shapes)
    onehot = one_hot(labels)
    batches = _kept_batches(n, config.batch_size, has_bn)
    lanes = XoshiroLanes(config.seed)
    if (config.epochs and config.dropout
            and any(isinstance(layer, Dropout) for layer in model.layers)):
        draws = parallel.made_ahead(lambda: lanes.doubles(DRAW_BLOCK), DRAW_BLOCK)
    else:  # one permutation an epoch: a worker would cost more than it saves
        draws = contextlib.nullcontext()
    with draws as blocks:
        rng = lanes if blocks is None else LaneReader(blocks)
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            loss_sum = 0.0
            hits = 0
            seen = 0
            for rows in batches:
                idx = perm[rows]
                x, y = features[idx], onehot[idx]
                probs, grads = backprop(model, x, y, rng=rng)
                if log is not None:
                    loss_sum += cross_entropy(probs, y) * idx.shape[0]
                    hits += int((probs.argmax(axis=1) == labels[idx]).sum())
                    seen += idx.shape[0]
                theta += state.step(_flatten(grads))
            if not np.isfinite(theta).all():
                raise ValueError(f"training diverged: non-finite weights after epoch {epoch + 1}")
            if log is not None:
                log.write(f"epoch={epoch + 1} loss={loss_sum / seen:.6f} acc={hits / seen:.4f}\n")
    return model
