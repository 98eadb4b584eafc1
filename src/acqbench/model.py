"""Fully connected MC-dropout classifier, trained from scratch in numpy.

Architecture: input -> dense(hidden) -> relu -> dropout -> dense(hidden)
-> relu -> dense(n_classes) -> softmax. All math is float64. Training is
plain minibatch SGD on softmax cross-entropy; no adaptive optimizers, no
schedules. Every random draw (init, shuffling, dropout masks) comes from
`rng.stream`, so identical configs reproduce identical parameters bit for
bit.

Each public function checks its inputs once; the passes behind it run on
a plain tuple of weight arrays (w1, b1, w2, b2, w3, b3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import ProbabilityTensor
from .rng import NS_MC, _array, _integer, _labels, _number, stream

_WEIGHTS = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass(frozen=True)
class ModelParams:
    """Weights and architecture of the classifier. Immutable: holds
    read-only float64 copies of the arrays it is given, whose layers chain."""

    dropout: float
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dropout", _number(self.dropout, "dropout", ge=0, lt=1))
        for name in _WEIGHTS:
            # the layers chain: w1 fixes the hidden width h, w3 the class count C
            h = None if name == "w1" else self.hidden
            c = self.n_classes if name == "b3" else None
            shape = {"w1": 2, "b1": (h,), "w2": (h, h), "b2": (h,), "w3": (h, None), "b3": (c,)}[name]
            object.__setattr__(self, name, _array(getattr(self, name), name, shape, frozen=True))

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _WEIGHTS)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w3.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters. `seed` drives shuffling and dropout masks."""

    lr: float = 0.001
    epochs: int = 40
    minibatch: int = 32
    seed: int = 0

    def __post_init__(self):
        _number(self.lr, "lr", gt=0)
        _integer(self.epochs, "epochs", 0)
        _integer(self.minibatch, "minibatch", 1)
        _integer(self.seed, "train seed")


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo prediction settings.

    `n_passes` forward passes with dropout kept active; pass k draws its
    mask from stream(seed, NS_MC, k). A model with p=0 gives identical
    passes.
    """

    n_passes: int = 5
    seed: int = 0

    def __post_init__(self):
        _integer(self.n_passes, "n_passes", 1)
        _integer(self.seed, "MC seed")


def init_model(input_dim: int, hidden: int, n_classes: int, dropout: float, seed: int) -> ModelParams:
    """Scaled-uniform (Glorot) initialization, zero biases, seeded draw."""
    _integer(input_dim, "input_dim", 1)
    _integer(hidden, "hidden", 1)
    _integer(n_classes, "n_classes", 2)
    g = stream(seed)

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return g.uniform(-limit, limit, size=(fan_in, fan_out))

    return ModelParams(
        dropout=dropout,
        w1=glorot(input_dim, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, hidden),
        b2=np.zeros(hidden),
        w3=glorot(hidden, n_classes),
        b3=np.zeros(n_classes),
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, in place on `z`; returns it."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _dropout_mask(p: ModelParams, g: np.random.Generator, rows: int, out=None) -> np.ndarray:
    """Inverted-dropout multipliers for `rows` first-hidden activations, drawn from `g`
    in C order into `out` (new when None); a model without dropout draws nothing and gets ones."""
    if p.dropout == 0.0:
        return np.ones((rows, 1))
    keep = 1.0 - p.dropout
    u = g.random((rows, p.hidden), out=out)
    return np.divide(np.less(u, keep, out=u), keep, out=u)


def _first_layer(w: tuple[np.ndarray, ...], X: np.ndarray) -> np.ndarray:
    a1 = X @ w[0]
    a1 += w[1]
    return np.maximum(a1, 0.0, out=a1)


def _forward(w: tuple[np.ndarray, ...], X: np.ndarray, mask: np.ndarray | None, first=None, out=(None,) * 3):
    """One pass; returns the activations (a1, a1d, a2) and logits z3.
    `mask` multiplies the first hidden activation (inverted dropout:
    `_dropout_mask` during stochastic passes); with None, a1d is a1.
    `first` is `_first_layer(w, X)`, when the caller already has it. `out`
    holds buffers for (a1d, a2, z3); a None entry is allocated."""
    _, _, w2, b2, w3, b3 = w
    a1 = _first_layer(w, X) if first is None else first
    a1d = a1 if mask is None else np.multiply(a1, mask, out=out[0])
    a2 = np.matmul(a1d, w2, out=out[1])
    a2 += b2
    np.maximum(a2, 0.0, out=a2)
    z3 = np.matmul(a2, w3, out=out[2])
    z3 += b3
    return a1, a1d, a2, z3


def _backprop(w: tuple[np.ndarray, ...], grads: tuple[np.ndarray, ...], X: np.ndarray, onehot: np.ndarray, mask: np.ndarray):
    """Mean cross-entropy gradients of (X, onehot), written into `grads`."""
    _, _, w2, _, w3, _ = w
    a1, a1d, a2, z3 = _forward(w, X, mask)
    dz3 = _softmax(z3)
    dz3 -= onehot
    dz3 /= len(X)
    dz2 = dz3 @ w3.T
    dz2 *= a2 > 0
    dz1 = dz2 @ w2.T
    dz1 *= mask
    dz1 *= a1 > 0
    np.matmul(X.T, dz1, out=grads[0])
    dz1.sum(axis=0, out=grads[1])
    np.matmul(a1d.T, dz2, out=grads[2])
    dz2.sum(axis=0, out=grads[3])
    np.matmul(a2.T, dz3, out=grads[4])
    dz3.sum(axis=0, out=grads[5])


def _check_batch(p: ModelParams, X, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate a batch against the model; returns X as float64 and y as
    int64 (None when not given)."""
    X = _array(X, "input features", (None, p.input_dim))
    if X.shape[0] == 0:
        raise ValueError("empty input batch")
    return X, None if y is None else _labels(y, len(X), p.n_classes)


def train(p: ModelParams, X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> ModelParams:
    """Minibatch SGD for cfg.epochs passes; epochs=0 returns `p` unchanged.
    Weights and gradients are views of two flat buffers, `W` and `G`. Each
    epoch gathers its shuffled rows and one-hot labels and draws its masks once."""
    X, y = _check_batch(p, X, y)
    if cfg.epochs == 0:
        return p
    n, onehot = len(X), np.eye(p.n_classes)[y]
    g = stream(cfg.seed)
    W, cuts = np.concatenate([a.ravel() for a in p.weights]), np.cumsum([a.size for a in p.weights])[:-1]
    G = np.empty_like(W)
    w, grads = (tuple(v.reshape(a.shape) for v, a in zip(np.split(buf, cuts), p.weights)) for buf in (W, G))
    for _ in range(cfg.epochs):
        order = g.permutation(n)
        Xe, He, Me = X[order], onehot[order], _dropout_mask(p, g, n)
        for lo in range(0, n, cfg.minibatch):
            s = slice(lo, lo + cfg.minibatch)
            _backprop(w, grads, Xe[s], He[s], Me[s])
            G *= cfg.lr
            W -= G
    return ModelParams(p.dropout, *w)


def mc_predict(p: ModelParams, X: np.ndarray, mc: MCConfig) -> ProbabilityTensor:
    """Stacked stochastic softmax outputs, shape [n_passes, n, n_classes].
    Every pass shares the first layer (dropout acts after it) and two [n,
    hidden] buffers, and writes its logits and softmax into its own slice."""
    X, _ = _check_batch(p, X)
    n = X.shape[0]
    passes = np.empty((mc.n_passes, n, p.n_classes))
    first = _first_layer(p.weights, X)
    drop, hid = np.empty((n, p.hidden)), np.empty((n, p.hidden))
    for k in range(mc.n_passes):
        mask = _dropout_mask(p, stream(mc.seed, NS_MC, k), n, drop) if p.dropout else None
        _forward(p.weights, X, mask, first, (drop, hid, passes[k]))
        _softmax(passes[k])
    return ProbabilityTensor._of_softmax(passes)


def features(p: ModelParams, X: np.ndarray) -> np.ndarray:
    """Last hidden layer activations (dropout disabled), shape [n, hidden]."""
    X, _ = _check_batch(p, X)
    *_, a2, _ = _forward(p.weights, X, None)
    return a2


def predict_proba(p: ModelParams, X: np.ndarray) -> np.ndarray:
    """Deterministic class probabilities (dropout disabled), shape [n, C]."""
    X, _ = _check_batch(p, X)
    *_, z3 = _forward(p.weights, X, None)
    return _softmax(z3)


def accuracy(p: ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax predictions matching `y`. The argmax is taken on
    the softmax, whose rounding can tie distinct logits, as reported."""
    X, y = _check_batch(p, X, y)
    *_, z3 = _forward(p.weights, X, None)
    return float(np.mean(_softmax(z3).argmax(axis=1) == y))


def mean_cross_entropy(p: ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    """Mean CE of the deterministic forward pass against true labels, in
    log-sum-exp form so extreme logits stay finite."""
    X, y = _check_batch(p, X, y)
    *_, z3 = _forward(p.weights, X, None)
    zmax = z3.max(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.exp(z3 - zmax).sum(axis=1))
    return float(np.mean(logsumexp - z3[np.arange(X.shape[0]), y]))
