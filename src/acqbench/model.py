"""Fully connected MC-dropout classifier, trained from scratch in numpy.

Architecture: input -> dense(hidden) -> relu -> dropout -> dense(hidden)
-> relu -> dense(n_classes) -> softmax. All math is float64. Training is
plain minibatch SGD on softmax cross-entropy; no adaptive optimizers, no
schedules. Every random draw (init, shuffling, dropout masks) comes from
`rng.stream`, so identical configs reproduce identical parameters bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import ProbabilityTensor
from .rng import NS_MC, stream


@dataclass(frozen=True)
class ModelParams:
    """Weights and architecture of the classifier. Immutable."""

    dropout: float
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
            arr.flags.writeable = False

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
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.minibatch < 1:
            raise ValueError(f"minibatch must be >= 1, got {self.minibatch}")


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo prediction settings.

    `n_passes` forward passes with dropout kept active; pass k draws its
    mask from stream(seed, NS_MC, k). With `dropout_active=False` (or a
    model with p=0) all passes are identical.
    """

    n_passes: int = 5
    dropout_active: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_passes < 1:
            raise ValueError(f"n_passes must be >= 1, got {self.n_passes}")


def init_model(input_dim: int, hidden: int, n_classes: int, dropout: float, seed: int) -> ModelParams:
    """Scaled-uniform (Glorot) initialization, zero biases, seeded draw."""
    if input_dim < 1 or hidden < 1 or n_classes < 2:
        raise ValueError(
            f"invalid architecture: input_dim={input_dim}, hidden={hidden}, n_classes={n_classes}"
        )
    g = stream(seed)

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return g.uniform(-limit, limit, size=(fan_in, fan_out))

    return ModelParams(
        dropout=float(dropout),
        w1=glorot(input_dim, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, hidden),
        b2=np.zeros(hidden),
        w3=glorot(hidden, n_classes),
        b3=np.zeros(n_classes),
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(p: ModelParams, X: np.ndarray, mask: np.ndarray | float):
    """One pass. `mask` multiplies the first hidden activation (inverted
    dropout: Bernoulli(keep)/keep during stochastic passes, 1.0 otherwise)."""
    z1 = X @ p.w1 + p.b1
    a1 = np.maximum(z1, 0.0)
    a1d = a1 * mask
    z2 = a1d @ p.w2 + p.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ p.w3 + p.b3
    return z1, a1d, z2, a2, z3


def _check_batch(p: ModelParams, X: np.ndarray, y: np.ndarray | None = None) -> None:
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != p.input_dim:
        raise ValueError(f"inputs must be [n, {p.input_dim}], got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("empty input batch")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input features")
    if y is not None:
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels must be [n], got shape {y.shape}")
        if y.min() < 0 or y.max() >= p.n_classes:
            raise ValueError(f"labels out of range [0, {p.n_classes})")


def loss_and_grads(p: ModelParams, X: np.ndarray, y: np.ndarray, mask: np.ndarray | float = 1.0):
    """Mean cross-entropy and its gradients w.r.t. every parameter.

    Returns (loss, grads) with grads keyed like the ModelParams fields.
    The analytic gradients are what `train` steps on; they are checked
    against central finite differences in the test suite.
    """
    _check_batch(p, X, y)
    n = X.shape[0]
    z1, a1d, z2, a2, z3 = _forward(p, X, mask)

    # log-sum-exp form keeps the loss finite for extreme logits
    zmax = z3.max(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.exp(z3 - zmax).sum(axis=1))
    loss = float(np.mean(logsumexp - z3[np.arange(n), y]))

    probs = _softmax(z3)
    dz3 = probs.copy()
    dz3[np.arange(n), y] -= 1.0
    dz3 /= n

    dw3 = a2.T @ dz3
    db3 = dz3.sum(axis=0)
    dz2 = (dz3 @ p.w3.T) * (z2 > 0)
    dw2 = a1d.T @ dz2
    db2 = dz2.sum(axis=0)
    dz1 = ((dz2 @ p.w2.T) * mask) * (z1 > 0)
    dw1 = X.T @ dz1
    db1 = dz1.sum(axis=0)

    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}
    return loss, grads


def train(p: ModelParams, X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> ModelParams:
    """Minibatch SGD for cfg.epochs passes; epochs=0 returns `p` unchanged."""
    _check_batch(p, X, y)
    if cfg.epochs == 0:
        return p
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    keep = 1.0 - p.dropout
    g = stream(cfg.seed)

    w = {k: getattr(p, k) for k in ("w1", "b1", "w2", "b2", "w3", "b3")}
    cur = p
    for _ in range(cfg.epochs):
        order = g.permutation(n)
        for start in range(0, n, cfg.minibatch):
            idx = order[start : start + cfg.minibatch]
            if p.dropout > 0.0:
                mask = (g.random((len(idx), cur.hidden)) < keep) / keep
            else:
                mask = 1.0
            _, grads = loss_and_grads(cur, X[idx], y[idx], mask)
            w = {k: w[k] - cfg.lr * grads[k] for k in w}
            cur = ModelParams(dropout=p.dropout, **w)
    return cur


def mc_predict(p: ModelParams, X: np.ndarray, mc: MCConfig) -> ProbabilityTensor:
    """Stacked stochastic softmax outputs, shape [n_passes, n, n_classes]."""
    _check_batch(p, X)
    n = X.shape[0]
    keep = 1.0 - p.dropout
    active = mc.dropout_active and p.dropout > 0.0
    passes = np.empty((mc.n_passes, n, p.n_classes))
    for k in range(mc.n_passes):
        if active:
            mask = (stream(mc.seed, NS_MC, k).random((n, p.hidden)) < keep) / keep
        else:
            mask = 1.0
        *_, z3 = _forward(p, X, mask)
        passes[k] = _softmax(z3)
    return ProbabilityTensor(passes)


def features(p: ModelParams, X: np.ndarray) -> np.ndarray:
    """Last hidden layer activations (dropout disabled), shape [n, hidden]."""
    _check_batch(p, X)
    *_, a2, _ = _forward(p, X, 1.0)
    return a2


def predict_proba(p: ModelParams, X: np.ndarray) -> np.ndarray:
    """Deterministic class probabilities (dropout disabled), shape [n, C]."""
    _check_batch(p, X)
    *_, z3 = _forward(p, X, 1.0)
    return _softmax(z3)


def accuracy(p: ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax predictions matching `y`."""
    _check_batch(p, X, y)
    return float(np.mean(predict_proba(p, X).argmax(axis=1) == np.asarray(y)))


def mean_cross_entropy(p: ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    """Mean CE of the deterministic forward pass against true labels."""
    loss, _ = loss_and_grads(p, X, y, 1.0)
    return loss
