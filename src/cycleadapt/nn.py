"""Fully-connected layers, initialization, and SGD with momentum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import DimensionError, NonFiniteError, Tensor, mlp


@dataclass
class LinearLayer:
    weight: Tensor  # [out_dim, in_dim], or [K, out_dim, in_dim] for K replicas
    bias: Tensor  # [out_dim], or [K, out_dim]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]


def init_linear(
    in_dim: int, out_dim: int, scheme: str, rng: np.random.Generator | None
) -> LinearLayer:
    """Uniform fan-based init; bias starts at zero.

    glorot_uniform: bound = sqrt(6 / (in + out)); he_uniform: sqrt(6 / in).
    With ``rng`` None the weight starts at zero too, for a caller that
    fills it.
    """
    if in_dim < 1 or out_dim < 1:
        raise ValueError(f"layer dims must be >= 1, got ({in_dim}, {out_dim})")
    if scheme == "glorot_uniform":
        bound = np.sqrt(6.0 / (in_dim + out_dim))
    elif scheme == "he_uniform":
        bound = np.sqrt(6.0 / in_dim)
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    shape = (out_dim, in_dim)
    w = np.zeros(shape) if rng is None else rng.uniform(-bound, bound, size=shape)
    layer = LinearLayer(
        weight=Tensor(w, requires_grad=True),
        bias=Tensor(np.zeros(out_dim), requires_grad=True),
    )
    return layer


@dataclass
class Mlp:
    """A stack of linear layers with a shared hidden activation and no
    output head: calling it returns the last layer's raw output (logits)."""

    layers: list[LinearLayer]
    hidden_activation: str = "relu"

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward_logits(self, x: Tensor) -> Tensor:
        """The layers and hidden activations as one fused graph node."""
        if not self.layers:
            return x
        return mlp(x, self.parameters(), self.hidden_activation)

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward_logits(x)

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


def make_mlp(
    dims: Sequence[int],
    rng: np.random.Generator | None,
    hidden_activation: str = "relu",
) -> Mlp:
    """Build an MLP from a dim chain like (in, h1, ..., out), initialized
    he_uniform for relu nets and glorot_uniform otherwise."""
    if len(dims) < 2:
        raise ValueError("make_mlp needs at least (in, out) dims")
    scheme = "he_uniform" if hidden_activation == "relu" else "glorot_uniform"
    layers = [
        init_linear(i, o, scheme, rng) for i, o in zip(dims[:-1], dims[1:])
    ]
    return Mlp(layers, hidden_activation)


def _runs(grads: list) -> list[tuple[int, int, bool]]:
    """Maximal runs [start, stop) of parameters that all have, or all lack,
    a gradient."""
    runs = []
    start = 0
    for i in range(1, len(grads) + 1):
        if i == len(grads) or (grads[i] is None) != (grads[start] is None):
            runs.append((start, i, grads[start] is not None))
            start = i
    return runs


def check_sgd_hparams(lr: float, momentum: float, weight_decay: float) -> None:
    """Raise ValueError unless lr >= 0, 0 <= momentum < 1 and weight_decay >= 0."""
    if not lr >= 0.0:
        raise ValueError(f"lr must be nonnegative, got {lr}")
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if not weight_decay >= 0.0:
        raise ValueError(f"weight_decay must be nonnegative, got {weight_decay}")


class Sgd:
    """Mini-batch SGD: v <- m*v + grad + wd*param; param <- param - lr*v.

    Every parameter's ``data`` becomes a view into one flat float64 buffer
    (so parameters must be updated in place, not rebound, while the
    optimizer owns them), and the velocity is one flat buffer beside it.
    ``step`` checks the whole gradient for finiteness once, before any
    parameter moves, then updates each contiguous run of parameters that
    has a gradient with a few whole-run numpy calls; runs without a
    gradient only decay their velocity. It clears the gradients it
    consumed.
    """

    def __init__(self, params: Sequence[Tensor], lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        check_sgd_hparams(lr, momentum, weight_decay)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.params = list(params)
        self.offsets = [0]
        for p in self.params:
            self.offsets.append(self.offsets[-1] + p.size)
        self.flat = np.zeros(self.offsets[-1])
        for p, a, b in zip(self.params, self.offsets, self.offsets[1:]):
            self.flat[a:b] = p.data.reshape(-1)
            p.data = self.flat[a:b].reshape(p.shape)
        self.velocity = np.zeros_like(self.flat)
        self._grad = np.zeros_like(self.flat)
        self._tmp = np.empty_like(self.flat)
        self._mask = np.empty(self.flat.shape, dtype=bool)

    def step(self) -> None:
        grads = [p.grad for p in self.params]
        runs = [
            (self.offsets[a], self.offsets[b], grads[a:b] if has_grad else None)
            for a, b, has_grad in _runs(grads)
        ]
        # gather before any update so that a non-finite gradient moves nothing
        for lo, hi, run_grads in runs:
            if run_grads is not None:
                np.concatenate([g.reshape(-1) for g in run_grads], out=self._grad[lo:hi])
        finite = np.isfinite(self._grad, out=self._mask)
        for lo, hi, run_grads in runs:
            if run_grads is not None and not finite[lo:hi].all():
                bad = lo + int(np.argmin(finite[lo:hi]))
                i = int(np.searchsorted(self.offsets, bad, side="right")) - 1
                raise NonFiniteError("sgd_step", f"gradient of parameter {i}")
        # v = m*v + g + wd*p; p -= lr*v, in place through one scratch buffer
        for lo, hi, run_grads in runs:
            v = self.velocity[lo:hi]
            v *= self.momentum
            if run_grads is None:
                continue
            p, tmp = self.flat[lo:hi], self._tmp[lo:hi]
            v += self._grad[lo:hi]
            v += np.multiply(p, self.weight_decay, out=tmp)
            p -= np.multiply(v, self.lr, out=tmp)
        for p in self.params:
            p.grad = None
