"""Conditioning of features on classifier predictions for the domain discriminator.

Two strategies, picked by output size: the exact flattened outer product of
feature and prediction vectors, or a randomized multilinear map that keeps
inner products in expectation when the exact product would be too wide.
``models.build_suite`` picks one per suite; a suite conditions randomly
exactly when it holds ``RandomizedMaps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, matmul, mul, row_outer


@dataclass(frozen=True)
class RandomizedMaps:
    """Fixed projection matrices for the randomized conditioning branch.

    Entries are standard normal, drawn once at construction and never
    touched by the optimizer. (seed, dims) fully determine the matrices,
    which is what checkpoints store. A stacked suite holds the maps of K
    replicas along a leading axis, with one seed per replica.
    """

    r_f: np.ndarray  # [d, dim_f], or [K, d, dim_f] stacked
    r_p: np.ndarray  # [d, dim_p], or [K, d, dim_p] stacked
    seed: int | tuple[int, ...]
    # the transposed maps wrapped as constants once, so that a forward pass
    # does not rescan them for non-finite values
    r_f_t: Tensor = field(init=False, repr=False, compare=False)
    r_p_t: Tensor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "r_f_t", Tensor(self.r_f.mT))
        object.__setattr__(self, "r_p_t", Tensor(self.r_p.mT))

    @property
    def out_dim(self) -> int:
        return self.r_f.shape[-2]


def build_randomized_maps(dim_f: int, dim_p: int, d: int, seed: int) -> RandomizedMaps:
    if min(dim_f, dim_p, d) < 1:
        raise ValueError("map dims must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r_f = rng.standard_normal((d, dim_f))
    r_p = rng.standard_normal((d, dim_p))
    return RandomizedMaps(r_f=r_f, r_p=r_p, seed=seed)


def uses_randomized(dim_f: int, dim_p: int, threshold: int) -> bool:
    """Exact outer product while dim_f*dim_p <= threshold, randomized beyond."""
    return dim_f * dim_p > threshold


def conditioned_width(dim_f: int, dim_p: int, threshold: int, randomized_dim: int) -> int:
    if uses_randomized(dim_f, dim_p, threshold):
        return randomized_dim
    return dim_f * dim_p


def randomized_condition(f: Tensor, p: Tensor, maps: RandomizedMaps) -> Tensor:
    """(1/sqrt(d)) * (f R_f^T) elementwise* (p R_p^T), row by row."""
    proj_f = matmul(f, maps.r_f_t)
    proj_p = matmul(p, maps.r_p_t)
    return mul(mul(proj_f, proj_p), 1.0 / np.sqrt(maps.out_dim))


def condition(f: Tensor, p: Tensor, maps: RandomizedMaps | None = None) -> Tensor:
    """Condition a batch of (feature, prediction) rows: the row-wise
    flattened outer product without ``maps``, the randomized map with them.
    The map is bilinear in both arguments and gradients flow into each."""
    if maps is None:
        return row_outer(f, p)
    return randomized_condition(f, p, maps)
