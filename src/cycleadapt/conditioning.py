"""Conditioning of features on classifier predictions for the domain discriminator.

Two strategies, picked by output size: the exact flattened outer product of
feature and prediction vectors, or a randomized multilinear map that keeps
inner products in expectation when the exact product would be too wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import DimensionError, Tensor, matmul, mul, row_outer

DEFAULT_THRESHOLD = 4096
DEFAULT_RANDOMIZED_DIM = 1024


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

    @property
    def dim_f(self) -> int:
        return self.r_f.shape[-1]

    @property
    def dim_p(self) -> int:
        return self.r_p.shape[-1]


def build_randomized_maps(dim_f: int, dim_p: int, d: int, seed: int) -> RandomizedMaps:
    if min(dim_f, dim_p, d) < 1:
        raise ValueError("map dims must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r_f = rng.standard_normal((d, dim_f))
    r_p = rng.standard_normal((d, dim_p))
    return RandomizedMaps(r_f=r_f, r_p=r_p, seed=seed)


@dataclass(frozen=True)
class ConditioningPolicy:
    """Dispatch rule: exact outer product while dim_f*dim_p <= threshold,
    randomized map of width ``randomized_dim`` beyond it."""

    threshold: int = DEFAULT_THRESHOLD
    randomized_dim: int = DEFAULT_RANDOMIZED_DIM
    detach_predictions: bool = False


def uses_randomized(dim_f: int, dim_p: int, policy: ConditioningPolicy) -> bool:
    return dim_f * dim_p > policy.threshold


def conditioned_width(dim_f: int, dim_p: int, policy: ConditioningPolicy) -> int:
    if uses_randomized(dim_f, dim_p, policy):
        return policy.randomized_dim
    return dim_f * dim_p


def multilinear_condition(f: Tensor, p: Tensor) -> Tensor:
    """Row-wise flattened outer product of features and predictions.

    Callers are expected to pass probability rows for ``p``; the map itself
    is bilinear in both arguments and gradients flow into each.
    """
    if f.data.ndim < 2 or p.data.ndim < 2:
        raise DimensionError(
            f"multilinear_condition needs [..., batch, df] and [..., batch, dp], "
            f"got {f.shape} and {p.shape}"
        )
    return row_outer(f, p)


def randomized_condition(f: Tensor, p: Tensor, maps: RandomizedMaps) -> Tensor:
    """(1/sqrt(d)) * (f R_f^T) elementwise* (p R_p^T), row by row."""
    if f.data.ndim < 2 or p.data.ndim < 2:
        raise DimensionError(
            f"randomized_condition needs matrix inputs, got {f.shape} and {p.shape}"
        )
    if f.shape[-1] != maps.dim_f or p.shape[-1] != maps.dim_p:
        raise DimensionError(
            f"map dims ({maps.dim_f}, {maps.dim_p}) do not match "
            f"inputs ({f.shape[-1]}, {p.shape[-1]})"
        )
    proj_f = matmul(f, maps.r_f_t)
    proj_p = matmul(p, maps.r_p_t)
    return mul(mul(proj_f, proj_p), 1.0 / np.sqrt(maps.out_dim))


def condition(
    f: Tensor,
    p: Tensor,
    policy: ConditioningPolicy,
    maps: RandomizedMaps | None = None,
) -> Tensor:
    """Apply the policy's branch to a batch of (feature, prediction) rows."""
    if policy.detach_predictions:
        p = p.detach()
    if uses_randomized(f.shape[-1], p.shape[-1], policy):
        if maps is None:
            raise ValueError(
                "randomized conditioning selected but no RandomizedMaps supplied"
            )
        if maps.out_dim != policy.randomized_dim:
            raise DimensionError(
                f"maps width {maps.out_dim} != policy randomized_dim "
                f"{policy.randomized_dim}"
            )
        return randomized_condition(f, p, maps)
    return multilinear_condition(f, p)
