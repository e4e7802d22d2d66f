"""Construction and wiring of the seven-network adaptation suite.

The suite holds a feature learner, a class predictor, a domain
discriminator over conditioned features, two feature translators (one per
direction), and one sample discriminator per domain. Translators map the
feature space onto itself so the round-trip composition is well typed.
``ArchConfig.layer_dims`` declares every network's layer widths. Each
network returns its last layer's raw output; the one head the model
applies, the predictor's log-softmax, is ``ModelSuite.log_probs``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .autodiff import ACTIVATIONS, DimensionError, Tensor, check_finite, exp, log_softmax
from .conditioning import (
    RandomizedMaps,
    build_randomized_maps,
    condition,
    conditioned_width,
    uses_randomized,
)
from .nn import LinearLayer, Mlp, make_mlp

NETWORK_ORDER = (
    "features",
    "predictor",
    "domain_disc",
    "s2t",
    "t2s",
    "source_disc",
    "target_disc",
)

# the widest exact conditioning a threshold may allow (4M columns)
MAX_COND_THRESHOLD = 1 << 22


@dataclass(frozen=True)
class ArchConfig:
    input_dim: int
    num_classes: int
    feature_dim: int = 16
    feature_hidden: int = 64
    domain_disc_hidden: int = 64
    translator_hidden: int = 32
    sample_disc_hidden: int = 32
    hidden_activation: str = "relu"
    cond_threshold: int = 4096
    cond_randomized_dim: int = 1024
    detach_predictions: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        dims = (
            self.input_dim,
            self.feature_dim,
            self.feature_hidden,
            self.domain_disc_hidden,
            self.translator_hidden,
            self.sample_disc_hidden,
            self.cond_randomized_dim,
        )
        if min(dims) < 1:
            raise ValueError(f"all dims must be >= 1, got {dims}")
        if self.hidden_activation not in ACTIVATIONS:
            raise ValueError(
                f"hidden_activation must be one of {tuple(ACTIVATIONS)}, "
                f"got {self.hidden_activation!r}"
            )
        if not 1 <= self.cond_threshold <= MAX_COND_THRESHOLD:
            raise ValueError(
                f"cond_threshold must be in [1, {MAX_COND_THRESHOLD}], "
                f"got {self.cond_threshold}"
            )

    def domain_disc_in_dim(self) -> int:
        return conditioned_width(
            self.feature_dim, self.num_classes, self.cond_threshold, self.cond_randomized_dim
        )

    def layer_dims(self) -> dict[str, tuple[int, ...]]:
        """Each network's chain of widths (in, hidden..., out), keyed in
        NETWORK_ORDER."""
        f, fh, dh = self.feature_dim, self.feature_hidden, self.domain_disc_hidden
        th, sh = self.translator_hidden, self.sample_disc_hidden
        return {
            "features": (self.input_dim, fh, fh, f),
            "predictor": (f, self.num_classes),
            "domain_disc": (self.domain_disc_in_dim(), dh, dh, 1),
            "s2t": (f, th, th, th, f),
            "t2s": (f, th, th, th, f),
            "source_disc": (f, sh, sh, 1),
            "target_disc": (f, sh, sh, 1),
        }


@dataclass
class ModelSuite:
    features: Mlp  # input -> feature space
    predictor: Mlp  # feature -> class logits (see log_probs)
    domain_disc: Mlp  # conditioned feature -> domain logit
    s2t: Mlp  # source-style feature -> target-style feature
    t2s: Mlp
    source_disc: Mlp  # feature -> "is a real source feature" logit
    target_disc: Mlp
    maps: RandomizedMaps | None
    arch: ArchConfig
    # a stacked suite's per-seed suites (see build_suite); empty otherwise
    replicas: tuple["ModelSuite", ...] = ()

    def parameters(self) -> list[Tensor]:
        # fixed network order; randomized maps are deliberately excluded
        out: list[Tensor] = []
        for name in NETWORK_ORDER:
            out.extend(getattr(self, name).parameters())
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def log_probs(self, f: Tensor) -> Tensor:
        """Class log-probabilities of features f: the predictor's
        log-softmax head."""
        return log_softmax(self.predictor(f))

    def condition(self, f: Tensor, p: Tensor) -> Tensor:
        if self.arch.detach_predictions:
            p = p.detach()
        return condition(f, p, self.maps)

    def replica_views(self) -> tuple["ModelSuite", ...]:
        """The per-seed suites of a stacked suite, each parameter pointed
        at its replica's slice of the stacked one. An optimizer rebinds the
        parameters it owns, so take the views after building it."""
        params = self.parameters()
        for k, member in enumerate(self.replicas):
            for stacked, p in zip(params, member.parameters()):
                p.data = stacked.data[k]
        return self.replicas


def build_suite(
    cfg: ArchConfig, seeds: Sequence[int] | None = None, *, draw: bool = True
) -> ModelSuite:
    """Initialize all seven networks deterministically from cfg.seed.

    Each network gets its own spawned RNG stream, so changing one width
    leaves the other networks' draws untouched. The conditioning branch
    is fixed here: the suite holds randomized maps, and ``condition`` uses
    them, exactly when ``feature_dim * num_classes`` exceeds
    ``cfg.cond_threshold``. With ``seeds``, the suites
    of ``cfg`` under each seed are drawn as usual and stacked: every
    parameter and randomized map gains a leading replica axis, and
    ``replicas`` keeps the per-seed suites (see ``replica_views``).

    With ``draw=False`` the weights are zeros instead of draws, for a
    caller that fills them (``load_checkpoint``); the randomized maps,
    which no checkpoint stores, are drawn all the same.
    """
    if seeds is not None:
        members = [build_suite(replace(cfg, seed=s), draw=draw) for s in seeds]
        return _stack_suites(members, cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(NETWORK_ORDER) + 1)
    dims = cfg.layer_dims()
    nets = {
        name: make_mlp(
            dims[name], np.random.default_rng(s) if draw else None, cfg.hidden_activation
        )
        for name, s in zip(NETWORK_ORDER, streams)
    }
    maps = None
    if uses_randomized(cfg.feature_dim, cfg.num_classes, cfg.cond_threshold):
        maps_seed = int(streams[-1].generate_state(1)[0])
        maps = build_randomized_maps(
            cfg.feature_dim, cfg.num_classes, cfg.cond_randomized_dim, maps_seed
        )
    return ModelSuite(**nets, maps=maps, arch=cfg)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    # a group of one stacks as a view of its member's array: copies made
    # and freed while building left heap holes that raised the peak RSS of
    # a wide single run
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _stack_suites(members: list[ModelSuite], cfg: ArchConfig) -> ModelSuite:
    def stack(arrays) -> Tensor:
        return Tensor(_stack(arrays), requires_grad=True)

    nets = {}
    for name in NETWORK_ORDER:
        per_seed = [getattr(m, name) for m in members]
        layers = [
            LinearLayer(stack([l.weight.data for l in ls]), stack([l.bias.data for l in ls]))
            for ls in zip(*(net.layers for net in per_seed))
        ]
        nets[name] = Mlp(layers, cfg.hidden_activation)
    maps = None
    if members[0].maps is not None:
        maps = RandomizedMaps(
            r_f=_stack([m.maps.r_f for m in members]),
            r_p=_stack([m.maps.r_p for m in members]),
            seed=tuple(m.maps.seed for m in members),
        )
        # each member keeps a slice of the stacked maps, not a second copy
        for k, m in enumerate(members):
            m.maps = replace(m.maps, r_f=maps.r_f[k], r_p=maps.r_p[k])
    return ModelSuite(**nets, maps=maps, arch=cfg, replicas=tuple(members))


def predict(suite: ModelSuite, x: Tensor) -> tuple[Tensor, Tensor]:
    """Feature and class-probability batch for inputs x.

    Probability rows are exp of ``suite.log_probs``, so they sum to one
    up to rounding. The logits and the log-probabilities are checked once
    each, whether or not the per-op checks are on, so a non-finite
    prediction raises NonFiniteError even inside ``unchecked``; a check of
    the probabilities alone would pass a -inf logit as 0.
    """
    if x.data.ndim != 2 or x.shape[1] != suite.arch.input_dim:
        raise DimensionError(
            f"predict expects [batch, {suite.arch.input_dim}], got {x.shape}"
        )
    f = suite.features(x)
    # the head of ModelSuite.log_probs, with its logits kept for the check
    logits = suite.predictor(f)
    log_p = log_softmax(logits)
    check_finite(logits.data, "linear")
    check_finite(log_p.data, "log_softmax")
    return f, exp(log_p)
