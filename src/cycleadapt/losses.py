"""The five loss terms and their assembly into one optimization scalar.

Every adversarial term is reported at its face value, the binary
log-likelihood the discriminator wants to drive up. To let a single
backward pass update both sides of each game, discriminator applications
are wrapped in a gradient-reversal sandwich::

    logits = reverse(disc.logits(reverse(x, coeff)), 1.0)

Forward, both reversals are the identity, so loss values and their
additivity identities are untouched. Backward, the outer reversal flips
the gradient reaching the discriminator's parameters (plain descent then
*ascends* the log-likelihood), while the double flip on the input path
hands the feature side its true descent gradient scaled by ``coeff``.
Setting ``coeff`` to zero starves the feature side while the
discriminator keeps training.

``rig_minimax=False`` builds the same values without any reversal nodes;
that variant is a plain differentiable function of the parameters, which
is what finite-difference checking needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    LOG_FLOOR,
    Tensor,
    add,
    exp,
    gather_rows,
    grad_reversal,
    mean_log_sigmoid,
    mul,
    sub,
)
from .models import ModelSuite
from .nn import Mlp

ABLATION_MODES = ("S0", "S1", "S2", "S3", "S4")


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights on the loss terms; all must be nonnegative.

    Defaults: lam 1.0, beta 1.0, eta1 0.01, eta2 0.1.
    """

    lam: float = 1.0
    beta: float = 1.0
    eta1: float = 0.01
    eta2: float = 0.1

    def __post_init__(self):
        for name in ("lam", "beta", "eta1", "eta2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"loss weight {name} must be nonnegative")

    @property
    def needs_target(self) -> bool:
        """Whether any active term reads a target batch."""
        return self.lam > 0.0 or self.eta1 > 0.0 or self.eta2 > 0.0


@dataclass(frozen=True)
class LossBreakdown:
    l_cls: float
    l_dom: float
    l_con: float
    l_s2t: float
    l_t2s: float
    l_cyc: float
    l_total: float


def resolve_weights(mode: str, w: LossWeights) -> LossWeights:
    """Zero out the weights a ladder mode disables.

    S0 classification only; S1 adds the conditional domain-adversarial
    term; S2 adds the translation terms; S3 is the full model; S4 is the
    full model minus the conditional domain-adversarial term.
    """
    if mode == "S0":
        return LossWeights(lam=0.0, beta=w.beta, eta1=0.0, eta2=0.0)
    if mode == "S1":
        return LossWeights(lam=w.lam, beta=w.beta, eta1=0.0, eta2=0.0)
    if mode == "S2":
        return LossWeights(lam=w.lam, beta=w.beta, eta1=w.eta1, eta2=0.0)
    if mode == "S3":
        return w
    if mode == "S4":
        return LossWeights(lam=0.0, beta=w.beta, eta1=w.eta1, eta2=w.eta2)
    raise ValueError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")


def cross_entropy(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class."""
    picked = gather_rows(log_probs, np.asarray(labels))
    return mul(picked.mean(axis=-1), -1.0)


def _rigged_logits(disc: Mlp, x: Tensor, grl_coeff: float, rig: bool) -> Tensor:
    if not rig:
        return disc.forward_logits(x)
    return grad_reversal(disc.forward_logits(grad_reversal(x, grl_coeff)), 1.0)


def adversarial_pair(
    disc: Mlp, x_real: Tensor, x_fake: Tensor, grl_coeff: float, rig: bool
) -> Tensor:
    """E[log D(real)] + E[log(1 - D(fake))], one mean per batch.

    log D is computed stably from the logits and floored at LOG_FLOOR, so
    the loss stays finite however confident the discriminator gets.
    """
    real = mean_log_sigmoid(_rigged_logits(disc, x_real, grl_coeff, rig), LOG_FLOOR)
    fake = mean_log_sigmoid(
        _rigged_logits(disc, x_fake, grl_coeff, rig), LOG_FLOOR, negate=True
    )
    return add(real, fake)


def domain_adversarial_loss(
    suite: ModelSuite,
    f_s: Tensor,
    p_s: Tensor,
    f_t: Tensor,
    p_t: Tensor,
    grl_coeff: float = 1.0,
    rig_minimax: bool = True,
) -> Tensor:
    """Domain discriminator log-likelihood on conditioned features.

    Value: E[log D_d(c_s)] + E[log(1 - D_d(c_t))] with c = condition(f, p).
    Rigged, one descent step pushes the discriminator up this value and
    the feature/predictor side down it.
    """
    c_s = suite.condition(f_s, p_s)
    c_t = suite.condition(f_t, p_t)
    return adversarial_pair(suite.domain_disc, c_s, c_t, grl_coeff, rig_minimax)


def translation_loss_s2t(
    suite: ModelSuite,
    f_s: Tensor,
    y_s: np.ndarray,
    f_t: Tensor,
    weights: LossWeights,
    grl_coeff: float = 1.0,
    rig_minimax: bool = True,
) -> Tensor:
    """Source-to-target translation game plus semantic consistency.

    E[log D_t(f_t)] + E[log(1 - D_t(s2t(f_s)))] plus beta times the
    cross-entropy of the predictor on translated features against the
    source labels (the translation must not change class identity). The
    cross-entropy path carries no reversal: predictor and translator
    descend it directly.
    """
    f_fake = suite.s2t(f_s)
    adv = adversarial_pair(suite.target_disc, f_t, f_fake, grl_coeff, rig_minimax)
    if weights.beta == 0.0:
        return adv
    ce = cross_entropy(suite.log_probs(f_fake), y_s)
    return add(adv, mul(ce, weights.beta))


def translation_loss_t2s(
    suite: ModelSuite,
    f_s: Tensor,
    f_t: Tensor,
    grl_coeff: float = 1.0,
    rig_minimax: bool = True,
) -> Tensor:
    """Target-to-source translation game; no label term, target labels
    do not exist at training time."""
    f_fake = suite.t2s(f_t)
    return adversarial_pair(suite.source_disc, f_s, f_fake, grl_coeff, rig_minimax)


def _mean_row_sq_norm(d: Tensor) -> Tensor:
    n = d.shape[-2]
    return mul(mul(d, d).sum(axis=(-2, -1)), 1.0 / n)


def cycle_loss(suite: ModelSuite, f_s: Tensor, f_t: Tensor) -> Tensor:
    """Round-trip reconstruction error through both translators:
    E[||t2s(s2t(f_s)) - f_s||^2] + E[||s2t(t2s(f_t)) - f_t||^2].

    Only the translators minimize this term, so features enter it
    detached. Letting the feature learner descend it too opens a cheat:
    features drift toward the translators' fixed points, which keeps
    source accuracy but destroys target alignment.
    """
    f_s = f_s.detach()
    f_t = f_t.detach()
    back_s = suite.t2s(suite.s2t(f_s))
    back_t = suite.s2t(suite.t2s(f_t))
    return add(_mean_row_sq_norm(sub(back_s, f_s)), _mean_row_sq_norm(sub(back_t, f_t)))


def total_loss(
    suite: ModelSuite,
    batch_s: tuple[Tensor, np.ndarray],
    batch_t: Tensor | None,
    weights: LossWeights,
    grl_coeff: float = 1.0,
    rig_minimax: bool = True,
) -> tuple[Tensor, LossBreakdown | list[LossBreakdown]]:
    """One optimization scalar for the whole model, plus its breakdown.

    total = l_con + eta1*(l_s2t + l_t2s) + eta2*l_cyc, with
    l_con = l_cls + lam*l_dom. Terms whose weight is zero are skipped
    entirely (reported as 0.0), so a classification-only configuration
    never routes target data through the graph.

    Batches stacked along a leading replica axis (x[K, n, in], labels
    [K, n]) for a stacked suite give one total per replica, a [K] tensor,
    and a list of K breakdowns.
    """
    x_s, y_s = batch_s
    f_s = suite.features(x_s)
    log_p_s = suite.log_probs(f_s)
    l_cls = cross_entropy(log_p_s, y_s)

    f_t = None
    if weights.needs_target:
        if batch_t is None:
            raise ValueError("active loss weights need a target batch")
        f_t = suite.features(batch_t)

    total = l_cls
    l_dom = l_s2t = l_t2s = l_cyc = None

    if weights.lam > 0.0:
        p_s = exp(log_p_s)
        p_t = exp(suite.log_probs(f_t))
        l_dom = domain_adversarial_loss(
            suite, f_s, p_s, f_t, p_t, grl_coeff, rig_minimax
        )
        total = add(total, mul(l_dom, weights.lam))
    l_con = total

    if weights.eta1 > 0.0:
        l_s2t = translation_loss_s2t(
            suite, f_s, y_s, f_t, weights, grl_coeff, rig_minimax
        )
        l_t2s = translation_loss_t2s(suite, f_s, f_t, grl_coeff, rig_minimax)
        total = add(total, mul(add(l_s2t, l_t2s), weights.eta1))

    if weights.eta2 > 0.0:
        l_cyc = cycle_loss(suite, f_s, f_t)
        total = add(total, mul(l_cyc, weights.eta2))

    terms = (l_cls, l_dom, l_con, l_s2t, l_t2s, l_cyc, total)
    if total.data.ndim == 0:
        return total, LossBreakdown(*(0.0 if t is None else t.item() for t in terms))
    skipped = [0.0] * total.shape[0]
    columns = [skipped if t is None else t.data.tolist() for t in terms]
    return total, [LossBreakdown(*row) for row in zip(*columns)]
