"""Finite-difference verification of every differentiable op and loss.

Each component builds a small scalar function and compares its analytic
gradients against central differences. Loss components run on a reduced
architecture with tanh hidden activations (smooth, so the difference
quotient is well behaved) and the reference loss weights. The ``mlp``
component checks the fused network node with each hidden activation,
relu included.

Adversarial losses are checked in their plain (non-rigged) form, which
computes identical values; the ``minimax_rig`` component then verifies
the reversal wiring directly: rigging must leave feature-side gradients
untouched and exactly negate discriminator-side gradients. The
``grad_reversal`` op cannot be finite-difference checked by construction
(its backward deliberately disagrees with its forward), so its component
asserts the defining law instead.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    LOG_FLOOR,
    GradCheckReport,
    Tensor,
    add,
    exp,
    finite_diff_check,
    grad_reversal,
    log_softmax,
    matmul,
    mean_log_sigmoid,
    mlp,
    mul,
    no_grad,
    row_outer,
    sub,
)
from .conditioning import build_randomized_maps, condition
from .losses import (
    LossWeights,
    cross_entropy,
    cycle_loss,
    domain_adversarial_loss,
    total_loss,
    translation_loss_s2t,
    translation_loss_t2s,
)
from .models import NETWORK_ORDER, ArchConfig, ModelSuite, build_suite


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, salt)))


def _t(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _check_matmul(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 1)
    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    return finite_diff_check(
        lambda: mul(matmul(a, b), matmul(a, b)).sum(), [a, b], eps, tol, ["a", "b"]
    )


def _check_elementwise(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 2)
    a, b = _t(rng, 5), _t(rng, 5)

    def fn():
        s = add(mul(add(a, b), sub(a, b)), mul(a, b))
        return mul(s, s).sum()

    return finite_diff_check(fn, [a, b], eps, tol, ["a", "b"])


def _check_mlp(seed: int, eps: float, tol: float) -> GradCheckReport:
    """The fused network node with each hidden activation. The relu
    network is drawn last, so the draws of the others do not depend on it;
    a probe of +/- eps crosses one of its kinks only when a hidden unit
    sits within eps of zero."""
    rng = _rng(seed, 16)
    x = _t(rng, 4, 3)

    def net():
        return [_t(rng, 5, 3), _t(rng, 5), _t(rng, 4, 5), _t(rng, 4), _t(rng, 2, 4), _t(rng, 2)]

    nets = {kind: net() for kind in ("tanh", "sigmoid")}
    w = Tensor(rng.standard_normal((4, 2)))
    nets["relu"] = net()

    def fn():
        outs = [mul(mlp(x, params, kind), w).sum() for kind, params in nets.items()]
        return add(add(outs[0], outs[1]), outs[2])

    params = [x, *(p for params in nets.values() for p in params)]
    names = ["x"] + [f"{kind}.{i}" for kind in nets for i in range(6)]
    return finite_diff_check(fn, params, eps, tol, names)


def _check_log_softmax(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 5)
    x = _t(rng, 4, 5)
    w = Tensor(rng.standard_normal((4, 5)))
    return finite_diff_check(lambda: mul(log_softmax(x), w).sum(), [x], eps, tol, ["x"])


def _check_exp(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 7)
    x = _t(rng, 5)
    return finite_diff_check(lambda: mul(exp(x), exp(mul(x, -0.5))).sum(), [x], eps, tol, ["x"])


def _check_discriminator_head(seed: int, eps: float, tol: float) -> GradCheckReport:
    """The fused head on both sides of a game, with logits spread wide
    enough that some land past the log floor (zero gradient there)."""
    rng = _rng(seed, 17)
    x = Tensor(rng.standard_normal((8, 1)) * 4.0, requires_grad=True)
    x.data[0, 0], x.data[1, 0] = -40.0, 40.0

    def fn():
        return add(mean_log_sigmoid(x, LOG_FLOOR), mean_log_sigmoid(x, LOG_FLOOR, negate=True))

    return finite_diff_check(fn, [x], eps, tol, ["x"])


def _check_row_outer(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 10)
    f, p = _t(rng, 3, 4), _t(rng, 3, 2)
    w = Tensor(rng.standard_normal((3, 8)))
    return finite_diff_check(
        lambda: mul(row_outer(f, p), w).sum(), [f, p], eps, tol, ["f", "p"]
    )


def _check_cross_entropy(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 11)
    logits = _t(rng, 6, 4)
    labels = rng.integers(0, 4, size=6)
    return finite_diff_check(
        lambda: cross_entropy(log_softmax(logits), labels), [logits], eps, tol, ["logits"]
    )


def _check_conditioning_exact(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 12)
    f, p = _t(rng, 3, 5), _t(rng, 3, 3)
    w = Tensor(rng.standard_normal((3, 15)))
    return finite_diff_check(
        lambda: mul(condition(f, p), w).sum(), [f, p], eps, tol, ["f", "p"]
    )


def _check_conditioning_randomized(seed: int, eps: float, tol: float) -> GradCheckReport:
    rng = _rng(seed, 13)
    f, p = _t(rng, 3, 5), _t(rng, 3, 3)
    maps = build_randomized_maps(5, 3, 16, seed=seed + 99)
    w = Tensor(rng.standard_normal((3, 16)))
    return finite_diff_check(
        lambda: mul(condition(f, p, maps), w).sum(), [f, p], eps, tol, ["f", "p"]
    )


def _check_grad_reversal(seed: int, eps: float, tol: float) -> GradCheckReport:
    """Defining law, not a finite-difference check: forward is bitwise
    identity and the backward gradient is -coeff times the unreversed one."""
    rng = _rng(seed, 14)
    report = GradCheckReport(eps=eps, tol=tol)
    for coeff in (0.0, 0.5, 1.0):
        x = _t(rng, 6)
        y = grad_reversal(x, coeff)
        if not np.array_equal(y.data, x.data):
            report.failure = f"forward not identity at coeff={coeff}"
            return report
        mul(y, y).sum().backward()
        reversed_grad = x.grad.copy()
        x.zero_grad()
        mul(x, x).sum().backward()
        plain_grad = x.grad.copy()
        err = float(np.abs(reversed_grad - (-coeff) * plain_grad).max())
        report.entries.append((f"coeff={coeff}", err))
    return report


_SMALL_ARCH = ArchConfig(
    input_dim=3,
    num_classes=3,
    feature_dim=5,
    feature_hidden=6,
    domain_disc_hidden=6,
    translator_hidden=5,
    sample_disc_hidden=5,
    hidden_activation="tanh",
)

_REFERENCE_WEIGHTS = LossWeights()  # lam 1, beta 1, eta1 0.01, eta2 0.1


def _small_suite(seed: int) -> tuple[ModelSuite, Tensor, np.ndarray, Tensor]:
    from dataclasses import replace

    suite = build_suite(replace(_SMALL_ARCH, seed=seed))
    rng = _rng(seed, 15)
    x_s = Tensor(rng.standard_normal((4, 3)))
    y_s = rng.integers(0, 3, size=4)
    x_t = Tensor(rng.standard_normal((4, 3)))
    return suite, x_s, y_s, x_t


def _suite_param_names(suite: ModelSuite) -> list[str]:
    names = []
    for net_name in NETWORK_ORDER:
        for i in range(len(getattr(suite, net_name).layers)):
            names.append(f"{net_name}.{i}.weight")
            names.append(f"{net_name}.{i}.bias")
    return names


def _check_loss(
    seed: int, eps: float, tol: float, term: str
) -> GradCheckReport:
    suite, x_s, y_s, x_t = _small_suite(seed)
    params = suite.parameters()
    names = _suite_param_names(suite)

    def fn() -> Tensor:
        f_s = suite.features(x_s)
        f_t = suite.features(x_t)
        if term == "classification":
            return cross_entropy(suite.log_probs(f_s), y_s)
        if term == "domain":
            p_s = exp(suite.log_probs(f_s))
            p_t = exp(suite.log_probs(f_t))
            return domain_adversarial_loss(
                suite, f_s, p_s, f_t, p_t, rig_minimax=False
            )
        if term == "s2t":
            return translation_loss_s2t(
                suite, f_s, y_s, f_t, _REFERENCE_WEIGHTS, rig_minimax=False
            )
        if term == "t2s":
            return translation_loss_t2s(suite, f_s, f_t, rig_minimax=False)
        raise ValueError(term)

    return finite_diff_check(fn, params, eps, tol, names)


def _frozen_features(suite: ModelSuite, x_s: Tensor, x_t: Tensor) -> tuple[Tensor, Tensor]:
    # the cycle term stops gradients at the features, so its finite-difference
    # function must hold them fixed; the live graph is identical at the base point
    with no_grad():
        return Tensor(suite.features(x_s).data), Tensor(suite.features(x_t).data)


def _check_cycle(seed: int, eps: float, tol: float) -> GradCheckReport:
    suite, x_s, _, x_t = _small_suite(seed)
    f_s0, f_t0 = _frozen_features(suite, x_s, x_t)
    params = suite.parameters()
    names = _suite_param_names(suite)
    return finite_diff_check(
        lambda: cycle_loss(suite, f_s0, f_t0), params, eps, tol, names
    )


def _check_total(seed: int, eps: float, tol: float) -> GradCheckReport:
    suite, x_s, y_s, x_t = _small_suite(seed)
    params = suite.parameters()
    names = _suite_param_names(suite)
    f_s0, f_t0 = _frozen_features(suite, x_s, x_t)
    w = _REFERENCE_WEIGHTS

    def fn() -> Tensor:
        f_s = suite.features(x_s)
        f_t = suite.features(x_t)
        p_s = exp(suite.log_probs(f_s))
        p_t = exp(suite.log_probs(f_t))
        total = cross_entropy(suite.log_probs(f_s), y_s)
        total = add(
            total,
            mul(domain_adversarial_loss(suite, f_s, p_s, f_t, p_t, rig_minimax=False), w.lam),
        )
        pair = add(
            translation_loss_s2t(suite, f_s, y_s, f_t, w, rig_minimax=False),
            translation_loss_t2s(suite, f_s, f_t, rig_minimax=False),
        )
        total = add(total, mul(pair, w.eta1))
        return add(total, mul(cycle_loss(suite, f_s0, f_t0), w.eta2))

    # guard against drift between this composition and the production one
    reference, _ = total_loss(suite, (x_s, y_s), x_t, w, rig_minimax=False)
    composed = fn()
    if abs(reference.item() - composed.item()) > 1e-12 * max(1.0, abs(reference.item())):
        report = GradCheckReport(eps=eps, tol=tol)
        report.failure = (
            f"composed total {composed.item()} != production total {reference.item()}"
        )
        return report
    for p in params:
        p.zero_grad()
    return finite_diff_check(fn, params, eps, tol, names)


def _check_minimax_rig(seed: int, eps: float, tol: float) -> GradCheckReport:
    """Rigged vs plain gradients: identical for feature/predictor/translator
    parameters, exactly negated for discriminator parameters."""
    suite, x_s, y_s, x_t = _small_suite(seed)
    report = GradCheckReport(eps=eps, tol=tol)

    def grads(rig: bool) -> dict[str, np.ndarray]:
        for p in suite.parameters():
            p.zero_grad()
        total, _ = total_loss(suite, (x_s, y_s), x_t, _REFERENCE_WEIGHTS, rig_minimax=rig)
        total.backward()
        out = {}
        for net_name in NETWORK_ORDER:
            for i, p in enumerate(getattr(suite, net_name).parameters()):
                out[f"{net_name}.{i}"] = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        return out

    rigged = grads(True)
    plain = grads(False)
    disc_nets = ("domain_disc", "source_disc", "target_disc")
    for key in rigged:
        expected = -plain[key] if key.startswith(disc_nets) else plain[key]
        denom = max(float(np.abs(expected).max()), 1e-8)
        err = float(np.abs(rigged[key] - expected).max()) / denom
        report.entries.append((key, err))
    return report


COMPONENTS = {
    "matmul": _check_matmul,
    "elementwise": _check_elementwise,
    "mlp": _check_mlp,
    "log_softmax": _check_log_softmax,
    "exp": _check_exp,
    "discriminator_head": _check_discriminator_head,
    "row_outer": _check_row_outer,
    "cross_entropy": _check_cross_entropy,
    "conditioning_exact": _check_conditioning_exact,
    "conditioning_randomized": _check_conditioning_randomized,
    "grad_reversal": _check_grad_reversal,
    "classification": lambda s, e, t: _check_loss(s, e, t, "classification"),
    "domain": lambda s, e, t: _check_loss(s, e, t, "domain"),
    "s2t": lambda s, e, t: _check_loss(s, e, t, "s2t"),
    "t2s": lambda s, e, t: _check_loss(s, e, t, "t2s"),
    "cycle": _check_cycle,
    "total": _check_total,
    "minimax_rig": _check_minimax_rig,
}


def run_components(
    names, tol: float = 1e-4, eps: float = 1e-5, seed: int = 0
) -> list[tuple[str, GradCheckReport]]:
    return [(name, COMPONENTS[name](seed, eps, tol)) for name in names]
