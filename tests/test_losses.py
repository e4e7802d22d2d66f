import math

import numpy as np
import pytest

from cycleadapt import autodiff
from cycleadapt.autodiff import Tensor, log_softmax
from cycleadapt.gradcheck import run_components
from cycleadapt.losses import (
    LossWeights,
    adversarial_pair,
    cross_entropy,
    cycle_loss,
    domain_adversarial_loss,
    resolve_weights,
    total_loss,
    translation_loss_s2t,
    translation_loss_t2s,
)
from cycleadapt.models import build_suite, predict
from cycleadapt.nn import LinearLayer, Mlp

from conftest import SMALL_ARCH

LOG_HALF2 = 2.0 * math.log(0.5)  # -1.3862943611...


def zero_mlp(mlp):
    for p in mlp.parameters():
        p.data = np.zeros_like(p.data)


def identity_translator(dim, shift=0.0):
    layer = LinearLayer(
        Tensor(np.eye(dim), requires_grad=True),
        Tensor(np.full(dim, shift), requires_grad=True),
    )
    return Mlp([layer], hidden_activation="relu")


def forward_parts(suite, x_s, x_t):
    f_s = suite.features(Tensor(x_s))
    f_t = suite.features(Tensor(x_t))
    return f_s, f_t


class TestCrossEntropy:
    def test_uniform_three_classes(self):
        lp = Tensor(np.full((2, 3), -np.log(3.0)))
        assert cross_entropy(lp, np.array([0, 2])).item() == pytest.approx(np.log(3.0))

    def test_one_hot_correct_is_zero(self):
        lp = log_softmax(Tensor([[50.0, 0.0], [0.0, 50.0]]))
        assert cross_entropy(lp, np.array([0, 1])).item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic_batch_of_two(self):
        # p(true) = 0.5 and 0.25 -> (ln2 + ln4) / 2
        lp = Tensor(np.log([[0.5, 0.5], [0.25, 0.75]]))
        expected = (np.log(2.0) + np.log(4.0)) / 2.0
        assert cross_entropy(lp, np.array([0, 0])).item() == pytest.approx(expected)
        assert expected == pytest.approx(1.0397207708)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestDomainAdversarial:
    def test_value_at_half_output(self, small_batch):
        x_s, _, x_t = small_batch
        suite = build_suite(SMALL_ARCH)
        zero_mlp(suite.domain_disc)  # logits identically 0 -> D_d = 0.5
        f_s, p_s = predict(suite, Tensor(x_s))
        f_t, p_t = predict(suite, Tensor(x_t))
        loss = domain_adversarial_loss(suite, f_s, p_s, f_t, p_t)
        assert loss.item() == pytest.approx(LOG_HALF2, abs=1e-12)

    def test_perfect_discriminator_approaches_zero_from_below(self):
        disc = Mlp(
            [LinearLayer(Tensor(np.full((1, 2), 30.0), requires_grad=True),
                         Tensor(np.zeros(1), requires_grad=True))]
        )
        real = Tensor(np.ones((3, 2)))
        fake = Tensor(-np.ones((3, 2)))
        val = adversarial_pair(disc, real, fake, 1.0, True).item()
        assert -1e-12 < val <= 0.0

    def test_wrong_discriminator_is_clamped_finite(self):
        disc = Mlp(
            [LinearLayer(Tensor(np.full((1, 2), -500.0), requires_grad=True),
                         Tensor(np.zeros(1), requires_grad=True))]
        )
        real = Tensor(np.ones((2, 2)))
        fake = Tensor(-np.ones((2, 2)))
        val = adversarial_pair(disc, real, fake, 1.0, True).item()
        assert math.isfinite(val)
        assert val == pytest.approx(2.0 * math.log(1e-12))

    def test_rigging_flips_discriminator_not_features(self, small_batch):
        x_s, _, x_t = small_batch
        def grads(rig):
            suite = build_suite(SMALL_ARCH)
            f_s, p_s = predict(suite, Tensor(x_s))
            f_t, p_t = predict(suite, Tensor(x_t))
            domain_adversarial_loss(suite, f_s, p_s, f_t, p_t, 1.0, rig).backward()
            feat = [p.grad.copy() for p in suite.features.parameters()]
            disc = [p.grad.copy() for p in suite.domain_disc.parameters()]
            return feat, disc

        feat_r, disc_r = grads(True)
        feat_p, disc_p = grads(False)
        for a, b in zip(feat_r, feat_p):
            np.testing.assert_allclose(a, b, atol=1e-15)
        for a, b in zip(disc_r, disc_p):
            np.testing.assert_allclose(a, -b, atol=1e-15)

    def test_grl_coeff_scales_feature_gradient_only(self, small_batch):
        x_s, _, x_t = small_batch

        def grads(coeff):
            suite = build_suite(SMALL_ARCH)
            f_s, p_s = predict(suite, Tensor(x_s))
            f_t, p_t = predict(suite, Tensor(x_t))
            domain_adversarial_loss(suite, f_s, p_s, f_t, p_t, coeff, True).backward()
            return (
                suite.features.parameters()[0].grad.copy(),
                suite.domain_disc.parameters()[0].grad.copy(),
            )

        f1, d1 = grads(1.0)
        f0, d0 = grads(0.0)
        np.testing.assert_allclose(f0, np.zeros_like(f0), atol=1e-15)
        np.testing.assert_allclose(d0, d1, atol=1e-15)
        fh, _ = grads(0.5)
        np.testing.assert_allclose(fh, 0.5 * f1, atol=1e-12)


class TestTranslationLosses:
    def test_beta_zero_reduces_to_pure_adversarial(self, small_suite, small_batch):
        x_s, y_s, x_t = small_batch
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        w0 = LossWeights(beta=0.0)
        pure = adversarial_pair(small_suite.target_disc, f_t, small_suite.s2t(f_s), 1.0, True)
        loss = translation_loss_s2t(small_suite, f_s, y_s, f_t, w0)
        assert loss.item() == pytest.approx(pure.item(), abs=1e-15)

    def test_value_is_adversarial_plus_beta_cross_entropy(self, small_suite, small_batch):
        x_s, y_s, x_t = small_batch
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        beta = 0.7
        fake = small_suite.s2t(f_s)
        adv = adversarial_pair(small_suite.target_disc, f_t, fake, 1.0, True).item()
        ce = cross_entropy(small_suite.log_probs(fake), y_s).item()
        loss = translation_loss_s2t(small_suite, f_s, y_s, f_t, LossWeights(beta=beta))
        assert loss.item() == pytest.approx(adv + beta * ce, rel=1e-12)

    def test_half_output_disc_and_perfect_classifier_value(self, small_batch):
        x_s, y_s, x_t = small_batch
        suite = build_suite(SMALL_ARCH)
        zero_mlp(suite.target_disc)
        f_s, f_t = forward_parts(suite, x_s, x_t)
        loss = translation_loss_s2t(suite, f_s, y_s, f_t, LossWeights(beta=0.0))
        assert loss.item() == pytest.approx(LOG_HALF2, abs=1e-12)

    def test_t2s_is_symmetric_with_roles_swapped(self, small_suite, small_batch):
        x_s, _, x_t = small_batch
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        direct = adversarial_pair(
            small_suite.source_disc, f_s, small_suite.t2s(f_t), 1.0, True
        )
        loss = translation_loss_t2s(small_suite, f_s, f_t)
        assert loss.item() == pytest.approx(direct.item(), abs=1e-15)

    def test_t2s_gives_no_predictor_gradient(self, small_suite, small_batch):
        x_s, _, x_t = small_batch
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        translation_loss_t2s(small_suite, f_s, f_t).backward()
        for p in small_suite.predictor.parameters():
            assert p.grad is None

    def test_d_t_at_half(self, small_batch):
        x_s, _, x_t = small_batch
        suite = build_suite(SMALL_ARCH)
        zero_mlp(suite.source_disc)
        f_s, f_t = forward_parts(suite, x_s, x_t)
        assert translation_loss_t2s(suite, f_s, f_t).item() == pytest.approx(
            LOG_HALF2, abs=1e-12
        )


class TestCycleLoss:
    def test_exact_identity_translators_give_zero(self, small_suite, small_batch):
        x_s, _, x_t = small_batch
        dim = SMALL_ARCH.feature_dim
        small_suite.s2t = identity_translator(dim)
        small_suite.t2s = identity_translator(dim)
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        assert cycle_loss(small_suite, f_s, f_t).item() == pytest.approx(0.0, abs=1e-24)

    def test_inverse_shift_pair_gives_zero(self, small_suite, small_batch):
        x_s, _, x_t = small_batch
        dim = SMALL_ARCH.feature_dim
        small_suite.s2t = identity_translator(dim, shift=+0.75)
        small_suite.t2s = identity_translator(dim, shift=-0.75)
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        assert cycle_loss(small_suite, f_s, f_t).item() == pytest.approx(0.0, abs=1e-20)

    def test_untrained_translators_strictly_positive(self, small_suite, small_batch):
        x_s, _, x_t = small_batch
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        assert cycle_loss(small_suite, f_s, f_t).item() > 0.0

    def test_invariant_under_batch_permutation(self, small_suite, small_batch):
        x_s, _, x_t = small_batch
        a = cycle_loss(small_suite, *forward_parts(small_suite, x_s, x_t)).item()
        perm = np.random.default_rng(0).permutation(len(x_s))
        b = cycle_loss(small_suite, *forward_parts(small_suite, x_s[perm], x_t[perm])).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_features_enter_detached(self, small_suite, small_batch):
        x_s, _, x_t = small_batch
        f_s, f_t = forward_parts(small_suite, x_s, x_t)
        cycle_loss(small_suite, f_s, f_t).backward()
        for p in small_suite.features.parameters():
            assert p.grad is None
        assert any(p.grad is not None for p in small_suite.s2t.parameters())


class TestResolveWeights:
    def test_ladder_mapping(self):
        w = LossWeights(lam=1.0, beta=1.0, eta1=0.01, eta2=0.1)
        assert resolve_weights("S0", w) == LossWeights(0.0, 1.0, 0.0, 0.0)
        assert resolve_weights("S1", w) == LossWeights(1.0, 1.0, 0.0, 0.0)
        assert resolve_weights("S2", w) == LossWeights(1.0, 1.0, 0.01, 0.0)
        assert resolve_weights("S3", w) == w
        assert resolve_weights("S4", w) == LossWeights(0.0, 1.0, 0.01, 0.1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            resolve_weights("S5", LossWeights())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lam=-0.1)

    def test_reference_defaults(self):
        w = LossWeights()
        assert (w.lam, w.beta, w.eta1, w.eta2) == (1.0, 1.0, 0.01, 0.1)


class TestTotalLoss:
    def test_zero_weights_is_classification_only(self, small_suite, small_batch):
        x_s, y_s, _ = small_batch
        w = LossWeights(lam=0.0, beta=1.0, eta1=0.0, eta2=0.0)
        total, bd = total_loss(small_suite, (Tensor(x_s), y_s), None, w)
        assert bd.l_total == bd.l_cls == total.item()
        assert bd.l_dom == bd.l_s2t == bd.l_t2s == bd.l_cyc == 0.0

    def test_breakdown_identities_exact(self, small_suite, small_batch):
        x_s, y_s, x_t = small_batch
        w = LossWeights()
        _, bd = total_loss(small_suite, (Tensor(x_s), y_s), Tensor(x_t), w)
        assert bd.l_con == bd.l_cls + w.lam * bd.l_dom
        expected_total = bd.l_con + w.eta1 * (bd.l_s2t + bd.l_t2s) + w.eta2 * bd.l_cyc
        assert abs(bd.l_total - expected_total) <= 1e-12

    def test_target_batch_required_when_weights_active(self, small_suite, small_batch):
        x_s, y_s, _ = small_batch
        with pytest.raises(ValueError):
            total_loss(small_suite, (Tensor(x_s), y_s), None, LossWeights())

    def test_lambda_affine_in_feature_gradients(self, small_batch):
        x_s, y_s, x_t = small_batch

        def feature_grad(lam):
            suite = build_suite(SMALL_ARCH)
            w = LossWeights(lam=lam, beta=1.0, eta1=0.0, eta2=0.0)
            total, _ = total_loss(suite, (Tensor(x_s), y_s), Tensor(x_t), w)
            total.backward()
            return np.concatenate(
                [p.grad.ravel().copy() for p in suite.features.parameters()]
            )

        g0, g1, g2 = feature_grad(0.0), feature_grad(1.0), feature_grad(2.0)
        np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), atol=1e-10)
        assert float(np.abs(g1 - g0).max()) > 0  # lambda changes F's gradients

    def test_classification_gradient_component_unchanged_by_lambda(self, small_batch):
        # the l_cls contribution is the lam=0 gradient; linearity above plus
        # this anchor pins it
        x_s, y_s, _ = small_batch
        suite = build_suite(SMALL_ARCH)
        w0 = LossWeights(lam=0.0, eta1=0.0, eta2=0.0)
        total, _ = total_loss(suite, (Tensor(x_s), y_s), None, w0)
        total.backward()
        direct = cross_entropy(suite.log_probs(suite.features(Tensor(x_s))), y_s)
        grads_a = [p.grad.copy() for p in suite.features.parameters()]
        for p in suite.parameters():
            p.zero_grad()
        direct.backward()
        for a, p in zip(grads_a, suite.features.parameters()):
            np.testing.assert_allclose(a, p.grad, atol=1e-15)

    def test_zeroed_discriminators_get_zero_gradient(self, small_batch):
        x_s, y_s, x_t = small_batch
        suite = build_suite(SMALL_ARCH)
        for net in (suite.domain_disc, suite.source_disc, suite.target_disc):
            zero_mlp(net)
        total, _ = total_loss(suite, (Tensor(x_s), y_s), Tensor(x_t), LossWeights())
        total.backward()
        for net in (suite.domain_disc, suite.source_disc, suite.target_disc):
            for p in net.parameters():
                assert float(np.abs(p.grad).max()) == 0.0

    def test_gradcheck_sees_a_gradient_fault_that_keeps_the_values(self, monkeypatch):
        # every value as before, but no gradient through the predictions;
        # only differencing total_loss itself catches it
        monkeypatch.setattr("cycleadapt.losses.exp", lambda t: autodiff.exp(t.detach()))
        [(_, report)] = run_components(["total"])
        assert not report.passed

    def test_loss_values_always_finite_under_extreme_logits(self, small_batch):
        x_s, y_s, x_t = small_batch
        suite = build_suite(SMALL_ARCH)
        for p in suite.domain_disc.parameters():
            p.data = np.full_like(p.data, 40.0)
        total, bd = total_loss(suite, (Tensor(x_s), y_s), Tensor(x_t), LossWeights())
        assert math.isfinite(total.item())
        assert math.isfinite(bd.l_dom)


def test_each_translator_runs_once_per_batch(monkeypatch, small_batch):
    # the cycle term reuses the translation terms' forwards
    x_s, y_s, x_t = small_batch
    suite = build_suite(SMALL_ARCH)
    calls = {}
    real = Mlp.forward_logits

    def counting(self, x):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return real(self, x)

    monkeypatch.setattr(Mlp, "forward_logits", counting)
    total_loss(suite, (Tensor(x_s), y_s), Tensor(x_t), LossWeights())
    assert calls[id(suite.s2t)] == calls[id(suite.t2s)] == 2
