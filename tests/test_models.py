import numpy as np
import pytest

from cycleadapt.autodiff import NonFiniteError, Tensor, log_softmax, no_grad, unchecked
from cycleadapt.data import DomainPair
from cycleadapt.models import (
    MAX_COND_THRESHOLD,
    NETWORK_ORDER,
    ArchConfig,
    build_suite,
    predict,
)
from cycleadapt.trainer import domain_disc_mean_out

from conftest import SMALL_ARCH


class TestBuildSuite:
    def test_domain_disc_width_from_exact_conditioning(self):
        cfg = ArchConfig(input_dim=2, num_classes=2, feature_dim=16)
        suite = build_suite(cfg)
        assert cfg.domain_disc_in_dim() == 32  # 16*2 <= 4096 -> exact
        assert suite.domain_disc.in_dim == 32
        assert suite.maps is None

    def test_randomized_branch_gets_maps(self):
        cfg = ArchConfig(
            input_dim=2, num_classes=2, feature_dim=16,
            cond_threshold=16, cond_randomized_dim=24,
        )
        suite = build_suite(cfg)
        assert suite.maps is not None
        assert suite.domain_disc.in_dim == 24

    def test_same_seed_identical_parameter_bytes(self):
        a = build_suite(SMALL_ARCH)
        b = build_suite(SMALL_ARCH)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_different_seed_differs(self):
        from dataclasses import replace

        a = build_suite(SMALL_ARCH)
        b = build_suite(replace(SMALL_ARCH, seed=SMALL_ARCH.seed + 1))
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_translators_map_feature_space_to_itself(self, small_suite):
        assert small_suite.s2t.in_dim == small_suite.s2t.out_dim == SMALL_ARCH.feature_dim
        assert small_suite.t2s.in_dim == small_suite.t2s.out_dim == SMALL_ARCH.feature_dim

    def test_depths(self, small_suite):
        assert len(small_suite.features.layers) == 3  # two hidden layers
        assert len(small_suite.predictor.layers) == 1
        assert len(small_suite.domain_disc.layers) == 3
        assert len(small_suite.s2t.layers) == 4
        assert len(small_suite.t2s.layers) == 4
        assert len(small_suite.source_disc.layers) == 3
        assert len(small_suite.target_disc.layers) == 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig(input_dim=2, num_classes=1)
        with pytest.raises(ValueError):
            ArchConfig(input_dim=0, num_classes=2)

    @pytest.mark.parametrize("seeds", [None, [4, 2]], ids=["single", "stacked"])
    @pytest.mark.parametrize("threshold", [4096, 8], ids=["exact", "randomized"])
    def test_layers_follow_the_width_table(self, seeds, threshold):
        from dataclasses import replace

        arch = replace(SMALL_ARCH, cond_threshold=threshold, cond_randomized_dim=12)
        table = arch.layer_dims()
        assert tuple(table) == NETWORK_ORDER
        assert table["domain_disc"][0] == arch.domain_disc_in_dim()
        suite = build_suite(arch, seeds)
        lead = () if seeds is None else (len(seeds),)
        for name, dims in table.items():
            layers = getattr(suite, name).layers
            assert len(layers) == len(dims) - 1
            for layer, i, o in zip(layers, dims[:-1], dims[1:]):
                assert layer.weight.shape == (*lead, o, i)
                assert layer.bias.shape == (*lead, o)

    def test_maps_excluded_from_parameters(self):
        cfg = ArchConfig(
            input_dim=2, num_classes=2, feature_dim=8,
            cond_threshold=4, cond_randomized_dim=8,
        )
        suite = build_suite(cfg)
        param_ids = {id(p.data) for p in suite.parameters()}
        assert id(suite.maps.r_f) not in param_ids
        assert id(suite.maps.r_p) not in param_ids


class TestForwardPass:
    def test_all_networks_finite_and_discs_in_unit_interval(self, small_suite, small_batch):
        x_s, y_s, x_t = small_batch
        with no_grad():
            f, p = predict(small_suite, Tensor(x_s))
            dd = small_suite.domain_disc(small_suite.condition(f, p))
            fake_t = small_suite.s2t(f)
            fake_s = small_suite.t2s(small_suite.features(Tensor(x_t)))
            ds = small_suite.source_disc(f)
            dt = small_suite.target_disc(fake_t)
        for t in (f, p, dd, fake_t, fake_s, ds, dt):
            assert np.all(np.isfinite(t.data))
        # the networks return logits; the metric applies the sigmoid
        pair = DomainPair(x_s, y_s, x_t, None, SMALL_ARCH.num_classes)
        assert 0.0 < domain_disc_mean_out(small_suite, pair) < 1.0

    def test_log_probs_head_rows_sum_to_one(self, small_suite, small_batch):
        x_s, _, _ = small_batch
        f, p = predict(small_suite, Tensor(x_s))
        log_p = small_suite.log_probs(f)
        assert np.array_equal(log_p.data, log_softmax(small_suite.predictor(f)).data)
        assert np.array_equal(p.data, np.exp(log_p.data))
        np.testing.assert_allclose(np.exp(log_p.data).sum(axis=1), np.ones(4), atol=1e-12)

    def test_predict_probability_rows_sum_to_one(self, small_suite, small_batch):
        x_s, _, _ = small_batch
        _, p = predict(small_suite, Tensor(x_s))
        np.testing.assert_allclose(p.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_predict_checks_its_logits_even_unchecked(self):
        # a -inf logit has probability 0, which a check of the
        # probabilities alone would pass
        suite = build_suite(SMALL_ARCH)
        suite.predictor.layers[-1].bias.data[0] = -np.inf
        x = Tensor(np.zeros((4, 3)))
        with no_grad(), unchecked(), pytest.raises(NonFiniteError) as exc:
            predict(suite, x)
        assert exc.value.op == "linear"

    def test_predict_shapes(self, small_suite):
        x = Tensor(np.random.default_rng(0).standard_normal((7, 3)))
        f, p = predict(small_suite, x)
        assert f.shape == (7, SMALL_ARCH.feature_dim)
        assert p.shape == (7, SMALL_ARCH.num_classes)

    def test_predict_is_pure(self, small_suite, small_batch):
        x_s, _, _ = small_batch
        f1, p1 = predict(small_suite, Tensor(x_s))
        f2, p2 = predict(small_suite, Tensor(x_s))
        assert np.array_equal(f1.data, f2.data)
        assert np.array_equal(p1.data, p2.data)

    def test_argmax_defines_predicted_label(self, small_suite, small_batch):
        x_s, _, _ = small_batch
        _, p = predict(small_suite, Tensor(x_s))
        labels = p.data.argmax(axis=1)
        assert labels.shape == (4,)
        assert np.all((labels >= 0) & (labels < SMALL_ARCH.num_classes))


class TestTranslate:
    def test_shape_preserved(self, small_suite):
        f = Tensor(np.random.default_rng(1).standard_normal((6, SMALL_ARCH.feature_dim)))
        for translator in (small_suite.s2t, small_suite.t2s):
            assert translator(f).shape == f.shape

    def test_untrained_round_trip_differs_from_input(self, small_suite):
        f = Tensor(np.random.default_rng(2).standard_normal((5, SMALL_ARCH.feature_dim)))
        back = small_suite.t2s(small_suite.s2t(f))
        assert float(np.abs(back.data - f.data).max()) > 1e-6


class TestArchConfig:
    def test_cond_threshold_bounds(self):
        # the threshold caps the exact conditioning width, so a huge exact
        # product is refused when the config is made, not mid-training
        for ok in (1, 4096, MAX_COND_THRESHOLD):
            assert ArchConfig(input_dim=2, num_classes=2, cond_threshold=ok).cond_threshold == ok
        assert MAX_COND_THRESHOLD == 1 << 22
        for bad in (0, -1, MAX_COND_THRESHOLD + 1):
            with pytest.raises(ValueError, match="cond_threshold"):
                ArchConfig(input_dim=2, num_classes=2, cond_threshold=bad)

    def test_unknown_hidden_activation_rejected(self):
        with pytest.raises(ValueError, match="hidden_activation"):
            ArchConfig(input_dim=2, num_classes=2, hidden_activation="gelu")


def test_param_count_matches_closed_form(small_suite):
    def mlp_count(dims):
        return sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))

    a = SMALL_ARCH
    expected = (
        mlp_count((a.input_dim, a.feature_hidden, a.feature_hidden, a.feature_dim))
        + mlp_count((a.feature_dim, a.num_classes))
        + mlp_count((a.feature_dim * a.num_classes, a.domain_disc_hidden,
                     a.domain_disc_hidden, 1))
        + 2 * mlp_count((a.feature_dim, a.translator_hidden, a.translator_hidden,
                         a.translator_hidden, a.feature_dim))
        + 2 * mlp_count((a.feature_dim, a.sample_disc_hidden, a.sample_disc_hidden, 1))
    )
    assert small_suite.param_count() == expected
    assert sum(getattr(small_suite, name).param_count() for name in NETWORK_ORDER) == expected


class TestStackedSuite:
    def test_stacks_ordinary_draws_and_views_follow_the_optimizer(self):
        from dataclasses import replace

        from cycleadapt.nn import Sgd

        seeds = [4, 2]
        stacked = build_suite(SMALL_ARCH, seeds)
        alone = [build_suite(replace(SMALL_ARCH, seed=s)) for s in seeds]
        for i, p in enumerate(stacked.parameters()):
            assert p.shape == (2, *alone[0].parameters()[i].shape)
            for k, suite in enumerate(alone):
                assert np.array_equal(p.data[k], suite.parameters()[i].data)
        opt = Sgd(stacked.parameters(), lr=0.1)
        views = stacked.replica_views()
        assert [v.arch.seed for v in views] == seeds
        for p in stacked.parameters():
            p.grad = np.ones(p.shape)
        opt.step()
        for k, view in enumerate(views):
            for p, v in zip(stacked.parameters(), view.parameters()):
                assert np.shares_memory(p.data, v.data)
                assert np.array_equal(p.data[k], v.data)

    @pytest.mark.parametrize("seeds", [[4, 2], [4]])
    def test_members_hold_slices_of_the_stacked_maps(self, seeds):
        from dataclasses import replace

        arch = replace(SMALL_ARCH, cond_threshold=8, cond_randomized_dim=12)
        stacked = build_suite(arch, seeds)
        assert stacked.maps.seed == tuple(m.maps.seed for m in stacked.replicas)
        for k, (seed, member) in enumerate(zip(seeds, stacked.replicas)):
            alone = build_suite(replace(arch, seed=seed)).maps
            for name in ("r_f", "r_p"):
                got = getattr(member.maps, name)
                assert np.shares_memory(got, getattr(stacked.maps, name))
                assert np.array_equal(got, getattr(alone, name))
