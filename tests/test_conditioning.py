import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleadapt.autodiff import DimensionError, Tensor
from cycleadapt.conditioning import (
    build_randomized_maps,
    condition,
    conditioned_width,
    randomized_condition,
    uses_randomized,
)
from cycleadapt.models import ArchConfig, build_suite

DEFAULTS = ArchConfig(input_dim=2, num_classes=2)
THRESHOLD, RANDOMIZED_DIM = DEFAULTS.cond_threshold, DEFAULTS.cond_randomized_dim


class TestMultilinear:
    def test_definition(self):
        out = condition(Tensor([[1.0, 2.0]]), Tensor([[0.75, 0.25]]))
        np.testing.assert_allclose(out.data, [[0.75, 0.25, 1.5, 0.5]])

    def test_one_hot_places_features_in_class_block(self):
        f = np.array([[2.0, -1.0, 3.0]])
        p = np.array([[0.0, 1.0]])  # one-hot at class 1
        out = condition(Tensor(f), Tensor(p)).data[0]
        blocks = out.reshape(3, 2)
        np.testing.assert_array_equal(blocks[:, 1], f[0])
        np.testing.assert_array_equal(blocks[:, 0], np.zeros(3))

    def test_batch_shape(self):
        out = condition(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 5))))
        assert out.shape == (3, 20)


class TestRandomized:
    def test_zero_features_give_zero(self):
        maps = build_randomized_maps(4, 3, 8, seed=0)
        out = randomized_condition(Tensor(np.zeros((2, 4))), Tensor(np.ones((2, 3))), maps)
        np.testing.assert_array_equal(out.data, np.zeros((2, 8)))

    def test_d_equals_one_all_ones_maps(self):
        from cycleadapt.conditioning import RandomizedMaps

        maps = RandomizedMaps(r_f=np.ones((1, 3)), r_p=np.ones((1, 2)), seed=0)
        f = np.array([[1.0, 2.0, 3.0]])
        p = np.array([[0.25, 0.75]])
        out = randomized_condition(Tensor(f), Tensor(p), maps)
        assert out.data[0, 0] == pytest.approx(f.sum() * p.sum())

    def test_maps_are_wrapped_once_and_reused(self):
        maps = build_randomized_maps(4, 3, 8, seed=0)
        assert np.shares_memory(maps.r_f_t.data, maps.r_f)
        assert np.shares_memory(maps.r_p_t.data, maps.r_p)
        f = Tensor(np.ones((2, 4)), requires_grad=True)
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        proj_f, proj_p = randomized_condition(f, p, maps)._parents[0]._parents
        assert proj_f._parents[1] is maps.r_f_t and proj_p._parents[1] is maps.r_p_t

    def test_same_seed_reproduces_maps(self):
        a = build_randomized_maps(5, 3, 16, seed=9)
        b = build_randomized_maps(5, 3, 16, seed=9)
        assert np.array_equal(a.r_f, b.r_f) and np.array_equal(a.r_p, b.r_p)

    def test_dim_mismatch(self):
        maps = build_randomized_maps(4, 3, 8, seed=0)
        with pytest.raises(DimensionError):
            randomized_condition(Tensor(np.ones((2, 5))), Tensor(np.ones((2, 3))), maps)

    def test_monte_carlo_unbiasedness_small(self):
        # light version; the acceptance suite runs the full-size check
        rng = np.random.default_rng(12)
        f, f2 = rng.standard_normal((2, 6))
        p = np.abs(rng.standard_normal(4))
        p /= p.sum()
        p2 = np.abs(rng.standard_normal(4))
        p2 /= p2.sum()
        exact = (f @ f2) * (p @ p2)
        draws = []
        for i in range(2000):
            maps = build_randomized_maps(6, 4, 32, seed=1000 + i)
            a = randomized_condition(Tensor(f[None]), Tensor(p[None]), maps).data[0]
            b = randomized_condition(Tensor(f2[None]), Tensor(p2[None]), maps).data[0]
            draws.append(float(a @ b))
        assert np.mean(draws) == pytest.approx(exact, rel=0.1)

    def test_estimator_variance_shrinks_with_width(self):
        rng = np.random.default_rng(3)
        f, f2 = rng.standard_normal((2, 6))
        p, p2 = rng.standard_normal((2, 4))
        variances = []
        for d in (16, 64, 256):
            draws = []
            for i in range(400):
                maps = build_randomized_maps(6, 4, d, seed=7000 + i)
                a = randomized_condition(Tensor(f[None]), Tensor(p[None]), maps).data[0]
                b = randomized_condition(Tensor(f2[None]), Tensor(p2[None]), maps).data[0]
                draws.append(float(a @ b))
            variances.append(np.var(draws))
        assert variances[0] > variances[1] > variances[2]


class TestDispatch:
    def test_640_takes_exact_branch(self):
        assert not uses_randomized(64, 10, THRESHOLD)
        assert conditioned_width(64, 10, THRESHOLD, RANDOMIZED_DIM) == 640

    def test_15872_takes_randomized_branch(self):
        assert uses_randomized(512, 31, THRESHOLD)
        assert conditioned_width(512, 31, THRESHOLD, 1024) == 1024

    def test_boundary_4096_is_exact(self):
        assert not uses_randomized(64, 64, THRESHOLD)
        assert uses_randomized(64, 65, THRESHOLD)

    def test_threshold_override(self):
        assert not uses_randomized(4, 2, 10)  # 8 <= 10
        assert uses_randomized(4, 3, 10)  # 12 > 10

    def test_condition_follows_maps(self):
        f = Tensor(np.random.default_rng(0).standard_normal((2, 4)))
        p = Tensor(np.full((2, 3), 1.0 / 3.0))
        exact = condition(f, p)
        assert exact.shape == (2, 12)
        maps = build_randomized_maps(4, 3, 7, seed=1)
        rand = condition(f, p, maps)
        assert rand.shape == (2, 7)
        np.testing.assert_array_equal(rand.data, randomized_condition(f, p, maps).data)

    @given(df=st.integers(1, 80), dp=st.integers(2, 80))
    @settings(max_examples=50, deadline=None)
    def test_dispatch_is_pure_in_dims(self, df, dp):
        first = uses_randomized(df, dp, THRESHOLD)
        assert first == uses_randomized(df, dp, THRESHOLD)
        assert first == (df * dp > THRESHOLD)


def _arch(randomized: bool, **kw) -> ArchConfig:
    """feature_dim * num_classes = 12, at the threshold or one past it."""
    return ArchConfig(
        input_dim=2, num_classes=3, feature_dim=4,
        cond_threshold=11 if randomized else 12, cond_randomized_dim=7, **kw,
    )


class TestSuiteDecision:
    @pytest.mark.parametrize("randomized", [False, True], ids=["exact", "randomized"])
    def test_build_suite_fixes_the_branch(self, randomized):
        arch = _arch(randomized)
        suite = build_suite(arch)
        assert (suite.maps is not None) is randomized
        assert (build_suite(arch, seeds=[1, 2]).maps is not None) is randomized
        assert suite.domain_disc.layers[0].in_dim == arch.domain_disc_in_dim()
        rng = np.random.default_rng(0)
        f = Tensor(rng.standard_normal((5, 4)))
        p = Tensor(np.full((5, 3), 1.0 / 3.0))
        out = suite.condition(f, p)
        assert out.shape == (5, arch.domain_disc_in_dim())
        assert out.shape[-1] == (7 if randomized else 12)


class TestGradientFlow:
    def test_gradients_reach_both_inputs(self):
        f = Tensor(np.random.default_rng(0).standard_normal((2, 3)), requires_grad=True)
        p = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        condition(f, p).sum().backward()
        assert f.grad is not None and p.grad is not None
        assert np.abs(p.grad).max() > 0

    def test_detach_predictions_blocks_p(self):
        for randomized in (False, True):
            suite = build_suite(_arch(randomized, detach_predictions=True))
            f = Tensor(np.ones((2, 4)), requires_grad=True)
            p = Tensor(np.full((2, 3), 1.0 / 3.0), requires_grad=True)
            suite.condition(f, p).sum().backward()
            assert f.grad is not None
            assert p.grad is None

    def test_maps_are_not_trainable(self):
        maps = build_randomized_maps(3, 2, 5, seed=4)
        f = Tensor(np.ones((1, 3)), requires_grad=True)
        p = Tensor(np.full((1, 2), 0.5), requires_grad=True)
        out = randomized_condition(f, p, maps)
        out.sum().backward()
        # the map matrices are plain arrays owned by the immutable dataclass
        assert isinstance(maps.r_f, np.ndarray)
        before = maps.r_f.copy()
        assert np.array_equal(before, maps.r_f)
