import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleadapt.autodiff import (
    NonFiniteError,
    Tensor,
    add,
    finite_diff_check,
    log_softmax,
    mul,
    sub,
)
from cycleadapt.nn import (
    LinearLayer,
    Mlp,
    Sgd,
    init_linear,
    make_mlp,
)


class TestInitLinear:
    def test_glorot_bound_for_4x4(self):
        rng = np.random.default_rng(0)
        layer = init_linear(4, 4, "glorot_uniform", rng)
        bound = np.sqrt(6.0 / 8.0)
        assert bound == pytest.approx(0.8660254, rel=1e-6)
        assert np.all(np.abs(layer.weight.data) <= bound)

    def test_he_bound(self):
        rng = np.random.default_rng(0)
        layer = init_linear(9, 5, "he_uniform", rng)
        assert np.all(np.abs(layer.weight.data) <= np.sqrt(6.0 / 9.0))

    def test_bias_is_zero(self):
        layer = init_linear(3, 7, "glorot_uniform", np.random.default_rng(1))
        np.testing.assert_array_equal(layer.bias.data, np.zeros(7))

    def test_same_seed_same_weights(self):
        a = init_linear(4, 6, "he_uniform", np.random.default_rng(42))
        b = init_linear(4, 6, "he_uniform", np.random.default_rng(42))
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_unknown_scheme_and_bad_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_linear(3, 3, "orthogonal", rng)
        with pytest.raises(ValueError):
            init_linear(0, 3, "he_uniform", rng)


class TestMlp:
    def test_identity_layer_passes_input_through(self):
        layer = LinearLayer(Tensor(np.eye(3), requires_grad=True),
                            Tensor(np.zeros(3), requires_grad=True))
        mlp = Mlp([layer], hidden_activation="relu")
        x = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_allclose(mlp(Tensor(x)).data, x)

    def test_gradients_pass_finite_diff_check(self):
        mlp = make_mlp((3, 5, 2), np.random.default_rng(2), hidden_activation="tanh")
        x = Tensor(np.random.default_rng(3).standard_normal((4, 3)))
        report = finite_diff_check(
            lambda: log_softmax(mlp(x)).sum(), mlp.parameters(), eps=1e-5, tol=1e-4
        )
        assert report.passed, report.entries

    def test_mismatched_width_raises(self):
        mlp = make_mlp((3, 5, 2), np.random.default_rng(0))
        from cycleadapt.autodiff import DimensionError

        with pytest.raises(DimensionError):
            mlp(Tensor(np.ones((2, 4))))

    def test_dims_must_chain(self):
        rng = np.random.default_rng(0)
        a = init_linear(3, 5, "he_uniform", rng)
        b = init_linear(4, 2, "he_uniform", rng)
        from cycleadapt.autodiff import DimensionError

        with pytest.raises(DimensionError):
            Mlp([a, b])

    @given(dims=st.lists(st.integers(1, 9), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_param_count_closed_form(self, dims):
        mlp = make_mlp(dims, np.random.default_rng(0))
        expected = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
        assert mlp.param_count() == expected


class TestSgd:
    def test_plain_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        Sgd([p], lr=0.1).step()
        assert p.data[0] == pytest.approx(0.9)
        assert p.grad is None  # consumed

    def test_zero_lr_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([5.0, -5.0])
        Sgd([p], lr=0.0).step()
        np.testing.assert_array_equal(p.data, [1, 2])

    def test_two_momentum_steps_hand_recurrence(self):
        # v1 = 1, p1 = -1; v2 = 0.9 + 1 = 1.9, p2 = -2.9
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Sgd([p], lr=1.0, momentum=0.9)
        for _ in range(2):
            p.grad = np.array([1.0])
            opt.step()
        assert p.data[0] == pytest.approx(-2.9)

    def test_weight_decay_equals_l2_penalty_gradient(self):
        # decoupled check: wd*param in the update == gradient of (wd/2)*||p||^2
        rng = np.random.default_rng(0)
        start = rng.standard_normal(4)
        grad = rng.standard_normal(4)
        wd = 0.3

        p1 = Tensor(start.copy(), requires_grad=True)
        p1.grad = grad.copy()
        Sgd([p1], lr=0.1, weight_decay=wd).step()

        p2 = Tensor(start.copy(), requires_grad=True)
        p2.grad = grad + wd * start  # explicit L2 term gradient
        Sgd([p2], lr=0.1).step()
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-12)

    def test_weight_decay_matches_explicit_l2_loss(self):
        wd = 0.2
        start = np.array([1.5, -0.5])
        p1 = Tensor(start.copy(), requires_grad=True)
        mul(p1, p1).sum().backward()
        Sgd([p1], lr=0.05, weight_decay=wd).step()

        p3 = Tensor(start.copy(), requires_grad=True)
        base = mul(p3, p3).sum()
        penalty = mul(mul(p3, p3).sum(), wd / 2.0)
        add(base, penalty).backward()
        Sgd([p3], lr=0.05).step()
        np.testing.assert_allclose(p1.data, p3.data, atol=1e-12)

    @given(lr=st.floats(1e-3, 0.4))
    @settings(max_examples=20, deadline=None)
    def test_monotone_descent_on_convex_quadratic(self, lr):
        # f(p) = ||p - c||^2 has curvature 2; lr below 1/2 descends monotonically
        c = Tensor(np.array([1.0, -2.0, 0.5]))
        p = Tensor(np.array([4.0, 4.0, 4.0]), requires_grad=True)
        opt = Sgd([p], lr=lr)
        prev = float("inf")
        for _ in range(15):
            d = sub(p, c)
            loss = mul(d, d).sum()
            val = loss.item()
            assert val <= prev + 1e-12
            prev = val
            loss.backward()
            opt.step()

    def test_non_finite_gradient_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.inf])
        with pytest.raises(NonFiniteError):
            Sgd([p], lr=0.1).step()

    def test_hyperparameter_validation(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            Sgd([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Sgd([p], lr=-0.1)

    def test_non_finite_gradient_moves_no_parameter(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        opt = Sgd([a, b], lr=0.1, momentum=0.9)
        a.grad = np.array([1.0, 1.0])
        b.grad = np.array([np.nan])
        with pytest.raises(NonFiniteError) as exc:
            opt.step()
        assert exc.value.op == "sgd_step"
        assert "gradient of parameter 1" in str(exc.value)
        np.testing.assert_array_equal(a.data, [1.0, 2.0])
        np.testing.assert_array_equal(b.data, [3.0])
        np.testing.assert_array_equal(opt.velocity, np.zeros(3))

    def test_parameters_are_views_of_one_flat_buffer(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full(4, 2.0), requires_grad=True)
        opt = Sgd([a, b], lr=0.5)
        assert opt.flat.shape == (10,)
        assert np.shares_memory(a.data, opt.flat) and np.shares_memory(b.data, opt.flat)
        assert a.shape == (2, 3) and b.shape == (4,)
        b.grad = np.ones(4)
        opt.step()
        np.testing.assert_array_equal(opt.flat, [1.0] * 6 + [1.5] * 4)

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        steps=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=1, max_size=4),
        momentum=st.sampled_from([0.0, 0.5, 0.9]),
        weight_decay=st.sampled_from([0.0, 5e-4, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_flat_update_equals_per_parameter_rule_bitwise(
        self, sizes, steps, momentum, weight_decay, seed
    ):
        # the per-parameter loop the flat buffer replaces, with its operand
        # order: v = m*v + g + wd*p; p = p - lr*v; no gradient: v *= m
        rng = np.random.default_rng(seed)
        start = [rng.standard_normal(n) for n in sizes]
        params = [Tensor(x.copy(), requires_grad=True) for x in start]
        opt = Sgd(params, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        ref_p = [x.copy() for x in start]
        ref_v = [np.zeros(n) for n in sizes]
        for has_grad in steps:
            for i, n in enumerate(sizes):
                g = rng.standard_normal(n) if has_grad[i] else None
                params[i].grad = g
                if g is None:
                    ref_v[i] *= momentum
                    continue
                ref_v[i] = momentum * ref_v[i] + g + weight_decay * ref_p[i]
                ref_p[i] = ref_p[i] - 0.05 * ref_v[i]
            opt.step()
            for p, ref in zip(params, ref_p):
                assert np.array_equal(p.data, ref)
                assert p.grad is None
            assert np.array_equal(opt.velocity, np.concatenate(ref_v))
