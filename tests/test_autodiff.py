import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycleadapt.autodiff import (
    DimensionError,
    GraphError,
    NonFiniteError,
    Tensor,
    add,
    exp,
    finite_diff_check,
    gather_rows,
    grad_reversal,
    LOG_FLOOR,
    log_softmax,
    matmul,
    mean_log_sigmoid,
    mlp,
    mlp_again,
    mul,
    no_grad,
    row_outer,
    stable_sigmoid,
    sub,
    trace,
    unchecked,
)

finite_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=8
)


def grad_of(t):
    assert t.grad is not None
    return t.grad


def _unchecked_tensor(data):
    with unchecked():
        return Tensor(data)


class TestMatmul:
    def test_identity_left_multiplication(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_identity_times_column(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5], [7]])

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        matmul(a, b).sum().backward()
        np.testing.assert_allclose(grad_of(a), np.ones((3, 2)) @ b.data.T)
        report = finite_diff_check(lambda: matmul(a, b).sum(), [a, b])
        assert report.passed and report.max_rel_err < 1e-4

    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_operand_gets_no_gradient(self, constant):
        # as for a randomized map: no product is computed for the constant,
        # and the other operand's gradient keeps its bits
        rng = np.random.default_rng(4)
        data = [rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 3, 4))]
        g = rng.standard_normal((2, 5, 4))
        ref = matmul(*(Tensor(d, requires_grad=True) for d in data))._backward(g)
        operands = [Tensor(d, requires_grad=i != constant) for i, d in enumerate(data)]
        grads = matmul(*operands)._backward(g)
        assert grads[constant] is None
        assert grads[1 - constant].tobytes() == ref[1 - constant].tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestElementwise:
    def test_add(self):
        out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4, 6])

    def test_mul_by_zeros_and_its_gradient(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        out = mul(x, Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.zeros(3))
        out.sum().backward()
        np.testing.assert_array_equal(grad_of(x), np.zeros(3))

    def test_sub_self_is_zero(self):
        x = Tensor([1.5, -0.5])
        np.testing.assert_array_equal(sub(x, x).data, [0, 0])

    def test_no_implicit_broadcasting(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.ones(3)), Tensor(np.ones(4)))
        with pytest.raises(DimensionError):
            mul(Tensor(np.ones((2, 2))), Tensor(np.ones(2)))
        # a 0-d tensor is a shape like any other
        for op in (add, sub, mul):
            with pytest.raises(DimensionError):
                op(Tensor(np.ones(2)), Tensor(3.0))

    def test_scalar_with_tensor_is_allowed(self):
        # mul scales by a Python number; add and sub take tensors only
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = mul(x, 3.0)
        np.testing.assert_array_equal(out.data, [3, 6])
        out.sum().backward()
        np.testing.assert_array_equal(grad_of(x), [3, 3])

    @given(vals=finite_arrays)
    @settings(max_examples=25, deadline=None)
    def test_add_then_sub_roundtrip(self, vals):
        x = Tensor(vals)
        y = Tensor(np.flip(np.asarray(vals)).copy())
        np.testing.assert_allclose(sub(add(x, y), y).data, x.data, atol=1e-12)


def _activated(x, kind):
    """The hidden activation of an mlp with identity layers around it."""
    eye = np.eye(x.shape[-1])
    zero = np.zeros(x.shape[-1])
    return mlp(x, [Tensor(eye), Tensor(zero), Tensor(eye), Tensor(zero)], kind)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(_activated(Tensor([[-1.0, 2.0]]), "relu").data, [[0, 2]])

    def test_sigmoid_at_zero(self):
        assert stable_sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert _activated(Tensor([[0.0]]), "sigmoid").data[0, 0] == pytest.approx(0.5)

    def test_tanh_gradient_at_zero_is_one(self):
        x = Tensor([[0.0]], requires_grad=True)
        report = finite_diff_check(lambda: _activated(x, "tanh").sum(), [x])
        assert report.passed
        x.zero_grad()
        _activated(x, "tanh").sum().backward()
        assert grad_of(x)[0, 0] == pytest.approx(1.0)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        for out in (stable_sigmoid(np.array([[-800.0, 800.0]])),
                    _activated(Tensor([[-800.0, 800.0]]), "sigmoid").data):
            assert np.all(np.isfinite(out))
            assert out[0, 0] == pytest.approx(0.0, abs=1e-300)
            assert out[0, 1] == pytest.approx(1.0)


class TestLogSoftmax:
    def test_uniform_row(self):
        out = log_softmax(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, np.full((1, 3), -np.log(3.0)))

    def test_large_logit_no_overflow(self):
        out = log_softmax(Tensor([[1000.0, 0.0]]))
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[0, 1] == pytest.approx(-1000.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_exponentiate_to_one(self, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(4, 6))
        out = log_softmax(Tensor(x))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(4), atol=1e-12)

    def test_needs_at_least_two_classes(self):
        with pytest.raises(DimensionError):
            log_softmax(Tensor([[1.0]]))


class TestOuterProduct:
    """The row-wise flattened outer product, one row at a time."""

    @staticmethod
    def outer(f, p):
        return row_outer(Tensor(np.atleast_2d(f)), Tensor(np.atleast_2d(p))).data[0]

    def test_definition(self):
        np.testing.assert_array_equal(self.outer([1.0, 2.0], [3.0, 4.0]), [3, 4, 6, 8])

    def test_zero_features(self):
        np.testing.assert_array_equal(self.outer([0.0, 0.0], [1.0, 2.0, 3.0]), np.zeros(6))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inner_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        f, f2 = rng.standard_normal((2, 5))
        p, p2 = rng.standard_normal((2, 3))
        lhs = float(self.outer(f, p) @ self.outer(f2, p2))
        assert lhs == pytest.approx((f @ f2) * (p @ p2), rel=1e-12, abs=1e-12)

    def test_bilinearity_in_scale(self):
        f, p = np.array([1.0, -2.0]), np.array([0.5, 2.0, -1.0])
        np.testing.assert_allclose(self.outer(3.0 * f, p), 3.0 * self.outer(f, p))

    def test_row_outer_matches_per_row(self):
        rng = np.random.default_rng(1)
        f, p = rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
        out = row_outer(Tensor(f), Tensor(p)).data
        for i in range(3):
            np.testing.assert_allclose(out[i], np.outer(f[i], p[i]).ravel())


class TestGradReversal:
    def test_forward_is_bitwise_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        out = grad_reversal(x, 1.0)
        assert np.array_equal(out.data, x.data)

    def test_backward_negates(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        grad_reversal(x, 1.0).sum().backward()
        np.testing.assert_array_equal(grad_of(x), [-1, -1, -1])

    def test_zero_coeff_blocks_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        grad_reversal(x, 0.0).sum().backward()
        np.testing.assert_array_equal(grad_of(x), [0, 0])

    @given(coeff=st.floats(0, 5, allow_nan=False), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equals_minus_coeff_times_plain(self, coeff, seed):
        vals = np.random.default_rng(seed).standard_normal(4)
        x = Tensor(vals, requires_grad=True)
        mul(grad_reversal(x, coeff), grad_reversal(x, coeff)).sum().backward()
        reversed_grad = grad_of(x).copy()
        x.zero_grad()
        mul(x, x).sum().backward()
        np.testing.assert_allclose(reversed_grad, -coeff * grad_of(x), atol=1e-12)

    def test_negative_coeff_rejected(self):
        with pytest.raises(ValueError):
            grad_reversal(Tensor([1.0]), -0.5)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(grad_of(x), [1, 1, 1])

    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        mul(x, x).backward()
        assert float(grad_of(x)) == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            mul(x, x).backward()

    @given(k=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_k_uses_accumulate_k_contributions(self, k):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        total = x.sum()
        for _ in range(k - 1):
            total = add(total, x.sum())
        total.backward()
        np.testing.assert_allclose(grad_of(x), np.full(3, float(k)))
        # single-use rewrite: k * sum(x)
        y = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        mul(y.sum(), float(k)).backward()
        np.testing.assert_allclose(grad_of(x), grad_of(y))

    def test_grads_accumulate_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        np.testing.assert_array_equal(grad_of(x), [2.0])

    def test_composite_mlp_loss_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w1 = Tensor(rng.standard_normal((4, 3)) * 0.7, requires_grad=True)
        b1 = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
        w2 = Tensor(rng.standard_normal((2, 4)) * 0.7, requires_grad=True)
        b2 = Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)
        x = Tensor(rng.standard_normal((5, 3)))
        labels = rng.integers(0, 2, size=5)

        def loss():
            lp = log_softmax(mlp(x, [w1, b1, w2, b2], "tanh"))
            return mul(gather_rows(lp, labels).mean(), -1.0)

        report = finite_diff_check(loss, [w1, b1, w2, b2], eps=1e-5, tol=1e-4)
        assert report.passed, report.entries


class TestNanPolicy:
    def test_exp_overflow_names_the_op(self):
        with pytest.raises(NonFiniteError) as exc:
            exp(Tensor([1000.0]))
        assert exc.value.op == "exp"

    @pytest.mark.parametrize("op, name", [
        (lambda big: mul(big, big), "mul"),
        (lambda big: mul(big, 10.0), "mul"),
        (lambda big: add(big, big), "add"),
        (lambda big: sub(big, Tensor(-big.data)), "sub"),
        (lambda big: matmul(big, Tensor(big.data.T)), "matmul"),
        (lambda big: row_outer(big, big), "row_outer"),
        (lambda big: big.sum(), "sum"),
        (lambda big: big.mean(), "mean"),
        (lambda big: exp(big), "exp"),
        (lambda big: log_softmax(Tensor(big.data * [[1.0, -1.0, 1.0]])), "log_softmax"),
        # negating a finite value cannot overflow, so the head gets a
        # non-finite input, as only an unchecked producer can pass one
        (lambda big: mean_log_sigmoid(_unchecked_tensor(big.data * np.inf), LOG_FLOOR,
                                      negate=True), "mul"),
    ], ids=["mul", "mul_scalar", "add", "sub", "matmul", "row_outer", "sum", "mean", "exp",
            "log_softmax", "mean_log_sigmoid"])
    def test_checked_op_raises_with_no_numpy_warning(self, op, name):
        big = Tensor(np.full((2, 3), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                op(big)
        assert exc.value.op == name

    def test_non_finite_input_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, 1.0])


class TestNoGrad:
    def test_suspends_graph_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = mul(x, x)
        assert not out.requires_grad and out._backward is None

    def test_restores_on_exit(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert mul(x, x).requires_grad


class TestMiscOps:
    def test_gather_rows_and_label_bounds(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(gather_rows(x, np.array([1, 0])).data, [2, 3])
        with pytest.raises(ValueError):
            gather_rows(x, np.array([0, 2]))

    def test_clamp_min_floors_and_blocks_gradient(self):
        # the discriminator head floors log D at LOG_FLOOR, and no gradient
        # passes below the floor
        x = Tensor([[-40.0], [2.0]], requires_grad=True)
        out = mean_log_sigmoid(x, LOG_FLOOR)
        assert out.item() == pytest.approx((LOG_FLOOR + np.log(1.0 / (1.0 + np.exp(-2.0)))) / 2)
        out.backward()
        assert grad_of(x)[0, 0] == 0.0
        assert grad_of(x)[1, 0] == pytest.approx((1.0 - 1.0 / (1.0 + np.exp(-2.0))) / 2)

    def test_log_sigmoid_matches_composition(self):
        z = np.array([-300.0, -2.0, 0.0, 2.0, 300.0])
        # one element per call, with a floor below every value
        out = np.array([mean_log_sigmoid(Tensor([[v]]), -1e9).item() for v in z])
        assert np.all(np.isfinite(out))
        mid = 1.0 / (1.0 + np.exp(-z[1:4]))
        np.testing.assert_allclose(out[1:4], np.log(mid), atol=1e-12)


class TestFiniteDiffCheck:
    def test_quadratic_is_machine_accurate(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)

        def quadratic():
            d = sub(x, Tensor([0.5, 0.5, 0.5]))
            return mul(d, d).sum()

        report = finite_diff_check(quadratic, [x], eps=1e-5, tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_corrupted_gradient_is_flagged(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def corrupted():
            out = mul(x, x).sum()
            # sabotage: an op whose backward disagrees with its forward
            return grad_reversal(out, 1.0)

        report = finite_diff_check(corrupted, [x], eps=1e-5, tol=1e-4)
        assert not report.passed

    def test_eps_bounds_enforced(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda: mul(x, x).sum(), [x], eps=0.5)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # such a tolerance would FAIL or PASS every entry: a usage error,
        # not a verdict on the gradients
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            finite_diff_check(lambda: mul(x, x).sum(), [x], tol=tol)


# ---------------------------------------------------------------------------
# Fused ops against the chains of single ops they replace, bit for bit. The
# chains are written out in plain numpy: each step's forward, then each
# step's backward in reverse, with the arithmetic of the single ops the
# engine once had (linear, relu/tanh/sigmoid, mul by -1, log_sigmoid,
# clamp_min, mean).
# ---------------------------------------------------------------------------


def _sigmoid_ref(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


_ACTIVATION_REF = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh, "sigmoid": _sigmoid_ref}


def _activation_backward_ref(g, z, a, kind):
    """Upstream gradient through an activation with input z and output a."""
    if kind == "relu":
        return g * (z > 0.0)
    if kind == "tanh":
        return g * (1.0 - a * a)
    return g * a * (1.0 - a)


def _mlp_ref(x, params, kind, g):
    """The chain of affine layers ``h @ w.T + b`` with ``kind`` between them:
    its output, and for an upstream gradient g, the gradient of x and of
    every parameter in ``params`` order."""
    ws, bs = params[0::2], params[1::2]
    inputs, pre = [x], []
    h = x
    for i, (w, b) in enumerate(zip(ws, bs)):
        z = h @ w.T + b
        if i == len(ws) - 1:
            out = z
            break
        h = _ACTIVATION_REF[kind](z)
        pre.append(z)
        inputs.append(h)
    grads = [None] * len(params)
    for i in range(len(ws) - 1, -1, -1):
        grads[2 * i] = g.T @ inputs[i]
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ ws[i]
        if i > 0:
            g = _activation_backward_ref(g, pre[i - 1], inputs[i], kind)
    return out, g, grads


def _head_ref(x, floor, negate, g):
    """mean(clamp_min(log_sigmoid(z), floor)) for z = x, or x * -1 when
    negated: its value, and the gradient of x for an upstream gradient g."""
    z = x * -1.0 if negate else x
    ls = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
    mask = ls > floor
    out = np.asarray(np.where(mask, ls, floor).mean())
    gz = np.full(z.shape, float(g / z.size)) * mask * (1.0 - _sigmoid_ref(z))
    return out, gz * -1.0 if negate else gz


def _assert_bitwise(a, b, what):
    assert a.shape == b.shape and np.array_equal(a, b), what


class TestFusedOps:
    @given(
        dims=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        rows=st.integers(1, 5),
        kind=st.sampled_from(["relu", "tanh", "sigmoid"]),
        x_grad=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_mlp_equals_unfused_chain_bitwise(self, dims, rows, kind, x_grad, seed):
        rng = np.random.default_rng(seed)
        arrays = []
        for i, o in zip(dims[:-1], dims[1:]):
            arrays += [rng.standard_normal((o, i)), rng.standard_normal(o)]
        x = rng.standard_normal((rows, dims[0]))
        g = rng.standard_normal((rows, dims[-1]))
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        x_t = Tensor(x.copy(), requires_grad=x_grad)
        out = mlp(x_t, params, kind)
        # the product with a constant hands g to the mlp node unchanged
        mul(out, Tensor(g)).sum().backward()
        out_ref, gx_ref, grads_ref = _mlp_ref(x, arrays, kind, g)
        _assert_bitwise(out.data, out_ref, "forward")
        if x_grad:
            _assert_bitwise(x_t.grad, gx_ref, "input gradient")
        else:
            assert x_t.grad is None
        for i, (p, ref) in enumerate(zip(params, grads_ref)):
            _assert_bitwise(p.grad, ref, f"parameter {i} gradient")
        # without a graph the hidden layers go through reused buffers
        with no_grad():
            _assert_bitwise(mlp(Tensor(x), params, kind).data, out_ref, "no-graph forward")

    @given(
        rows=st.integers(1, 9),
        cols=st.integers(1, 3),
        scale=st.sampled_from([0.1, 1.0, 10.0, 60.0]),
        negate=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_head_equals_unfused_chain_bitwise(self, rows, cols, scale, negate, seed):
        x = np.random.default_rng(seed).standard_normal((rows, cols)) * scale
        x_t = Tensor(x.copy(), requires_grad=True)
        out = mean_log_sigmoid(x_t, LOG_FLOOR, negate=negate)
        mul(out, 0.37).backward()
        out_ref, gx_ref = _head_ref(x, LOG_FLOOR, negate, np.asarray(0.37))
        _assert_bitwise(out.data, out_ref, "forward")
        _assert_bitwise(x_t.grad, gx_ref, "input gradient")

    def test_fused_nodes_record_one_node_each(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        params = [Tensor(np.ones((4, 3)), requires_grad=True), Tensor(np.zeros(4), requires_grad=True),
                  Tensor(np.ones((1, 4)), requires_grad=True), Tensor(np.zeros(1), requires_grad=True)]
        out = mean_log_sigmoid(mlp(x, params, "relu"), LOG_FLOOR)
        assert out.op == "mean_log_sigmoid"
        assert out._parents[0].op == "mlp"
        assert out._parents[0]._parents == (x, *params)

    def test_mlp_under_no_grad_keeps_no_graph(self):
        params = [Tensor(np.ones((4, 3)), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)]
        with no_grad():
            out = mlp(Tensor(np.ones((2, 3))), params, "relu")
        assert not out.requires_grad and out._backward is None

    @pytest.mark.parametrize("replicas", [(), (2,)], ids=["single", "stacked"])
    def test_no_graph_output_survives_a_later_call_of_the_same_shapes(self, replicas):
        rng = np.random.default_rng(0)
        shapes = [(5, 3), (5,), (5, 5), (5,), (2, 5), (2,)]
        params = [Tensor(rng.standard_normal(replicas + s)) for s in shapes]
        with no_grad():
            first = mlp(Tensor(rng.standard_normal(replicas + (4, 3))), params, "tanh")
            kept = first.data.copy()
            second = mlp(Tensor(rng.standard_normal(replicas + (4, 3))), params, "tanh")
        assert not np.array_equal(second.data, kept)
        _assert_bitwise(first.data, kept, "earlier output")

    def test_mlp_rejects_wrong_input_width_and_activation(self):
        params = [Tensor(np.ones((4, 3))), Tensor(np.zeros(4))]
        with pytest.raises(DimensionError):
            mlp(Tensor(np.ones((2, 5))), params, "relu")
        with pytest.raises(ValueError):
            mlp(Tensor(np.ones((2, 3))), params, "swish")

    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid"])
    def test_non_finite_names_the_same_op_as_the_chain(self, kind):
        # the first layer overflows to inf: the chain's 'linear' step is
        # blamed, with no numpy warning ahead of the error
        x = Tensor(np.full((2, 3), 1e300))
        params = [Tensor(np.full((4, 3), 1e300)), Tensor(np.zeros(4)),
                  Tensor(np.ones((1, 4))), Tensor(np.zeros(1))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                mlp(x, params, kind)
        assert exc.value.op == "linear"

    def test_unchecked_skips_checks_and_warnings(self):
        x = Tensor(np.full((2, 3), 1e300))
        params = [Tensor(np.full((4, 3), 1e300)), Tensor(np.zeros(4))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with unchecked():
                out = mlp(x, params, "relu")
                inf_input = Tensor(np.full(2, np.inf))
        assert not np.isfinite(out.data).all()
        assert not np.isfinite(inf_input.data).all()
        with pytest.raises(NonFiniteError) as exc:
            mlp(x, params, "relu")
        assert exc.value.op == "linear"


def _stacked_equals_slices(op, arrays, rng, ints=None):
    """``op`` on arrays with a leading replica axis equals ``op`` on each
    slice alone, bit for bit: the output and every input gradient.

    ``op(tensors, labels)`` builds the output; ``ints`` is an optional
    integer array with the same leading axis, passed as ``labels``."""
    stacked = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(stacked, ints)
    w = rng.standard_normal(out.shape)
    mul(out, Tensor(w)).sum().backward()
    for k in range(arrays[0].shape[0]):
        alone = [Tensor(a[k].copy(), requires_grad=True) for a in arrays]
        out_k = op(alone, None if ints is None else ints[k])
        _assert_bitwise(out.data[k], out_k.data, f"replica {k} forward")
        mul(out_k, Tensor(w[k])).sum().backward()
        for i, (s, a) in enumerate(zip(stacked, alone)):
            _assert_bitwise(s.grad[k], a.grad, f"replica {k} gradient of input {i}")


replicas = st.integers(1, 4)
sizes = st.integers(1, 6)


class TestReplicaAxis:
    """Every op the loss uses maps over leading replica axes, bit for bit."""

    @given(k=replicas, dims=st.lists(sizes, min_size=2, max_size=4), rows=sizes,
           kind=st.sampled_from(["relu", "tanh", "sigmoid"]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_mlp(self, k, dims, rows, kind, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((k, rows, dims[0]))]
        for i, o in zip(dims[:-1], dims[1:]):
            arrays += [rng.standard_normal((k, o, i)), rng.standard_normal((k, o))]
        _stacked_equals_slices(lambda t, _: mlp(t[0], t[1:], kind), arrays, rng)

    @given(k=replicas, n=sizes, m=sizes, p=sizes, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_matmul(self, k, n, m, p, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((k, n, m)), rng.standard_normal((k, m, p))]
        _stacked_equals_slices(lambda t, _: matmul(t[0], t[1]), arrays, rng)

    @given(k=replicas, n=sizes, c=st.integers(2, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_log_softmax_gather_rows_and_mean(self, k, n, c, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, size=(k, n))

        def cross_entropy(t, y):
            return mul(gather_rows(log_softmax(t[0]), y).mean(axis=-1), -1.0)

        arrays = [rng.standard_normal((k, n, c)) * 3.0]
        _stacked_equals_slices(cross_entropy, arrays, rng, labels)
        _stacked_equals_slices(lambda t, y: gather_rows(t[0], y), arrays, rng, labels)

    @given(k=replicas, n=sizes, df=sizes, dp=sizes, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_row_outer(self, k, n, df, dp, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((k, n, df)), rng.standard_normal((k, n, dp))]
        _stacked_equals_slices(lambda t, _: row_outer(t[0], t[1]), arrays, rng)

    @given(k=replicas, n=sizes, cols=st.integers(1, 3),
           scale=st.sampled_from([0.1, 1.0, 60.0]), negate=st.booleans(),
           coeff=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_mean_log_sigmoid_and_grad_reversal(self, k, n, cols, scale, negate, coeff, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((k, n, cols)) * scale]

        def head(t, _):
            return mean_log_sigmoid(grad_reversal(t[0], coeff), LOG_FLOOR, negate=negate)

        _stacked_equals_slices(head, arrays, rng)

    @given(k=replicas, n=sizes, d=sizes, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_elementwise_exp_and_reductions(self, k, n, d, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((k, n, d)), rng.standard_normal((k, n, d))]

        def chain(t, _):
            a, b = t
            mixed = add(mul(exp(a), b), sub(mul(a, 0.5), b))
            return add(mul(mixed, mixed).sum(axis=(-2, -1)), mixed.mean(axis=(-2, -1)))

        _stacked_equals_slices(chain, arrays, rng)

    def test_trailing_reduction_of_a_matrix_is_the_full_one(self):
        x = np.random.default_rng(1).standard_normal((7, 3))
        assert Tensor(x).sum(axis=(-2, -1)).data == Tensor(x).sum().data
        assert Tensor(x[:, 0]).mean(axis=-1).data == Tensor(x[:, 0]).mean().data

    def test_leading_axes_must_agree(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
        with pytest.raises(DimensionError):
            row_outer(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 2))))
        with pytest.raises(DimensionError):
            gather_rows(Tensor(np.ones((2, 3, 4))), np.zeros((3, 2), dtype=int))
        with pytest.raises(DimensionError):
            mlp(Tensor(np.ones((3, 4))), [Tensor(np.ones((2, 5, 4))), Tensor(np.ones((2, 5)))], "relu")
        with pytest.raises(DimensionError):
            mean_log_sigmoid(Tensor(np.ones(3)), LOG_FLOOR)


# ---------------------------------------------------------------------------
# Every op against central differences, over random shapes with and without
# a leading replica axis. grad_reversal is checked against its definition:
# -coeff times the central differences of the identity.
# ---------------------------------------------------------------------------


def _central_differences(fn, tensors, eps=1e-5):
    """The central-difference gradient of the scalar ``fn()`` for each tensor."""
    out = []
    for t in tensors:
        flat = t.data.reshape(-1)
        num = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn().data)
            flat[i] = orig - eps
            lo = float(fn().data)
            flat[i] = orig
            num[i] = (hi - lo) / (2.0 * eps)
        out.append(num.reshape(t.shape))
    return out


def _assert_matches_central_differences(build, arrays, rng, scale=1.0):
    """The gradient of sum(w * build(tensors)) for a random w against its
    central differences, times ``scale``, for every input array."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(tensors)
    w = Tensor(rng.standard_normal(out.shape))
    mul(out, w).sum().backward()
    with no_grad():
        numeric = _central_differences(lambda: mul(build(tensors), w).sum(), tensors)
    for i, (t, num) in enumerate(zip(tensors, numeric)):
        np.testing.assert_allclose(t.grad, scale * num, rtol=1e-5, atol=1e-7,
                                   err_msg=f"gradient of input {i}")


lead = st.sampled_from([(), (1,), (3,)])
dims = st.integers(1, 4)
seeds = st.integers(0, 2**16)


class TestCentralDifferences:
    @given(lead=lead, n=dims, d=dims, op=st.sampled_from(["add", "sub", "mul", "mul_scalar"]),
           seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_elementwise(self, lead, n, d, op, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (n, d)) for _ in range(2)]
        build = {
            "add": lambda t: add(t[0], t[1]),
            "sub": lambda t: sub(t[0], t[1]),
            "mul": lambda t: mul(t[0], t[1]),
            "mul_scalar": lambda t: mul(t[0], -1.7),
        }[op]
        _assert_matches_central_differences(build, arrays[:1] if op == "mul_scalar" else arrays, rng)

    @given(lead=lead, n=dims, m=dims, p=dims, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_matmul(self, lead, n, m, p, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (n, m)), rng.standard_normal(lead + (m, p))]
        _assert_matches_central_differences(lambda t: matmul(t[0], t[1]), arrays, rng)

    @given(lead=lead, n=dims, df=dims, dp=dims, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_row_outer(self, lead, n, df, dp, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (n, df)), rng.standard_normal(lead + (n, dp))]
        _assert_matches_central_differences(lambda t: row_outer(t[0], t[1]), arrays, rng)

    @given(lead=lead, n=dims, c=st.integers(2, 5),
           op=st.sampled_from(["exp", "log_softmax"]), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_smooth_maps(self, lead, n, c, op, seed):
        rng = np.random.default_rng(seed)
        build = {"exp": exp, "log_softmax": log_softmax}[op]
        arrays = [rng.standard_normal(lead + (n, c)) * 2.0]
        _assert_matches_central_differences(lambda t: build(t[0]), arrays, rng)

    @given(lead=lead, n=dims, d=dims, mean=st.booleans(),
           axis=st.sampled_from([None, -1, -2, (-2, -1)]), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_sum_and_mean(self, lead, n, d, mean, axis, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (n, d))]
        build = (lambda t: t[0].mean(axis=axis)) if mean else (lambda t: t[0].sum(axis=axis))
        _assert_matches_central_differences(build, arrays, rng)

    @given(lead=lead, n=dims, c=st.integers(1, 5), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_gather_rows(self, lead, n, c, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, size=lead + (n,))
        arrays = [rng.standard_normal(lead + (n, c))]
        _assert_matches_central_differences(lambda t: gather_rows(t[0], labels), arrays, rng)

    @given(lead=lead, n=dims, widths=st.lists(dims, min_size=2, max_size=4),
           kind=st.sampled_from(["relu", "tanh", "sigmoid"]), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_mlp(self, lead, n, widths, kind, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (n, widths[0]))]
        for i, o in zip(widths[:-1], widths[1:]):
            arrays += [rng.standard_normal(lead + (o, i)), rng.standard_normal(lead + (o,))]
        if kind == "relu":
            # a probe must not cross a kink: keep every hidden input away from 0
            h = arrays[0]
            for w, b in zip(arrays[1:-2:2], arrays[2:-2:2]):
                z = h @ np.swapaxes(w, -1, -2) + b[..., None, :]
                assume(np.abs(z).min() > 1e-3)
                h = np.maximum(z, 0.0)
        _assert_matches_central_differences(lambda t: mlp(t[0], t[1:], kind), arrays, rng)

    @given(lead=lead, n=dims, d=dims, negate=st.booleans(),
           floor=st.sampled_from([LOG_FLOOR, -1.0]), scale=st.sampled_from([1.0, 10.0]),
           seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_mean_log_sigmoid(self, lead, n, d, negate, floor, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (n, d)) * scale
        # a probe must not cross the floor
        z = -x if negate else x
        ls = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
        assume(np.abs(ls - floor).min() > 1e-3)
        _assert_matches_central_differences(
            lambda t: mean_log_sigmoid(t[0], floor, negate=negate), [x], rng
        )

    @given(lead=lead, n=dims, d=dims, coeff=st.sampled_from([0.0, 0.3, 1.0, 2.5]), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_grad_reversal(self, lead, n, d, coeff, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (n, d))]
        _assert_matches_central_differences(
            lambda t: grad_reversal(t[0], coeff), arrays, rng, scale=-coeff
        )


class TestTrace:
    def _setup(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 3)))
        params = [
            Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True),
            Tensor(rng.standard_normal((2, 5)), requires_grad=True),
            Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True),
            Tensor(rng.standard_normal((2, 3)), requires_grad=True),
        ]
        labels = rng.integers(0, 3, (2, 4))
        coeff = np.array([0.3])

        def loss():
            h = mlp(x, params, "tanh")
            lp = log_softmax(grad_reversal(add(h, mul(h, h)), coeff))
            return mul(gather_rows(lp, labels).mean(axis=-1), -1.0).sum()

        return x, params, labels, coeff, loss

    def test_plan_replays_new_inputs_bitwise(self):
        rng = np.random.default_rng(0)
        x, params, labels, coeff, loss = self._setup(rng)
        with trace() as plan:
            loss().backward()
        # new inputs, labels, coefficient and weights, all in place
        x.data[...] = rng.standard_normal(x.shape)
        labels[...] = rng.integers(0, 3, labels.shape)
        coeff[0] = 0.7
        for p in params:
            p.data += 0.1
            p.grad = None
        with unchecked():
            plan.run()
        replayed = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        loss().backward()
        for got, p in zip(replayed, params):
            assert np.array_equal(got, p.grad)

    def test_a_leaf_grad_is_its_own_array(self):
        # the closures reuse their arrays, so a kept grad must not be one
        rng = np.random.default_rng(1)
        x, params, _, _, loss = self._setup(rng)
        out = loss()
        out.backward()
        kept = [p.grad.copy() for p in params]
        grads = [p.grad for p in params]
        for p in params:
            p.grad = None
        out.backward()
        for k, g in zip(kept, grads):
            assert np.array_equal(k, g)


class TestMlpAgain:
    def test_equals_a_second_application_bitwise(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((4, 3))
        start = [rng.standard_normal(s) for s in ((5, 3), (5,), (2, 5), (2,))]
        w = [rng.standard_normal((4, 2)) for _ in range(2)]
        runs = []
        for reuse in (True, False):
            x = Tensor(x0, requires_grad=True)
            params = [Tensor(a.copy(), requires_grad=True) for a in start]
            first = mlp(x, params, "relu")
            second = mlp_again(first, x.detach()) if reuse else mlp(x.detach(), params, "relu")
            add(mul(first, Tensor(w[0])).sum(), mul(second, Tensor(w[1])).sum()).backward()
            runs.append((second, [x.grad, *(p.grad for p in params)]))
        (again, reused), (fresh, plain) = runs
        assert again.op == fresh.op == "mlp" and np.array_equal(again.data, fresh.data)
        for a, b in zip(reused, plain):
            assert np.array_equal(a, b)

    def test_rejects_an_input_that_takes_a_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = mlp(x, [Tensor(np.ones((1, 3)), requires_grad=True), Tensor(np.zeros(1))], "relu")
        with pytest.raises(GraphError):
            mlp_again(out, x)
