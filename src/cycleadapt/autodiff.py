"""Dense float64 tensors with reverse-mode automatic differentiation.

A small define-by-run engine: each operation records its input tensors and
a closure that maps the output gradient to input gradients. ``backward()``
on a scalar walks the recorded graph once in reverse topological order and
accumulates gradients additively, so a tensor used along several paths
receives the sum of all path contributions.

Deliberate constraints, chosen for debuggability at desk scale:

* float64 everywhere; gradient checking needs the headroom
* leading axes broadcast, trailing two are the op's: a matrix op reads
  its operands' last two axes as [rows, columns] (a row op, such as
  ``gather_rows``, its last axis as the rows), and any axes before those
  are replica axes that it maps over, slice by slice, bit for bit as if
  each slice were run alone. A leading axis of size K thus trains K
  replicas in one pass; their shapes must agree, since there is no
  broadcasting between operands: ``add``, ``sub`` and ``mul`` take two
  tensors of one shape, and ``mul`` also a Python number. ``sum`` and
  ``mean`` reduce every axis unless given ``axis``
* any op that produces a non-finite value raises :class:`NonFiniteError`
  naming the op, with numpy's floating-point warnings off, so
  adversarial-training blowups surface immediately, and only once.
  Inside :func:`unchecked` these per-op checks are off; the training step
  uses it to check only its loss and its flat gradient, once per step, and
  replays the step's forward with checks on when either is non-finite, so
  the error still names the op that went non-finite first. A non-finite
  intermediate that reaches neither the loss nor any gradient (say, a
  logit that overflowed and was then floored away) no longer stops a step
* ``mlp`` and ``mean_log_sigmoid`` are fused ops: one graph node for a
  whole network application or discriminator head. A non-finite check
  inside one names the step of the chain it fuses ('linear', the
  activation, 'mul', 'log_sigmoid', 'clamp_min', 'mean'), and the tests
  check its value and every input gradient bit for bit against that
  chain, written out in plain numpy
* ``grad_reversal`` is the identity forward and multiplies the upstream
  gradient by ``-coeff`` backward; it is what lets one descent step drive
  both sides of a minimax game
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Tensor",
    "DimensionError",
    "GraphError",
    "NonFiniteError",
    "no_grad",
    "unchecked",
    "add",
    "sub",
    "mul",
    "matmul",
    "mlp",
    "ACTIVATIONS",
    "stable_sigmoid",
    "exp",
    "log_softmax",
    "mean_log_sigmoid",
    "row_outer",
    "gather_rows",
    "grad_reversal",
    "GradCheckReport",
    "finite_diff_check",
]


class DimensionError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class GraphError(ValueError):
    """Computation-graph misuse, e.g. backward on a non-scalar."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf. ``op`` names the producer."""

    def __init__(self, op: str, detail: str = ""):
        self.op = op
        self.detail = detail
        msg = f"non-finite value produced by op '{op}'"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)

    def __reduce__(self):
        # rebuild from the constructor's arguments, not the message, so the
        # error crosses a process boundary intact
        return (type(self), (self.op, self.detail))


_GRAD_ENABLED = True
_CHECK_FINITE = True


@contextmanager
def no_grad():
    """Suspend graph recording; ops inside run as plain array math."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextmanager
def unchecked():
    """Suspend the per-op finiteness checks and numpy's floating-point
    warnings. The caller owns checking the result; replaying the same ops
    outside this context raises at the op that went non-finite first."""
    global _CHECK_FINITE
    prev = _CHECK_FINITE
    _CHECK_FINITE = False
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _CHECK_FINITE = prev


def _quiet(op):
    """``op`` with numpy's floating-point warnings off while the per-op
    checks are on, since the check reports a non-finite value itself.
    Inside ``unchecked`` the warnings are off already and ``op`` runs as
    it is."""

    @functools.wraps(op)
    def quiet_op(*args, **kwargs):
        if not _CHECK_FINITE:
            return op(*args, **kwargs)
        with np.errstate(all="ignore"):
            return op(*args, **kwargs)

    return quiet_op


def _check(data: Array, op: str) -> None:
    # A sum of finite float64 values can only be non-finite if an operand
    # was, or on astronomic overflow; either way the op must be flagged.
    if _CHECK_FINITE and not math.isfinite(float(data.sum())):
        raise NonFiniteError(op)


# Backward closures receive the output gradient and return one gradient
# array (or None) per parent, in parent order.
BackwardFn = Callable[[Array], tuple]


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if _CHECK_FINITE and not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor", "non-finite input data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: BackwardFn | None = None
        self.op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        """Populate ``grad`` on every reachable requires_grad tensor.

        Requires a scalar (single-element) tensor. Each graph node is
        visited exactly once; gradients for tensors reached through
        several paths are summed.
        """
        if self.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return

        # Depth-first post-order over the recorded nodes. Leaves are left
        # out of the walk (they have no parents, so this leaves the order of
        # the recorded nodes unchanged) and receive their sums at the end.
        # Tensors hash by identity, so they key the sets and dicts directly.
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and p not in seen:
                    stack.append((p, False))

        pending: dict[Tensor, Array] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = pending.pop(node, None)
            if g is None:
                continue
            # accumulation stays out-of-place: closure outputs may alias
            # other tensors' pending gradients
            node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent in pending:
                    pending[parent] = pending[parent] + pg
                else:
                    pending[parent] = pg
        for leaf, g in pending.items():
            leaf.grad = g if leaf.grad is None else leaf.grad + g

    @_quiet
    def sum(self, axis=None) -> "Tensor":
        shape = self.shape
        out = np.asarray(self.data.sum(axis=axis))
        return _result(out, "sum", (self,), lambda g: (_spread(g, shape, axis),))

    @_quiet
    def mean(self, axis=None) -> "Tensor":
        shape = self.shape
        out = np.asarray(self.data.mean(axis=axis))
        n = self.size // max(out.size, 1)
        return _result(out, "mean", (self,), lambda g: (_spread(g / n, shape, axis),))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{flag})"


def _result(data: Array, op: str, parents: tuple[Tensor, ...], backward: BackwardFn) -> Tensor:
    _check(data, op)
    return _node(data, op, parents, backward)


def _node(data: Array, op: str, parents: tuple[Tensor, ...], backward: BackwardFn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


@_quiet
def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _result(a.data + b.data, "add", (a, b), lambda g: (g, g))


@_quiet
def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _result(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


@_quiet
def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a tensor of the same shape, or scaling by a
    Python number."""
    if isinstance(b, (int, float)):
        bval = float(b)
        return _result(a.data * bval, "mul", (a,), lambda g: (g * bval,))
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _result(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


@_quiet
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise DimensionError(f"matmul needs matrix operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        # a constant operand, such as a randomized map, gets no gradient
        return (
            g @ bd.mT if a.requires_grad else None,
            ad.mT @ g if b.requires_grad else None,
        )

    return _result(ad @ bd, "matmul", (a, b), backward)


def stable_sigmoid(z: Array) -> Array:
    """The logistic function of an array, without overflow at either end;
    plain array math, not a graph op."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


ACTIVATIONS = ("relu", "tanh", "sigmoid")


# the hidden-layer buffers of an mlp that records no graph: two per shape,
# one per layer parity, so that a layer never writes over its own input
@functools.lru_cache(maxsize=16)
def _scratch(shape: tuple[int, ...], slot: int) -> Array:
    return np.empty(shape)


@_quiet
def mlp(x: Tensor, params: Sequence[Tensor], kind: str) -> Tensor:
    """A stack of affine layers with activation ``kind`` between them, as
    one graph node.

    ``params`` is (weight_0, bias_0, weight_1, bias_1, ...); each layer is
    ``h @ weight.T + bias``, and the last one has no activation. Replicas
    stack as x[K, n, in], weight[K, out, in] and bias[K, out]. A
    non-finite check names 'linear' for a layer's affine map and ``kind``
    for its activation, with numpy's floating-point warnings off, since
    the check reports the value. Only the layer inputs are kept for the
    backward pass, since each activation's derivative follows from its
    output.

    When nothing is recorded (under ``no_grad``, or with no input that
    requires a gradient), nothing is kept, and each hidden layer writes
    into a scratch buffer that later calls reuse: an evaluation pass then
    maps and faults in no fresh memory. The output is always a fresh
    array, so a caller may keep it across later calls.
    """
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation kind {kind!r}")
    weights, biases = params[0::2], params[1::2]
    w0 = weights[0].data
    if x.data.ndim != w0.ndim or x.shape[-1] != w0.shape[-1]:
        raise DimensionError(f"mlp expects x[..., n, {w0.shape[-1]}], got {x.shape}")
    parents = (x, *params)
    record = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    ws = [w.data for w in weights]
    bs = [b.data[..., None, :] for b in biases]
    last = len(ws) - 1
    inputs: list[Array] = []
    h = x.data
    for i, w in enumerate(ws):
        if record:
            inputs.append(h)
            h = h @ w.mT
        elif i < last:
            h = np.matmul(h, w.mT, out=_scratch((*h.shape[:-1], w.shape[-2]), i % 2))
        else:
            h = h @ w.mT
        h += bs[i]
        _check(h, "linear")
        if i == last:
            break
        if kind == "relu":
            np.maximum(h, 0.0, out=h)
        elif kind == "tanh":
            np.tanh(h, out=h)
        else:
            h = stable_sigmoid(h)
        _check(h, kind)

    def backward(g):
        grads: list[Array | None] = [None] * len(parents)
        for i in range(last, -1, -1):
            if weights[i].requires_grad:
                grads[2 * i + 1] = g.mT @ inputs[i]
            if biases[i].requires_grad:
                grads[2 * i + 2] = g.sum(axis=-2)
            if i == 0:
                if x.requires_grad:
                    grads[0] = g @ ws[0]
                break
            g = g @ ws[i]
            a = inputs[i]  # the activation's output
            if kind == "relu":
                g = g * (a > 0.0)
            elif kind == "tanh":
                g = g * (1.0 - a * a)
            else:
                g = g * a * (1.0 - a)
        return grads

    return _node(h, "mlp", parents, backward)


@_quiet
def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    return _result(e, "exp", (x,), lambda g: (g * e,))


@_quiet
def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log softmax over a [..., batch, C] tensor, C >= 2, max-shifted."""
    if x.data.ndim < 2:
        raise DimensionError(f"log_softmax needs [..., batch, C], got {x.shape}")
    if x.shape[-1] < 2:
        raise DimensionError(f"log_softmax needs C >= 2, got C={x.shape[-1]}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    soft = np.exp(out)
    return _result(out, "log_softmax", (x,), lambda g: (g - soft * g.sum(axis=-1, keepdims=True),))


@_quiet
def mean_log_sigmoid(x: Tensor, floor: float, negate: bool = False) -> Tensor:
    """mean(clamp_min(log_sigmoid(z), floor)) over the trailing two axes,
    for z = x, or z = -x when ``negate``, as one graph node.

    With D = sigmoid(x) this is the floored E[log D], or E[log(1 - D)]
    when negated: one side of a discriminator's log-likelihood. A
    non-finite check names the step of that chain that produced the
    value: 'mul' (the negation), 'log_sigmoid', 'clamp_min' or 'mean'.
    """
    z = x.data
    if z.ndim < 2:
        raise DimensionError(f"mean_log_sigmoid needs [..., n, d], got {x.shape}")
    if negate:
        z = z * -1.0
        _check(z, "mul")
    e = np.exp(-np.abs(z))
    ls = np.minimum(z, 0.0) - np.log1p(e)
    _check(ls, "log_sigmoid")
    mask = ls > floor
    clamped = np.where(mask, ls, floor)
    _check(clamped, "clamp_min")
    out = np.asarray(clamped.mean(axis=(-2, -1)))
    _check(out, "mean")
    n = z.shape[-2] * z.shape[-1]

    def backward(g):
        # the sigmoid of z, as stable_sigmoid computes it from the same e
        s = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        gz = (np.asarray(g) / n)[..., None, None] * mask * (1.0 - s)
        return (gz * -1.0 if negate else gz,)

    return _node(out, "mean_log_sigmoid", (x,), backward)


@_quiet
def row_outer(f: Tensor, p: Tensor) -> Tensor:
    """Row-wise flattened outer product: [n, df] x [n, dp] -> [n, df*dp]."""
    if f.data.ndim < 2 or f.data.ndim != p.data.ndim:
        raise DimensionError(f"row_outer needs matrix operands, got {f.shape} and {p.shape}")
    if f.shape[:-1] != p.shape[:-1]:
        raise DimensionError(f"row_outer batch sizes disagree: {f.shape} vs {p.shape}")
    fd, pd = f.data, p.data
    rows, df, dp = fd.shape[:-1], fd.shape[-1], pd.shape[-1]
    out = (fd[..., :, None] * pd[..., None, :]).reshape(*rows, df * dp)

    def bwd(g):
        gm = g.reshape(*rows, df, dp)
        return np.einsum("...iab,...ib->...ia", gm, pd), np.einsum("...iab,...ia->...ib", gm, fd)

    return _result(out, "row_outer", (f, p), bwd)


def gather_rows(x: Tensor, idx) -> Tensor:
    """out[..., i] = x[..., i, idx[..., i]] for a [..., n, C] tensor and
    integer labels."""
    if x.data.ndim < 2:
        raise DimensionError(f"gather_rows needs [..., n, C], got {x.shape}")
    idx = np.asarray(idx)
    if idx.shape != x.shape[:-1]:
        raise DimensionError(f"gather_rows index shape {idx.shape} vs rows {x.shape[:-1]}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("gather_rows needs integer indices")
    shape, c = x.shape, x.shape[-1]
    if idx.min() < 0 or idx.max() >= c:
        raise ValueError(f"gather_rows index out of range [0, {c})")
    # every row of every replica as one [rows, C] table
    flat = idx.reshape(-1)
    rows = np.arange(flat.size)
    out = x.data.reshape(-1, c)[rows, flat].reshape(idx.shape)

    def bwd(g):
        gx = np.zeros((flat.size, c))
        gx[rows, flat] = g.reshape(-1)
        return (gx.reshape(shape),)

    return _result(out, "gather_rows", (x,), bwd)


def grad_reversal(x: Tensor, coeff: float = 1.0) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -coeff."""
    coeff = float(coeff)
    if coeff < 0.0:
        raise ValueError(f"grad_reversal coeff must be nonnegative, got {coeff}")
    return _result(x.data, "grad_reversal", (x,), lambda g: (g * (-coeff),))


def _spread(g: Array, shape: tuple[int, ...], axis) -> Array:
    """The gradient of a reduction over ``axis`` (all axes for None): g
    repeated over the axes the reduction removed."""
    if g.ndim == 0:
        return np.full(shape, float(g))
    out = np.empty(shape)
    out[...] = np.expand_dims(g, axis)
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient verification
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Per-parameter comparison of analytic vs central-difference gradients.

    Relative error uses |a - n| / max(|a|, |n|, floor) so elements with a
    genuinely tiny gradient do not dominate the report.
    """

    eps: float
    tol: float
    entries: list[tuple[str, float]] = field(default_factory=list)
    failure: str | None = None

    @property
    def max_rel_err(self) -> float:
        return max((e for _, e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.failure is None and self.max_rel_err < self.tol

    def worst(self) -> tuple[str, float]:
        if not self.entries:
            return ("<none>", 0.0)
        return max(self.entries, key=lambda kv: kv[1])


def finite_diff_check(
    fn: Callable[[], Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    names: Sequence[str] | None = None,
    rel_floor: float = 1e-8,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar function against central differences.

    ``fn`` must rebuild its graph from the current contents of ``inputs``
    each call; the check perturbs each input element by +/- eps in place.
    A non-finite intermediate is reported as a failure naming the op that
    produced it.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    report = GradCheckReport(eps=eps, tol=tol)
    if names is None:
        names = [f"input[{i}]" for i in range(len(inputs))]

    for t in inputs:
        t.zero_grad()
    try:
        out = fn()
        if out.size != 1:
            raise GraphError("finite_diff_check needs a scalar-valued fn")
        out.backward()
    except NonFiniteError as err:
        report.failure = f"analytic pass: {err}"
        return report
    analytic = [
        np.zeros_like(t.data) if t.grad is None else np.array(t.grad) for t in inputs
    ]

    def value() -> float:
        with no_grad():
            return float(fn().data)

    try:
        for t, name, a in zip(inputs, names, analytic):
            flat = t.data.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = value()
                flat[i] = orig - eps
                lo = value()
                flat[i] = orig
                num[i] = (hi - lo) / (2.0 * eps)
            num = num.reshape(t.data.shape)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), rel_floor)
            rel = float((np.abs(a - num) / denom).max()) if a.size else 0.0
            report.entries.append((name, rel))
    except NonFiniteError as err:
        report.failure = f"numeric pass: {err}"
        return report

    return report


LOG_EPS = 1e-12
LOG_FLOOR = math.log(LOG_EPS)
