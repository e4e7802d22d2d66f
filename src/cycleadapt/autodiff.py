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
  Inside :func:`unchecked` these per-op checks are off, and the caller
  checks only what it keeps: the training step its loss and its flat
  gradient, once per step, and an evaluation its logits and
  log-probabilities, once per block of rows (:func:`check_finite`, with
  the per-op predicate). Either replays its forward with checks on when a
  check fails, so the error still names the op that went non-finite
  first. A non-finite intermediate that reaches nothing checked (say, a
  logit that overflowed and was then floored away, or a hidden value that
  an activation maps from non-finite to finite) no longer stops a step or
  an evaluation
* ``mlp`` and ``mean_log_sigmoid`` are fused ops: one graph node for a
  whole network application or discriminator head. A non-finite check
  inside one names the step of the chain it fuses ('linear', the
  activation, 'mul', 'log_sigmoid', 'clamp_min', 'mean'), and the tests
  check its value and every input gradient bit for bit against that
  chain, written out in plain numpy
* ``grad_reversal`` is the identity forward and multiplies the upstream
  gradient by ``-coeff`` backward; it is what lets one descent step drive
  both sides of a minimax game
* every op computes its output with a kernel that writes into arrays the
  op allocated once, and the backward closures read those same arrays.
  Inside :func:`trace` the kernels are kept, in creation order, with the
  laid-out backward pass of the one ``backward()`` call, as a
  :class:`Plan`. ``Plan.run`` computes the step again, into the same
  arrays, from whatever its inputs hold then: no Tensor, no walk and no
  dict. The trainer traces its step once per ``train`` call, at step 1,
  and drops the plan when the call returns (see ``trainer._TracedStep``)
* a leaf that an optimizer owns (see ``nn.Sgd``) receives its gradient in
  a view of the optimizer's flat gradient buffer: the first contribution
  is copied in and later ones are added in place, in arrival order, so
  the sum has the bits of an out-of-place one. Its ``grad`` is then that
  view, which the next backward pass overwrites. Interior nodes keep no
  ``grad``
"""

from __future__ import annotations

import functools
import math
import threading
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
    "check_finite",
    "Plan",
    "trace",
    "add",
    "sub",
    "mul",
    "matmul",
    "mlp",
    "mlp_again",
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
# the plan being traced (see ``trace``), or None
_PLAN: "Plan | None" = None


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
    outside this context raises at the op that went non-finite first.

    The checks are off process-wide, but numpy keeps its error state per
    thread: a thread that runs ops meanwhile enters its own
    ``np.errstate(all="ignore")``."""
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
    it is. A replayed ``Plan`` calls no op, so it never passes here."""

    @functools.wraps(op)
    def quiet_op(*args, **kwargs):
        if not _CHECK_FINITE:
            return op(*args, **kwargs)
        with np.errstate(all="ignore"):
            return op(*args, **kwargs)

    return quiet_op


def _finite(data: Array) -> bool:
    # A sum of finite float64 values is non-finite only if an operand is,
    # or when the sum alone overflows; the elementwise test, run only on
    # that rare path, tells the two apart.
    return math.isfinite(float(data.sum())) or bool(np.isfinite(data).all())


def _check(data: Array, op: str) -> None:
    if _CHECK_FINITE and not _finite(data):
        raise NonFiniteError(op)


@_quiet
def check_finite(data: Array, op: str) -> None:
    """Raise NonFiniteError naming ``op`` when ``data`` holds a non-finite
    value, whether or not the per-op checks are on: the one check of a
    caller that runs its ops ``unchecked``."""
    if not _finite(data):
        raise NonFiniteError(op)


# Backward closures receive the output gradient and return one gradient
# array (or None) per parent, in parent order.
BackwardFn = Callable[[Array], tuple]


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op", "_grad_out")

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
        # where backward writes this leaf's gradient: a view of the flat
        # gradient buffer of the optimizer that owns it, or None
        self._grad_out: Array | None = None

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
        """Add this scalar's gradient into ``grad`` of every reachable leaf
        that requires one.

        Each graph node is visited exactly once; gradients for tensors
        reached through several paths are summed. A leaf whose ``grad`` is
        None and that an optimizer owns gets a view of the optimizer's
        gradient buffer as its ``grad``; the next backward pass overwrites
        that view. Interior nodes keep no gradient. Inside ``trace`` the
        laid-out pass becomes the plan's backward pass.
        """
        if self.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return
        if self._backward is None:  # a leaf: its gradient is one
            g = np.ones_like(self.data)
            self.grad = g if self.grad is None else self.grad + g
            return
        backward = _Backward(self)
        backward.run()
        if _PLAN is not None:
            _PLAN.backward = backward

    @_quiet
    def sum(self, axis=None) -> "Tensor":
        shape, data = self.shape, self.data
        out = np.asarray(data.sum(axis=axis))
        _record(lambda: np.add.reduce(data, axis=axis, out=out))
        return _result(out, "sum", (self,), lambda g: (_spread(g, shape, axis),))

    @_quiet
    def mean(self, axis=None) -> "Tensor":
        shape, data = self.shape, self.data
        out = np.asarray(data.mean(axis=axis))
        n = self.size // max(out.size, 1)
        # np.mean's own steps: the sum, then the division by the count
        _record(lambda: np.divide(np.add.reduce(data, axis=axis, out=out), n, out=out))
        return _result(out, "mean", (self,), lambda g: (_spread(g / n, shape, axis),))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{flag})"


class _Backward:
    """The backward pass from one scalar, laid out once.

    The recorded nodes are taken in the walk order: a depth-first
    post-order over the nodes, reversed, so that a node comes after every
    node that reads it. Leaves are left out of the walk (they have no
    parents, so this leaves the order of the recorded nodes unchanged).
    Each node and each leaf that requires a gradient has one slot, and
    each node's closure is stored with the slot of each of its parents
    (-1 for a parent that takes none). A leaf sums into its view of the
    buffer of the optimizer that owns it, other leaves and nodes that more
    than one edge feeds into a buffer of their own: the first
    contribution is copied in, later ones are added in place in arrival
    order, which gives the bits of the out-of-place sum. A node fed once
    keeps the contribution itself. So a leaf's ``grad`` never shares an
    array with a closure, which may reuse its arrays at its next run.
    """

    def __init__(self, loss: Tensor):
        # Tensors hash by identity, so they key the sets and dicts directly.
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
        topo.reverse()
        slot = {node: i for i, node in enumerate(topo)}
        tensors = list(topo)  # the tensor of each slot: the nodes, then the leaves
        self.steps: list[tuple[BackwardFn, tuple[int, ...]]] = []
        for node in topo:
            targets = []
            for p in node._parents:
                t = -1
                if p.requires_grad:
                    t = slot.get(p, -1)
                    if t < 0:
                        t = slot[p] = len(tensors)
                        tensors.append(p)
                targets.append(t)
            self.steps.append((node._backward, tuple(targets)))
        edges = [0] * len(tensors)
        for _, targets in self.steps:
            for t in targets:
                if t >= 0:
                    edges[t] += 1
        self.leaves = [(leaf, t) for t, leaf in enumerate(tensors) if t >= len(topo)]
        self.buffers: list[Array | None] = [
            np.empty(x.shape) if edges[i] > 1 else None for i, x in enumerate(topo)
        ] + [
            leaf._grad_out if leaf._grad_out is not None and leaf.grad is None
            else np.empty(leaf.shape)
            for leaf, _ in self.leaves
        ]
        self.seed = np.ones_like(loss.data)

    def run(self) -> None:
        grads: list[Array | None] = [None] * len(self.buffers)
        grads[0] = self.seed
        buffers = self.buffers
        for i, (backward, targets) in enumerate(self.steps):
            g = grads[i]
            if g is None:
                continue
            grads[i] = None
            for t, pg in zip(targets, backward(g)):
                if pg is None or t < 0:
                    continue
                acc = grads[t]
                if acc is not None:
                    acc += pg
                elif buffers[t] is None:
                    grads[t] = pg
                else:
                    acc = grads[t] = buffers[t]
                    acc[...] = pg
        for leaf, t in self.leaves:
            g = grads[t]
            if g is not None:
                leaf.grad = g if leaf.grad is None else leaf.grad + g


class Plan:
    """A traced step: the forward kernel of each op, in creation order,
    and the laid-out backward pass. ``run`` computes every value and
    gradient again, into the arrays the trace allocated, from whatever
    the traced inputs (the leaves' arrays, and any array or cell an op
    reads, such as ``gather_rows``'s labels and ``grad_reversal``'s
    coefficient) hold when it runs. It adds nothing to the arrays it
    reads, so the caller refills the inputs in place, and run it inside
    ``unchecked``: a plan checks nothing."""

    def __init__(self):
        self.kernels: list[Callable[[], object]] = []
        self.backward: _Backward | None = None

    def run(self) -> None:
        for kernel in self.kernels:
            kernel()
        self.backward.run()


@contextmanager
def trace():
    """Yield a ``Plan`` that records every op run inside the block, and
    the one ``backward()`` called there. Like ``no_grad``, it is
    process-wide: no other thread may run ops meanwhile."""
    global _PLAN
    prev, _PLAN = _PLAN, Plan()
    try:
        yield _PLAN
    finally:
        _PLAN = prev


def _record(kernel: Callable[[], object]) -> None:
    """Keep an op's forward kernel in the plan being traced, if any."""
    if _PLAN is not None:
        _PLAN.kernels.append(kernel)


def _run(kernel: Callable[[], object]) -> None:
    """Compute a new op's output with its kernel, and keep the kernel."""
    kernel()
    _record(kernel)


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
    ad, bd, out = a.data, b.data, np.empty(a.shape)
    _run(lambda: np.add(ad, bd, out=out))
    return _result(out, "add", (a, b), lambda g: (g, g))


@_quiet
def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    ad, bd, out = a.data, b.data, np.empty(a.shape)
    _run(lambda: np.subtract(ad, bd, out=out))
    return _result(out, "sub", (a, b), lambda g: (g, -g))


@_quiet
def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a tensor of the same shape, or scaling by a
    Python number."""
    ad, out = a.data, np.empty(a.shape)
    if isinstance(b, (int, float)):
        bval = float(b)
        _run(lambda: np.multiply(ad, bval, out=out))
        return _result(out, "mul", (a,), lambda g: (g * bval,))
    _check_same_shape(a, b, "mul")
    bd = b.data
    _run(lambda: np.multiply(ad, bd, out=out))
    return _result(out, "mul", (a, b), lambda g: (g * bd, g * ad))


@_quiet
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise DimensionError(f"matmul needs matrix operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = np.empty((*a.shape[:-1], b.shape[-1]))
    _run(lambda: np.matmul(ad, bd, out=out))

    def backward(g):
        # a constant operand, such as a randomized map, gets no gradient
        return (
            g @ bd.mT if a.requires_grad else None,
            ad.mT @ g if b.requires_grad else None,
        )

    return _result(out, "matmul", (a, b), backward)


def stable_sigmoid(z: Array, out: Array | None = None) -> Array:
    """The logistic function of an array, without overflow at either end,
    into ``out`` if given; plain array math, not a graph op."""
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0.0, 1.0, e), 1.0 + e, out=out)


ACTIVATIONS = ("relu", "tanh", "sigmoid")


_THREAD = threading.local()


def _scratch(shape: tuple[int, ...], slot: int) -> Array:
    """A hidden-layer buffer of an mlp that records no graph: two per shape,
    one per layer parity, so that a layer never writes over its own input,
    and one set per thread, so that threads evaluating at once never share
    one."""
    try:
        buffers = _THREAD.scratch
    except AttributeError:
        buffers = _THREAD.scratch = functools.lru_cache(maxsize=16)(
            lambda shape, slot: np.empty(shape)
        )
    return buffers(shape, slot)


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

    When nothing is recorded or traced (under ``no_grad``, or with no
    input that requires a gradient), nothing is kept, and each hidden
    layer writes into a scratch buffer of the calling thread that its
    later calls reuse: a repeated evaluation on one thread then maps and
    faults in no fresh memory. A thread that lives for one call, as the
    helper threads of ``trainer.evaluate`` do, allocates its buffers once
    per call. The output is always a fresh array, so a caller may keep it
    across later calls.
    """
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation kind {kind!r}")
    weights, biases = params[0::2], params[1::2]
    w0 = weights[0].data
    if x.data.ndim != w0.ndim or x.shape[-1] != w0.shape[-1]:
        raise DimensionError(f"mlp expects x[..., n, {w0.shape[-1]}], got {x.shape}")
    parents = (x, *params)
    keep = _PLAN is not None or (_GRAD_ENABLED and any(p.requires_grad for p in parents))
    ws = [w.data for w in weights]
    wts = [w.mT for w in ws]
    bs = [b.data[..., None, :] for b in biases]
    last = len(ws) - 1
    shapes = [(*x.shape[:-1], w.shape[-2]) for w in ws]
    # each layer's affine map, and the activation of each hidden layer:
    # in place, but for the sigmoid, whose output is an array of its own
    affine = [
        np.empty(s) if keep or i == last else _scratch(s, i % 2) for i, s in enumerate(shapes)
    ]
    acts = [np.empty(s) for s in shapes[:last]] if kind == "sigmoid" else affine[:last]
    xd = x.data

    def forward():
        h = xd
        for i in range(last + 1):
            h = np.matmul(h, wts[i], out=affine[i])
            h += bs[i]
            _check(h, "linear")
            if i == last:
                break
            if kind == "relu":
                np.maximum(h, 0.0, out=h)
            elif kind == "tanh":
                np.tanh(h, out=h)
            else:
                h = stable_sigmoid(h, out=acts[i])
            _check(h, kind)

    _run(forward)
    inputs = [xd, *acts]  # the input of each layer

    # the backward pass writes every gradient into arrays of its own, made
    # at its first run, so a replayed plan allocates none. Each run
    # overwrites the last one's, which is safe as a walk consumes them
    # before it runs this closure again: a leaf copies its gradient, and
    # only the input gradient, which no ``mlp_again`` node asks for, waits
    # in a slot
    arrays: list[list[Array]] = []

    def backward(g, input_grad=x.requires_grad):
        if not arrays:
            arrays.extend((
                [np.empty(w.shape) for w in ws],
                [np.empty(b.shape) for b in biases],
                [np.empty(a.shape) for a in inputs],
                [np.empty(a.shape, dtype=bool) for a in inputs],
            ))
        out_w, out_b, out_h, masks = arrays
        grads: list[Array | None] = [None] * len(parents)
        for i in range(last, -1, -1):
            if weights[i].requires_grad:
                grads[2 * i + 1] = np.matmul(g.mT, inputs[i], out=out_w[i])
            if biases[i].requires_grad:
                grads[2 * i + 2] = np.add.reduce(g, axis=-2, out=out_b[i])
            if i == 0:
                if input_grad:
                    grads[0] = np.matmul(g, ws[0], out=out_h[0])
                break
            g = np.matmul(g, ws[i], out=out_h[i])
            a = inputs[i]  # the activation's output
            if kind == "relu":
                g *= np.greater(a, 0.0, out=masks[i])
            elif kind == "tanh":
                g *= 1.0 - a * a
            else:
                g *= a
                g *= 1.0 - a
        return grads

    return _node(affine[last], "mlp", parents, backward)


def mlp_again(out: Tensor, x: Tensor) -> Tensor:
    """``out``, an ``mlp`` node, as the output of the same network applied
    to ``x``, which must hold the values of out's input (the model passes
    that input detached). Nothing is computed: the new node shares out's
    array and kept layer inputs. Its parents are (x, *params), as those of
    a fresh ``mlp`` call would be, so a backward walk visits the same
    nodes in the same order and gets the same bits. Its backward returns
    no gradient to x, which therefore must not require one."""
    if out.op != "mlp" or x.requires_grad:
        raise GraphError(f"mlp_again needs an mlp node and an input without a gradient, "
                         f"got {out!r} and {x!r}")
    backward = out._backward
    if backward is None:
        return _node(out.data, "mlp", (), None)
    return _node(out.data, "mlp", (x, *out._parents[1:]), lambda g: backward(g, False))


@_quiet
def exp(x: Tensor) -> Tensor:
    xd, e = x.data, np.empty(x.shape)
    _run(lambda: np.exp(xd, out=e))
    return _result(e, "exp", (x,), lambda g: (g * e,))


@_quiet
def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log softmax over a [..., batch, C] tensor, C >= 2, max-shifted."""
    if x.data.ndim < 2:
        raise DimensionError(f"log_softmax needs [..., batch, C], got {x.shape}")
    if x.shape[-1] < 2:
        raise DimensionError(f"log_softmax needs C >= 2, got C={x.shape[-1]}")
    xd, out = x.data, np.empty(x.shape)

    def forward():
        shifted = xd - xd.max(axis=-1, keepdims=True)
        np.subtract(shifted, np.log(np.exp(shifted).sum(axis=-1, keepdims=True)), out=out)

    _run(forward)
    # the softmax is taken in the backward pass, so a pass that records no
    # graph never computes it
    return _result(
        out, "log_softmax", (x,), lambda g: (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)
    )


@_quiet
def mean_log_sigmoid(x: Tensor, floor: float, negate: bool = False) -> Tensor:
    """mean(clamp_min(log_sigmoid(z), floor)) over the trailing two axes,
    for z = x, or z = -x when ``negate``, as one graph node.

    With D = sigmoid(x) this is the floored E[log D], or E[log(1 - D)]
    when negated: one side of a discriminator's log-likelihood. A
    non-finite check names the step of that chain that produced the
    value: 'mul' (the negation), 'log_sigmoid', 'clamp_min' or 'mean'.
    """
    xd = x.data
    if xd.ndim < 2:
        raise DimensionError(f"mean_log_sigmoid needs [..., n, d], got {x.shape}")
    z = np.empty(xd.shape) if negate else xd
    e, mask = np.empty(xd.shape), np.empty(xd.shape, dtype=bool)
    out = np.empty(xd.shape[:-2])
    n = xd.shape[-2] * xd.shape[-1]

    def forward():
        if negate:
            np.multiply(xd, -1.0, out=z)
            _check(z, "mul")
        np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
        ls = np.minimum(z, 0.0)
        ls -= np.log1p(e)
        _check(ls, "log_sigmoid")
        np.greater(ls, floor, out=mask)
        clamped = np.where(mask, ls, floor)
        _check(clamped, "clamp_min")
        # np.mean's own steps: the sum, then the division by the count
        np.divide(np.add.reduce(clamped, axis=(-2, -1), out=out), n, out=out)
        _check(out, "mean")

    _run(forward)

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
    outer = np.empty((*rows, df, dp))
    _run(lambda: np.multiply(fd[..., :, None], pd[..., None, :], out=outer))

    def bwd(g):
        gm = g.reshape(*rows, df, dp)
        return np.einsum("...iab,...ib->...ia", gm, pd), np.einsum("...iab,...ia->...ib", gm, fd)

    return _result(outer.reshape(*rows, df * dp), "row_outer", (f, p), bwd)


def gather_rows(x: Tensor, idx) -> Tensor:
    """out[..., i] = x[..., i, idx[..., i]] for a [..., n, C] tensor and
    integer labels. A plan reads the labels from ``idx``'s array each time
    it runs, so its caller refreshes them in place."""
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
    xd, rows, out = x.data, np.arange(idx.size), np.empty(idx.shape)
    _run(lambda: np.copyto(out, xd.reshape(-1, c)[rows, idx.reshape(-1)].reshape(idx.shape)))

    def bwd(g):
        gx = np.zeros((rows.size, c))
        gx[rows, idx.reshape(-1)] = g.reshape(-1)
        return (gx.reshape(shape),)

    return _result(out, "gather_rows", (x,), bwd)


def grad_reversal(x: Tensor, coeff=1.0) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by
    -coeff. ``coeff`` is a number, or a one-element float array that the
    backward pass reads each time it runs, so that a replayed ``Plan``
    takes the coefficient set in it then."""
    cell = np.asarray(coeff, dtype=np.float64).reshape(1)
    if cell[0] < 0.0:
        raise ValueError(f"grad_reversal coeff must be nonnegative, got {float(cell[0])}")
    return _result(x.data, "grad_reversal", (x,), lambda g: (g * -cell[0],))


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
