"""Output checks for the benchmark, each computed apart from the program.

Every check raises :class:`CheckFailed` with a message that names what
disagreed. The references are plain numpy: a forward pass over stored
weights, the loss identity, the SGD update rule, central differences, and
a parser of the checkpoint format written from its documentation (one
JSON header line, then every parameter as little-endian float64 in
network order). None of them compares against a stored copy of an
earlier run's output.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Written out from the checkpoint format's documentation rather than
# imported, so that the parser stays independent of the program's order.
NETWORK_ORDER = (
    "features",
    "predictor",
    "domain_disc",
    "s2t",
    "t2s",
    "source_disc",
    "target_disc",
)
# The paper's ablation ladder, written out so that the table check does not
# take the modes it expects from the program.
LADDER_MODES = ("S0", "S1", "S2", "S3", "S4")
LOSS_FIELDS = ("l_cls", "l_dom", "l_s2t", "l_t2s", "l_cyc", "l_total")
# central differences: coordinates compared per check, and the step
GRADIENT_COORDS = 8
GRADIENT_EPS = 1e-6


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


# ---------------------------------------------------------------------------
# Accuracy
# ---------------------------------------------------------------------------


def forward_classes(params: dict, x: np.ndarray, activation: str = "relu") -> np.ndarray:
    """Predicted class per row: the feature network (x W^T + b, relu on
    hidden layers), then the predictor's logits, then argmax."""
    if activation != "relu":
        raise CheckFailed(f"numpy forward supports relu only, got {activation!r}")
    h = np.asarray(x, dtype=np.float64)
    layers = params["features"]
    for w, b in layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = layers[-1]
    h = h @ w.T + b
    ((wp, bp),) = params["predictor"]
    return (h @ wp.T + bp).argmax(axis=1)


def correct_count(params: dict, x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    pred = forward_classes(params, x)
    y = np.asarray(y)
    return int((pred == y).sum()), len(y)


def check_accuracy(what: str, reported: float, k: int, n: int) -> None:
    """The reported accuracy must be exactly k correct rows out of n."""
    if not (isinstance(reported, float) and reported == k / n):
        raise CheckFailed(
            f"{what}: program reports {reported!r}, numpy forward gives "
            f"{k}/{n} = {k / n!r}"
        )


def check_is_row_fraction(what: str, acc: float, n: int) -> None:
    """An accuracy over n rows must be k/n for a whole k in [0, n]."""
    k = round(acc * n)
    if not (0 <= k <= n and acc == k / n):
        raise CheckFailed(f"{what}: {acc!r} is not a whole number of rows out of {n}")


# ---------------------------------------------------------------------------
# Loss identity
# ---------------------------------------------------------------------------


def check_loss_identity(rows, lam: float, eta1: float, eta2: float) -> None:
    """l_total = l_cls + lam*l_dom + eta1*(l_s2t + l_t2s) + eta2*l_cyc on
    every logged row, to rounding. ``rows`` are mappings or objects with
    the loss fields."""
    rows = list(rows)
    if not rows:
        raise CheckFailed("loss identity: no logged rows")
    for i, row in enumerate(rows):
        get = row.get if isinstance(row, dict) else lambda k: getattr(row, k)
        v = {k: float(get(k)) for k in LOSS_FIELDS}
        if not all(math.isfinite(x) for x in v.values()):
            raise CheckFailed(f"loss identity: row {i} has a non-finite loss {v}")
        expected = (
            v["l_cls"] + lam * v["l_dom"] + eta1 * (v["l_s2t"] + v["l_t2s"]) + eta2 * v["l_cyc"]
        )
        scale = (
            abs(v["l_cls"]) + lam * abs(v["l_dom"])
            + eta1 * (abs(v["l_s2t"]) + abs(v["l_t2s"])) + eta2 * abs(v["l_cyc"])
        )
        if abs(v["l_total"] - expected) > 1e-12 * max(scale, 1.0):
            raise CheckFailed(
                f"loss identity: row {i} l_total {v['l_total']!r} != {expected!r} "
                f"(lam={lam}, eta1={eta1}, eta2={eta2})"
            )


def read_metrics_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------


def check_sgd_steps(snapshots, lr: float, momentum: float, weight_decay: float) -> None:
    """Recompute consecutive optimizer steps from a zero velocity.

    ``snapshots`` is a list of (params_before, grads, params_after), one
    per step, each a list of arrays in parameter order. The rule is
    v = m*v + g + wd*p; p -= lr*v, with v starting at zero.
    """
    velocity = None
    for step, (before, grads, after) in enumerate(snapshots, start=1):
        if velocity is None:
            velocity = [np.zeros_like(p) for p in before]
        for i, (p, g, p_new) in enumerate(zip(before, grads, after)):
            if g is None:
                v = momentum * velocity[i]
            else:
                v = momentum * velocity[i] + g + weight_decay * p
            velocity[i] = v
            expected = p - lr * v if g is not None else p
            if not np.allclose(p_new, expected, rtol=1e-12, atol=1e-15):
                err = float(np.max(np.abs(p_new - expected)))
                raise CheckFailed(
                    f"sgd: step {step}, parameter {i} differs from "
                    f"v = m*v + g + wd*p; p -= lr*v by up to {err:.3e}"
                )


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def walk_graph(loss):
    """Every tensor reachable from ``loss`` through its parents, once each,
    in a fixed order."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node._parents)


def _kink_masks(loss) -> list[np.ndarray]:
    """Which side of each relu and log-floor clamp the graph's inputs sit
    on, in walk order. Central differences are only valid where these do
    not change between the two probes."""
    masks: list[np.ndarray] = []
    for node in walk_graph(loss):
        if node.op == "relu":
            masks.append(node._parents[0].data > 0.0)
        elif node.op == "clamp_min":
            masks.append(node._parents[0].data != node.data)
    return masks


def _same_masks(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def check_gradient(loss_fn, params, rng: np.random.Generator, numeric_fn=None) -> int:
    """Central differences at GRADIENT_COORDS parameter coordinates drawn from
    ``rng`` against the autodiff gradient of ``loss_fn()``.

    ``loss_fn`` rebuilds the graph from the current parameter values.
    ``numeric_fn(i)``, when given, names the function to difference for
    parameter ``i``; it stands in where the loss stops gradients on
    purpose. A coordinate whose probes cross a relu or clamp kink is
    redrawn. Returns the number of coordinates compared.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    sizes = np.array([p.size for p in params])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    compared = draws = 0
    while compared < GRADIENT_COORDS:
        draws += 1
        if draws > 20 * GRADIENT_COORDS:
            raise CheckFailed("gradient: too many coordinates sit on a kink")
        flat = int(rng.integers(offsets[-1]))
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        local = flat - offsets[which]
        fn = loss_fn if numeric_fn is None else numeric_fn(which)
        data = params[which].data.reshape(-1)
        orig = data[local]
        data[local] = orig + GRADIENT_EPS
        hi = fn()
        data[local] = orig - GRADIENT_EPS
        lo = fn()
        data[local] = orig
        if not _same_masks(_kink_masks(hi), _kink_masks(lo)):
            continue
        numeric = (float(hi.data) - float(lo.data)) / (2.0 * GRADIENT_EPS)
        a = float(analytic[which].reshape(-1)[local])
        if abs(numeric - a) > 1e-6 * max(1.0, abs(a)):
            raise CheckFailed(
                f"gradient: parameter {which} element {local}: autodiff {a!r}, "
                f"central difference {numeric!r}"
            )
        compared += 1
    return compared


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


def layer_dims(cfg: dict, dd_in: int) -> dict[str, tuple[int, ...]]:
    fd, th, sh = cfg["feature_dim"], cfg["translator_hidden"], cfg["sample_disc_hidden"]
    fh, dh = cfg["feature_hidden"], cfg["domain_disc_hidden"]
    return {
        "features": (cfg["input_dim"], fh, fh, fd),
        "predictor": (fd, cfg["num_classes"]),
        "domain_disc": (dd_in, dh, dh, 1),
        "s2t": (fd, th, th, th, fd),
        "t2s": (fd, th, th, th, fd),
        "source_disc": (fd, sh, sh, 1),
        "target_disc": (fd, sh, sh, 1),
    }


def _count(dims: dict) -> int:
    return sum(i * o + o for d in dims.values() for i, o in zip(d[:-1], d[1:]))


def parse_checkpoint(path) -> tuple[dict, dict, int]:
    """Read a checkpoint without the program's loader.

    Returns (header, params, domain_disc_in_dim): params maps each network
    to its [(weight[out, in], bias[out]), ...]. The domain discriminator's
    input width is solved from the declared parameter count, so it is
    measured from the file, not taken from the config.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = fh.read()
    cfg = header["config"]
    declared = int(header["param_count"])
    if len(blob) != 8 * declared:
        raise CheckFailed(f"{path}: {len(blob)} payload bytes for {declared} parameters")
    dh = cfg["domain_disc_hidden"]
    rest, frac = divmod(declared - _count(layer_dims(cfg, 0)), dh)
    if frac or rest < 1:
        raise CheckFailed(f"{path}: parameter count {declared} fits no domain_disc width")
    dims = layer_dims(cfg, rest)
    values = np.frombuffer(blob, dtype="<f8")
    params: dict[str, list] = {}
    offset = 0
    for name in NETWORK_ORDER:
        layers = []
        d = dims[name]
        for i, o in zip(d[:-1], d[1:]):
            w = values[offset : offset + i * o].reshape(o, i)
            offset += i * o
            b = values[offset : offset + o]
            offset += o
            layers.append((w, b))
        params[name] = layers
    return header, params, rest


def suite_params(suite) -> dict:
    """The same layout as :func:`parse_checkpoint`, read from a live suite."""
    return {
        name: [(layer.weight.data, layer.bias.data) for layer in getattr(suite, name).layers]
        for name in NETWORK_ORDER
    }


def check_params_equal(what: str, got: dict, expected: dict) -> None:
    """Bitwise equality of two parameter sets, network by network."""
    for name in NETWORK_ORDER:
        a, b = got.get(name, []), expected.get(name, [])
        if len(a) != len(b):
            raise CheckFailed(f"{what}: {name} has {len(a)} layers, expected {len(b)}")
        for li, ((wa, ba), (wb, bb)) in enumerate(zip(a, b)):
            for kind, x, y in (("weight", wa, wb), ("bias", ba, bb)):
                if x.shape != y.shape or not np.array_equal(x, y):
                    raise CheckFailed(f"{what}: {name} layer {li} {kind} differs")


# ---------------------------------------------------------------------------
# Ablation ladder
# ---------------------------------------------------------------------------


def check_ladder_table(table: dict, modes, seeds, n_target: int) -> None:
    """One accuracy per (mode, seed), each a whole number of target rows."""
    if set(table) != set(modes):
        raise CheckFailed(f"ladder: modes {sorted(table)}, expected {sorted(modes)}")
    for mode in modes:
        accs = list(table[mode])
        if len(accs) != len(seeds):
            raise CheckFailed(
                f"ladder: {mode} has {len(accs)} accuracies for {len(seeds)} seeds"
            )
        for seed, acc in zip(seeds, accs):
            check_is_row_fraction(f"ladder {mode} seed {seed}", acc, n_target)


def load_csv_xy(path) -> tuple[np.ndarray, np.ndarray]:
    """Features and integer labels of a labelled dataset CSV."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1].astype(np.int64)
