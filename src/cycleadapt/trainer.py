"""Training loop, evaluation, ablation ladder, metrics, and checkpoints."""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import json
import math
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .autodiff import (
    NonFiniteError,
    Tensor,
    check_finite,
    no_grad,
    stable_sigmoid,
    unchecked,
)
from .data import DomainPair
from .losses import (
    ABLATION_MODES,
    LossBreakdown,
    LossWeights,
    resolve_weights,
    total_loss,
)
from .models import ArchConfig, ModelSuite, build_suite, predict
from .nn import Sgd, check_sgd_hparams

GRL_SCHEDULES = ("constant", "ramp")
LR_SCHEDULES = ("constant", "inv_decay")

# the values each string setting of TrainConfig may take
CHOICES = {
    "ablation_mode": ABLATION_MODES,
    "grl_schedule": GRL_SCHEDULES,
    "lr_schedule": LR_SCHEDULES,
}

CHECKPOINT_FORMAT_VERSION = 2


class TrainingAborted(RuntimeError):
    """A step produced a non-finite loss. Carries the last complete
    breakdown so the collapse can be diagnosed."""

    def __init__(self, message: str, last_breakdown: LossBreakdown | None, step: int):
        super().__init__(message)
        self.last_breakdown = last_breakdown
        self.step = step

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the abort survives
        # the trip back from a ladder worker process
        return (type(self), (self.args[0], self.last_breakdown, self.step))


class CheckpointError(ValueError):
    """Unreadable, truncated, or mismatched checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    arch: ArchConfig
    weights: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    total_steps: int = 15000
    seed: int = 0
    ablation_mode: str = "S3"
    eval_every: int = 50
    grl_schedule: str = "ramp"
    lr_schedule: str = "inv_decay"

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        if self.batch_size < 1 or self.total_steps < 0 or self.eval_every < 1:
            raise ValueError("batch_size/eval_every must be >= 1 and total_steps >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        check_sgd_hparams(self.lr, self.momentum, self.weight_decay)


@dataclass(frozen=True)
class MetricsRow:
    step: int
    l_cls: float
    l_dom: float
    l_s2t: float
    l_t2s: float
    l_cyc: float
    l_total: float
    source_acc: float
    target_acc: float
    d_d_mean_out: float


# the metrics.csv header, in MetricsRow's field order
METRICS_FIELDS = tuple(f.name for f in fields(MetricsRow))
# the loss terms a MetricsRow copies from its step's LossBreakdown
_LOSS_FIELDS = tuple(f.name for f in fields(LossBreakdown) if f.name in METRICS_FIELDS)


@dataclass
class TrainResult:
    suite: ModelSuite
    history: list[MetricsRow]
    source_batches_drawn: int = 0
    target_batches_drawn: int = 0


def default_train_config(seed: int = 0, **overrides) -> TrainConfig:
    """Reference hyperparameters on the default two-moons benchmark arch."""
    arch = ArchConfig(input_dim=2, num_classes=2, seed=seed)
    return replace(TrainConfig(arch=arch, seed=seed), **overrides)


# ---------------------------------------------------------------------------
# Flat config dict (the JSON/CLI surface)
# ---------------------------------------------------------------------------


def _flat_fields() -> dict[str, tuple[str, str, str]]:
    """flat key -> (part, field name, field type) for every config value.

    ``part`` is "arch", "weights" or "train" (TrainConfig itself). Keys are
    the field names, except that ``lam`` is ``lambda`` and that
    ``ArchConfig.seed`` has no key of its own: ``seed`` sets both seeds.
    """
    out = {f.name: ("arch", f.name, f.type) for f in fields(ArchConfig) if f.name != "seed"}
    for f in fields(LossWeights):
        out["lambda" if f.name == "lam" else f.name] = ("weights", f.name, f.type)
    for f in fields(TrainConfig):
        if f.name not in ("arch", "weights"):
            out[f.name] = ("train", f.name, f.type)
    return out


FLAT_FIELDS = _flat_fields()


def _coerce(key: str, kind: str, value):
    """``value`` as the field type ``kind``; ValueError naming ``key`` when
    it is not one (a bool is no number, 32.7 is no int, "false" no bool)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int" and number and float(value).is_integer():
        return int(value)
    if kind == "float" and number:
        return float(value)
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind == "str" and isinstance(value, str):
        return value
    raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


def flatten_config(cfg: TrainConfig) -> dict:
    parts = {"arch": cfg.arch, "weights": cfg.weights, "train": cfg}
    return {key: getattr(parts[part], name) for key, (part, name, _) in FLAT_FIELDS.items()}


def config_from_flat(flat: dict, base: TrainConfig | None = None) -> TrainConfig:
    """Build a TrainConfig from flat key/value pairs, rejecting unknown keys
    and values not of their field's type.

    Keys mirror the config field names; ``lambda`` maps to the
    domain-adversarial weight. ``seed`` also reseeds the architecture.
    """
    if not isinstance(flat, dict):
        raise ValueError(f"config must map keys to values, got {type(flat).__name__}")
    unknown = set(flat) - set(FLAT_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {key: _coerce(key, FLAT_FIELDS[key][2], v) for key, v in flat.items()}
    if base is None:
        if "input_dim" not in values or "num_classes" not in values:
            raise ValueError("config needs input_dim and num_classes")
        base = TrainConfig(
            arch=ArchConfig(input_dim=values["input_dim"], num_classes=values["num_classes"])
        )
    kwargs: dict[str, dict] = {"arch": {}, "weights": {}, "train": {}}
    for key, value in values.items():
        part, name, _ = FLAT_FIELDS[key]
        kwargs[part][name] = value
    if "seed" in values:
        kwargs["arch"]["seed"] = values["seed"]
    return replace(
        base,
        arch=replace(base.arch, **kwargs["arch"]),
        weights=replace(base.weights, **kwargs["weights"]),
        **kwargs["train"],
    )


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


class BatchStream:
    """Shuffled index stream with epoch integrity: every index appears
    exactly once per epoch; the stream reshuffles and wraps on exhaustion.
    ``draws`` counts handed-out batches (instrumentation)."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError("empty domain")
        self.n = n
        self.batch_size = batch_size
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0
        self.draws = 0
        self.epochs_completed = 0

    def next(self) -> np.ndarray:
        self.draws += 1
        out = np.empty(self.batch_size, dtype=np.int64)
        filled = 0
        while filled < self.batch_size:
            take = min(self.batch_size - filled, self.n - self.pos)
            out[filled : filled + take] = self.order[self.pos : self.pos + take]
            filled += take
            self.pos += take
            if self.pos == self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
                self.epochs_completed += 1
        return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


# rows per forward pass of ``evaluate``; a set of fewer than two blocks
# is one pass. OpenBLAS picks other kernels for a gemm of few rows, which
# can change the bits of a row's product (seen at 64 rows and below), so
# no block is smaller than this. Each thread has one block in flight, and
# at 1024 rows two of them raised the peak RSS of a 20000-row evaluation
# by 9-15 MB
EVAL_BLOCK = 512

# the most threads ``evaluate`` runs, the calling one included. Each holds
# one block's hidden layers: two raised the peak RSS of a 20000-row set at
# feature width 272 by about 2 MB, on a 2-vCPU machine; more were not
# measured. A ladder worker process evaluates on its own thread alone
# (``_start_ladder_worker``), as its sibling processes hold the other CPUs
_eval_threads = 2


def _block_probs(suite: ModelSuite, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The class probabilities of rows lo:hi of x."""
    return predict(suite, Tensor(x[lo:hi]))[1].data


def _on_threads(work, workers: int) -> None:
    """work(0) in this thread and work(1) .. work(workers - 1) on as many
    helper threads, each under its own ``np.errstate(all="ignore")``, as
    numpy's error state is per thread. Every helper is joined before this
    returns or raises; this thread's own exception wins, else the first
    helper's is raised here."""
    errors: list[BaseException | None] = [None] * workers

    def helper(k: int) -> None:
        try:
            with np.errstate(all="ignore"):
                work(k)
        except BaseException as err:  # re-raised in the caller below
            errors[k] = err

    threads = []
    try:
        for k in range(1, workers):
            threads.append(threading.Thread(target=helper, args=(k,)))
            threads[-1].start()
        work(0)
    finally:
        for t in threads:
            t.join()
    for err in errors:
        if err is not None:
            raise err


def evaluate(suite: ModelSuite, x: np.ndarray, y: np.ndarray | None) -> float:
    """Fraction of samples whose argmax class equals the label; argmax
    ties resolve to the lowest class index. ``y`` holds one label per row
    of a nonempty ``x``.

    The forward runs over blocks of EVAL_BLOCK to 2 * EVAL_BLOCK - 1 rows
    (a smaller set in one pass), keeping only each row's predicted class,
    with the same result as one pass over the whole set. The blocks are
    dealt in turn to min(usable CPUs, blocks, ``_eval_threads``) threads,
    this one and helpers, and the helpers are joined before this returns
    or raises. Blocks run with the per-op checks off, and ``predict``
    checks each block's logits and log-probabilities once. The first
    block that fails that check is run again with the checks on, so
    NonFiniteError names the op that went non-finite first, with no numpy
    warning ahead of it; a hidden value that an activation maps from
    non-finite to finite is not reported."""
    if y is None:
        raise ValueError("evaluation needs labels; this dataset has none")
    y = np.asarray(y)
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n == 0 or y.shape != (n,):
        raise ValueError(
            f"evaluation needs one label per row of a nonempty set, "
            f"got x of shape {x.shape} and y of shape {y.shape}"
        )
    blocks = max(n // EVAL_BLOCK, 1)
    workers = min(_usable_cpus(), blocks, _eval_threads)
    pred = np.empty(n, dtype=np.intp)
    failed: list[int] = []

    def rows(i: int) -> tuple[int, int]:
        return i * n // blocks, (i + 1) * n // blocks

    def run(k: int) -> None:
        for i in range(k, blocks, workers):
            lo, hi = rows(i)
            try:
                p = _block_probs(suite, x, lo, hi)
            except NonFiniteError:
                failed.append(i)
                return
            pred[lo:hi] = p.argmax(axis=1)

    # the grad and check flags are process-wide, so only this thread sets
    # them, around the whole pool
    with no_grad():
        with unchecked():
            _on_threads(run, workers)
        if failed:
            # the checked replay of the same forward raises: its per-op
            # checks, or else its own one check, fail as the block's did
            _block_probs(suite, x, *rows(min(failed)))
    return float((pred == y).mean())


def domain_disc_mean_out(suite: ModelSuite, data: DomainPair, probe_n: int = 128) -> float:
    """Mean domain-discriminator output over a balanced source/target probe.
    The forward runs with the per-op checks off and checks the class and
    domain logits once, replaying with the checks on if that check fails,
    as ``evaluate`` does."""
    k = min(probe_n, len(data.x_s), len(data.x_t))

    def mean_out() -> float:
        outs = []
        for x in (data.x_s[:k], data.x_t[:k]):
            f, p = predict(suite, Tensor(x))
            logits = suite.domain_disc.forward_logits(suite.condition(f, p))
            check_finite(logits.data, "linear")
            outs.append(stable_sigmoid(logits.data))
        return float(np.concatenate(outs).mean())

    with no_grad():
        try:
            with unchecked():
                return mean_out()
        except NonFiniteError:
            return mean_out()


def stability_spread(
    history: Sequence[MetricsRow], total_steps: int, final_frac: float = 0.2
) -> float:
    """Max minus min of the running-mean target accuracy over the final
    ``final_frac`` of training."""
    cutoff = (1.0 - final_frac) * total_steps
    tail = [r.target_acc for r in history if r.step > cutoff]
    if not tail:
        return 0.0
    running = np.cumsum(tail) / np.arange(1, len(tail) + 1)
    return float(running.max() - running.min())


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _grl_coeff(schedule: str, progress: float) -> float:
    if schedule == "constant":
        return 1.0
    return 2.0 / (1.0 + math.exp(-10.0 * progress)) - 1.0


_DECAY_START = 0.6


def _lr_at(schedule: str, lr: float, progress: float) -> float:
    # inverse decay over the final stretch only: the adversarial games need
    # the full rate until alignment locks in, then a cooling tail settles
    # the boundary
    if schedule == "constant" or progress <= _DECAY_START:
        return lr
    q = (progress - _DECAY_START) / (1.0 - _DECAY_START)
    return lr / (1.0 + 10.0 * q) ** 0.75


class _ReplicaFailed(Exception):
    """Replica ``index`` of a stacked step went non-finite; ``error`` is
    what replaying it alone raised."""

    def __init__(self, index: int, error: NonFiniteError):
        super().__init__(index, error)
        self.index = index
        self.error = error


def _grl_step(
    suite: ModelSuite,
    opt: Sgd,
    x_s: Tensor,
    y_s: np.ndarray,
    x_t: Tensor | None,
    weights: LossWeights,
    grl_coeff: float,
) -> list[LossBreakdown]:
    """One descent step of a stacked suite on the rigged objective; one
    breakdown per replica.

    The batches carry a leading replica axis. The K replica losses are
    summed for one backward pass: the sum passes each replica a gradient
    of exactly 1.0, so each gets its own gradient.

    Forward and backward run without per-op finiteness checks; the losses
    are checked here and the flat gradient inside ``opt.step``, once each,
    before any parameter moves. If either is non-finite, the first replica
    whose loss or gradient is, is replayed alone on its per-seed view with
    checks on (which run with numpy's warnings off), and ``_ReplicaFailed`` carries
    what the replay raised: the op that went non-finite first, as a fully
    checked step would name it. A replay that passes leaves the
    optimizer's ``sgd_step`` error.
    """
    with unchecked():
        total, breakdowns = total_loss(
            suite, (x_s, y_s), x_t, weights, grl_coeff, rig_minimax=True
        )
        total.sum().backward()
    try:
        if not all(math.isfinite(b.l_total) for b in breakdowns):
            raise NonFiniteError("total_loss")
        opt.step()
    except NonFiniteError as err:
        params = suite.parameters()
        for k, b in enumerate(breakdowns):
            bad = [i for i, p in enumerate(params)
                   if p.grad is not None and not np.isfinite(p.grad[k]).all()]
            if bad or not math.isfinite(b.l_total):
                break
        view = suite.replica_views()[k]
        try:
            _replay(view, Tensor(x_s.data[k]), y_s[k],
                    None if x_t is None else Tensor(x_t.data[k]), weights, grl_coeff)
        except NonFiniteError as replayed:
            raise _ReplicaFailed(k, replayed) from err
        if bad:
            err = NonFiniteError("sgd_step", f"gradient of parameter {bad[0]}")
        raise _ReplicaFailed(k, err) from err
    return breakdowns


def _replay(suite, x_s, y_s, x_t, weights, grl_coeff) -> None:
    """The forward of a failed step with the per-op checks on."""
    with no_grad():
        total_loss(suite, (x_s, y_s), x_t, weights, grl_coeff, rig_minimax=True)


def _evaluation(
    suite: ModelSuite, data: DomainPair, seed: int, step: int, breakdown: LossBreakdown | None
) -> tuple[float, float, float]:
    """Source and target accuracy (NaN without target labels) and the
    domain discriminator's mean output, of the model of the run of ``seed``
    after ``step`` steps. A non-finite forward aborts the run at ``step``
    with ``breakdown`` attached: an update can overflow the parameters with
    a finite loss, and the evaluation is the first to see it."""
    try:
        return (
            evaluate(suite, data.x_s, data.y_s),
            evaluate(suite, data.x_t, data.y_t_eval) if data.y_t_eval is not None else math.nan,
            domain_disc_mean_out(suite, data),
        )
    except NonFiniteError as err:
        raise TrainingAborted(
            f"aborted at step {step} (seed {seed}): evaluation: {err}", breakdown, step
        ) from err


def final_accuracies(result: TrainResult, data: DomainPair, seed: int) -> tuple[float, float]:
    """Source and target accuracy (NaN without target labels) at the end of
    the run of ``seed``: its last logged row, which ``train`` writes at the
    final step, or for a run of zero steps its initial model, evaluated
    here; that evaluation aborts at step 0 if it goes non-finite."""
    if result.history:
        return result.history[-1].source_acc, result.history[-1].target_acc
    return _evaluation(result.suite, data, seed, 0, None)[:2]


class _MetricsWriter:
    def __init__(self, path):
        self.fh = open(path, "w", newline="", encoding="utf-8")
        self.writer = csv.writer(self.fh)
        self.writer.writerow(METRICS_FIELDS)
        self.fh.flush()

    def write(self, row: MetricsRow) -> None:
        step, *values = astuple(row)
        self.writer.writerow([str(step)] + [repr(float(v)) for v in values])
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


def _streams(cfg: TrainConfig, data: DomainPair, need_target: bool):
    """The source and (if needed) target batch streams of one run."""
    ss_source, ss_target = np.random.SeedSequence(cfg.seed).spawn(2)
    src = BatchStream(len(data.x_s), cfg.batch_size, np.random.default_rng(ss_source))
    if not need_target:
        return src, None
    return src, BatchStream(len(data.x_t), cfg.batch_size, np.random.default_rng(ss_target))


def train(
    cfg: TrainConfig,
    data: DomainPair,
    metrics_path=None,
    *,
    seeds: Sequence[int] | None = None,
) -> TrainResult | list[TrainResult]:
    """Run ``cfg.total_steps`` optimization steps and log metrics.

    Deterministic for fixed (cfg, data): model init derives from
    cfg.arch.seed, batch order from cfg.seed, via independent streams.
    Loss terms disabled by the ablation mode are never built, so a
    classification-only run never draws target batches. A non-finite loss
    aborts with the last complete breakdown attached.

    Every run is one replica group: a stacked suite, one optimizer and one
    backward pass per step for all replicas, each with its own batch
    streams and metrics. Without ``seeds`` the group is ``cfg`` alone and
    the result is its TrainResult. With ``seeds``, ``cfg`` is trained once
    per seed (each setting both ``seed`` and ``arch.seed``), and the
    result is one TrainResult per seed, in order, bit-for-bit that of
    training the seed alone. A result's suite is a per-seed view into the
    group's parameters. An abort names the seed of the first replica that
    went non-finite. ``metrics_path`` takes a group of one only.
    """
    if data.num_classes != cfg.arch.num_classes:
        raise ValueError(
            f"data has {data.num_classes} classes but arch expects {cfg.arch.num_classes}"
        )
    if data.input_dim != cfg.arch.input_dim:
        raise ValueError(f"data width {data.input_dim} but arch expects {cfg.arch.input_dim}")

    cfgs = [cfg] if seeds is None else [
        replace(cfg, seed=int(s), arch=replace(cfg.arch, seed=int(s))) for s in seeds
    ]
    if not cfgs or (metrics_path is not None and len(cfgs) > 1):
        raise ValueError("a replica group needs seeds; only a group of one takes a metrics_path")
    suite = build_suite(cfg.arch, [c.arch.seed for c in cfgs])
    weights = resolve_weights(cfg.ablation_mode, cfg.weights)
    streams = [_streams(c, data, weights.needs_target) for c in cfgs]

    opt = Sgd(suite.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)
    views = suite.replica_views()  # after Sgd, which rebinds the parameters

    histories: list[list[MetricsRow]] = [[] for _ in views]
    writer = _MetricsWriter(metrics_path) if metrics_path is not None else None
    last: list[LossBreakdown | None] = [None] * len(views)
    try:
        for step in range(1, cfg.total_steps + 1):
            progress = step / cfg.total_steps
            opt.lr = _lr_at(cfg.lr_schedule, cfg.lr, progress)

            # row indices [K, n], one row of indices per replica
            idx_s = np.stack([src.next() for src, _ in streams])
            x_s = Tensor(data.x_s[idx_s])
            y_s = data.y_s[idx_s]
            x_t = (
                Tensor(data.x_t[np.stack([tgt.next() for _, tgt in streams])])
                if weights.needs_target
                else None
            )

            try:
                breakdowns = _grl_step(
                    suite, opt, x_s, y_s, x_t, weights,
                    _grl_coeff(cfg.grl_schedule, progress),
                )
            except _ReplicaFailed as failed:
                k = failed.index
                raise TrainingAborted(
                    f"aborted at step {step} (seed {cfgs[k].seed}): {failed.error}",
                    last[k], step,
                ) from failed.error
            last = breakdowns

            if step % cfg.eval_every == 0 or step == cfg.total_steps:
                for c, view, breakdown, history in zip(cfgs, views, breakdowns, histories):
                    source_acc, target_acc, d_d_mean_out = _evaluation(
                        view, data, c.seed, step, breakdown
                    )
                    row = MetricsRow(
                        step=step,
                        source_acc=source_acc,
                        target_acc=target_acc,
                        d_d_mean_out=d_d_mean_out,
                        **{name: getattr(breakdown, name) for name in _LOSS_FIELDS},
                    )
                    history.append(row)
                    if writer is not None:
                        writer.write(row)
    finally:
        if writer is not None:
            writer.close()

    results = [
        TrainResult(
            view,
            history,
            source_batches_drawn=src.draws,
            target_batches_drawn=tgt.draws if tgt is not None else 0,
        )
        for view, history, (src, tgt) in zip(views, histories, streams)
    ]
    return results[0] if seeds is None else results


# ---------------------------------------------------------------------------
# Ablation ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeStats:
    """One ladder mode across seeds: each seed's final target accuracy and
    metrics history, in seed order."""

    mode: str
    accuracies: tuple[float, ...]
    histories: tuple[tuple[MetricsRow, ...], ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None."""
    libs = glob.glob(os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so"
    ))
    try:
        return ctypes.CDLL(libs[0]) if libs else None
    except OSError:
        return None


def pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on OPENBLAS_NUM_THREADS threads when
    that is set to a positive count, and on one thread when it is unset;
    silently nothing where the library does not export
    ``scipy_openblas_set_num_threads64_``.

    The package's own entry points (the CLI and the ladder's worker
    processes) call this: at the default sizes their gemms are small, and
    on a shared 2-vCPU machine a second thread made in-training evaluation
    about ten times slower. Wide runs can gain from more threads, so a
    thread count set in the environment is kept. The count is set
    explicitly even then, because a forked worker keeps its caller's
    count instead of reading the variable. A library caller of ``train``
    keeps its own setting.
    """
    value = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    setter = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if setter is not None and value.isdecimal() and int(value) > 0:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(int(value))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_pool(workers: int):
    """Worker processes, each started by ``_start_ladder_worker``: forked
    on Linux, spawned elsewhere."""
    # imported here, as only a pooled ladder needs them (they cost every
    # other start about 20 ms). A forked worker starts in about 10 ms with
    # this process's modules already imported; a spawned one boots an
    # interpreter and imports numpy and cycleadapt again. Forking is safe
    # although the caller may have run BLAS threads: numpy's bundled
    # OpenBLAS is a pthreads build, which shuts its thread pool down at
    # fork, and ProcessPoolExecutor forks all its workers before it starts
    # its manager thread
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")
    return ProcessPoolExecutor(workers, mp_context=context, initializer=_start_ladder_worker)


def _start_ladder_worker() -> None:
    """Set up a ladder worker process: BLAS threads as ``pin_blas_threads``
    sets them, and ``evaluate`` on this process's own thread alone."""
    global _eval_threads
    pin_blas_threads()
    _eval_threads = 1


def _ladder_group(
    base_cfg: TrainConfig, data: DomainPair, mode: str, seeds: Sequence[int]
) -> list[tuple[float, tuple[MetricsRow, ...]]]:
    """One mode over all seeds as one replica group: each seed's final
    target accuracy and metrics history."""
    results = train(replace(base_cfg, ablation_mode=mode), data, seeds=seeds)
    return [
        (final_accuracies(result, data, seed)[1], tuple(result.history))
        for seed, result in zip(seeds, results)
    ]


def _pooled_groups(workers: int, jobs: list[tuple]) -> list:
    """``_ladder_group`` of each job, in job order, on ``workers`` worker
    processes. Jobs start in order, one per free worker; after the first
    failure no further job starts, the running ones finish, and the
    earliest failing job's error is raised, as a run in this process would.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    futures, running = [], set()
    with _worker_pool(workers) as ex:
        for job in jobs:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(f.exception() is not None for f in done):
                    break
            futures.append(ex.submit(_ladder_group, *job))
            running.add(futures[-1])
    # every job before the first failing one has finished, so reading the
    # results in job order raises that job's error
    return [f.result() for f in futures]


def ablation_run(
    base_cfg: TrainConfig,
    data: DomainPair,
    seeds: Sequence[int],
    modes: Sequence[str] = ABLATION_MODES,
) -> dict[str, ModeStats]:
    """Train every (mode, seed) pair of the ladder; one ModeStats per mode.

    ``modes`` picks a subset of ABLATION_MODES, returned in that order.
    Each run reseeds both the architecture and the batch stream, so the
    whole table is reproducible end to end. Each mode trains all seeds as
    one replica group (see ``train``). The groups run on a pool of
    min(modes, usable CPUs) worker processes, forked on Linux and spawned
    elsewhere, which exit before this returns or raises; with one CPU or
    one mode they run one after another in this process. Either way the
    table, or the error of a diverging group, is the same.
    """
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")
    unknown = set(modes) - set(ABLATION_MODES)
    if unknown or not modes:
        raise ValueError(f"ablation modes must be a nonempty subset of {ABLATION_MODES}")
    modes = [m for m in ABLATION_MODES if m in modes]
    seeds = [int(s) for s in seeds]
    # the later modes go first: they build more loss terms and take longer,
    # so pooled workers finish closer together
    order = modes[::-1]
    jobs = [(base_cfg, data, mode, seeds) for mode in order]
    workers = min(len(order), _usable_cpus())
    if workers == 1:
        groups = [_ladder_group(*job) for job in jobs]
    else:
        groups = _pooled_groups(workers, jobs)
    table = {
        mode: ModeStats(mode, *(tuple(column) for column in zip(*group)))
        for mode, group in zip(order, groups)
    }
    return {mode: table[mode] for mode in modes}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path):
    """Write bytes to a new file next to ``path`` and move it onto ``path``
    once the block exits cleanly. A write that fails or is interrupted
    removes the new file and leaves whatever was at ``path`` untouched."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(suite: ModelSuite, cfg: TrainConfig, path, step: int = 0) -> None:
    """Single file: one JSON header line, then every parameter tensor as
    little-endian float64 in ``ModelSuite.parameters`` order. Written
    atomically: an interrupted save leaves the previous file at ``path``.

    The header's ``seed`` sets both seeds on load, so a config whose
    ``arch.seed`` differs from its ``seed`` is refused, with nothing
    written: it would reload with other randomized maps."""
    if cfg.arch.seed != cfg.seed:
        raise ValueError(
            f"cannot checkpoint arch.seed {cfg.arch.seed} != seed {cfg.seed}: "
            "a checkpoint stores one seed for both"
        )
    params = suite.parameters()
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": flatten_config(cfg),
        "step": int(step),
        "param_count": int(sum(p.size for p in params)),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelSuite, TrainConfig, int]:
    """Rebuild the suite from a checkpoint; round-trips parameters bitwise.
    Only the randomized maps are drawn, from the seed in the header; every
    parameter comes from the file."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable header: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version!r} != {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        cfg = config_from_flat(header["config"])
        declared = int(header["param_count"])
        step = int(header["step"])
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: bad header: {err}") from None

    # sized from the widths alone: a bad header is refused before the suite,
    # and its randomized maps, take any memory
    expected = sum(
        out * (1 + inp)
        for dims in cfg.arch.layer_dims().values()
        for inp, out in zip(dims, dims[1:])
    )
    if declared != expected:
        raise CheckpointError(
            f"{path}: header declares {declared} parameters but the stored "
            f"architecture builds {expected}; config mismatch"
        )
    if len(blob) != expected * 8:
        raise CheckpointError(
            f"{path}: expected {expected * 8} parameter bytes, found {len(blob)}"
        )
    suite = build_suite(cfg.arch, draw=False)
    offset = 0
    for p in suite.parameters():
        chunk = np.frombuffer(blob, dtype="<f8", count=p.size, offset=offset)
        p.data[...] = chunk.reshape(p.shape)
        offset += p.size * 8
    return suite, cfg, step
