"""Training loop, evaluation, ablation ladder, metrics, and checkpoints."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .autodiff import NonFiniteError, Tensor, add, exp, mul, no_grad, sigmoid, unchecked
from .data import DomainPair
from .losses import (
    LossBreakdown,
    LossWeights,
    adversarial_pair,
    resolve_weights,
    total_loss,
)
from .models import ArchConfig, ModelSuite, build_suite, predict
from .nn import Sgd, collect_params

ABLATION_MODES = ("S0", "S1", "S2", "S3", "S4")
MINIMAX_MODES = ("grl", "alternating")
GRL_SCHEDULES = ("constant", "ramp")
LR_SCHEDULES = ("constant", "inv_decay")

CHECKPOINT_FORMAT_VERSION = 1

METRICS_FIELDS = (
    "step",
    "l_cls",
    "l_dom",
    "l_s2t",
    "l_t2s",
    "l_cyc",
    "l_total",
    "source_acc",
    "target_acc",
    "d_d_mean_out",
)


class TrainingAborted(RuntimeError):
    """A step produced a non-finite loss. Carries the last complete
    breakdown so the collapse can be diagnosed."""

    def __init__(self, message: str, last_breakdown: LossBreakdown | None, step: int):
        super().__init__(message)
        self.last_breakdown = last_breakdown
        self.step = step


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
    minimax_mode: str = "grl"
    eval_every: int = 50
    grl_schedule: str = "ramp"
    lr_schedule: str = "inv_decay"

    def __post_init__(self):
        if self.ablation_mode not in ABLATION_MODES:
            raise ValueError(f"ablation_mode must be one of {ABLATION_MODES}")
        if self.minimax_mode not in MINIMAX_MODES:
            raise ValueError(f"minimax_mode must be one of {MINIMAX_MODES}")
        if self.grl_schedule not in GRL_SCHEDULES:
            raise ValueError(f"grl_schedule must be one of {GRL_SCHEDULES}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"lr_schedule must be one of {LR_SCHEDULES}")
        if self.batch_size < 1 or self.total_steps < 0 or self.eval_every < 1:
            raise ValueError("batch_size/eval_every must be >= 1 and total_steps >= 0")


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


@dataclass
class TrainResult:
    suite: ModelSuite
    history: list[MetricsRow]
    source_batches_drawn: int = 0
    target_batches_drawn: int = 0

    def __iter__(self):
        # allows `suite, history = train(...)`
        return iter((self.suite, self.history))


def default_train_config(seed: int = 0, **overrides) -> TrainConfig:
    """Reference hyperparameters on the default two-moons benchmark arch."""
    arch = ArchConfig(input_dim=2, num_classes=2, seed=seed)
    return replace(TrainConfig(arch=arch, seed=seed), **overrides)


# ---------------------------------------------------------------------------
# Flat config dict (the JSON/CLI surface)
# ---------------------------------------------------------------------------

_ARCH_KEYS = (
    "input_dim",
    "num_classes",
    "feature_dim",
    "feature_hidden",
    "domain_disc_hidden",
    "translator_hidden",
    "sample_disc_hidden",
    "hidden_activation",
    "cond_threshold",
    "cond_randomized_dim",
    "detach_predictions",
)
_WEIGHT_KEYS = {"lambda": "lam", "beta": "beta", "eta1": "eta1", "eta2": "eta2"}
_TRAIN_KEYS = (
    "lr",
    "momentum",
    "weight_decay",
    "batch_size",
    "total_steps",
    "seed",
    "ablation_mode",
    "minimax_mode",
    "eval_every",
    "grl_schedule",
    "lr_schedule",
)


def flatten_config(cfg: TrainConfig) -> dict:
    out: dict = {}
    arch = cfg.arch.to_dict()
    for k in _ARCH_KEYS:
        out[k] = arch[k]
    for json_key, attr in _WEIGHT_KEYS.items():
        out[json_key] = getattr(cfg.weights, attr)
    for k in _TRAIN_KEYS:
        out[k] = getattr(cfg, k)
    return out


def config_from_flat(flat: dict, base: TrainConfig | None = None) -> TrainConfig:
    """Build a TrainConfig from flat key/value pairs, rejecting unknown keys.

    Keys mirror the config field names; ``lambda`` maps to the
    domain-adversarial weight. ``seed`` also reseeds the architecture.
    """
    known = set(_ARCH_KEYS) | set(_WEIGHT_KEYS) | set(_TRAIN_KEYS)
    unknown = set(flat) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if base is None:
        if "input_dim" not in flat or "num_classes" not in flat:
            raise ValueError("config needs input_dim and num_classes")
        base = TrainConfig(
            arch=ArchConfig(
                input_dim=int(flat["input_dim"]), num_classes=int(flat["num_classes"])
            )
        )

    arch_kwargs = {k: flat[k] for k in _ARCH_KEYS if k in flat}
    for k in (
        "input_dim",
        "num_classes",
        "feature_dim",
        "feature_hidden",
        "domain_disc_hidden",
        "translator_hidden",
        "sample_disc_hidden",
        "cond_threshold",
        "cond_randomized_dim",
    ):
        if k in arch_kwargs:
            arch_kwargs[k] = int(arch_kwargs[k])
    if "seed" in flat:
        arch_kwargs["seed"] = int(flat["seed"])
    arch = replace(base.arch, **arch_kwargs)
    weights = replace(
        base.weights,
        **{attr: float(flat[jk]) for jk, attr in _WEIGHT_KEYS.items() if jk in flat},
    )
    train_kwargs = {k: flat[k] for k in _TRAIN_KEYS if k in flat}
    for k in ("batch_size", "total_steps", "seed", "eval_every"):
        if k in train_kwargs:
            train_kwargs[k] = int(train_kwargs[k])
    for k in ("lr", "momentum", "weight_decay"):
        if k in train_kwargs:
            train_kwargs[k] = float(train_kwargs[k])
    return replace(base, arch=arch, weights=weights, **train_kwargs)


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


def evaluate(suite: ModelSuite, x: np.ndarray, y: np.ndarray | None) -> float:
    """Fraction of samples whose argmax class equals the label; argmax
    ties resolve to the lowest class index."""
    if y is None:
        raise ValueError("evaluation needs labels; this dataset has none")
    y = np.asarray(y)
    with no_grad():
        _, p = predict(suite, Tensor(np.asarray(x, dtype=np.float64)))
    pred = p.data.argmax(axis=1)
    return float((pred == y).mean())


def domain_disc_mean_out(suite: ModelSuite, data: DomainPair, probe_n: int = 128) -> float:
    """Mean domain-discriminator output over a balanced source/target probe."""
    k = min(probe_n, len(data.x_s), len(data.x_t))
    with no_grad():
        outs = []
        for x in (data.x_s[:k], data.x_t[:k]):
            f, p = predict(suite, Tensor(x))
            logits = suite.domain_disc.forward_logits(suite.condition(f, p))
            outs.append(sigmoid(logits).data)
    return float(np.concatenate(outs).mean())


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


def _gen_disc_params(suite: ModelSuite) -> tuple[list[Tensor], list[Tensor]]:
    gen = collect_params([suite.features, suite.predictor, suite.s2t, suite.t2s])
    disc = collect_params([suite.domain_disc, suite.source_disc, suite.target_disc])
    return gen, disc


def _alternating_step(
    suite: ModelSuite,
    opt_gen: Sgd,
    opt_disc: Sgd,
    x_s: Tensor,
    y_s: np.ndarray,
    x_t: Tensor | None,
    weights: LossWeights,
) -> LossBreakdown:
    """Two-phase update: discriminators ascend their log-likelihoods on
    frozen features, then the feature/predictor/translator side descends
    the plain objective (discriminator grads from that pass are dropped)."""
    adv_terms: list[tuple[float, Tensor]] = []
    if x_t is not None and (weights.lam > 0.0 or weights.eta1 > 0.0):
        with no_grad():
            f_s = suite.features(x_s)
            f_t = suite.features(x_t)
            frozen: dict[str, Tensor] = {"f_s": Tensor(f_s.data), "f_t": Tensor(f_t.data)}
            if weights.lam > 0.0:
                frozen["p_s"] = Tensor(exp(suite.predictor(f_s)).data)
                frozen["p_t"] = Tensor(exp(suite.predictor(f_t)).data)
            if weights.eta1 > 0.0:
                frozen["fake_t"] = Tensor(suite.s2t(f_s).data)
                frozen["fake_s"] = Tensor(suite.t2s(f_t).data)
        if weights.lam > 0.0:
            c_s = suite.condition(frozen["f_s"], frozen["p_s"])
            c_t = suite.condition(frozen["f_t"], frozen["p_t"])
            adv_terms.append(
                (weights.lam, adversarial_pair(suite.domain_disc, c_s, c_t, 1.0, False))
            )
        if weights.eta1 > 0.0:
            adv_terms.append(
                (
                    weights.eta1,
                    adversarial_pair(
                        suite.target_disc, frozen["f_t"], frozen["fake_t"], 1.0, False
                    ),
                )
            )
            adv_terms.append(
                (
                    weights.eta1,
                    adversarial_pair(
                        suite.source_disc, frozen["f_s"], frozen["fake_s"], 1.0, False
                    ),
                )
            )
    if adv_terms:
        obj: Tensor | None = None
        for w, term in adv_terms:
            scaled = mul(term, w)
            obj = scaled if obj is None else add(obj, scaled)
        disc_loss = mul(obj, -1.0)
        disc_loss.backward()
        opt_disc.step()

    total, breakdown = total_loss(
        suite, (x_s, y_s), x_t, weights, grl_coeff=1.0, rig_minimax=False
    )
    total.backward()
    opt_gen.step()
    suite.zero_grads()
    return breakdown


def _grl_step(
    suite: ModelSuite,
    opt: Sgd,
    x_s: Tensor,
    y_s: np.ndarray,
    x_t: Tensor | None,
    weights: LossWeights,
    grl_coeff: float,
) -> LossBreakdown:
    """One descent step on the rigged objective.

    Forward and backward run without per-op finiteness checks; the loss is
    checked here and the flat gradient inside ``opt.step``, once each,
    before any parameter moves. If either is non-finite the step's forward
    is replayed with checks on, so the error names the op that went
    non-finite first, as a fully checked step would; a replay that passes
    leaves the optimizer's ``sgd_step`` error.
    """

    def forward():
        return total_loss(suite, (x_s, y_s), x_t, weights, grl_coeff, rig_minimax=True)

    with unchecked():
        total, breakdown = forward()
        finite = math.isfinite(breakdown.l_total)
        if finite:
            total.backward()
    try:
        if not finite:
            raise NonFiniteError("total_loss")
        opt.step()
    except NonFiniteError:
        with no_grad():
            forward()
        raise
    return breakdown


class _MetricsWriter:
    def __init__(self, path):
        self.fh = open(path, "w", newline="", encoding="utf-8")
        self.writer = csv.writer(self.fh)
        self.writer.writerow(METRICS_FIELDS)
        self.fh.flush()

    def write(self, row: MetricsRow) -> None:
        self.writer.writerow(
            [str(row.step)]
            + [
                repr(float(getattr(row, name)))
                for name in METRICS_FIELDS[1:]
            ]
        )
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


def read_metrics_csv(path) -> list[MetricsRow]:
    rows: list[MetricsRow] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != METRICS_FIELDS:
            raise ValueError(f"{path}: unexpected metrics header {reader.fieldnames}")
        for rec in reader:
            rows.append(
                MetricsRow(
                    step=int(rec["step"]),
                    **{k: float(rec[k]) for k in METRICS_FIELDS[1:]},
                )
            )
    return rows


def train(cfg: TrainConfig, data: DomainPair, metrics_path=None) -> TrainResult:
    """Run ``cfg.total_steps`` optimization steps and log metrics.

    Deterministic for fixed (cfg, data): model init derives from
    cfg.arch.seed, batch order from cfg.seed, via independent streams.
    Loss terms disabled by the ablation mode are never built, so a
    classification-only run never draws target batches. A non-finite loss
    aborts with the last complete breakdown attached.
    """
    if data.num_classes != cfg.arch.num_classes:
        raise ValueError(
            f"data has {data.num_classes} classes but arch expects {cfg.arch.num_classes}"
        )
    if data.input_dim != cfg.arch.input_dim:
        raise ValueError(f"data width {data.input_dim} but arch expects {cfg.arch.input_dim}")

    suite = build_suite(cfg.arch)
    weights = resolve_weights(cfg.ablation_mode, cfg.weights)
    need_target = weights.lam > 0.0 or weights.eta1 > 0.0 or weights.eta2 > 0.0

    ss_source, ss_target = np.random.SeedSequence(cfg.seed).spawn(2)
    src_stream = BatchStream(
        len(data.x_s), cfg.batch_size, np.random.default_rng(ss_source)
    )
    tgt_stream = (
        BatchStream(len(data.x_t), cfg.batch_size, np.random.default_rng(ss_target))
        if need_target
        else None
    )

    if cfg.minimax_mode == "grl":
        opts = [Sgd(suite.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)]
    else:
        gen_params, disc_params = _gen_disc_params(suite)
        opts = [
            Sgd(gen_params, cfg.lr, cfg.momentum, cfg.weight_decay),
            Sgd(disc_params, cfg.lr, cfg.momentum, cfg.weight_decay),
        ]

    history: list[MetricsRow] = []
    writer = _MetricsWriter(metrics_path) if metrics_path is not None else None
    last_breakdown: LossBreakdown | None = None
    try:
        for step in range(1, cfg.total_steps + 1):
            progress = step / cfg.total_steps
            lr_now = _lr_at(cfg.lr_schedule, cfg.lr, progress)
            for opt in opts:
                opt.lr = lr_now

            idx_s = src_stream.next()
            x_s = Tensor(data.x_s[idx_s])
            y_s = data.y_s[idx_s]
            x_t = Tensor(data.x_t[tgt_stream.next()]) if tgt_stream is not None else None

            try:
                if cfg.minimax_mode == "grl":
                    breakdown = _grl_step(
                        suite, opts[0], x_s, y_s, x_t, weights,
                        _grl_coeff(cfg.grl_schedule, progress),
                    )
                else:
                    breakdown = _alternating_step(
                        suite, opts[0], opts[1], x_s, y_s, x_t, weights
                    )
            except NonFiniteError as err:
                raise TrainingAborted(
                    f"aborted at step {step}: {err}", last_breakdown, step
                ) from err
            last_breakdown = breakdown

            if step % cfg.eval_every == 0 or step == cfg.total_steps:
                row = MetricsRow(
                    step=step,
                    l_cls=breakdown.l_cls,
                    l_dom=breakdown.l_dom,
                    l_s2t=breakdown.l_s2t,
                    l_t2s=breakdown.l_t2s,
                    l_cyc=breakdown.l_cyc,
                    l_total=breakdown.l_total,
                    source_acc=evaluate(suite, data.x_s, data.y_s),
                    target_acc=(
                        evaluate(suite, data.x_t, data.y_t_eval)
                        if data.y_t_eval is not None
                        else float("nan")
                    ),
                    d_d_mean_out=domain_disc_mean_out(suite, data),
                )
                history.append(row)
                if writer is not None:
                    writer.write(row)
    finally:
        if writer is not None:
            writer.close()

    return TrainResult(
        suite,
        history,
        source_batches_drawn=src_stream.draws,
        target_batches_drawn=tgt_stream.draws if tgt_stream is not None else 0,
    )


# ---------------------------------------------------------------------------
# Ablation ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeStats:
    mode: str
    accuracies: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))


def ablation_run(
    base_cfg: TrainConfig, data: DomainPair, seeds: Sequence[int]
) -> dict[str, ModeStats]:
    """Final target accuracy per ladder mode, across seeds.

    Each (mode, seed) run reseeds both the architecture and the batch
    stream, so the whole table is reproducible end to end.
    """
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")
    table: dict[str, ModeStats] = {}
    for mode in ABLATION_MODES:
        accs = []
        for seed in seeds:
            cfg = replace(
                base_cfg,
                seed=int(seed),
                arch=replace(base_cfg.arch, seed=int(seed)),
                ablation_mode=mode,
            )
            result = train(cfg, data)
            if result.history:
                accs.append(result.history[-1].target_acc)
            else:
                accs.append(evaluate(result.suite, data.x_t, data.y_t_eval))
        table[mode] = ModeStats(mode=mode, accuracies=tuple(accs))
    return table


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(suite: ModelSuite, cfg: TrainConfig, path, step: int = 0) -> None:
    """Single file: one JSON header line, then every parameter tensor as
    little-endian float64 in collect_params order."""
    params = suite.parameters()
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": flatten_config(cfg),
        "step": int(step),
        "param_count": int(sum(p.size for p in params)),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelSuite, TrainConfig, int]:
    """Rebuild the suite from a checkpoint; round-trips parameters bitwise."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable header: {err}") from None
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

    suite = build_suite(cfg.arch)
    params = suite.parameters()
    expected = sum(p.size for p in params)
    if declared != expected:
        raise CheckpointError(
            f"{path}: header declares {declared} parameters but the stored "
            f"architecture builds {expected}; config mismatch"
        )
    if len(blob) != expected * 8:
        raise CheckpointError(
            f"{path}: expected {expected * 8} parameter bytes, found {len(blob)}"
        )
    offset = 0
    for p in params:
        nbytes = p.size * 8
        chunk = np.frombuffer(blob, dtype="<f8", count=p.size, offset=offset)
        p.data = chunk.reshape(p.shape).copy()
        offset += nbytes
    return suite, cfg, step
