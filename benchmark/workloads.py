"""The benchmark's three workloads: inputs from a seed, timed rounds, checks.

Each workload is a closed loop in one process: the next operation starts
when the previous one returns. A round is one whole unit of work (a
training run, a ladder, or a gen/train/eval sequence), so every run
attempts whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks
from checks import LADDER_MODES

# The default two-moons pair is data seed 7, as in scripts/run_benchmark.py
# and the ladder fixture. s3_default and ladder keep it fixed and take their
# training seeds from the workload seed: across data seeds the final target
# accuracy of a short run spreads about twice as wide.
DEFAULT_DATA_SEED = 7
# s3_default: the paper's headline run, shortened from 15000 steps
S3_STEPS = 1000
# ladder: S0..S4 over two seeds, shortened from the 15000-step protocol
LADDER_STEPS = 200
# cli_wide: feature_dim * classes = 272 * 16 = 4352 > 4096, so the
# randomized conditioning branch (width 1024) runs
CLI_ROWS = 20000
CLI_CLASSES = 16
CLI_FEATURE_DIM = 272
CLI_CLASS_SEP = 6.0
CLI_ROTATION = 8.0
CLI_STEPS = 300
CLI_EVALS_PER_ROUND = 3
# Where no eval command runs, eval_s is one in-memory evaluation of a model
# over the full target set. A 500-row evaluation takes about 0.5 ms and
# varies by a factor of two from call to call, so each round takes one
# sample, the mean of a batch of calls, and eval_s is the median sample.
EVAL_BATCH = 100


@dataclass
class Round:
    wall_s: float
    train_s: float
    steps: int
    target_accs: list[float]
    eval_s: list[float] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _eval_latency(trainer, suite, pair) -> float:
    t0 = time.perf_counter()
    for _ in range(EVAL_BATCH):
        trainer.evaluate(suite, pair.x_t, pair.y_t_eval)
    return (time.perf_counter() - t0) / EVAL_BATCH


def _check_trained(what: str, suite, pair, final_row) -> None:
    """The numpy forward over the trained weights must give the reported
    final source and target accuracy."""
    params = checks.suite_params(suite)
    k, n = checks.correct_count(params, pair.x_s, pair.y_s)
    checks.check_accuracy(f"{what} source accuracy", final_row.source_acc, k, n)
    k, n = checks.correct_count(params, pair.x_t, pair.y_t_eval)
    checks.check_accuracy(f"{what} target accuracy", final_row.target_acc, k, n)


def _check_aborts(what: str, aborted: list[str], completed: int) -> None:
    """Training that aborts on a non-finite loss is counted in ``failed``.
    Rounds on the same inputs must all abort or all complete, and the
    checks need at least one completed run."""
    if aborted and completed:
        raise checks.CheckFailed(
            f"{what}: {len(aborted)} rounds aborted and {completed} completed on the "
            f"same inputs: {aborted[0]}"
        )
    if aborted:
        raise checks.CheckFailed(f"{what}: no run completed to check: {aborted[0]}")


def _identity_weights(mode: str):
    from cycleadapt.losses import LossWeights, resolve_weights

    w = resolve_weights(mode, LossWeights())
    return w.lam, w.eta1, w.eta2


# ---------------------------------------------------------------------------
# s3_default
# ---------------------------------------------------------------------------


class S3Default:
    """One trainer.train run of the full model on the default two-moons
    pair (500 per domain, rotated 45 degrees), default config."""

    name = "s3_default"

    def setup(self, seed: int, workdir: str):
        from cycleadapt import trainer
        from cycleadapt.data import default_benchmark_pair

        self.trainer = trainer
        self.seed = seed
        self.workdir = workdir
        self.pair = default_benchmark_pair(seed=DEFAULT_DATA_SEED)
        self.cfg = trainer.default_train_config(seed=seed, total_steps=S3_STEPS)
        self.finals = []
        self.last = None
        self.aborted = []

    def precheck(self) -> None:
        """Before timing: two optimizer steps against the numpy update
        rule, and central differences on the unrigged loss."""
        from cycleadapt.autodiff import Tensor
        from cycleadapt.losses import resolve_weights, total_loss
        from cycleadapt.models import build_suite
        from cycleadapt.nn import Sgd

        cfg, pair = self.cfg, self.pair
        rng = np.random.default_rng(self.seed)
        rows_s = rng.choice(len(pair.x_s), cfg.batch_size, replace=False)
        rows_t = rng.choice(len(pair.x_t), cfg.batch_size, replace=False)
        x_s, y_s, x_t = Tensor(pair.x_s[rows_s]), pair.y_s[rows_s], Tensor(pair.x_t[rows_t])
        weights = resolve_weights(cfg.ablation_mode, cfg.weights)

        suite = build_suite(cfg.arch)
        params = suite.parameters()
        opt = Sgd(params, cfg.lr, cfg.momentum, cfg.weight_decay)
        snapshots = []
        for _ in range(2):
            loss, _ = total_loss(suite, (x_s, y_s), x_t, weights, grl_coeff=1.0)
            loss.backward()
            before = [p.data.copy() for p in params]
            grads = [None if p.grad is None else p.grad.copy() for p in params]
            opt.step()
            snapshots.append((before, grads, [p.data.copy() for p in params]))
        checks.check_sgd_steps(snapshots, cfg.lr, cfg.momentum, cfg.weight_decay)

        # the cycle term stops gradients at the features, so a feature
        # coordinate is differenced on the loss without that term
        suite = build_suite(cfg.arch)
        n_features = len(suite.features.parameters())
        no_cycle = replace(weights, eta2=0.0)

        def loss(w):
            return lambda: total_loss(suite, (x_s, y_s), x_t, w, rig_minimax=False)[0]

        checks.check_gradient(
            loss(weights),
            suite.parameters(),
            rng,
            numeric_fn=lambda i: loss(no_cycle if i < n_features else weights),
        )

    def round(self) -> Round:
        t0 = time.perf_counter()
        try:
            result, train_s = _timed(self.trainer.train, self.cfg, self.pair)
        except self.trainer.TrainingAborted as err:
            self.aborted.append(str(err))
            wall = time.perf_counter() - t0
            return Round(wall, wall, 0, [], failed=1)
        evals = [_eval_latency(self.trainer, result.suite, self.pair)]
        wall = time.perf_counter() - t0
        self.finals.append(result.history[-1])
        self.last = result
        return Round(wall, train_s, self.cfg.total_steps, [result.history[-1].target_acc], evals)

    def postcheck(self) -> None:
        _check_aborts("s3_default", self.aborted, len(self.finals))
        if any(row != self.finals[0] for row in self.finals):
            raise checks.CheckFailed("s3_default: repeated runs logged different final rows")
        result = self.last
        _check_trained("s3_default", result.suite, self.pair, result.history[-1])
        checks.check_loss_identity(result.history, *_identity_weights(self.cfg.ablation_mode))
        path = os.path.join(self.workdir, "checkpoint.bin")
        self.trainer.save_checkpoint(result.suite, self.cfg, path, step=self.cfg.total_steps)
        _, params, _ = checks.parse_checkpoint(path)
        checks.check_params_equal("s3_default checkpoint", params, checks.suite_params(result.suite))


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


class Ladder:
    """trainer.ablation_run over S0..S4 with two seeds on the default pair."""

    name = "ladder"

    def setup(self, seed: int, workdir: str):
        from cycleadapt import trainer
        from cycleadapt.data import default_benchmark_pair
        from cycleadapt.models import build_suite

        self.trainer = trainer
        self.seed = seed
        self.pair = default_benchmark_pair(seed=DEFAULT_DATA_SEED)
        self.base = trainer.default_train_config(seed=0, total_steps=LADDER_STEPS)
        self.seeds = (2 * seed + 1, 2 * seed + 2)
        # ablation_run returns no model; evaluation costs the same for any
        # weights of this architecture, so eval_s uses a freshly built one
        self.eval_suite = build_suite(self.base.arch)
        self.tables = []
        self.aborted = []

    def precheck(self) -> None:
        pass

    def round(self) -> Round:
        runs = len(LADDER_MODES) * len(self.seeds)
        t0 = time.perf_counter()
        try:
            table, train_s = _timed(self.trainer.ablation_run, self.base, self.pair, self.seeds)
        except self.trainer.TrainingAborted as err:
            # ablation_run returns no table, so none of the round's runs counts
            self.aborted.append(str(err))
            wall = time.perf_counter() - t0
            return Round(wall, wall, 0, [], attempted=runs, failed=runs)
        evals = [_eval_latency(self.trainer, self.eval_suite, self.pair)]
        wall = time.perf_counter() - t0
        table = {mode: list(stats.accuracies) for mode, stats in table.items()}
        self.tables.append(table)
        accs = [a for accs in table.values() for a in accs]
        return Round(wall, train_s, runs * LADDER_STEPS, accs, evals, attempted=runs)

    def postcheck(self) -> None:
        _check_aborts("ladder", self.aborted, len(self.tables))
        table = self.tables[0]
        if any(t != table for t in self.tables):
            raise checks.CheckFailed("ladder: repeated ladders gave different accuracies")
        checks.check_ladder_table(table, LADDER_MODES, self.seeds, len(self.pair.x_t))
        rng = np.random.default_rng(self.seed)
        mode = LADDER_MODES[int(rng.integers(len(LADDER_MODES)))]
        i = int(rng.integers(len(self.seeds)))
        s = self.seeds[i]
        cfg = replace(self.base, seed=s, arch=replace(self.base.arch, seed=s), ablation_mode=mode)
        final = self.trainer.train(cfg, self.pair)
        if final.history[-1].target_acc != table[mode][i]:
            raise checks.CheckFailed(
                f"ladder: retraining {mode} seed {s} gave {final.history[-1].target_acc!r}, "
                f"the ladder reported {table[mode][i]!r}"
            )
        _check_trained(f"ladder {mode} seed {s}", final.suite, self.pair, final.history[-1])


# ---------------------------------------------------------------------------
# cli_wide
# ---------------------------------------------------------------------------


class CliWide:
    """cli.main gen (gaussian, 16 classes, 20000 rows per domain), then
    train --ablation S1 at feature width 272, then eval on the full
    target CSV, in one process."""

    name = "cli_wide"

    def setup(self, seed: int, workdir: str):
        from cycleadapt import cli

        self.cli = cli
        self.seed = seed
        self.data_dir = os.path.join(workdir, "data")
        self.run_dir = os.path.join(workdir, "run")
        self.source = os.path.join(self.data_dir, "source.csv")
        self.target = os.path.join(self.data_dir, "target.csv")
        self.ckpt = os.path.join(self.run_dir, "checkpoint.bin")
        self.gen_argv = [
            "gen", "--kind", "gaussian", "--classes", str(CLI_CLASSES),
            "--class-sep", str(CLI_CLASS_SEP), "--n", str(CLI_ROWS),
            "--rotation", str(CLI_ROTATION), "--seed", str(seed), "--out", self.data_dir,
        ]
        self.train_argv = [
            "train", "--source", self.source, "--target", self.target,
            "--feature-dim", str(CLI_FEATURE_DIM), "--ablation", "S1",
            "--steps", str(CLI_STEPS), "--seed", str(seed), "--out", self.run_dir,
        ]
        self.eval_argv = ["eval", "--checkpoint", self.ckpt, "--target", self.target]
        self.printed = []
        self.manifests = []

    def precheck(self) -> None:
        pass

    def _command(self, argv) -> tuple[int, str, float]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue(), time.perf_counter() - t0

    def round(self) -> Round:
        failed = 0
        code, _, gen_s = self._command(self.gen_argv)
        failed += code != 0
        code, _, train_s = self._command(self.train_argv)
        failed += code != 0
        evals, printed = [], []
        for _ in range(CLI_EVALS_PER_ROUND):
            code, text, dt = self._command(self.eval_argv)
            failed += code != 0
            evals.append(dt)
            printed.append(text.strip())
        wall = gen_s + train_s + sum(evals)
        with open(os.path.join(self.run_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.manifests.append(manifest)
        self.printed.extend(printed)
        acc = manifest.get("final_target_acc", float("nan"))
        return Round(wall, train_s, CLI_STEPS, [acc], evals,
                     attempted=2 + CLI_EVALS_PER_ROUND, failed=failed)

    def postcheck(self) -> None:
        from cycleadapt import trainer
        from cycleadapt.data import DomainPair

        for manifest in self.manifests:
            if manifest.get("status") != "completed":
                raise checks.CheckFailed(f"cli_wide: manifest status {manifest.get('status')!r}")
        if any(m["final_target_acc"] != self.manifests[0]["final_target_acc"] for m in self.manifests):
            raise checks.CheckFailed("cli_wide: repeated rounds gave different accuracies")
        self.manifest = self.manifests[-1]
        if len(set(self.printed)) != 1:
            raise checks.CheckFailed(f"cli_wide: eval printed {sorted(set(self.printed))}")
        self.printed_acc = self.printed[0]
        header, params, dd_in = checks.parse_checkpoint(self.ckpt)
        cfg = header["config"]
        if dd_in != cfg["cond_randomized_dim"]:
            raise checks.CheckFailed(
                f"cli_wide: domain_disc input width {dd_in} != cond_randomized_dim "
                f"{cfg['cond_randomized_dim']}"
            )
        if cfg["feature_dim"] * cfg["num_classes"] <= cfg["cond_threshold"]:
            raise checks.CheckFailed("cli_wide: the exact conditioning branch ran")
        x_t, y_t = checks.load_csv_xy(self.target)
        k, n = checks.correct_count(params, x_t, y_t)
        checks.check_accuracy("cli_wide eval", self.manifest["final_target_acc"], k, n)
        if self.printed_acc != f"{k / n:.4f}":
            raise checks.CheckFailed(f"cli_wide: eval printed {self.printed_acc}, numpy {k}/{n}")
        rows = checks.read_metrics_rows(os.path.join(self.run_dir, "metrics.csv"))
        checks.check_loss_identity(rows, *_identity_weights("S1"))
        if float(rows[-1]["target_acc"]) != k / n:
            raise checks.CheckFailed("cli_wide: metrics.csv final target_acc disagrees")
        # the checkpoint must hold exactly what the library's train produces
        x_s, y_s = checks.load_csv_xy(self.source)
        pair = DomainPair(x_s=x_s, y_s=y_s, x_t=x_t, y_t_eval=y_t, num_classes=CLI_CLASSES)
        result = trainer.train(trainer.config_from_flat(cfg), pair)
        checks.check_params_equal("cli_wide checkpoint", params, checks.suite_params(result.suite))


WORKLOADS = {w.name: w for w in (S3Default, Ladder, CliWide)}
