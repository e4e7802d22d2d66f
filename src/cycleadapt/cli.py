"""Command-line entry point: gen, train, eval, ablate, gradcheck.

Exit codes: 0 success, 1 check failure, 2 usage or input error,
3 runtime abort (non-finite loss or evaluation, unreadable checkpoint).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import NonFiniteError
from .data import (
    CsvSchemaError,
    DomainPair,
    ShiftSpec,
    gen_gaussian_shift_pair,
    gen_two_moons_pair,
    load_pair_csv,
    save_pair_csv,
)
from .trainer import (
    ABLATION_MODES,
    CHOICES,
    FLAT_FIELDS,
    CheckpointError,
    TrainConfig,
    TrainingAborted,
    ablation_run,
    atomic_write,
    config_from_flat,
    evaluate,
    flatten_config,
    load_checkpoint,
    pin_blas_threads,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ABORT = 3

# the flags of train and ablate, each with the flat config key it sets;
# the key's field gives the flag's type and choices
_TRAIN_FLAGS = (
    ("--seed", "seed"),
    ("--feature-dim", "feature_dim"),
    ("--lr", "lr"),
    ("--momentum", "momentum"),
    ("--weight-decay", "weight_decay"),
    ("--batch-size", "batch_size"),
    ("--steps", "total_steps"),
    ("--eval-every", "eval_every"),
    ("--lambda", "lambda"),
    ("--beta", "beta"),
    ("--eta1", "eta1"),
    ("--eta2", "eta2"),
    ("--ablation", "ablation_mode"),
    ("--grl-schedule", "grl_schedule"),
    ("--lr-schedule", "lr_schedule"),
)
_ARG_TYPES = {"int": int, "float": float, "str": str}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


@functools.lru_cache(maxsize=None)
def _version_string() -> str:
    """``__version__``, plus ``+<git describe>`` when the package runs from
    its own source checkout (``src/cycleadapt`` in a git work tree).

    Computed once per process, and never from the caller's working
    directory, which may be some other repository.
    """
    root = Path(__file__).resolve().parent.parent.parent
    if (root / ".git").exists() and (root / "pyproject.toml").is_file():
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=5,
            )
            if out.returncode == 0 and out.stdout.strip():
                return f"{__version__}+{out.stdout.strip()}"
        except (OSError, subprocess.SubprocessError):
            pass
    return __version__


def _write_json_atomic(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def _manifest(path: str, cfg: TrainConfig, outputs: dict, status: str, extra: dict) -> None:
    payload = {
        "config": flatten_config(cfg),
        "resolved_seed": cfg.seed,
        "outputs": outputs,
        "status": status,
        "version": _version_string(),
        **extra,
    }
    _write_json_atomic(path, payload)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _parse_vector(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"--{name} must be comma-separated numbers, got {text!r}")


def cmd_gen(args: argparse.Namespace) -> int:
    shift = ShiftSpec(
        kind=args.shift_kind,
        rotation_deg=args.rotation,
        scale=_parse_vector(args.scale, "scale"),
        translate=_parse_vector(args.translate, "translate"),
        noise_std=args.noise,
    )
    if args.kind == "two-moons":
        pair = gen_two_moons_pair(args.n, shift, args.seed)
    elif args.kind == "gaussian":
        k = args.dim
        angles = 2.0 * np.pi * np.arange(args.classes) / args.classes
        means = np.zeros((args.classes, k))
        means[:, 0] = args.class_sep * np.cos(angles)
        if k > 1:
            means[:, 1] = args.class_sep * np.sin(angles)
        cov = np.eye(k) * args.spread**2
        pair = gen_gaussian_shift_pair(args.n, args.classes, means, cov, shift, args.seed)
        # the class means sit evenly on a circle: a rotation by half their
        # spacing or more puts a target class at least as near a
        # neighbour's mean as its own
        turn = min(shift.rotation_deg, 360.0 - shift.rotation_deg)
        if shift.kind != "affine" and turn >= 180.0 / args.classes:
            print(
                f"warning: rotation {args.rotation} deg is at least half the class "
                f"spacing of {360.0 / args.classes} deg; target classes may land "
                f"on their neighbours",
                file=sys.stderr,
            )
    else:
        raise CliError(f"unknown generator kind {args.kind!r}")

    os.makedirs(args.out, exist_ok=True)
    source_path = os.path.join(args.out, "source.csv")
    target_path = os.path.join(args.out, "target.csv")
    save_pair_csv(pair, source_path, target_path)
    print(
        f"wrote {source_path} and {target_path}: n={args.n} per domain, "
        f"C={pair.num_classes}, shift={shift.kind} "
        f"(rotation={shift.rotation_deg} deg, noise={shift.noise_std})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_pair_or_fail(source: str, target: str) -> DomainPair:
    for path in (source, target):
        if not os.path.exists(path):
            raise CliError(f"dataset file not found: {path}")
    try:
        return load_pair_csv(source, target)
    except CsvSchemaError as err:
        raise CliError(str(err))


def _resolve_train_config(args: argparse.Namespace, data: DomainPair) -> TrainConfig:
    flat: dict = {}
    if args.config:
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as err:
                raise CliError(f"{args.config}: invalid JSON: {err}")
        if not isinstance(file_cfg, dict):
            raise CliError(f"{args.config}: config must be a JSON object")
        flat.update(file_cfg)
    # flags override file values
    flat.update(
        {key: val for key, val in vars(args).items() if key in FLAT_FIELDS and val is not None}
    )
    flat.setdefault("input_dim", data.input_dim)
    flat.setdefault("num_classes", data.num_classes)
    try:
        cfg = config_from_flat(flat)
    except ValueError as err:
        raise CliError(str(err))
    if (cfg.arch.input_dim, cfg.arch.num_classes) != (data.input_dim, data.num_classes):
        raise CliError(
            f"config dims (input_dim={cfg.arch.input_dim}, num_classes="
            f"{cfg.arch.num_classes}) do not match the dataset "
            f"({data.input_dim}, {data.num_classes})"
        )
    return cfg


def cmd_train(args: argparse.Namespace) -> int:
    data = _load_pair_or_fail(args.source, args.target)
    cfg = _resolve_train_config(args, data)
    if args.print_config:
        print(json.dumps(flatten_config(cfg), indent=2, sort_keys=True))
        return EXIT_OK

    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.csv")
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    manifest_path = os.path.join(args.out, "manifest.json")
    outputs = {"metrics": metrics_path, "checkpoint": ckpt_path}
    started = _utcnow()
    _manifest(manifest_path, cfg, outputs, "running", {"started_at": started})

    try:
        result = train(cfg, data, metrics_path=metrics_path)
        save_checkpoint(result.suite, cfg, ckpt_path, step=cfg.total_steps)
        if result.history:
            # train logs both accuracies at its final step
            final = result.history[-1]
            source_acc = final.source_acc
            target_acc = None if math.isnan(final.target_acc) else final.target_acc
        else:
            source_acc = evaluate(result.suite, data.x_s, data.y_s)
            target_acc = (
                evaluate(result.suite, data.x_t, data.y_t_eval)
                if data.y_t_eval is not None
                else None
            )
    except TrainingAborted as err:
        dump_path = os.path.join(args.out, "abort.json")
        dump = {"error": str(err), "step": err.step}
        if err.last_breakdown is not None:
            dump["last_breakdown"] = err.last_breakdown.__dict__
        _write_json_atomic(dump_path, dump)
        _manifest(
            manifest_path,
            cfg,
            outputs,
            "aborted",
            {"started_at": started, "finished_at": _utcnow(), "diagnostic": dump_path},
        )
        print(f"error: {err} (diagnostic at {dump_path})", file=sys.stderr)
        return EXIT_ABORT
    except BaseException:
        # any other failure, Ctrl-C included, still ends the manifest
        _manifest(
            manifest_path,
            cfg,
            outputs,
            "failed",
            {"started_at": started, "finished_at": _utcnow()},
        )
        raise
    _manifest(
        manifest_path,
        cfg,
        outputs,
        "completed",
        {
            "started_at": started,
            "finished_at": _utcnow(),
            "final_source_acc": source_acc,
            "final_target_acc": target_acc,
        },
    )
    line = f"final source accuracy {source_acc:.4f}"
    if target_acc is not None:
        line += f", target accuracy {target_acc:.4f}"
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    if not os.path.exists(args.checkpoint):
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    if not os.path.exists(args.target):
        raise CliError(f"dataset file not found: {args.target}")
    try:
        suite, cfg, _step = load_checkpoint(args.checkpoint)
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ABORT
    from .data import _load_domain_csv

    try:
        x, y = _load_domain_csv(args.target)
    except CsvSchemaError as err:
        raise CliError(str(err))
    if y is None:
        raise CliError(f"{args.target}: no label column; evaluation needs labels")
    if x.shape[1] != cfg.arch.input_dim:
        raise CliError(
            f"{args.target}: width {x.shape[1]} does not match checkpoint "
            f"input_dim {cfg.arch.input_dim}"
        )
    if y.max() >= cfg.arch.num_classes:
        raise CliError(
            f"{args.target}: label {int(y.max())} outside checkpoint's "
            f"{cfg.arch.num_classes} classes"
        )
    try:
        acc = evaluate(suite, x, y)
    except NonFiniteError as err:
        print(f"error: evaluating {args.checkpoint}: {err}", file=sys.stderr)
        return EXIT_ABORT
    print(f"{acc:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def cmd_ablate(args: argparse.Namespace) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if len(seeds) < 2:
        raise CliError("--seeds needs at least 2 comma-separated seeds")
    data = _load_pair_or_fail(args.source, args.target)
    if data.y_t_eval is None:
        raise CliError("ablation needs a labeled target file")
    base = _resolve_train_config(args, data)
    table = ablation_run(base, data, seeds)

    lines = ["mode,mean_target_acc,std_target_acc,n_seeds"]
    for mode in ABLATION_MODES:
        stats = table[mode]
        lines.append(f"{mode},{stats.mean!r},{stats.std!r},{len(stats.accuracies)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    for mode in ABLATION_MODES:
        stats = table[mode]
        print(f"{mode}: {stats.mean:.4f} +/- {stats.std:.4f}")
    if args.assert_trend and table["S3"].mean < table["S0"].mean:
        print(
            f"trend check failed: mean(S3)={table['S3'].mean:.4f} < "
            f"mean(S0)={table['S0'].mean:.4f}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args: argparse.Namespace) -> int:
    # imported here, as only this command needs it: the other commands
    # start faster without it
    from .gradcheck import COMPONENTS, run_components

    if args.component != "all" and args.component not in COMPONENTS:
        raise CliError(
            f"unknown component {args.component!r}; choose from "
            f"{('all',) + tuple(COMPONENTS)}"
        )
    names = list(COMPONENTS) if args.component == "all" else [args.component]
    results = run_components(names, tol=args.tol, eps=args.eps, seed=args.seed)
    all_ok = True
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        worst_name, worst_err = report.worst()
        detail = f"worst {worst_err:.3e} at {worst_name}"
        if report.failure:
            detail = report.failure
        print(f"{status} {name}: {detail}")
        all_ok = all_ok and report.passed
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleadapt",
        description=(
            "Adversarial domain adaptation with conditioned discriminators and "
            "cycle-consistent feature translation, on synthetic two-domain data."
        ),
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a source/target CSV pair")
    p_gen.add_argument("--kind", default="two-moons", choices=["two-moons", "gaussian"])
    p_gen.add_argument("--n", type=int, default=500, help="samples per domain")
    p_gen.add_argument("--rotation", type=float, default=45.0)
    p_gen.add_argument("--shift-kind", default="rotation", choices=["rotation", "affine", "both"])
    p_gen.add_argument("--scale", default="1,1")
    p_gen.add_argument("--translate", default="0,0")
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--classes", type=int, default=2, help="gaussian generator only")
    p_gen.add_argument("--dim", type=int, default=2, help="gaussian generator only")
    p_gen.add_argument("--class-sep", type=float, default=2.0, dest="class_sep")
    p_gen.add_argument("--spread", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    def add_train_flags(p):
        p.add_argument("--source", required=True, help="source CSV (labeled)")
        p.add_argument("--target", required=True, help="target CSV")
        p.add_argument("--config", default=None, help="flat JSON config file")
        for flag, key in _TRAIN_FLAGS:
            p.add_argument(flag, dest=key, type=_ARG_TYPES[FLAT_FIELDS[key][2]],
                           choices=CHOICES.get(key))

    p_train = sub.add_parser("train", help="train on a CSV pair")
    add_train_flags(p_train)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--print-config", action="store_true",
                         help="print the resolved config as JSON and exit")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--target", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="run the S0..S4 ladder over seeds")
    add_train_flags(p_abl)
    p_abl.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    p_abl.add_argument("--out", default=None, help="table CSV path")
    p_abl.add_argument("--assert-trend", action="store_true",
                       help="exit nonzero if mean(S3) < mean(S0)")
    p_abl.set_defaults(func=cmd_ablate)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--tol", type=float, default=1e-4)
    p_gc.add_argument("--eps", type=float, default=1e-5)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--component", default="all")
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    pin_blas_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(err.code or 0)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
