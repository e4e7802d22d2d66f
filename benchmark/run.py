#!/usr/bin/env python3
"""Benchmark of cycleadapt: one workload, timed for a fixed time, checked.

    python3 benchmark/run.py --workload s3_default --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload (see workloads.py) until the next round
would overrun ``--seconds``, checks the program's outputs against the
benchmark's own computations, and prints every metric by name and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The package is imported from ``src/`` next to this directory. OpenBLAS
runs one thread unless OPENBLAS_NUM_THREADS is set: on two shared vCPUs
the default of one thread per core doubled the run-to-run spread of the
timings. The thread count in effect is printed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload's inputs
    being built in it (imports included)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe_setup.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def blas_threads() -> str:
    """OpenBLAS version and thread count of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is None or conf is None:
                    continue
                get.restype, get.argtypes = ctypes.c_int, []
                conf.restype, conf.argtypes = ctypes.c_char_p, []
                return f"{conf().decode().split()[1]} threads={get()}"
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "cycleadapt", "__init__.py")):
        print(f"error: no cycleadapt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # the CLI runs `git describe`; keep it from searching above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    import cycleadapt

    if not os.path.abspath(cycleadapt.__file__).startswith(SRC + os.sep):
        print(f"error: imported cycleadapt from {cycleadapt.__file__}", file=sys.stderr)
        return 2
    import numpy as np

    from checks import CheckFailed
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(OUT, tag)
    os.makedirs(workdir)

    tracer = Tracer() if args.trace else None
    failures: list[str] = []

    def attempt(check) -> None:
        try:
            check()
        except CheckFailed as err:
            failures.append(str(err))
            print(f"check failed: {err}")

    rounds = []
    try:
        setup = [] if tracer else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        if tracer:
            tracer.install()
            tracer.active = True
        workload.setup(args.seed, workdir)
        if tracer:
            tracer.active = False
        attempt(workload.precheck)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if tracer:
                tracer.active = True
            rounds.append(workload.round())
            if tracer:
                tracer.active = False
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempt(workload.postcheck)
        if tracer:
            tracer.write(os.path.join(OUT, f"trace-{tag}.json.gz"))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not failures
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wall = statistics.median(r.wall_s for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"attempted {attempted}, failed {failed}, correct {correct}")
    print("round wall_s: " + " ".join(f"{r.wall_s:.4f}" for r in rounds))
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, OpenBLAS {blas_threads()}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")

    if tracer:
        metrics, covered = layer_metrics(tracer, len(rounds))
        print(f"traced wall_s {wall:.6f} (median of {len(rounds)} rounds); step layers "
              f"cover {100 * covered:.1f}% of training-step time")
    else:
        # a round whose training aborted has no accuracy and no evaluation
        evals = [e for r in rounds for e in r.eval_s] or [0.0]
        accs = next((r.target_accs for r in reversed(rounds) if r.target_accs), [0.0])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "steps_per_s": (statistics.median(r.steps / r.train_s for r in rounds), "steps/s"),
            "target_acc": (float(np.mean(accs)), "fraction"),
            "eval_s": (statistics.median(evals), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
