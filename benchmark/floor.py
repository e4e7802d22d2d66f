#!/usr/bin/env python3
"""Plain-numpy arithmetic floor of one S3 training step.

    python3 benchmark/floor.py

Records the shapes of every ``linear`` call in one default S3 step (batch
32, two-moons pair), then times only their arithmetic in numpy: the
forward product and bias add, and both backward products plus the bias
sum. Prints the number of calls and the median ms per step.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

REPEATS = 2000


def step_linear_shapes() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    from cycleadapt import nn, trainer
    from cycleadapt.data import default_benchmark_pair

    from workloads import DEFAULT_DATA_SEED

    shapes = []
    original = nn.linear

    def recording(x, w, b):
        shapes.append((x.shape, w.shape))
        return original(x, w, b)

    pair = default_benchmark_pair(seed=DEFAULT_DATA_SEED)
    cfg = trainer.default_train_config(seed=1, total_steps=1, eval_every=10**9)
    nn.linear = recording
    try:
        trainer.train(cfg, pair)
    finally:
        nn.linear = original
    # the final-step evaluation also runs linear layers; keep the step's own
    # calls, which all have the training batch as their row count
    return [s for s in shapes if s[0][0] == cfg.batch_size]


def main() -> None:
    shapes = step_linear_shapes()
    rng = np.random.default_rng(0)
    ops = []
    for (n, d_in), (d_out, _) in shapes:
        x = rng.standard_normal((n, d_in))
        w = rng.standard_normal((d_out, d_in))
        b = rng.standard_normal(d_out)
        g = rng.standard_normal((n, d_out))
        ops.append((x, w, b, g))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x, w, b, g in ops:
            x @ w.T + b
            g @ w
            g.T @ x
            g.sum(axis=0)
        times.append(time.perf_counter() - t0)
    print(f"{len(shapes)} linear calls per S3 step; arithmetic floor "
          f"{1e3 * statistics.median(times):.3f} ms/step (median of {REPEATS})")


if __name__ == "__main__":
    main()
