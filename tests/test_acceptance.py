"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 5-8 share one ladder experiment (S0..S4 over five seeds on the
default two-moons benchmark) run once per session in two worker processes.
Expected accuracies live in tests/fixtures/two_moons_ladder.json, recorded
from the first verified run; training is deterministic, so reruns should
reproduce them exactly and the +/-3-point window only absorbs environment
drift.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cycleadapt.autodiff import Tensor
from cycleadapt.conditioning import (
    build_randomized_maps,
    condition,
    conditioned_width,
    uses_randomized,
)
from cycleadapt.data import default_benchmark_pair
from cycleadapt.gradcheck import COMPONENTS, run_components
from cycleadapt.models import ArchConfig
from cycleadapt.trainer import (
    ABLATION_MODES,
    ablation_run,
    default_train_config,
    save_checkpoint,
    stability_spread,
    train,
)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "two_moons_ladder.json"
FIXTURE = json.loads(FIXTURE_PATH.read_text())

SEEDS = tuple(FIXTURE["seeds"])
DATA_SEED = FIXTURE["benchmark"]["data_seed"]


def _ok(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared ladder experiment (criteria 5-8)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def ladder():
    """Mean target accuracy per mode, and the fixture's default S3 run.
    The criterion-5 subset (S0, S1, S3) is timed separately so its runtime
    budget can be asserted."""
    base = default_train_config()
    pair = default_benchmark_pair(seed=DATA_SEED)
    t0 = time.perf_counter()
    table = ablation_run(base, pair, SEEDS, modes=("S0", "S1", "S3"))
    subset_wall = time.perf_counter() - t0
    table.update(ablation_run(base, pair, SEEDS, modes=("S2", "S4")))
    history = table["S3"].histories[SEEDS.index(FIXTURE["default_run"]["seed"])]
    default_run = {
        "d_d_mean_out": history[-1].d_d_mean_out,
        "l_cyc_final": history[-1].l_cyc,
        "l_cyc_50": next(r.l_cyc for r in history if r.step == 50),
        "spread": stability_spread(history, base.total_steps),
    }
    means = {m: table[m].mean for m in ABLATION_MODES}
    return {"means": means, "subset_wall_s": subset_wall, "default_run": default_run}


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    results = run_components(list(COMPONENTS), tol=1e-4, eps=1e-5, seed=0)
    elapsed = time.perf_counter() - t0
    failures = [(n, r.worst(), r.failure) for n, r in results if not r.passed]
    assert not failures, failures
    worst = max(r.max_rel_err for _, r in results)
    assert worst < 1e-4
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    _ok("criterion 1", f"all {len(results)} components < 1e-4 "
        f"(worst {worst:.2e}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: conditioning operator laws
# ---------------------------------------------------------------------------


def test_criterion_2_conditioning_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    for _ in range(100):
        df, dp = int(rng.integers(2, 24)), int(rng.integers(2, 12))
        f, f2 = rng.standard_normal((2, df))
        p, p2 = rng.standard_normal((2, dp))
        a = condition(Tensor(f[None]), Tensor(p[None])).data[0]
        b = condition(Tensor(f2[None]), Tensor(p2[None])).data[0]
        assert a.shape == (df * dp,)
        lhs = float(a @ b)
        rhs = float((f @ f2) * (p @ p2))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(abs(rhs), 1e-9))
    assert worst_rel < 1e-9

    # randomized branch: Monte-Carlo unbiasedness over resampled maps
    df, dp, d, draws = 16, 8, 64, 10_000
    f, f2 = rng.standard_normal((2, df))
    p = np.abs(rng.standard_normal(dp))
    p /= p.sum()
    p2 = np.abs(rng.standard_normal(dp))
    p2 /= p2.sum()
    exact = float((f @ f2) * (p @ p2))
    samples = np.empty(draws)
    fb = Tensor(np.stack([f, f2]))
    pb = Tensor(np.stack([p, p2]))
    for i in range(draws):
        maps = build_randomized_maps(df, dp, d, seed=50_000 + i)
        proj = condition(fb, pb, maps).data
        samples[i] = float(proj[0] @ proj[1])
    rel_err = abs(samples.mean() - exact) / abs(exact)
    assert rel_err < 0.05, f"MC mean off by {rel_err:.3%}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"conditioning laws took {elapsed:.1f}s"
    _ok("criterion 2", f"exact law < 1e-9 (worst {worst_rel:.2e}), "
        f"MC bias {rel_err:.2%} over {draws} draws in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: dispatch fidelity
# ---------------------------------------------------------------------------


def test_criterion_3_dispatch_threshold():
    arch = ArchConfig(input_dim=2, num_classes=2)  # the default threshold and width
    threshold, randomized_dim = arch.cond_threshold, arch.cond_randomized_dim
    cases = [
        (64, 64, False),   # 4096 -> exact
        (64, 65, True),    # 4160 -> randomized
        (4096, 1, False),
        (1, 4097, True),
        (63, 65, False),   # 4095 -> exact
        (2, 2048, False),
        (2, 2049, True),
    ]
    for df, dp, expect_random in cases:
        assert uses_randomized(df, dp, threshold) is expect_random, (df, dp)
        width = conditioned_width(df, dp, threshold, randomized_dim)
        assert width == (randomized_dim if expect_random else df * dp)
    _ok("criterion 3", f"{len(cases)} boundary cases straddling 4096 dispatch correctly")


# ---------------------------------------------------------------------------
# criterion 4: loss identities on every logged step
# ---------------------------------------------------------------------------


def test_criterion_4_loss_identities():
    pair = default_benchmark_pair(seed=DATA_SEED)
    cfg = default_train_config(seed=2, total_steps=1000, eval_every=10)
    result = train(cfg, pair)
    assert len(result.history) == 100
    w = cfg.weights
    worst = 0.0
    for row in result.history:
        l_con = row.l_cls + w.lam * row.l_dom
        total = l_con + w.eta1 * (row.l_s2t + row.l_t2s) + w.eta2 * row.l_cyc
        worst = max(worst, abs(total - row.l_total))
    assert worst <= 1e-12, f"identity residual {worst:.2e}"
    _ok("criterion 4", f"identities hold on 100 logged steps "
        f"(worst residual {worst:.2e})")


# ---------------------------------------------------------------------------
# criteria 5-8: the ladder experiment
# ---------------------------------------------------------------------------


def test_criterion_5_adaptation_gain(ladder):
    means = ladder["means"]
    gain = means["S3"] - means["S0"]
    assert gain >= 0.10, f"S3-S0 gain {gain:.3f} < 0.10"
    assert means["S3"] >= means["S1"], (means["S3"], means["S1"])
    for mode in ("S0", "S1", "S3"):
        recorded = FIXTURE["mode_mean_target_acc"][mode]
        assert abs(means[mode] - recorded) <= 0.03, (
            f"{mode} mean {means[mode]:.4f} drifted from fixture {recorded:.4f}"
        )
    assert ladder["subset_wall_s"] < 600.0, f"took {ladder['subset_wall_s']:.0f}s"
    _ok("criterion 5", f"S3 {means['S3']:.3f} vs S0 {means['S0']:.3f} "
        f"(+{gain*100:.1f} points), S3 >= S1 {means['S1']:.3f}, "
        f"{ladder['subset_wall_s']:.0f}s wall")


def test_criterion_6_ladder_shape(ladder):
    means = ladder["means"]
    slack = 0.01
    assert means["S3"] >= means["S2"] - slack
    assert means["S2"] >= means["S1"] - slack
    assert means["S1"] >= means["S0"] - slack
    assert means["S4"] < means["S3"]
    for mode in ABLATION_MODES:
        recorded = FIXTURE["mode_mean_target_acc"][mode]
        assert abs(means[mode] - recorded) <= 0.03, (
            f"{mode} mean {means[mode]:.4f} drifted from fixture {recorded:.4f}"
        )
    _ok("criterion 6", "ladder " + " ".join(
        f"{m}={means[m]:.3f}" for m in ABLATION_MODES
    ))


def test_criterion_7_equilibrium_and_cycle(ladder):
    run = ladder["default_run"]
    assert 0.3 <= run["d_d_mean_out"] <= 0.7, run["d_d_mean_out"]
    ratio = run["l_cyc_final"] / run["l_cyc_50"]
    assert ratio < 0.2, f"cycle ratio {ratio:.3f}"
    _ok("criterion 7", f"domain-disc mean {run['d_d_mean_out']:.3f} in [0.3, 0.7]; "
        f"final cycle loss at {ratio:.2f}x its step-50 value")


def test_criterion_8_stability(ladder):
    run = ladder["default_run"]
    assert run["spread"] < 0.03, f"running-mean spread {run['spread']:.4f}"
    _ok("criterion 8", f"final-20% running-mean spread "
        f"{run['spread']*100:.2f} points < 3")


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    pair = default_benchmark_pair(seed=DATA_SEED, n_per_domain=120)
    cfg = default_train_config(seed=4, total_steps=300, eval_every=50, batch_size=16)
    blobs = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"{tag}.csv"
        ckpt = tmp_path / f"{tag}.bin"
        result = train(cfg, pair, metrics_path=metrics)
        save_checkpoint(result.suite, cfg, ckpt, step=cfg.total_steps)
        blobs.append((metrics.read_bytes(), ckpt.read_bytes()))
    assert blobs[0][0] == blobs[1][0], "metrics CSVs differ"
    assert blobs[0][1] == blobs[1][1], "checkpoints differ"
    _ok("criterion 9", f"bytewise-identical metrics ({len(blobs[0][0])} B) "
        f"and checkpoints ({len(blobs[0][1])} B)")
