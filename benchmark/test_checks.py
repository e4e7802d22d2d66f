"""Each benchmark check must reject a planted wrong result and accept the
right one.

    python3 -m pytest benchmark/test_checks.py -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cycleadapt.autodiff import Tensor  # noqa: E402
from cycleadapt.data import default_benchmark_pair  # noqa: E402
from cycleadapt.losses import LossWeights, resolve_weights, total_loss  # noqa: E402
from cycleadapt.models import ArchConfig, build_suite  # noqa: E402
from cycleadapt.nn import Sgd  # noqa: E402
from cycleadapt.trainer import (  # noqa: E402
    TrainConfig,
    default_train_config,
    evaluate,
    save_checkpoint,
    train,
)

SMALL = ArchConfig(input_dim=2, num_classes=3, feature_dim=4, feature_hidden=6,
                   domain_disc_hidden=5, translator_hidden=4, sample_disc_hidden=3, seed=5)


@pytest.fixture(scope="module")
def trained():
    pair = default_benchmark_pair(seed=7, n_per_domain=60)
    cfg = default_train_config(seed=3, total_steps=40, eval_every=10)
    return cfg, pair, train(cfg, pair)


def test_accuracy_check_accepts_the_program_and_rejects_one_row_off(trained):
    _, pair, result = trained
    params = checks.suite_params(result.suite)
    k, n = checks.correct_count(params, pair.x_t, pair.y_t_eval)
    reported = evaluate(result.suite, pair.x_t, pair.y_t_eval)
    checks.check_accuracy("target", reported, k, n)
    assert result.history[-1].target_acc == reported
    for wrong in ((k - 1) / n, (k + 1) / n):
        with pytest.raises(CheckFailed):
            checks.check_accuracy("target", wrong, k, n)


def test_row_fraction_rejects_a_value_between_rows():
    checks.check_is_row_fraction("acc", 7 / 500, 500)
    with pytest.raises(CheckFailed):
        checks.check_is_row_fraction("acc", 7.5 / 500, 500)


def test_loss_identity_rejects_a_broken_row(trained):
    cfg, _, result = trained
    w = resolve_weights(cfg.ablation_mode, cfg.weights)
    checks.check_loss_identity(result.history, w.lam, w.eta1, w.eta2)
    rows = [{k: getattr(r, k) for k in checks.LOSS_FIELDS} for r in result.history]
    rows[1]["l_total"] += 1e-6 * abs(rows[1]["l_total"])
    with pytest.raises(CheckFailed):
        checks.check_loss_identity(rows, w.lam, w.eta1, w.eta2)
    # the same rows under the wrong weights break the identity too
    with pytest.raises(CheckFailed):
        checks.check_loss_identity(result.history, w.lam, w.eta1, 0.0)


def test_checkpoint_check_rejects_one_changed_parameter(tmp_path):
    suite = build_suite(SMALL)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(suite, TrainConfig(arch=SMALL, seed=5), path)
    header, params, dd_in = checks.parse_checkpoint(path)
    assert dd_in == SMALL.feature_dim * SMALL.num_classes
    checks.check_params_equal("ckpt", params, checks.suite_params(suite))

    raw = bytearray(path.read_bytes())
    payload = raw.index(b"\n") + 1
    at = payload + 8 * 17
    value = np.frombuffer(bytes(raw[at : at + 8]), dtype="<f8")[0]
    raw[at : at + 8] = np.array([value + 1e-9], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    _, changed, _ = checks.parse_checkpoint(path)
    with pytest.raises(CheckFailed):
        checks.check_params_equal("ckpt", changed, checks.suite_params(suite))


def test_checkpoint_parser_rejects_a_truncated_payload(tmp_path):
    suite = build_suite(SMALL)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(suite, TrainConfig(arch=SMALL, seed=5), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckFailed):
        checks.parse_checkpoint(path)


def test_ladder_check_rejects_a_missing_mode_seed():
    modes, seeds, n = ("S0", "S1"), (1, 2), 500
    table = {"S0": [250 / n, 300 / n], "S1": [400 / n, 410 / n]}
    checks.check_ladder_table(table, modes, seeds, n)
    with pytest.raises(CheckFailed):
        checks.check_ladder_table({"S0": table["S0"], "S1": table["S1"][:1]}, modes, seeds, n)
    with pytest.raises(CheckFailed):
        checks.check_ladder_table({"S0": table["S0"]}, modes, seeds, n)


def _sgd_snapshots(lr, momentum, wd):
    suite = build_suite(SMALL)
    params = suite.parameters()
    opt = Sgd(params, lr, momentum, wd)
    rng = np.random.default_rng(0)
    x_s, y_s, x_t = Tensor(rng.standard_normal((8, 2))), rng.integers(0, 3, 8), Tensor(
        rng.standard_normal((8, 2)))
    snaps = []
    for _ in range(2):
        loss, _ = total_loss(suite, (x_s, y_s), x_t, LossWeights())
        loss.backward()
        before = [p.data.copy() for p in params]
        grads = [p.grad.copy() for p in params]
        opt.step()
        snaps.append((before, grads, [p.data.copy() for p in params]))
    return snaps


def test_sgd_check_accepts_the_optimizer_and_rejects_a_missing_term():
    checks.check_sgd_steps(_sgd_snapshots(0.1, 0.9, 5e-4), 0.1, 0.9, 5e-4)
    snaps = _sgd_snapshots(0.1, 0.9, 0.0)
    with pytest.raises(CheckFailed):
        checks.check_sgd_steps(snaps, 0.1, 0.9, 5e-4)


def test_gradient_check_rejects_a_wrong_gradient():
    suite = build_suite(SMALL)
    rng = np.random.default_rng(1)
    x_s, y_s, x_t = Tensor(rng.standard_normal((8, 2))), rng.integers(0, 3, 8), Tensor(
        rng.standard_normal((8, 2)))
    w = resolve_weights("S1", LossWeights())

    def loss():
        return total_loss(suite, (x_s, y_s), x_t, w, rig_minimax=False)[0]

    params = suite.parameters()
    assert checks.check_gradient(loss, params, np.random.default_rng(2)) == checks.GRADIENT_COORDS
    # the rigged loss reverses the discriminator's gradient, so differencing
    # the plain loss disagrees with it
    rigged = lambda: total_loss(suite, (x_s, y_s), x_t, w)[0]  # noqa: E731
    dd = {id(p) for p in suite.domain_disc.parameters()}
    only_dd = [p for p in params if id(p) in dd]
    with pytest.raises(CheckFailed):
        checks.check_gradient(rigged, only_dd, np.random.default_rng(2),
                              numeric_fn=lambda i: loss)


def test_an_aborted_training_run_counts_as_failed(monkeypatch, tmp_path):
    import workloads
    from cycleadapt import trainer

    w = workloads.S3Default()
    w.setup(1, str(tmp_path))

    def abort(cfg, pair):
        raise trainer.TrainingAborted("aborted at step 4: non-finite loss", None, 4)

    monkeypatch.setattr(trainer, "train", abort)
    r = w.round()
    assert (r.attempted, r.failed, r.target_accs) == (1, 1, [])
    with pytest.raises(CheckFailed):
        w.postcheck()
