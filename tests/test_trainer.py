import ctypes
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cycleadapt.autodiff as autodiff
import cycleadapt.losses as losses_mod
import cycleadapt.trainer as trainer_mod
from cycleadapt.autodiff import DimensionError, NonFiniteError, Tensor, no_grad
from cycleadapt.data import default_benchmark_pair, gen_two_moons_pair, ShiftSpec
from cycleadapt.losses import LossBreakdown
from cycleadapt.models import ArchConfig, build_suite, predict
from cycleadapt.trainer import (
    ABLATION_MODES,
    EVAL_BLOCK,
    BatchStream,
    CheckpointError,
    MetricsRow,
    TrainConfig,
    TrainingAborted,
    ablation_run,
    config_from_flat,
    default_train_config,
    evaluate,
    flatten_config,
    load_checkpoint,
    save_checkpoint,
    stability_spread,
    train,
)

from conftest import read_metrics_csv

PAIR = default_benchmark_pair(seed=21, n_per_domain=96)
# the step at which quick_cfg(lr=5, constant schedules) diverges in S3
DIVERGENT_STEP = 3


def quick_cfg(**overrides) -> TrainConfig:
    base = dict(total_steps=60, eval_every=20, batch_size=16, seed=5)
    base.update(overrides)
    return default_train_config(**base)


class TestTrainBasics:
    def test_zero_steps_returns_initialized_suite_and_empty_history(self):
        result = train(quick_cfg(total_steps=0), PAIR)
        assert result.history == []
        fresh = build_suite(quick_cfg().arch)
        for a, b in zip(result.suite.parameters(), fresh.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_history_and_metrics_file_agree(self, tmp_path):
        path = tmp_path / "metrics.csv"
        result = train(quick_cfg(), PAIR, metrics_path=path)
        rows = read_metrics_csv(path)
        assert rows == result.history
        assert [r.step for r in rows] == [20, 40, 60]

    def test_determinism_bytewise(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        ckpts = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for mp, cp in zip(paths, ckpts):
            result = train(quick_cfg(), PAIR, metrics_path=mp)
            save_checkpoint(result.suite, quick_cfg(), cp, step=60)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()

    def test_different_seed_changes_metrics(self, tmp_path):
        a = train(quick_cfg(seed=5), PAIR)
        b = train(quick_cfg(seed=6), PAIR)
        assert a.history != b.history

    def test_s0_never_draws_target_batches(self):
        result = train(quick_cfg(ablation_mode="S0"), PAIR)
        assert result.target_batches_drawn == 0
        assert result.source_batches_drawn == 60

    def test_adversarial_modes_draw_target(self):
        result = train(quick_cfg(ablation_mode="S1"), PAIR)
        assert result.target_batches_drawn == 60

    def test_data_arch_mismatch_rejected(self):
        cfg = quick_cfg()
        bad_arch = replace(cfg.arch, num_classes=3)
        with pytest.raises(ValueError, match="classes"):
            train(replace(cfg, arch=bad_arch), PAIR)

    def test_nan_abort_carries_last_breakdown(self, monkeypatch):
        calls = {"n": 0}
        real = losses_mod.total_loss

        def exploding(suite, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                suite.features.layers[0].weight.data.flat[0] = np.inf
            return real(suite, *args, **kwargs)

        monkeypatch.setattr("cycleadapt.trainer.total_loss", exploding)
        with pytest.raises(TrainingAborted) as exc:
            train(quick_cfg(), PAIR)
        assert exc.value.step == 3
        assert str(exc.value).startswith("aborted at step 3 (seed 5): non-finite value")
        assert exc.value.last_breakdown is not None

    def test_non_finite_gradient_with_finite_loss_moves_no_parameter(self, monkeypatch):
        import cycleadapt.autodiff as autodiff
        from cycleadapt.autodiff import Tensor
        from cycleadapt.losses import resolve_weights
        from cycleadapt.nn import Sgd
        from cycleadapt.trainer import _grl_step, _ReplicaFailed

        cfg = quick_cfg()
        suite = build_suite(cfg.arch, [cfg.arch.seed])
        opt = Sgd(suite.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay)
        real_backward = autodiff.Tensor.backward

        def poisoned_backward(self):
            real_backward(self)
            suite.s2t.layers[1].weight.grad[0, 0, 0] = np.inf

        monkeypatch.setattr(autodiff.Tensor, "backward", poisoned_backward)
        before = [p.data.copy() for p in suite.parameters()]
        with pytest.raises(_ReplicaFailed) as exc:
            _grl_step(
                suite, opt, Tensor(PAIR.x_s[None, :16]), PAIR.y_s[None, :16],
                Tensor(PAIR.x_t[None, :16]), resolve_weights("S3", cfg.weights), 0.5,
            )
        # the replayed forward is finite, so the optimizer's error stands
        assert exc.value.index == 0 and exc.value.error.op == "sgd_step"
        for p, b in zip(suite.parameters(), before):
            assert np.array_equal(p.data, b)
        assert not opt.velocity.any()

    def test_non_finite_gradient_aborts_training_at_its_step(self, monkeypatch):
        import cycleadapt.autodiff as autodiff
        import cycleadapt.trainer as trainer_mod

        built = []
        real_build = trainer_mod.build_suite

        def capture(*args):
            built.append(real_build(*args))
            return built[-1]

        monkeypatch.setattr(trainer_mod, "build_suite", capture)
        calls = {"n": 0}
        real_backward = autodiff.Tensor.backward

        def poisoned_backward(self):
            real_backward(self)
            calls["n"] += 1
            if calls["n"] == 4:
                built[0].features.layers[0].weight.grad[0, 0, 0] = np.nan

        monkeypatch.setattr(autodiff.Tensor, "backward", poisoned_backward)
        with pytest.raises(TrainingAborted) as exc:
            train(quick_cfg(), PAIR)
        assert exc.value.step == 4
        assert str(exc.value).startswith("aborted at step 4 (seed 5): ")
        assert "sgd_step" in str(exc.value) and "parameter 0" in str(exc.value)

    def test_single_run_inits_from_arch_seed_and_draws_batches_from_seed(self, monkeypatch):
        import cycleadapt.trainer as trainer_mod

        cfg = quick_cfg(total_steps=5, seed=5, ablation_mode="S1")
        cfg = replace(cfg, arch=replace(cfg.arch, seed=9))
        inits, drawn = [], []
        real_build, real_next = trainer_mod.build_suite, BatchStream.next

        def capture(*args):
            suite = real_build(*args)
            inits.extend(p.data.copy() for p in suite.parameters())
            return suite

        def spy(self):
            drawn.append(real_next(self))
            return drawn[-1]

        monkeypatch.setattr(trainer_mod, "build_suite", capture)
        monkeypatch.setattr(BatchStream, "next", spy)
        train(cfg, PAIR)
        for got, want in zip(inits, build_suite(cfg.arch).parameters(), strict=True):
            assert np.array_equal(got[0], want.data)
        # the first weight, as drawn from cfg.seed, would differ
        assert not np.array_equal(
            inits[0][0], build_suite(replace(cfg.arch, seed=5)).parameters()[0].data
        )
        # one source then one target batch per step, from cfg.seed's streams
        rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(5).spawn(2)]
        src, tgt = (BatchStream(len(x), cfg.batch_size, rng)
                    for x, rng in zip((PAIR.x_s, PAIR.x_t), rngs))
        expected = [real_next(stream) for _ in range(5) for stream in (src, tgt)]
        assert len(drawn) == len(expected)
        for got, want in zip(drawn, expected):
            assert np.array_equal(got, want)

    def test_sgd_settings_rejected_when_the_config_is_made(self):
        for bad in ({"lr": -1.0}, {"lr": float("nan")}, {"momentum": 1.0},
                    {"weight_decay": -1e-4}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                quick_cfg(**bad)

    def test_exceptions_survive_pickling(self):
        breakdown = LossBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        err = pickle.loads(pickle.dumps(TrainingAborted("aborted at step 3", breakdown, 3)))
        assert isinstance(err, TrainingAborted)
        assert (str(err), err.step, err.last_breakdown) == ("aborted at step 3", 3, breakdown)
        err = pickle.loads(pickle.dumps(TrainingAborted("m", None, 3)))
        assert (err.last_breakdown, err.step) == (None, 3)
        for original in (NonFiniteError("mul"), NonFiniteError("sgd_step", "gradient of parameter 2")):
            err = pickle.loads(pickle.dumps(original))
            assert (type(err), str(err), err.op) == (NonFiniteError, str(original), original.op)


class TestBatchStream:
    def test_epoch_integrity(self):
        stream = BatchStream(10, 3, np.random.default_rng(0))
        seen = np.concatenate([stream.next() for _ in range(10)])  # 30 draws = 3 epochs
        counts = np.bincount(seen, minlength=10)
        assert np.all(counts == 3)
        assert stream.epochs_completed == 3

    def test_wrapping_batch_spans_epochs(self):
        stream = BatchStream(5, 3, np.random.default_rng(1))
        first_epoch = list(stream.order)
        batches = [stream.next() for _ in range(5)]  # 15 indices = 3 epochs
        flat = np.concatenate(batches)
        assert sorted(flat[:5].tolist()) == sorted(first_epoch)

    def test_draw_counter(self):
        stream = BatchStream(8, 4, np.random.default_rng(2))
        for _ in range(7):
            stream.next()
        assert stream.draws == 7


class TestEvaluate:
    def test_three_of_four(self, small_suite):
        # craft labels from the suite's own predictions, then corrupt one
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        from cycleadapt.models import predict
        from cycleadapt.autodiff import Tensor, no_grad

        with no_grad():
            _, p = predict(small_suite, Tensor(x))
        y = p.data.argmax(axis=1)
        y[0] = (y[0] + 1) % 3
        assert evaluate(small_suite, x, y) == pytest.approx(0.75)

    def test_all_correct(self, small_suite):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 3))
        from cycleadapt.models import predict
        from cycleadapt.autodiff import Tensor, no_grad

        with no_grad():
            _, p = predict(small_suite, Tensor(x))
        assert evaluate(small_suite, x, p.data.argmax(axis=1)) == 1.0

    def test_untrained_predictor_near_chance_on_balanced_labels(self):
        # binomial bound: n=10000, 4 sigma ~ 0.02
        suite = build_suite(ArchConfig(input_dim=2, num_classes=2, seed=123))
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10000, 2))
        y = np.tile([0, 1], 5000)
        assert abs(evaluate(suite, x, y) - 0.5) < 0.02

    def test_missing_labels_rejected(self, small_suite):
        with pytest.raises(ValueError):
            evaluate(small_suite, np.ones((2, 3)), None)

    @pytest.mark.parametrize("y", [np.zeros(1, dtype=np.int64), np.zeros((4, 1), dtype=np.int64)])
    def test_labels_not_one_per_row_rejected(self, small_suite, y):
        # a one-element y used to broadcast and score the whole set
        with pytest.raises(ValueError, match=r"x of shape \(4, 3\) and y of shape"):
            evaluate(small_suite, np.zeros((4, 3)), y)

    def test_empty_set_rejected(self, small_suite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"nonempty set, got x of shape \(0, 3\)"):
                evaluate(small_suite, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_features_whose_sum_overflows_evaluate_cleanly(self, seed):
        # every value of the first layers is finite, but their sums overflow;
        # a check of the sum alone flagged 'linear' (seed 0) or 'relu' (seed 3)
        suite = build_suite(ArchConfig(input_dim=2, num_classes=2, seed=seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc = evaluate(suite, np.full((64, 2), 1e306), np.zeros(64, dtype=np.int64))
        assert acc in (0.0, 1.0)

    @staticmethod
    def _block_outputs(monkeypatch) -> dict[tuple[int, int], np.ndarray]:
        """The class probabilities of each block evaluate runs, keyed by its
        row range, as threads finish blocks out of order."""
        outputs = {}

        def recording_block_probs(suite, x, lo, hi):
            p = block_probs(suite, x, lo, hi)
            outputs[lo, hi] = p.copy()
            return p

        block_probs = trainer_mod._block_probs
        monkeypatch.setattr(trainer_mod, "_block_probs", recording_block_probs)
        return outputs

    @staticmethod
    def _threads_and_flags() -> tuple[int, bool, bool]:
        return threading.active_count(), autodiff._GRAD_ENABLED, autodiff._CHECK_FINITE

    def test_blocks_are_balanced_and_never_smaller_than_the_constant(
        self, small_suite, monkeypatch
    ):
        outputs = self._block_outputs(monkeypatch)
        b = EVAL_BLOCK
        for n in (1, 500, 2 * b - 1, 2 * b, 20000):
            outputs.clear()
            evaluate(small_suite, np.zeros((n, 3)), np.zeros(n, dtype=np.int64))
            ranges = sorted(outputs)
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
            assert ranges[-1][1] == n
            sizes = [hi - lo for lo, hi in ranges]
            if n < 2 * b:
                assert sizes == [n]
            else:
                assert len(sizes) == n // b
                assert min(sizes) >= b and max(sizes) - min(sizes) <= 1

    def test_blocked_forward_equals_one_whole_forward_on_a_wide_set(self, monkeypatch):
        # the cli_wide shape: 20000 rows, feature width 272, 16 classes
        suite = build_suite(ArchConfig(input_dim=2, num_classes=16, feature_dim=272, seed=3))
        x = np.random.default_rng(5).normal(scale=6.0, size=(20000, 2))
        with no_grad():
            _, whole = predict(suite, Tensor(x))
        outputs = self._block_outputs(monkeypatch)
        before = self._threads_and_flags()
        monkeypatch.setattr(trainer_mod, "_eval_threads", 3)
        for cpus in (1, 2, 3):
            outputs.clear()
            monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: cpus)
            assert evaluate(suite, x, whole.data.argmax(axis=1)) == 1.0
            assert self._threads_and_flags() == before
            assert len(outputs) > 1
            blocks = np.concatenate([outputs[r] for r in sorted(outputs)])
            assert blocks.tobytes() == whole.data.tobytes()

    def test_non_finite_block_in_a_helper_raises_in_the_caller_naming_the_op(
        self, small_suite, monkeypatch
    ):
        # four blocks on two threads: the helper takes blocks 1 and 3
        b = EVAL_BLOCK
        x = np.zeros((4 * b, 3))
        x[b:2 * b] = 1e308
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: 2)
        in_caller = {}  # each block's first run
        block_probs = trainer_mod._block_probs

        def recording_block_probs(suite, x, lo, hi):
            in_caller.setdefault(lo, threading.current_thread() is threading.main_thread())
            return block_probs(suite, x, lo, hi)

        monkeypatch.setattr(trainer_mod, "_block_probs", recording_block_probs)
        with pytest.raises(NonFiniteError) as checked, no_grad():
            predict(small_suite, Tensor(x[b:2 * b]))
        before = self._threads_and_flags()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                evaluate(small_suite, x, np.zeros(4 * b, dtype=np.int64))
        assert self._threads_and_flags() == before
        assert in_caller[0] and not in_caller[b]
        assert exc.value.op == checked.value.op == "linear"

    def test_helper_exception_propagates_to_the_caller(self, small_suite, monkeypatch):
        class Boom(Exception):
            pass

        def failing_in_helpers(suite, x, lo, hi):
            if threading.current_thread() is not threading.main_thread():
                raise Boom(lo)
            return block_probs(suite, x, lo, hi)

        block_probs = trainer_mod._block_probs
        monkeypatch.setattr(trainer_mod, "_block_probs", failing_in_helpers)
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(trainer_mod, "_eval_threads", 3)
        before = self._threads_and_flags()
        n = 6 * EVAL_BLOCK
        with pytest.raises(Boom) as exc:
            evaluate(small_suite, np.zeros((n, 3)), np.zeros(n, dtype=np.int64))
        assert exc.value.args[0] == EVAL_BLOCK  # helper 1's first block
        assert self._threads_and_flags() == before

    def test_at_most_two_threads_evaluate_whatever_the_cpus(self, monkeypatch):
        # each thread holds one block's hidden layers; more than two were
        # never measured against the peak RSS bound
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: 8)
        assert _threads_evaluating() == 2

    def test_a_ladder_worker_evaluates_on_its_own_thread_alone(self):
        # its sibling worker processes already hold the other CPUs
        with trainer_mod._worker_pool(1) as ex:
            assert ex.submit(_threads_evaluating, 8).result() == 1

    def test_wrong_feature_width_names_the_predict_contract(self):
        suite = build_suite(ArchConfig(input_dim=3, num_classes=3))
        with pytest.raises(DimensionError, match=r"predict expects \[batch, 3\]"):
            evaluate(suite, np.zeros((5000, 2)), np.zeros(5000, dtype=np.int64))

    def test_repeated_evaluation_faults_in_no_fresh_memory(self, tmp_path):
        # a 500-row pass has [500, 64] hidden layers (256 KB each), above
        # glibc's default mmap threshold, so fresh ones were mapped and
        # faulted in on every call. Whether they were depends on what the
        # process freed before (glibc raises the threshold then), so the
        # probe sets the default threshold explicitly, which stops that
        pytest.importorskip("resource")
        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("needs glibc's mallopt")
        script = tmp_path / "evaluate_faults.py"
        script.write_text(
            "import ctypes, resource\n"
            "from cycleadapt.data import default_benchmark_pair\n"
            "from cycleadapt.models import build_suite\n"
            "from cycleadapt.trainer import default_train_config, evaluate\n"
            "M_MMAP_THRESHOLD = -3\n"
            "assert ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1\n"
            "pair = default_benchmark_pair(seed=7)\n"
            "assert len(pair.x_t) == 500\n"
            "suite = build_suite(default_train_config().arch)\n"
            "evaluate(suite, pair.x_t, pair.y_t_eval)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(10):\n"
            "    evaluate(suite, pair.x_t, pair.y_t_eval)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)\n"
        )
        src = os.path.dirname(os.path.dirname(trainer_mod.__file__))
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) < 5


class TestStabilitySpread:
    def rows(self, accs, total):
        step = total // len(accs)
        return [
            MetricsRow(step=(i + 1) * step, l_cls=0, l_dom=0, l_s2t=0, l_t2s=0,
                       l_cyc=0, l_total=0, source_acc=1.0, target_acc=a,
                       d_d_mean_out=0.5)
            for i, a in enumerate(accs)
        ]

    def test_constant_tail_has_zero_spread(self):
        history = self.rows([0.5, 0.9, 0.8, 0.8, 0.8], 100)
        assert stability_spread(history, 100, final_frac=0.6) == pytest.approx(0.0)

    def test_moving_tail_measured(self):
        history = self.rows([0.8, 0.8, 0.8, 0.5, 0.9], 100)
        spread = stability_spread(history, 100, final_frac=0.4)
        assert spread == pytest.approx(0.2)  # running means 0.5 then 0.7


class TestCheckpoint:
    def test_round_trip_identical_evaluation(self, tmp_path):
        cfg = quick_cfg()
        result = train(cfg, PAIR)
        path = tmp_path / "model.bin"
        save_checkpoint(result.suite, cfg, path, step=60)
        loaded, cfg2, step = load_checkpoint(path)
        assert step == 60
        assert flatten_config(cfg2) == flatten_config(cfg)
        for a, b in zip(result.suite.parameters(), loaded.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        assert evaluate(loaded, PAIR.x_t, PAIR.y_t_eval) == evaluate(
            result.suite, PAIR.x_t, PAIR.y_t_eval
        )

    def test_randomized_conditioning_maps_rebuilt_from_header(self, tmp_path):
        arch = replace(
            quick_cfg().arch, feature_dim=8, cond_threshold=4, cond_randomized_dim=12
        )
        cfg = replace(quick_cfg(), arch=arch)
        pair = gen_two_moons_pair(64, ShiftSpec(rotation_deg=30.0), seed=2)
        result = train(cfg, pair)
        assert result.suite.maps is not None
        path = tmp_path / "model.bin"
        save_checkpoint(result.suite, cfg, path, step=60)
        loaded, _, _ = load_checkpoint(path)
        assert np.array_equal(loaded.maps.r_f, result.suite.maps.r_f)
        assert np.array_equal(loaded.maps.r_p, result.suite.maps.r_p)
        assert evaluate(loaded, pair.x_t, pair.y_t_eval) == evaluate(
            result.suite, pair.x_t, pair.y_t_eval
        )

    def test_save_that_fails_midway_keeps_the_old_file(self, tmp_path, monkeypatch):
        cfg = quick_cfg()
        suite = build_suite(cfg.arch)
        path = tmp_path / "model.bin"
        save_checkpoint(suite, cfg, path)
        before = path.read_bytes()

        class Unwritable:
            # counted in the header, then fails as its bytes are written
            size = 1
            data = "not a number"

        params = suite.parameters()
        monkeypatch.setattr(suite, "parameters", lambda: [*params[:-1], Unwritable()])
        with pytest.raises(ValueError):
            save_checkpoint(suite, cfg, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_save_refuses_an_arch_seed_the_header_cannot_carry(self, tmp_path):
        # the header's seed sets both seeds on load, so this config would
        # come back with arch.seed 5 and other randomized maps
        arch = replace(quick_cfg().arch, seed=9, cond_threshold=4, cond_randomized_dim=12)
        cfg = replace(quick_cfg(), arch=arch)
        path = tmp_path / "model.bin"
        with pytest.raises(ValueError, match="arch.seed 9 != seed 5"):
            save_checkpoint(build_suite(arch), cfg, path)
        assert os.listdir(tmp_path) == []

    def test_truncated_file_rejected(self, tmp_path):
        cfg = quick_cfg()
        suite = build_suite(cfg.arch)
        path = tmp_path / "model.bin"
        save_checkpoint(suite, cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(path)

    def test_header_param_count_mismatch_rejected(self, tmp_path):
        cfg = quick_cfg()
        suite = build_suite(cfg.arch)
        path = tmp_path / "model.bin"
        save_checkpoint(suite, cfg, path)
        header, _, rest = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["param_count"] += 8
        path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + rest)
        with pytest.raises(CheckpointError, match="mismatch|parameters"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = quick_cfg()
        suite = build_suite(cfg.arch)
        path = tmp_path / "model.bin"
        save_checkpoint(suite, cfg, path)
        header, _, rest = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["format_version"] = 99
        path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + rest)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("wide", [True, False], ids=["param_count", "payload"])
    def test_size_mismatch_is_refused_before_the_suite_is_built(
        self, tmp_path, monkeypatch, wide
    ):
        cfg = quick_cfg()
        path = tmp_path / "model.bin"
        save_checkpoint(build_suite(cfg.arch), cfg, path)
        header, _, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        if wide:
            # a suite far larger than the parameters the header declares
            doc["config"]["feature_dim"] = 20000
        else:
            payload = payload[:-8]
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)

        def no_build(*args, **kwargs):
            raise AssertionError("build_suite called")

        monkeypatch.setattr("cycleadapt.trainer.build_suite", no_build)
        with pytest.raises(CheckpointError, match="declares" if wide else "bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("threshold", [4096, 4], ids=["exact", "randomized"])
    def test_load_draws_only_the_maps_and_gives_the_saved_suite(
        self, tmp_path, monkeypatch, threshold
    ):
        arch = replace(quick_cfg().arch, feature_dim=8, cond_threshold=threshold,
                       cond_randomized_dim=12)
        cfg = replace(quick_cfg(), arch=arch)
        suite = build_suite(arch)
        path = tmp_path / "model.bin"
        save_checkpoint(suite, cfg, path)
        generators = []
        default_rng = np.random.default_rng

        def counting_rng(*args):
            generators.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        loaded, _, _ = load_checkpoint(path)
        # one generator for the randomized maps, none for the networks
        assert len(generators) == (suite.maps is not None)
        for a, b in zip(suite.parameters(), loaded.parameters(), strict=True):
            assert a.shape == b.shape and a.data.tobytes() == b.data.tobytes()
        if suite.maps is None:
            assert loaded.maps is None
        else:
            assert loaded.maps.seed == suite.maps.seed
            assert loaded.maps.r_f.tobytes() == suite.maps.r_f.tobytes()
            assert loaded.maps.r_p.tobytes() == suite.maps.r_p.tobytes()

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"\x00\x01\x02 not json\n junk")
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"[1]", b"3", b'"text"', b"null"])
    def test_header_that_is_not_an_object_rejected(self, tmp_path, header):
        path = tmp_path / "model.bin"
        path.write_bytes(header + b"\n junk")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)


class TestFlatConfig:
    def test_round_trip(self):
        cfg = default_train_config(seed=9, total_steps=123)
        flat = flatten_config(cfg)
        rebuilt = config_from_flat(flat)
        assert flatten_config(rebuilt) == flat

    def test_lambda_key_maps_to_domain_weight(self):
        cfg = config_from_flat(
            {"input_dim": 2, "num_classes": 2, "lambda": 0.5, "eta2": 0.25}
        )
        assert cfg.weights.lam == 0.5
        assert cfg.weights.eta2 == 0.25

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_flat({"input_dim": 2, "num_classes": 2, "learning_rate": 0.1})

    def test_key_set(self):
        assert set(flatten_config(default_train_config())) == {
            "input_dim", "num_classes", "feature_dim", "feature_hidden",
            "domain_disc_hidden", "translator_hidden", "sample_disc_hidden",
            "hidden_activation", "cond_threshold", "cond_randomized_dim",
            "detach_predictions", "lambda", "beta", "eta1", "eta2", "lr",
            "momentum", "weight_decay", "batch_size", "total_steps", "seed",
            "ablation_mode", "eval_every", "grl_schedule", "lr_schedule",
        }

    def test_values_coerced_by_field_type(self):
        cfg = config_from_flat({"input_dim": 2.0, "num_classes": 2, "batch_size": 8.0,
                                "lr": 1, "lambda": 0, "detach_predictions": True})
        assert (cfg.arch.input_dim, cfg.batch_size) == (2, 8)
        assert type(cfg.batch_size) is int and type(cfg.arch.input_dim) is int
        assert type(cfg.lr) is float and type(cfg.weights.lam) is float
        assert cfg.arch.detach_predictions is True

    @pytest.mark.parametrize("key,value", [
        ("batch_size", 32.7), ("batch_size", True), ("batch_size", "32"),
        ("lr", "0.1"), ("lr", None), ("detach_predictions", "false"),
        ("detach_predictions", 0), ("hidden_activation", 1), ("seed", float("inf")),
    ])
    def test_values_of_the_wrong_type_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            config_from_flat({"input_dim": 2, "num_classes": 2, key: value})

    def test_seed_reseeds_arch(self):
        cfg = config_from_flat({"input_dim": 2, "num_classes": 2, "seed": 77})
        assert cfg.seed == 77 and cfg.arch.seed == 77

    def test_reference_defaults(self):
        cfg = default_train_config()
        assert cfg.lr == 1e-3
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.batch_size == 32
        w = cfg.weights
        assert (w.lam, w.beta, w.eta1, w.eta2) == (1.0, 1.0, 0.01, 0.1)


class TestSourceOnlyOracles:
    """Source-only training as the yardstick for the synthetic domain gaps."""

    def test_rotated_moons_gap(self):
        pair = default_benchmark_pair(seed=7)
        cfg = default_train_config(seed=1, ablation_mode="S0", total_steps=4000)
        result = train(cfg, pair)
        held_out = default_benchmark_pair(seed=8)
        source_holdout_acc = evaluate(result.suite, held_out.x_s, held_out.y_s)
        target_acc = result.history[-1].target_acc
        assert source_holdout_acc >= 0.95
        assert target_acc < 0.90

    def test_large_translate_shift_drops_to_near_chance(self):
        from cycleadapt.data import gen_gaussian_shift_pair

        shift = ShiftSpec(kind="affine", rotation_deg=0.0, scale=(1.0, 1.0),
                          translate=(14.0, 0.0), noise_std=0.0)
        pair = gen_gaussian_shift_pair(
            240, 2, [[-2.0, 0.0], [2.0, 0.0]], np.eye(2) * 0.25, shift, seed=3
        )
        cfg = default_train_config(seed=1, ablation_mode="S0", total_steps=1500)
        result = train(cfg, pair)
        assert result.history[-1].source_acc >= 0.99
        assert abs(result.history[-1].target_acc - 0.5) <= 0.12

    def test_accuracy_matches_brute_force_recount(self):
        result = train(quick_cfg(), PAIR)
        from cycleadapt.autodiff import Tensor, no_grad
        from cycleadapt.models import predict

        with no_grad():
            _, p = predict(result.suite, Tensor(PAIR.x_t))
        correct = sum(
            1 for i in range(len(PAIR.x_t))
            if int(np.argmax(p.data[i])) == int(PAIR.y_t_eval[i])
        )
        assert result.history[-1].target_acc == pytest.approx(correct / len(PAIR.x_t))


class TestAblationRun:
    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            ablation_run(quick_cfg(), PAIR, seeds=[1])

    def test_worker_processes_give_the_in_process_table(self, monkeypatch):
        cfg = quick_cfg(total_steps=30, eval_every=15)
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: 1)
        serial = ablation_run(cfg, PAIR, [1, 2])
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: 2)
        pooled = ablation_run(cfg, PAIR, [1, 2])
        assert serial == pooled
        assert all(len(h) == 2 for stats in serial.values() for h in stats.histories)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, modes, pool", [
        (1, ABLATION_MODES, None),
        (2, ABLATION_MODES, 2),
        (16, ABLATION_MODES, 5),
        (16, ("S1", "S3"), 2),
        (16, ("S3",), None),
    ], ids=["1cpu", "2cpus", "16cpus", "16cpus-2modes", "16cpus-1mode"])
    def test_pool_has_one_worker_per_mode_up_to_the_usable_cpus(
        self, monkeypatch, cpus, modes, pool
    ):
        sizes = []

        def in_process(workers, jobs):
            sizes.append(workers)
            return [trainer_mod._ladder_group(*job) for job in jobs]

        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(trainer_mod, "_pooled_groups", in_process)
        table = ablation_run(quick_cfg(total_steps=2, eval_every=2), PAIR, [1, 2], modes=modes)
        assert list(table) == list(modes)
        assert sizes == ([] if pool is None else [pool])

    def test_usable_cpus_falls_back_to_the_machine_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert trainer_mod._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert trainer_mod._usable_cpus() == (os.cpu_count() or 1)

    def test_modes_subset_in_ladder_order(self):
        cfg = quick_cfg(total_steps=15, eval_every=15)
        table = ablation_run(cfg, PAIR, [1, 2], modes=("S3", "S0"))
        assert list(table) == ["S0", "S3"]
        assert table["S3"] == ablation_run(cfg, PAIR, [1, 2])["S3"]
        for bad in (("S9",), ("S0", "s1"), ()):
            with pytest.raises(ValueError):
                ablation_run(cfg, PAIR, [1, 2], modes=bad)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_divergence_aborts_the_same_way_in_and_out_of_process(self, monkeypatch, cpus):
        cfg = quick_cfg(lr=5.0, grl_schedule="constant", lr_schedule="constant")
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: cpus)
        with pytest.raises(TrainingAborted) as exc:
            ablation_run(cfg, PAIR, [1, 2], modes=("S0", "S3"))
        # the later mode runs first
        assert exc.value.step == DIVERGENT_STEP
        assert "non-finite" in str(exc.value)
        assert multiprocessing.active_children() == []

    def test_pooled_abort_starts_no_queued_group(self, monkeypatch):
        # at this lr S3 and S4 diverge at step 6 while S0..S2 train through;
        # those three groups took 83 s one after another on 2 vCPUs, and a
        # pool that still ran them after the abort raised after 46 s
        cfg = quick_cfg(lr=0.05, grl_schedule="constant", lr_schedule="constant",
                        total_steps=20000, eval_every=20000)
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: 1)
        with pytest.raises(TrainingAborted) as in_process:
            ablation_run(cfg, PAIR, [1, 2])
        monkeypatch.setattr(trainer_mod, "_usable_cpus", lambda: 2)
        t0 = time.perf_counter()
        with pytest.raises(TrainingAborted) as pooled:
            ablation_run(cfg, PAIR, [1, 2])
        assert time.perf_counter() - t0 < 20
        assert str(pooled.value) == str(in_process.value)
        assert pooled.value.step == in_process.value.step == 6
        assert multiprocessing.active_children() == []

    def test_pool_started_after_blas_threads_ran_gives_the_table(self, tmp_path):
        # a large product starts OpenBLAS's threads before the pool starts
        # its workers; the pooled ladder must still finish, give the
        # in-process table and leave no worker behind
        script = tmp_path / "pool_after_blas.py"
        script.write_text(
            "import multiprocessing\n"
            "import numpy as np\n"
            "import cycleadapt.trainer as trainer\n"
            "from cycleadapt.data import default_benchmark_pair\n"
            "if __name__ == '__main__':\n"
            "    a = np.random.default_rng(0).standard_normal((800, 800))\n"
            "    a @ a\n"
            "    pair = default_benchmark_pair(seed=21, n_per_domain=96)\n"
            "    cfg = trainer.default_train_config(total_steps=30, eval_every=15, batch_size=16)\n"
            "    trainer._usable_cpus = lambda: 2\n"
            "    pooled = trainer.ablation_run(cfg, pair, [1, 2])\n"
            "    print(multiprocessing.active_children())\n"
            "    trainer._usable_cpus = lambda: 1\n"
            "    print(pooled == trainer.ablation_run(cfg, pair, [1, 2]))\n"
        )
        src = os.path.dirname(os.path.dirname(trainer_mod.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:2] == ["[]", "True"]

    def test_table_shape_and_determinism(self):
        cfg = quick_cfg(total_steps=30, eval_every=15)
        t1 = ablation_run(cfg, PAIR, seeds=[1, 2])
        t2 = ablation_run(cfg, PAIR, seeds=[1, 2])
        assert list(t1) == list(ABLATION_MODES) == ["S0", "S1", "S2", "S3", "S4"]
        for mode in t1:
            assert t1[mode].accuracies == t2[mode].accuracies
            assert len(t1[mode].accuracies) == 2
            assert 0.0 <= t1[mode].mean <= 1.0


# feature_dim * num_classes = 10 > cond_threshold, so the randomized
# conditioning maps of each seed are stacked too
RANDOMIZED_ARCH = dict(feature_dim=5, cond_threshold=8, cond_randomized_dim=12)


def _alone(cfg: TrainConfig, seed: int) -> TrainConfig:
    return replace(cfg, seed=seed, arch=replace(cfg.arch, seed=seed))


class TestReplicaGroup:
    @pytest.mark.parametrize("arch", [{}, RANDOMIZED_ARCH], ids=["default", "randomized"])
    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_group_equals_per_seed_runs_bitwise(self, mode, arch, tmp_path):
        cfg = quick_cfg(total_steps=24, eval_every=8, ablation_mode=mode)
        cfg = replace(cfg, arch=replace(cfg.arch, **arch))
        seeds = [3, 1, 4]
        group = train(cfg, PAIR, seeds=seeds)
        assert len(group) == len(seeds)
        for seed, got in zip(seeds, group):
            alone = train(_alone(cfg, seed), PAIR)
            assert got.history == alone.history
            assert got.source_batches_drawn == alone.source_batches_drawn
            assert got.target_batches_drawn == alone.target_batches_drawn
            for a, b in zip(got.suite.parameters(), alone.suite.parameters()):
                assert a.shape == b.shape and np.array_equal(a.data, b.data)
            assert (got.suite.maps is None) == (not arch)
            if arch:
                assert np.array_equal(got.suite.maps.r_f, alone.suite.maps.r_f)
            # the per-seed view runs the plain evaluation and checkpoint paths
            paths = tmp_path / f"g{seed}.bin", tmp_path / f"a{seed}.bin"
            save_checkpoint(got.suite, _alone(cfg, seed), paths[0], step=24)
            save_checkpoint(alone.suite, _alone(cfg, seed), paths[1], step=24)
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert evaluate(got.suite, PAIR.x_t, PAIR.y_t_eval) == got.history[-1].target_acc

    def test_group_of_one_and_zero_steps(self):
        cfg = quick_cfg(total_steps=0)
        (only,) = train(cfg, PAIR, seeds=[5])
        fresh = build_suite(cfg.arch)
        assert only.history == []
        for a, b in zip(only.suite.parameters(), fresh.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_group_takes_seeds_and_no_metrics_path(self, tmp_path):
        with pytest.raises(ValueError, match="replica group"):
            train(quick_cfg(), PAIR, seeds=[])
        with pytest.raises(ValueError, match="replica group"):
            train(quick_cfg(), PAIR, tmp_path / "m.csv", seeds=[1, 2])

    def test_group_abort_names_the_seed_and_replay_names_the_op(self):
        cfg = quick_cfg(lr=5.0, grl_schedule="constant", lr_schedule="constant")
        with warnings.catch_warnings():
            # the replay runs quietly: no numpy warning ahead of the abort
            warnings.simplefilter("error")
            with pytest.raises(TrainingAborted) as alone:
                train(_alone(cfg, 2), PAIR)
            with pytest.raises(TrainingAborted) as group:
                train(cfg, PAIR, seeds=[2, 1])
        assert alone.value.step == group.value.step == DIVERGENT_STEP
        assert str(alone.value) == (
            f"aborted at step {DIVERGENT_STEP} (seed 2): non-finite value produced by op 'mul'"
        )
        assert str(group.value) == (
            f"aborted at step {DIVERGENT_STEP} (seed 2): non-finite value produced by op 'mul'"
        )
        assert group.value.last_breakdown == alone.value.last_breakdown

    def test_group_abort_names_the_first_failing_replica(self, monkeypatch):
        import cycleadapt.autodiff as autodiff
        import cycleadapt.trainer as trainer_mod

        built = []
        real_build = trainer_mod.build_suite

        def capture(*args):
            built.append(real_build(*args))
            return built[-1]

        monkeypatch.setattr(trainer_mod, "build_suite", capture)
        calls = {"n": 0}
        real_backward = autodiff.Tensor.backward

        def poisoned_backward(self):
            real_backward(self)
            calls["n"] += 1
            if calls["n"] == 4:
                # replica 1 only: the stacked gradient's second slice
                built[0].s2t.layers[1].weight.grad[1, 0, 0] = np.nan

        monkeypatch.setattr(autodiff.Tensor, "backward", poisoned_backward)
        with pytest.raises(TrainingAborted) as exc:
            train(quick_cfg(), PAIR, seeds=[7, 8, 9])
        assert exc.value.step == 4
        assert str(exc.value).startswith("aborted at step 4 (seed 8): ")
        # s2t's second weight: features (6) + predictor (2) + domain_disc (6) + 2
        assert "sgd_step" in str(exc.value) and "parameter 16" in str(exc.value)

    def test_pool_workers_run_one_blas_thread_unless_set(self, monkeypatch):
        from cycleadapt.trainer import _openblas, _worker_pool

        lib = _openblas()
        if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy's bundled OpenBLAS is not available here")
        if (os.cpu_count() or 1) < 2:
            pytest.skip("OpenBLAS caps its thread count at the number of CPUs")
        # a forked worker keeps this process's thread count, whatever the
        # variable said when OpenBLAS loaded here, so its initializer must
        # set the count the variable names now
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        with _worker_pool(1) as ex:
            assert ex.submit(_blas_threads).result() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        with _worker_pool(1) as ex:
            assert ex.submit(_blas_threads).result() == 2


def _threads_evaluating(cpus: int | None = None) -> int:
    """The threads that ``evaluate`` runs blocks on, for a set of eight
    blocks; with ``cpus``, as if this process could use that many CPUs (a
    pool worker's patch, gone when the worker exits)."""
    if cpus is not None:
        trainer_mod._usable_cpus = lambda: cpus
    seen = set()
    block_probs = trainer_mod._block_probs

    def recording_block_probs(suite, x, lo, hi):
        seen.add(threading.get_ident())
        return block_probs(suite, x, lo, hi)

    trainer_mod._block_probs = recording_block_probs
    try:
        n = 8 * EVAL_BLOCK
        suite = build_suite(ArchConfig(input_dim=3, num_classes=3))
        evaluate(suite, np.zeros((n, 3)), np.zeros(n, dtype=np.int64))
    finally:
        trainer_mod._block_probs = block_probs
    return len(seen)


def _blas_threads() -> int:
    import ctypes

    from cycleadapt.trainer import _openblas

    get = _openblas().scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()
