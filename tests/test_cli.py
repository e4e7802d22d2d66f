import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cycleadapt
import cycleadapt.cli as cli
from cycleadapt.autodiff import NonFiniteError
from cycleadapt.cli import CliError, main
from cycleadapt.data import CsvSchemaError, default_benchmark_pair, save_pair_csv
from cycleadapt.trainer import CheckpointError, ModeStats, TrainingAborted

from conftest import read_metrics_csv


@pytest.fixture
def dataset(tmp_path):
    pair = default_benchmark_pair(seed=21, n_per_domain=96)
    source = tmp_path / "source.csv"
    target = tmp_path / "target.csv"
    save_pair_csv(pair, source, target)
    return source, target

def run_train(tmp_path, dataset, *extra):
    source, target = dataset
    out = tmp_path / "run"
    args = [
        "train", "--source", str(source), "--target", str(target),
        "--out", str(out), "--steps", "40", "--eval-every", "20",
        "--batch-size", "16", "--seed", "3",
    ]
    code = main(args + list(extra))
    return code, out

class TestGen:
    def test_writes_csv_pair_with_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main([
            "gen", "--kind", "two-moons", "--n", "120", "--rotation", "45",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert "n=120" in capsys.readouterr().out
        for name in ("source.csv", "target.csv"):
            lines = (out / name).read_text().strip().splitlines()
            assert len(lines) == 121  # header + rows
        assert (out / "source.csv").read_text().splitlines()[0] == "f0,f1,label"

    def test_rerun_is_bytewise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen", "--n", "50", "--seed", "9", "--out", str(out)]) == 0
        assert (a / "source.csv").read_bytes() == (b / "source.csv").read_bytes()
        assert (a / "target.csv").read_bytes() == (b / "target.csv").read_bytes()

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--kind", "spirals", "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args, name", [
        (["--noise", "inf"], "noise_std"),
        (["--noise", "nan"], "noise_std"),
        (["--kind", "gaussian", "--spread", "nan"], "--spread"),
        (["--kind", "gaussian", "--class-sep", "inf"], "--class-sep"),
        (["--translate", "nan,0", "--shift-kind", "affine"], "translate"),
        (["--kind", "gaussian", "--dim", "0"], "--dim"),
    ])
    def test_bad_setting_exits_2_naming_it_before_writing(self, tmp_path, capsys, args, name):
        out = tmp_path / "data"
        code = main(["gen", *args, "--out", str(out)])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["gen", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_gaussian_generator(self, tmp_path):
        out = tmp_path / "g"
        code = main([
            "gen", "--kind", "gaussian", "--n", "60", "--classes", "3",
            "--dim", "2", "--shift-kind", "affine", "--translate", "1,0",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "source.csv").read_text().strip().splitlines()
        labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert labels == {"0", "1", "2"}

    @pytest.mark.parametrize("rotation", ["18", "45", "342"])
    def test_gaussian_rotation_of_half_the_class_spacing_warns(self, tmp_path, capsys, rotation):
        # ten classes sit 36 deg apart; 342 deg turns back by 18
        code = main([
            "gen", "--kind", "gaussian", "--classes", "10", "--n", "20",
            "--rotation", rotation, "--out", str(tmp_path),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith(f"warning: rotation {float(rotation)} deg") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # the cli_wide data: 16 classes 22.5 deg apart
            ["--classes", "16", "--rotation", "8"],
            ["--classes", "10", "--rotation", "17.9"],
            ["--classes", "10", "--rotation", "45", "--shift-kind", "affine"],
        ],
    )
    def test_gaussian_rotation_under_half_the_class_spacing_is_quiet(
        self, tmp_path, capsys, argv
    ):
        code = main(["gen", "--kind", "gaussian", "--n", "20", "--out", str(tmp_path), *argv])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestTrain:
    def test_successful_run_produces_artifacts(self, tmp_path, dataset, capsys):
        code, out = run_train(tmp_path, dataset)
        assert code == 0
        printed = capsys.readouterr().out
        assert "target accuracy" in printed
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["resolved_seed"] == 3
        assert manifest["config"]["lr"] == 1e-3
        rows = read_metrics_csv(out / "metrics.csv")
        assert [r.step for r in rows] == [20, 40]

    def test_final_accuracies_are_the_last_logged_row(self, tmp_path, dataset, capsys, monkeypatch):
        # train logs both accuracies at its final step; the command does
        # not evaluate the sets a second time
        def no_second_evaluation(*args):
            raise AssertionError("cmd_train evaluated after training")

        monkeypatch.setattr(cli, "evaluate", no_second_evaluation)
        code, out = run_train(tmp_path, dataset)
        assert code == 0
        last = read_metrics_csv(out / "metrics.csv")[-1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final_source_acc"] == last.source_acc
        assert manifest["final_target_acc"] == last.target_acc
        printed = capsys.readouterr().out.strip()
        assert printed == (f"final source accuracy {last.source_acc:.4f}, "
                           f"target accuracy {last.target_acc:.4f}")

    def test_unlabeled_target_reports_no_target_accuracy(self, tmp_path, dataset, capsys):
        source, target = dataset
        lines = target.read_text().splitlines()
        target.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        code, out = run_train(tmp_path, dataset)
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["final_target_acc"] is None
        assert "target accuracy" not in capsys.readouterr().out

    def test_zero_steps_evaluates_the_initial_model(self, tmp_path, dataset, capsys):
        code, out = run_train(tmp_path, dataset, "--steps", "0")
        assert code == 0
        assert read_metrics_csv(out / "metrics.csv") == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 <= manifest["final_source_acc"] <= 1.0
        assert 0.0 <= manifest["final_target_acc"] <= 1.0

    def test_evaluation_that_overflows_aborts_with_exit_3(self, tmp_path, dataset, capsys):
        # the step-1 update overflows the parameters; the finite loss of
        # step 1 passes, so the evaluation after it meets the overflow first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_train(tmp_path, dataset, "--lr", "1e305", "--steps", "5",
                                  "--eval-every", "1")
        assert code == 3
        abort = json.loads((out / "abort.json").read_text())
        assert abort["step"] == 1
        assert abort["error"] == (
            "aborted at step 1 (seed 3): evaluation: non-finite value produced by op 'linear'"
        )
        assert abort["last_breakdown"] is not None
        assert json.loads((out / "manifest.json").read_text())["status"] == "aborted"
        assert capsys.readouterr().err.startswith("error: aborted at step 1 (seed 3)")

    def test_print_config_shows_resolved_defaults(self, tmp_path, dataset, capsys):
        code, _ = run_train(tmp_path, dataset, "--print-config")
        assert code == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["lr"] == 1e-3
        assert cfg["momentum"] == 0.9
        assert cfg["weight_decay"] == 5e-4
        assert cfg["lambda"] == 1.0
        assert cfg["beta"] == 1.0
        assert cfg["eta1"] == 0.01
        assert cfg["eta2"] == 0.1
        assert cfg["total_steps"] == 40  # flag override visible

    def test_config_file_with_flag_override(self, tmp_path, dataset, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"eta2": 0.5, "batch_size": 8}))
        code, _ = run_train(tmp_path, dataset, "--config", str(cfg_path),
                            "--print-config")
        assert code == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["eta2"] == 0.5
        assert cfg["batch_size"] == 16  # flag wins over file

    def test_ablation_flag_limits_losses(self, tmp_path, dataset):
        code, out = run_train(tmp_path, dataset, "--ablation", "S0")
        assert code == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert all(r.l_dom == 0.0 and r.l_cyc == 0.0 for r in rows)

    def test_missing_dataset_exits_2_before_training(self, tmp_path, capsys):
        code = main([
            "train", "--source", str(tmp_path / "absent.csv"),
            "--target", str(tmp_path / "absent2.csv"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert not (tmp_path / "o").exists()
        capsys.readouterr()

    def test_unknown_config_key_is_usage_error(self, tmp_path, dataset, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        code, _ = run_train(tmp_path, dataset, "--config", str(cfg_path))
        assert code == 2
        capsys.readouterr()

    def test_argparse_choices_are_the_module_constants(self):
        from cycleadapt.cli import build_parser
        from cycleadapt.trainer import ABLATION_MODES, GRL_SCHEDULES, LR_SCHEDULES

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for command in ("train", "ablate"):
            actions = {a.dest: a for a in sub.choices[command]._actions}
            assert actions["ablation_mode"].choices == ABLATION_MODES
            assert actions["grl_schedule"].choices == GRL_SCHEDULES
            assert actions["lr_schedule"].choices == LR_SCHEDULES
            assert actions["lambda"].option_strings == ["--lambda"]
            assert actions["total_steps"].option_strings == ["--steps"]


class TestConfigValidatedBeforeWriting:
    """A bad setting exits 2 naming it, before the output directory exists."""

    def _config_file(self, tmp_path, doc):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_negative_lr(self, tmp_path, dataset, capsys):
        code, out = run_train(tmp_path, dataset, "--lr", "-1")
        assert code == 2
        assert "lr must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "-1", "seed"),
        ("--lr", "inf", "lr"),
        ("--weight-decay", "inf", "weight_decay"),
        ("--eta2", "inf", "eta2"),
    ])
    def test_negative_seed_or_non_finite_setting(self, tmp_path, dataset, capsys,
                                                 flag, value, key):
        code, out = run_train(tmp_path, dataset, flag, value)
        assert code == 2
        assert f"{key} must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_hidden_activation(self, tmp_path, dataset, capsys):
        cfg = self._config_file(tmp_path, {"hidden_activation": "gelu"})
        code, out = run_train(tmp_path, dataset, "--config", cfg)
        assert code == 2
        assert "hidden_activation" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_batch_size(self, tmp_path, dataset, capsys):
        source, target = dataset
        cfg = self._config_file(tmp_path, {"batch_size": 32.7})
        out = tmp_path / "run"
        code = main(["train", "--source", str(source), "--target", str(target),
                     "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "'batch_size' must be int, got 32.7" in capsys.readouterr().err
        assert not out.exists()

    def test_string_for_a_bool(self, tmp_path, dataset, capsys):
        cfg = self._config_file(tmp_path, {"detach_predictions": "false"})
        code, out = run_train(tmp_path, dataset, "--config", cfg)
        assert code == 2
        assert "'detach_predictions' must be bool" in capsys.readouterr().err
        assert not out.exists()

    def test_failure_after_the_manifest_marks_it_failed(self, tmp_path, dataset, capsys,
                                                          monkeypatch):
        def broken_train(cfg, data, metrics_path=None):
            raise OSError("disk full")

        monkeypatch.setattr("cycleadapt.cli.train", broken_train)
        code, out = run_train(tmp_path, dataset)
        assert code == 2
        assert "disk full" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "finished_at" in manifest


class TestEval:
    def test_matches_final_logged_target_accuracy(self, tmp_path, dataset, capsys):
        code, out = run_train(tmp_path, dataset)
        assert code == 0
        capsys.readouterr()
        _, target = dataset
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--target", str(target)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        final_logged = read_metrics_csv(out / "metrics.csv")[-1].target_acc
        assert printed == f"{final_logged:.4f}"

    def test_corrupt_checkpoint_exits_3(self, tmp_path, dataset, capsys):
        source, target = dataset
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint\nxxxx")
        code = main(["eval", "--checkpoint", str(bad), "--target", str(target)])
        assert code == 3
        capsys.readouterr()

    def test_format_1_checkpoint_exits_3(self, tmp_path, dataset, capsys):
        # a checkpoint written before format 2, whose config still carried
        # the minimax_mode key
        code, out = run_train(tmp_path, dataset)
        assert code == 0
        ckpt = out / "checkpoint.bin"
        header, _, payload = ckpt.read_bytes().partition(b"\n")
        doc = json.loads(header)
        assert doc["format_version"] == 2 and "minimax_mode" not in doc["config"]
        doc["format_version"] = 1
        doc["config"]["minimax_mode"] = "grl"
        ckpt.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
        capsys.readouterr()
        _, target = dataset
        code = main(["eval", "--checkpoint", str(ckpt), "--target", str(target)])
        assert code == 3
        assert "format version 1 != 2" in capsys.readouterr().err

    def test_header_that_is_not_an_object_exits_3(self, tmp_path, dataset, capsys):
        _, target = dataset
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"[1]\n" + bytes(8))
        code = main(["eval", "--checkpoint", str(bad), "--target", str(target)])
        assert code == 3
        assert f"{bad}: header is not a JSON object" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_3(self, tmp_path, dataset, capsys):
        _, target = dataset
        bad = tmp_path / "bad.bin"
        header = {"format_version": 2, "config": [1], "param_count": 1, "step": 0}
        bad.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
        code = main(["eval", "--checkpoint", str(bad), "--target", str(target)])
        assert code == 3
        assert "bad header: config must map keys to values" in capsys.readouterr().err

    def test_overflowing_checkpoint_exits_3_naming_the_op(self, tmp_path, dataset, capsys):
        code, out = run_train(tmp_path, dataset)
        assert code == 0
        ckpt = out / "checkpoint.bin"
        header, _, payload = ckpt.read_bytes().partition(b"\n")
        huge = np.full(len(payload) // 8, 1e200, dtype="<f8").tobytes()
        ckpt.write_bytes(header + b"\n" + huge)
        capsys.readouterr()
        _, target = dataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--checkpoint", str(ckpt), "--target", str(target)])
        assert code == 3
        assert capsys.readouterr().err == "error: non-finite value produced by op 'linear'\n"

    def test_unlabeled_target_exits_2(self, tmp_path, dataset, capsys):
        code, out = run_train(tmp_path, dataset)
        capsys.readouterr()
        pair = default_benchmark_pair(seed=21, n_per_domain=96)
        from cycleadapt.data import save_domain_csv

        unlabeled = tmp_path / "unlabeled.csv"
        save_domain_csv(unlabeled, pair.x_t, None)
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--target", str(unlabeled)])
        assert code == 2
        assert "label" in capsys.readouterr().err

class TestAblate:
    def test_table_has_five_rows_in_order(self, tmp_path, dataset, capsys):
        source, target = dataset
        table_path = tmp_path / "table.csv"
        code = main([
            "ablate", "--source", str(source), "--target", str(target),
            "--seeds", "1,2", "--steps", "30", "--eval-every", "15",
            "--batch-size", "16", "--out", str(table_path),
        ])
        assert code == 0
        lines = table_path.read_text().strip().splitlines()
        assert lines[0] == "mode,mean_target_acc,std_target_acc,n_seeds"
        assert [line.split(",")[0] for line in lines[1:]] == ["S0", "S1", "S2", "S3", "S4"]
        printed = capsys.readouterr().out
        assert printed.count("+/-") == 5

    def test_single_seed_is_usage_error(self, tmp_path, dataset, capsys):
        source, target = dataset
        code = main(["ablate", "--source", str(source), "--target", str(target),
                     "--seeds", "1"])
        assert code == 2
        capsys.readouterr()

    def test_seed_that_is_not_an_integer_names_the_flag_and_the_entry(self, dataset, capsys):
        source, target = dataset
        code = main(["ablate", "--source", str(source), "--target", str(target),
                     "--seeds", "a,b"])
        assert code == 2
        assert capsys.readouterr().err == "error: --seeds takes comma-separated ints, got 'a'\n"

    def test_assert_trend_flag(self, tmp_path, dataset, capsys, monkeypatch):
        def fake_ladder(base_cfg, data, seeds):
            accs = {"S0": (0.9, 0.9), "S1": (0.5, 0.5), "S2": (0.5, 0.5),
                    "S3": (0.4, 0.4), "S4": (0.3, 0.3)}
            return {m: ModeStats(mode=m, accuracies=a, histories=((), ()))
                    for m, a in accs.items()}

        monkeypatch.setattr("cycleadapt.cli.ablation_run", fake_ladder)
        source, target = dataset
        code = main(["ablate", "--source", str(source), "--target", str(target),
                     "--seeds", "1,2", "--assert-trend"])
        assert code == 1
        assert "trend check failed" in capsys.readouterr().err

class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        code = main(["gradcheck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "total" in out

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["gradcheck", "--tol", "1e-12", "--component", "total"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_component_filter(self, capsys):
        code = main(["gradcheck", "--component", "cycle"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 1 and out[0].startswith("PASS cycle")

    def test_unknown_component_is_usage_error(self, capsys):
        code = main(["gradcheck", "--component", "wormhole"])
        assert code == 2
        capsys.readouterr()

    def test_negative_seed_is_usage_error(self, capsys):
        code = main(["gradcheck", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_tolerance_that_decides_nothing_is_usage_error(self, capsys, tol):
        # such a tolerance fails (or passes) every component whatever the
        # gradients; it is refused, not reported as a failed check
        code = main(["gradcheck", f"--tol={tol}", "--component", "matmul"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite and > 0, got ")

def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0


def test_version_ignores_the_callers_repository(tmp_path):
    # a foreign repository as the working directory must not leak its commit
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "f.txt").write_text("x\n")
    subprocess.run(git + ["add", "f.txt"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "foreign"], cwd=tmp_path, check=True)
    foreign = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=tmp_path, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    src = Path(cycleadapt.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "cycleadapt.cli", "--version"], cwd=tmp_path, env=env,
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    assert out.startswith(cycleadapt.__version__)
    assert foreign not in out


@pytest.mark.parametrize("name, code", [("SIGINT", 130), ("SIGTERM", 143)])
def test_a_signal_ends_train_interrupted_with_one_error_line(tmp_path, dataset, name, code):
    source, target = dataset
    out = tmp_path / "run"
    src = Path(cycleadapt.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycleadapt.cli", "train", "--source", str(source),
         "--target", str(target), "--out", str(out), "--steps", "10000000",
         "--eval-every", "50"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        # a logged row shows that 50 steps have completed
        metrics, deadline = out / "metrics.csv", time.monotonic() + 60
        while not (metrics.exists() and len(metrics.read_text().splitlines()) > 1):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(getattr(signal, name))
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == code
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {name}: interrupted after step ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "interrupted"
    assert manifest["step"] == int(err.split()[-1]) >= 50


def _with_value(path, line, column, text):
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestNonFiniteCsv:
    def test_train_rejects_nan_with_file_and_line(self, tmp_path, dataset, capsys):
        source, _ = dataset
        _with_value(source, 5, 1, "nan")
        code, out = run_train(tmp_path, dataset)
        assert code == 2
        assert f"{source}:5: non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_train_rejects_negative_label_with_file_and_line(self, tmp_path, dataset, capsys):
        source, _ = dataset
        _with_value(source, 7, 2, "-1")
        code, out = run_train(tmp_path, dataset)
        assert code == 2
        assert f"{source}:7: negative label -1" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_inf_with_file_and_line(self, tmp_path, dataset, capsys):
        code, out = run_train(tmp_path, dataset)
        assert code == 0
        capsys.readouterr()
        _, target = dataset
        _with_value(target, 9, 0, "-inf")
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--target", str(target)])
        assert code == 2
        assert f"{target}:9: non-finite value" in capsys.readouterr().err


def test_wide_full_model_still_aborts_at_step_12_on_mul(tmp_path, capsys):
    # the cycle term's gradient grows with the feature width; this run
    # diverged at step 12 with op 'mul' before the step was fused and
    # checked once, and must abort the same way after
    data = tmp_path / "d"
    assert main(["gen", "--kind", "gaussian", "--classes", "10", "--seed", "3",
                 "--out", str(data)]) == 0
    out = tmp_path / "r"
    code = main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"), "--feature-dim", "128",
                 "--steps", "2000", "--seed", "1", "--out", str(out)])
    assert code == 3
    capsys.readouterr()
    abort = json.loads((out / "abort.json").read_text())
    assert abort["step"] == 12
    assert "op 'mul'" in abort["error"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "aborted"


def _overflowing(path):
    """Set every feature of the CSV at ``path`` to 1e308: finite, so the
    loader takes it, but the first layer of the models of seeds 0-3
    overflows on it."""
    header, *rows = path.read_text().splitlines()
    rows = [",".join(["1e308"] * row.count(",") + [row.rsplit(",", 1)[1]]) for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n")


class TestExitCodes:
    """Commands raise; main alone maps each failure to its exit code, with
    one error line and no traceback."""

    @pytest.mark.parametrize("error, code", [
        (CliError("--dim must be >= 1, got 0"), 2),
        (CliError("custom", 3), 3),
        (TrainingAborted("aborted at step 4 (seed 1): non-finite value produced by op 'mul'",
                         None, 4), 3),
        (NonFiniteError("linear"), 3),
        (CheckpointError("ckpt.bin: unreadable header"), 3),
        (CsvSchemaError("data.csv:3: non-finite value"), 2),
        (ValueError("lr must be nonnegative, got -1.0"), 2),
        (FileNotFoundError(2, "No such file or directory", "absent.csv"), 2),
        (PermissionError(13, "Permission denied", "out"), 2),
    ], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
    def test_each_failure_maps_to_its_code(self, monkeypatch, capsys, error, code):
        def failing(args):
            raise error

        monkeypatch.setattr(cli, "cmd_gradcheck", failing)
        assert main(["gradcheck"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_a_bug_is_not_mapped(self, monkeypatch):
        monkeypatch.setattr(cli, "cmd_gradcheck", lambda args: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            main(["gradcheck"])

    def test_diverging_ablation_exits_3(self, dataset, capsys):
        source, target = dataset
        code = main(["ablate", "--source", str(source), "--target", str(target),
                     "--lr", "5", "--grl-schedule", "constant", "--lr-schedule", "constant",
                     "--steps", "30", "--seeds", "1,2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: aborted at step ") and err.count("\n") == 1

    def test_zero_step_train_that_overflows_aborts(self, tmp_path, dataset, capsys):
        _overflowing(dataset[0])
        code, out = run_train(tmp_path, dataset, "--steps", "0")
        assert code == 3
        abort = json.loads((out / "abort.json").read_text())
        assert abort["step"] == 0 and "last_breakdown" not in abort
        assert abort["error"].startswith(
            "aborted at step 0 (seed 3): evaluation: non-finite value produced by op "
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "aborted"
        assert manifest["diagnostic"] == str(out / "abort.json")
        assert not (out / "checkpoint.bin").exists()
        assert capsys.readouterr().err == f"error: {abort['error']}\n"

    def test_zero_step_ablation_that_overflows_aborts(self, dataset, capsys):
        source, target = dataset
        _overflowing(source)
        code = main(["ablate", "--source", str(source), "--target", str(target),
                     "--steps", "0", "--seeds", "1,2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: aborted at step 0 (seed 1): evaluation: ")
        assert err.count("\n") == 1


class TestAblationCheckScript:
    """scripts/run_ablation.py --check exits 1 on a mismatch only."""

    @pytest.fixture
    def script(self, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "scripts" / "run_ablation.py"
        spec = importlib.util.spec_from_file_location("run_ablation", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(sys, "argv", [str(path), "--check"])
        return module

    def test_an_aborted_ladder_exits_3(self, script, monkeypatch, capsys):
        def diverging(base_cfg, data, seeds):
            raise TrainingAborted("aborted at step 4 (seed 1): non-finite value", None, 4)

        monkeypatch.setattr(script, "ablation_run", diverging)
        assert script.main() == 3
        assert capsys.readouterr().err == (
            "error: aborted at step 4 (seed 1): non-finite value\n"
        )

    def test_a_mismatch_exits_1(self, script, monkeypatch, capsys):
        def wrong(base_cfg, data, seeds):
            return {m: ModeStats(m, (-1.0,) * len(seeds), ((),) * len(seeds))
                    for m in ("S0", "S1", "S2", "S3", "S4")}

        monkeypatch.setattr(script, "ablation_run", wrong)
        assert script.main() == 1
        assert "5 modes differ" in capsys.readouterr().out
