"""Command-line interface tests, run in-process through main()."""
import csv
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import holding_out_dir, teacher_vqc_dataset, traced_peak

import qshield
from qshield import cli
from qshield.cli import main
from qshield.pipeline import PipelineConfig, preprocess_experiment
from qshield.preprocess import Dataset, write_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared data file, config file, and a pre-trained model directory."""
    root = tmp_path_factory.mktemp("cli")
    data, _ = teacher_vqc_dataset(seed=301, n_qubits=2, n_layers=1, n_samples=24)
    data_path = root / "data.csv"
    write_csv(data, data_path)

    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "seed": 5,
        "model": {"type": "vqc", "n_qubits": 2, "n_layers": 1, "repetitions": 1},
        "training": {"epochs": 5, "learning_rate": 0.1},
        "evaluation": {"test_fraction": 0.25, "bootstrap_iterations": 100},
        "preprocess": {"apply_pca": False},
    }))

    train_dir = root / "trained"
    code = main([
        "train", "--data", str(data_path), "--config", str(config_path),
        "--out-dir", str(train_dir),
    ])
    assert code == 0
    return {
        "root": root,
        "data": data_path,
        "config": config_path,
        "model": train_dir / "model.json",
        "preprocess": train_dir / "preprocess.json",
        "n_samples": data.n_samples,
    }


@pytest.fixture(scope="module")
def pca_preprocess(workspace):
    """A preprocess.json with a fitted PCA basis, for malformed-file edits."""
    root = workspace["root"]
    config = root / "pca.json"
    config.write_text(json.dumps({"preprocess": {"pca_components": 2}}))
    assert main([
        "preprocess", "--data", str(workspace["data"]),
        "--config", str(config), "--out-dir", str(root / "pca"),
    ]) == 0
    return root / "pca" / "preprocess.json"


@pytest.fixture(scope="module")
def svm_model(workspace):
    """A kernel SVM trained on the shared data, for malformed-file edits."""
    out = workspace["root"] / "trained_svm"
    assert main([
        "train", "qsvm", "--data", str(workspace["data"]),
        "--config", str(workspace["config"]), "--out-dir", str(out),
    ]) == 0
    return out / "model.json"


def _drop_last_coeff(p):
    p["dual_coeffs"] = p["dual_coeffs"][:-1]


def _narrow_support_vectors(p):
    p["support_vectors"] = [row[:-1] for row in p["support_vectors"]]


def _nan_bias(p):
    p["bias"] = float("nan")


def _text_params(p):
    p["params"] = "abc"


def _list_feature_map(p):
    p["feature_map"] = [2, 1]


def _infinite_param(p):
    p["params"][0] = float("inf")


def _short_means(p):
    p["means"] = p["means"][:-1]


def _null_pca_center(p):
    p["pca_center"] = None


def _negative_kept_column(p):
    p["kept_columns"][0] = -1


def _basis_missing_component(p):
    p["pca_basis"] = [row[:-1] for row in p["pca_basis"]]


def _huge_support_index(p):
    p["support_indices"][0] = 1e300


def _int64_overflow_support_index(p):
    p["support_indices"][0] = 2**70


def _huge_kept_column(p):
    p["kept_columns"][0] = 1e80


def _text_entangling(p):
    p["entangling"] = "no"


def _numeric_feature_map_entangling(p):
    p["feature_map"]["entangling"] = 0


def _float_readout_qubit(p):
    p["readout_qubit"] = 1.0


def _negative_readout_qubit(p):
    p["readout_qubit"] = -1


def _readout_qubit_off_the_register(p):
    p["readout_qubit"] = p["n_qubits"]


def _text_converged(p):
    p["converged"] = "no"


def _text_bias(p):
    p["bias"] = "1"


def _fractional_support_index(p):
    p["support_indices"][0] = 1.5


def _unknown_key(p):
    p["extra_key"] = 1


def _missing_entangling(p):
    del p["entangling"]


def _missing_feature_map_key(p):
    del p["feature_map"]["repetitions"]


def _bool_param(p):
    p["params"][0] = True


def _text_mean(p):
    p["means"][0] = "1"


# (edit, which model file it applies to, text the one error line must contain)
MALFORMED_MODELS = {
    "short_dual_coeffs": (_drop_last_coeff, "qsvm", "dual_coeffs"),
    "narrow_support_vectors": (_narrow_support_vectors, "qsvm", "support vectors"),
    "nan_bias": (_nan_bias, "qsvm", "qsvm.bias"),
    "huge_support_index": (_huge_support_index, "qsvm", "qsvm.support_indices"),
    "int64_overflow_support_index": (
        _int64_overflow_support_index, "qsvm", "qsvm.support_indices"
    ),
    "text_params": (_text_params, "vqc", "vqc.params"),
    "list_feature_map": (_list_feature_map, "vqc", "vqc.feature_map"),
    "infinite_param": (_infinite_param, "vqc", "vqc.params"),
    "short_means": (_short_means, "preprocess", "means"),
    "null_pca_center": (_null_pca_center, "preprocess", "pca_center"),
    "negative_kept_column": (_negative_kept_column, "preprocess", "preprocess.kept_columns"),
    "basis_missing_component": (_basis_missing_component, "preprocess", "pca_basis"),
    "huge_kept_column": (_huge_kept_column, "preprocess", "preprocess.kept_columns"),
    "text_entangling": (_text_entangling, "vqc", "vqc.entangling"),
    "numeric_feature_map_entangling": (
        _numeric_feature_map_entangling, "vqc", "vqc.feature_map.entangling"
    ),
    "float_readout_qubit": (_float_readout_qubit, "vqc", "vqc.readout_qubit"),
    "negative_readout_qubit": (_negative_readout_qubit, "vqc", "readout_qubit"),
    "readout_qubit_off_the_register": (_readout_qubit_off_the_register, "vqc", "readout_qubit"),
    "text_converged": (_text_converged, "qsvm", "qsvm.converged"),
    "text_bias": (_text_bias, "qsvm", "qsvm.bias"),
    "fractional_support_index": (_fractional_support_index, "qsvm", "qsvm.support_indices"),
    "unknown_key": (_unknown_key, "vqc", "extra_key"),
    "missing_entangling": (_missing_entangling, "vqc", "entangling"),
    "missing_feature_map_key": (_missing_feature_map_key, "qsvm", "repetitions"),
    "bool_param": (_bool_param, "vqc", "vqc.params"),
    "text_mean": (_text_mean, "preprocess", "preprocess.means"),
}


# config values that must be rejected before any stage runs, as
# case -> (config, or its raw JSON text, text the error line must contain);
# a type error names its field as section.key
WRONG_TYPE_CONFIGS = {
    "test_fraction_text": ({"evaluation": {"test_fraction": "x"}}, "evaluation.test_fraction"),
    "bootstrap_iterations_text": (
        {"evaluation": {"bootstrap_iterations": "x"}}, "evaluation.bootstrap_iterations"
    ),
    "correlation_threshold_text": (
        {"preprocess": {"correlation_threshold": "x"}}, "preprocess.correlation_threshold"
    ),
    "outlier_z_cap_text": ({"preprocess": {"outlier_z_cap": "x"}}, "preprocess.outlier_z_cap"),
    "pca_components_text": (
        {"preprocess": {"pca_components": "2"}}, "preprocess.pca_components"
    ),
    "svm_c_text": ({"model": {"svm_c": "x"}}, "model.svm_c"),
    "ensemble_weights_text": (
        {"model": {"type": "ensemble", "ensemble_weights": "ab"}}, "model.ensemble_weights"
    ),
    "ensemble_weights_scalar": ({"model": {"ensemble_weights": 3}}, "model.ensemble_weights"),
    "apply_pca_text": ({"preprocess": {"apply_pca": "no"}}, "preprocess.apply_pca"),
    "n_qubits_bool": ({"model": {"n_qubits": True}}, "model.n_qubits"),
    "svm_tol_text": ({"model": {"svm_tol": "x"}}, "model.svm_tol"),
    "beta1_text": ({"training": {"beta1": "x"}}, "training.beta1"),
    "repetitions_bool": ({"model": {"repetitions": True}}, "model.repetitions"),
    "batch_size_bool": ({"training": {"batch_size": True}}, "training.batch_size"),
    "seed_negative": ({"seed": -1}, "seed"),
    "epochs_zero": ({"training": {"epochs": 0}}, "epochs"),
    "vqc_ensemble_weights_text": ({"model": {"ensemble_weights": "ab"}}, "model.ensemble_weights"),
    "vqc_ensemble_weights_negative": ({"model": {"ensemble_weights": [1, -1]}}, "ensemble_weights"),
    "seed_flag_negative": ({}, "seed"),
    "svm_tol_negative": ({"model": {"svm_tol": -1}}, "svm_tol"),
    "svm_max_passes_zero": ({"model": {"svm_max_passes": 0}}, "svm_max_passes"),
    "svm_c_below_bound_snap": (
        {"model": {"type": "qsvm", "n_qubits": 2, "svm_c": 1e-13}}, "model.svm_c"
    ),
    "beta1_above_one": ({"training": {"beta1": 2}}, "beta1"),
    "beta2_one": ({"training": {"beta2": 1}}, "beta2"),
    "eps_zero": ({"training": {"eps": 0}}, "eps"),
    "learning_rate_overflow": ('{"training": {"learning_rate": 1e400}}', "learning_rate"),
    "svm_c_overflow": ('{"model": {"type": "qsvm", "svm_c": 1e400}}', "model.svm_c"),
    "ensemble_weight_overflow": (
        '{"model": {"type": "ensemble", "ensemble_weights": [1e400, 1]}}', "model.ensemble_weights"
    ),
    "outlier_z_cap_overflow": (
        '{"preprocess": {"outlier_z_cap": 1e400}}', "preprocess.outlier_z_cap"
    ),
}
# command-line arguments a case adds after the config
WRONG_CONFIG_ARGS = {"seed_flag_negative": ["--seed", "-1"]}

# a child process holds the output directory named by argv[1] until killed
HOLD_AND_SLEEP = """
import sys, time
from qshield.pipeline import _output_dir
with _output_dir(sys.argv[1]):
    print("held", flush=True)
    time.sleep(60)
"""


def child_env(**extra: str) -> dict:
    """Environment for a child interpreter that imports the qshield this test imported."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qshield.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )
    return {**env, **extra}


def fresh_python(code: str, **extra_env: str) -> str:
    """What ``code`` prints in a new interpreter, with OPENBLAS_NUM_THREADS unset unless given."""
    child = subprocess.run([sys.executable, "-c", code], env=child_env(**extra_env),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


class TestBlasThreads:
    """The CLI runs BLAS on one thread unless OPENBLAS_NUM_THREADS is exported."""

    def test_package_import_loads_no_numpy(self):
        assert fresh_python("import sys, qshield; print('numpy' in sys.modules)") == "False\n"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_cli_import_runs_one_thread(self):
        # numpy loads after the CLI module, as it does when a command runs
        code = ("import qshield.cli, numpy; "
                "print(open('/proc/self/status').read().split('Threads:')[1].split()[0])")
        assert fresh_python(code) == "1\n"

    def test_exported_thread_count_is_kept(self):
        code = "import os, qshield.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2\n"


MAIN_IN_CHILD = """
import contextlib, io, sys
from qshield.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, 'numpy' in sys.modules, 'qshield.explain' in sys.modules)
"""


def main_in_child(*args: str) -> str:
    """main(args) in a new interpreter: its exit code, whether numpy and explain loaded."""
    child = subprocess.run([sys.executable, "-c", MAIN_IN_CHILD, *args], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


class TestLazyImports:
    """The CLI module loads no numpy; each command imports the layers it runs."""

    def test_cli_import_loads_no_layer(self):
        code = ("import sys, qshield.cli; "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'qshield')))")
        assert fresh_python(code) == "qshield qshield.cli qshield.errors\n"

    @pytest.mark.parametrize("args, exit_code", [
        ([], 1), (["--help"], 0), (["frobnicate"], 1), (["run", "--data", "x.csv"], 1),
        *(([command, "--help"], 0) for command in
          ("run", "preprocess", "train", "predict", "explain", "evaluate", "kernel")),
    ])
    def test_help_and_usage_errors_load_no_numpy(self, args, exit_code):
        assert main_in_child(*args) == f"{exit_code} False False\n"

    def test_predict_loads_no_explain(self, workspace, tmp_path):
        assert main_in_child(
            "predict", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]), "--config", str(workspace["config"]),
            "--out", str(tmp_path / "p.csv"),
        ) == "0 True False\n"
        assert (tmp_path / "p.csv").exists()


class TestHelp:
    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("run", "preprocess", "train", "predict", "explain",
                      "evaluate", "kernel"):
            assert name in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_option(self):
        assert main(["run", "--data", "x.csv"]) == 1


class TestRun:
    def test_full_run(self, workspace, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(out_dir),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "test accuracy:" in stdout
        assert "accuracy" in stdout
        for name in ("model.json", "report.json", "predictions.csv"):
            assert (out_dir / name).exists()

    def test_seed_override_lands_in_report(self, workspace, tmp_path):
        out_dir = tmp_path / "seeded"
        code = main([
            "run", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]),
            "--seed", "9", "--out-dir", str(out_dir),
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_missing_data_exits_2(self, workspace, tmp_path, capsys):
        code = main([
            "run", "--data", str(tmp_path / "absent.csv"),
            "--config", str(workspace["config"]),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_locked_out_dir_exits_1(self, workspace, tmp_path):
        out_dir = tmp_path / "busy"
        with holding_out_dir(out_dir):
            code = main([
                "run", "--data", str(workspace["data"]),
                "--config", str(workspace["config"]), "--out-dir", str(out_dir),
            ])
        assert code == 1

    def test_live_owner_lock_exits_1(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "busy"
        with holding_out_dir(out_dir) as fd:
            code = main([
                "run", "--data", str(workspace["data"]),
                "--config", str(workspace["config"]), "--out-dir", str(out_dir),
            ])
            assert os.path.samestat(os.fstat(fd), os.stat(out_dir / ".lock"))
        assert code == 1
        (error_line,) = [line for line in capsys.readouterr().err.splitlines()
                         if line.startswith("error:")]
        assert "locked by another run" in error_line
        assert [p.name for p in out_dir.iterdir()] == [".lock"]

    def test_dead_owner_lock_is_reclaimed(self, workspace, tmp_path):
        out_dir = tmp_path / "crashed"
        args = [
            "run", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(out_dir),
        ]
        with subprocess.Popen(
            [sys.executable, "-c", HOLD_AND_SLEEP, str(out_dir)],
            stdout=subprocess.PIPE, text=True, env=child_env(),
        ) as holder:
            try:
                assert holder.stdout.readline() == "held\n"
                assert main(args) == 1
            finally:
                holder.kill()
        assert holder.returncode == -signal.SIGKILL
        assert (out_dir / ".lock").exists()  # the killed holder could not remove it
        assert main(args) == 0
        assert (out_dir / "report.json").exists()
        assert not (out_dir / ".lock").exists()

    def test_unusable_out_dir_exits_1(self, workspace, capsys):
        out_dir = workspace["data"] / "sub"
        capsys.readouterr()
        code = main([
            "run", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(out_dir),
        ])
        captured = capsys.readouterr()
        assert code == 1
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert f"output directory {out_dir}" in error_line
        assert "Traceback" not in captured.err + captured.out

    def test_overflowing_learning_rate_exits_3(self, workspace, tmp_path, capsys):
        config = json.loads(workspace["config"].read_text())
        config["training"] = {"learning_rate": 1e308, "epochs": 3}
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(config))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "run", "--data", str(workspace["data"]),
                "--config", str(bad), "--out-dir", str(tmp_path / "out"),
            ])
        captured = capsys.readouterr()
        assert code == 3
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert "in epoch " in error_line and "training.learning_rate 1e+308" in error_line
        assert "math domain error" not in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "out" / "model.json").exists()

    def test_internal_error_is_one_error_line(self, workspace, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("unexpected state")

        monkeypatch.setattr(cli, "_load_config", broken)
        capsys.readouterr()
        code = main([
            "run", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert code == 3
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert error_line == "error: internal error: RuntimeError: unexpected state"
        assert "Traceback" not in captured.err + captured.out

    def test_invalid_config_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main([
            "run", "--data", str(workspace["data"]),
            "--config", str(bad), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(WRONG_TYPE_CONFIGS))
    def test_wrong_type_config_exits_1(self, case, workspace, tmp_path, capsys):
        config, named = WRONG_TYPE_CONFIGS[case]
        bad = tmp_path / "bad.json"
        bad.write_text(config if isinstance(config, str) else json.dumps(config))
        out_dir = tmp_path / "out"
        capsys.readouterr()
        code = main([
            "run", "--data", str(workspace["data"]),
            "--config", str(bad), "--out-dir", str(out_dir), *WRONG_CONFIG_ARGS.get(case, []),
        ])
        captured = capsys.readouterr()
        assert code == 1
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert named in error_line
        assert "Traceback" not in captured.err + captured.out
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["run"], ["train"]], ids=["run", "train"])
    def test_positive_label_matching_no_row_exits_2(self, command, workspace, tmp_path, capsys):
        config = json.loads(workspace["config"].read_text())
        config["data"] = {"positive_label": "yes"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        capsys.readouterr()
        code = main([
            *command, "--data", str(workspace["data"]),
            "--config", str(bad), "--out-dir", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert "data.positive_label" in error_line
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("command", [["run"], ["train", "qsvm"]], ids=["run", "train"])
    def test_svm_update_cap_is_one_note(self, command, workspace, tmp_path, capsys):
        config = json.loads(workspace["config"].read_text())
        config["model"].update(type="qsvm", svm_max_passes=1)
        capped = tmp_path / "capped.json"
        capped.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                *command, "--data", str(workspace["data"]),
                "--config", str(capped), "--out-dir", str(out_dir),
            ])
        captured = capsys.readouterr()
        assert code == 0
        notes = [line for line in captured.err.splitlines() if line.startswith("note:")]
        assert len(notes) == 1 and "model.svm_max_passes" in notes[0]
        assert captured.err == notes[0] + "\n"
        assert json.loads((out_dir / "model.json").read_text())["converged"] is False
        if command == ["run"]:
            assert json.loads((out_dir / "report.json").read_text())["svm"]["converged"] is False


class TestPreprocess:
    def test_writes_artifacts(self, workspace, capsys, tmp_path):
        out_dir = tmp_path / "pre"
        code = main([
            "preprocess", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert "rows 24" in capsys.readouterr().out
        assert (out_dir / "processed.csv").exists()
        assert (out_dir / "preprocess.json").exists()

    def test_held_out_dir_exits_1(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "busy"
        with holding_out_dir(out_dir):
            code = main([
                "preprocess", "--data", str(workspace["data"]),
                "--config", str(workspace["config"]), "--out-dir", str(out_dir),
            ])
        assert code == 1
        assert "locked by another run" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == [".lock"]

    def test_field_over_csv_limit_exits_2(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("f0,label\n" + "1" * (csv.field_size_limit() + 1) + ",1\n")
        code = main(["preprocess", "--data", str(data), "--out-dir", str(tmp_path / "pre")])
        assert code == 2
        (error_line,) = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")
        ]
        assert f"{data}: line 2: field larger than field limit" in error_line

    def test_feature_named_like_label_column_exits_2(self, tmp_path, capsys):
        # processed.csv appends a "label" column; a kept feature of that name
        # would make a later run read it as the labels
        data = tmp_path / "data.csv"
        data.write_text("a,label,b,class\n" + "".join(
            f"{i},{i * i % 7},{(3 * i) % 5},{'mal' if i % 2 else 'ok'}\n" for i in range(12)
        ))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"label_column": "class", "positive_label": "mal"},
            "preprocess": {"apply_pca": False},
        }))
        out_dir = tmp_path / "pre"
        code = main([
            "preprocess", "--data", str(data), "--config", str(config), "--out-dir", str(out_dir),
        ])
        assert code == 2
        (error_line,) = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")
        ]
        assert "feature column 'label'" in error_line
        assert list(out_dir.iterdir()) == []


class TestTrain:
    def test_model_type_argument_overrides_config(self, workspace, tmp_path):
        out_dir = tmp_path / "svm"
        code = main([
            "train", "qsvm", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(out_dir),
        ])
        assert code == 0
        payload = json.loads((out_dir / "model.json").read_text())
        assert payload["model_type"] == "qsvm"

    def test_config_type_used_when_argument_absent(self, workspace):
        payload = json.loads(workspace["model"].read_text())
        assert payload["model_type"] == "vqc"

    def test_held_out_dir_exits_1(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "busy"
        with holding_out_dir(out_dir):
            code = main([
                "train", "--data", str(workspace["data"]),
                "--config", str(workspace["config"]), "--out-dir", str(out_dir),
            ])
        assert code == 1
        assert "locked by another run" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == [".lock"]

    def test_bad_model_type_argument(self, workspace, tmp_path):
        code = main([
            "train", "tree", "--data", str(workspace["data"]),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1


class TestPredict:
    def test_predictions_csv(self, workspace, capsys, tmp_path):
        out = tmp_path / "preds.csv"
        code = main([
            "predict", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index", "probability", "label"]
        assert len(rows) == workspace["n_samples"] + 1
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert row[2] in ("0", "1")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_model_exits_2(
        self, case, workspace, svm_model, pca_preprocess, tmp_path, capsys
    ):
        edit, kind, named = MALFORMED_MODELS[case]
        sources = {"qsvm": svm_model, "vqc": workspace["model"], "preprocess": pca_preprocess}
        payload = json.loads(sources[kind].read_text())
        edit(payload)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        model, preprocess = (
            (workspace["model"], bad) if kind == "preprocess" else (bad, workspace["preprocess"])
        )
        capsys.readouterr()
        code = main([
            "predict", "--model", str(model),
            "--preprocess-model", str(preprocess),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out", str(tmp_path / "p.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert named in error_line
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("option, code", [("--data", 2), ("--config", 1), ("--model", 2)])
    def test_non_utf8_input_exits_with_its_code(self, option, code, workspace, tmp_path, capsys):
        files = {"--data": workspace["data"], "--config": workspace["config"],
                 "--model": workspace["model"]}
        bad = tmp_path / files[option].name
        bad.write_bytes(files[option].read_bytes() + b"\xff")
        files[option] = bad
        capsys.readouterr()
        assert main([
            "predict", *(arg for opt, path in files.items() for arg in (opt, str(path))),
            "--preprocess-model", str(workspace["preprocess"]), "--out", str(tmp_path / "p.csv"),
        ]) == code
        captured = capsys.readouterr()
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert str(bad) in error_line
        assert "internal error" not in error_line
        assert not (tmp_path / "p.csv").exists()

    def test_reordered_columns_exit_2(self, workspace, tmp_path, capsys):
        # same header names, feature columns reversed: the fitted standardization
        # maps columns by position, so it must refuse them rather than mis-read them
        rows = [line.split(",") for line in workspace["data"].read_text().splitlines()]
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("".join(",".join(r[-2::-1] + r[-1:]) + "\n" for r in rows))
        capsys.readouterr()
        code = main([
            "predict", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(reordered), "--config", str(workspace["config"]),
            "--out", str(tmp_path / "p.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert f"column 1 is {rows[0][-2]!r}, not the fitted {rows[0][0]!r}" in error_line
        assert not (tmp_path / "p.csv").exists()

    def test_missing_model_exits_2(self, workspace, tmp_path):
        code = main([
            "predict", "--model", str(tmp_path / "none.json"),
            "--data", str(workspace["data"]), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="CPython 3.10 frames keep call arguments alive, so the raw matrix "
        "lives until apply_preprocess returns",
    )
    def test_scoring_frees_the_raw_matrix_once_standardized(self, tmp_path):
        # predict, evaluate, explain and kernel load and transform their CSV here:
        # with the raw matrix released once standardized, the PCA step holds the
        # standardized matrix and its centered copy, not the raw matrix as well
        rng = np.random.default_rng(31)
        data = Dataset([f"f{j}" for j in range(80)], rng.normal(size=(4000, 80)),
                       rng.integers(0, 2, 4000))
        write_csv(data, tmp_path / "data.csv")
        preprocess_experiment(PipelineConfig(), tmp_path / "data.csv", tmp_path / "pre")
        scored, peak = traced_peak(
            cli._load_and_transform, PipelineConfig(), str(tmp_path / "data.csv"),
            str(tmp_path / "pre" / "preprocess.json"),
        )
        assert scored.features.shape == (4000, 4)
        assert peak <= 2.3 * data.features.nbytes


class TestExplain:
    def test_grad_table(self, workspace, capsys):
        code = main([
            "explain", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--row", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "method: GRAD" in out
        assert "base probability" in out

    def test_score_method_and_csv_output(self, workspace, capsys, tmp_path):
        out_csv = tmp_path / "attr.csv"
        code = main([
            "explain", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]),
            "--method", "score", "--row", "3", "--out", str(out_csv),
        ])
        assert code == 0
        assert "method: SCORE" in capsys.readouterr().out
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature_name", "raw_score", "weighted_score", "rank"]

    def test_row_out_of_range(self, workspace, capsys):
        code = main([
            "explain", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--row", "999",
        ])
        assert code == 1

    def test_grad_on_svm_model_exits_1(self, workspace, tmp_path, capsys):
        svm_dir = tmp_path / "svm"
        assert main([
            "train", "qsvm", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(svm_dir),
        ]) == 0
        capsys.readouterr()
        code = main([
            "explain", "--model", str(svm_dir / "model.json"),
            "--preprocess-model", str(svm_dir / "preprocess.json"),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--method", "grad",
        ])
        assert code == 1
        assert "score_attribution" in capsys.readouterr().err

    def test_grad_on_ensemble_model_names_the_score_flag(self, workspace, tmp_path, capsys):
        ensemble_dir = tmp_path / "ensemble"
        assert main([
            "train", "ensemble", "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out-dir", str(ensemble_dir),
        ]) == 0
        capsys.readouterr()
        code = main([
            "explain", "--model", str(ensemble_dir / "model.json"),
            "--preprocess-model", str(ensemble_dir / "preprocess.json"),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--method", "grad",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (error_line,) = captured.err.splitlines()
        assert error_line.startswith("error: ") and "--method score" in error_line


class TestEvaluate:
    def test_metrics_table(self, workspace, capsys):
        code = main([
            "evaluate", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "95% CI" in out


class TestKernel:
    def test_gram_csv(self, workspace, capsys, tmp_path):
        out = tmp_path / "gram.csv"
        code = main([
            "kernel", "--data", str(workspace["data"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--config", str(workspace["config"]), "--out", str(out),
        ])
        assert code == 0
        gram = np.loadtxt(out, delimiter=",")
        n = workspace["n_samples"]
        assert gram.shape == (n, n)
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-10)
        np.testing.assert_allclose(gram, gram.T, atol=0)

    def test_gram_is_validated_before_it_is_written(self, workspace, tmp_path, monkeypatch):
        # a fit trusts the Schur product theorem, but the kernel command still
        # checks the Gram it publishes, eigenvalues included
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(matrix):
            calls.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code = main([
            "kernel", "--data", str(workspace["data"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--config", str(workspace["config"]), "--out", str(tmp_path / "gram.csv"),
        ])
        assert code == 0
        n = workspace["n_samples"]
        assert calls == [(n, n)]


@pytest.mark.parametrize("command", ["predict", "kernel", "explain"])
def test_out_in_missing_directory_exits_1(command, workspace, tmp_path, capsys):
    out = tmp_path / "nodir" / "x.csv"
    model = ["--model", str(workspace["model"])] if command != "kernel" else []
    capsys.readouterr()
    code = main([
        command, *model, "--preprocess-model", str(workspace["preprocess"]),
        "--data", str(workspace["data"]), "--config", str(workspace["config"]),
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (error_line,) = captured.err.splitlines()
    assert error_line.startswith(f"error: cannot write {out}")
    assert not out.parent.exists()


# --out command, the writer it runs (patched where it is defined, since each command
# imports its writer when it runs), where the writer takes its path
FAILING_OUT_WRITERS = {
    "predict": ("qshield.pipeline.write_predictions_csv", -1),
    "kernel": ("qshield.qkernel.write_kernel_csv", -1),
    "explain": ("qshield.explain.write_attribution_csv", 1),
}


@pytest.mark.parametrize("command", sorted(FAILING_OUT_WRITERS))
def test_out_writer_failing_midway_leaves_no_file(
    command, workspace, tmp_path, monkeypatch, capsys
):
    # like run, train and preprocess, the --out commands publish a file whole or not at all
    writer, path_at = FAILING_OUT_WRITERS[command]

    def write_half(*args, **kwargs):
        with open(args[path_at], "w", encoding="utf-8") as fh:
            fh.write("sample_index,prob")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(writer, write_half)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "x.csv"
    model = ["--model", str(workspace["model"])] if command != "kernel" else []
    capsys.readouterr()
    code = main([
        command, *model, "--preprocess-model", str(workspace["preprocess"]),
        "--data", str(workspace["data"]), "--config", str(workspace["config"]),
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (error_line,) = captured.err.splitlines()
    assert error_line.startswith(f"error: cannot write {out}")
    assert "No space left on device" in error_line
    assert list(out_dir.iterdir()) == []
