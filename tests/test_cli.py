"""Command-line interface tests, run in-process through main()."""
import argparse
import csv
import hashlib
import hmac
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    DIGITS_5000,
    NESTED_100000,
    holding_out_dir,
    spliced,
    teacher_vqc_dataset,
    traced_peak,
)

import qshield
from qshield import cli
from qshield.cli import main
from qshield.pipeline import (
    FORMAT_VERSION,
    PipelineConfig,
    load_model,
    predict_labels,
    preprocess_experiment,
    save_model,
    write_predictions_csv,
)
from qshield.preprocess import Dataset, load_csv, write_csv


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


def _flat_support_vectors(p):
    p["support_vectors"] = [0.5, 1.5, 2.5]


def _objective_history_key(p):
    p["objective_history"] = [0.0, 0.5]


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


def _null_support_vectors(p):
    p["support_vectors"] = None


def _empty_support_set(p):
    p["dual_coeffs"], p["support_indices"], p["support_vectors"] = [], [], []


def _null_svm_feature_map(p):
    p["feature_map"] = None


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


def _params_nested_100000_deep(p):
    return spliced(p, ("params",), NESTED_100000)


def _bias_of_5000_digits(p):
    return spliced(p, ("bias",), DIGITS_5000)


def _means_nested_100000_deep(p):
    return spliced(p, ("means",), NESTED_100000)


def _mean_of_5000_digits(p):
    return spliced(p, ("means", 0), DIGITS_5000)


# (edit, which model file it applies to, text the one error line must contain); an
# edit changes the parsed file in place, or returns the file's new text when no
# parsed value can stand for it
MALFORMED_MODELS = {
    "short_dual_coeffs": (_drop_last_coeff, "qsvm", "dual_coeffs"),
    "narrow_support_vectors": (_narrow_support_vectors, "qsvm", "support vectors"),
    "flat_support_vectors": (
        _flat_support_vectors, "qsvm", "support_vectors must be 2-D rows, got shape (3,)"
    ),
    "objective_history_key": (_objective_history_key, "qsvm", "['objective_history']"),
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
    "null_support_vectors": (
        _null_support_vectors, "qsvm", "qsvm.support_vectors must not be null"
    ),
    "empty_support_set": (_empty_support_set, "qsvm", "support_vectors is empty"),
    "null_svm_feature_map": (_null_svm_feature_map, "qsvm", "qsvm.feature_map must not be null"),
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
    "params_nested_100000_deep": (
        _params_nested_100000_deep, "vqc", "model.json is not valid JSON"
    ),
    "bias_of_5000_digits": (_bias_of_5000_digits, "qsvm", "model.json is not valid JSON"),
    "means_nested_100000_deep": (
        _means_nested_100000_deep, "preprocess", "model.json is not valid JSON"
    ),
    "mean_of_5000_digits": (_mean_of_5000_digits, "preprocess", "model.json is not valid JSON"),
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
    "correlation_threshold_zero": (
        {"preprocess": {"correlation_threshold": 0}}, "correlation_threshold"
    ),
    "outlier_z_cap_zero": ({"preprocess": {"outlier_z_cap": 0}}, "outlier_z_cap"),
    "pca_components_zero": ({"preprocess": {"pca_components": 0}}, "pca_components"),
    "learning_rate_zero": ({"training": {"learning_rate": 0}}, "learning_rate"),
    "batch_size_zero": ({"training": {"batch_size": 0}}, "batch_size"),
    "encoding_basis": ({"model": {"encoding": "basis"}}, "encoding"),
    "epochs_zero": ({"training": {"epochs": 0}}, "epochs"),
    "vqc_ensemble_weights_text": ({"model": {"ensemble_weights": "ab"}}, "model.ensemble_weights"),
    "vqc_ensemble_weights_negative": ({"model": {"ensemble_weights": [1, -1]}}, "ensemble_weights"),
    "seed_flag_negative": ({}, "seed"),
    "svm_tol_negative": ({"model": {"svm_tol": -1}}, "svm_tol"),
    "svm_tol_two": ({"model": {"type": "qsvm", "n_qubits": 2, "svm_tol": 2}}, "svm_tol"),
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
    "seed_repeated": ('{"seed": 1, "seed": 2}', "repeats the key 'seed'"),
    "seed_of_5000_digits": ('{"seed": ' + DIGITS_5000 + "}", "bad.json is not valid JSON"),
    "seed_nested_100000_deep": ('{"seed": ' + NESTED_100000 + "}", "bad.json is not valid JSON"),
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


# what every command that reads a config loads, then the qshield modules each command
# loads on top of those (the command's own layers and what they import)
CONFIG_LAYERS = {"cli", "errors", "limits", "pipeline", "preprocess"}
LAYERS_BY_COMMAND = {
    "preprocess": set(),
    "run vqc": {"vqc", "encoding", "statevector", "evalstats"},
    "run qsvm": {"qkernel", "encoding", "statevector", "evalstats"},
    "train ensemble": {"vqc", "qkernel", "encoding", "statevector"},
    "predict": {"vqc", "encoding", "statevector"},
    "evaluate": {"vqc", "encoding", "statevector", "evalstats"},
    "explain": {"vqc", "encoding", "statevector", "explain"},
    "kernel": {"qkernel", "encoding", "statevector"},
}

# main(argv) in a new interpreter: its exit code, then every qshield module loaded
MODULES_IN_CHILD = """
import contextlib, io, sys
from qshield.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "qshield"))
"""

# main(argv) in a new interpreter: its exit code, then the qshield modules loaded when
# the command first reached load_csv
MODULES_AT_LOAD_CSV = """
import contextlib, io, sys
import qshield.pipeline as pipeline
from qshield.cli import main
load_csv, seen = pipeline.load_csv, []

def recording(*args, **kwargs):
    seen.append(sorted(m for m in sys.modules if m.startswith("qshield.")))
    return load_csv(*args, **kwargs)

pipeline.load_csv = recording
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *seen[0])
"""


def command_args(command: str, workspace, tmp_path) -> list[str]:
    """The arguments of one ``LAYERS_BY_COMMAND`` case on the shared workspace."""
    name, _, model_type = command.partition(" ")
    config = workspace["config"]
    if model_type == "qsvm":
        config = tmp_path / "qsvm.json"
        raw = json.loads(workspace["config"].read_text())
        config.write_text(json.dumps({**raw, "model": {**raw["model"], "type": "qsvm"}}))
    data = ["--data", str(workspace["data"]), "--config", str(config)]
    scored = ["--model", str(workspace["model"]), "--preprocess-model", str(workspace["preprocess"])]
    return {
        "preprocess": ["preprocess", *data, "--out-dir", str(tmp_path / "out")],
        "run": ["run", *data, "--out-dir", str(tmp_path / "out")],
        "train": ["train", model_type, *data, "--out-dir", str(tmp_path / "out")],
        "predict": ["predict", *scored, *data, "--out", str(tmp_path / "p.csv")],
        "evaluate": ["evaluate", *scored, *data],
        "explain": ["explain", *scored, *data],
        "kernel": ["kernel", *data, "--preprocess-model", str(workspace["preprocess"]),
                   "--out", str(tmp_path / "k.csv")],
    }[name]


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

    @pytest.mark.parametrize("command", sorted(LAYERS_BY_COMMAND))
    def test_command_loads_exactly_its_layers(self, command, workspace, tmp_path):
        args = command_args(command, workspace, tmp_path)
        child = subprocess.run([sys.executable, "-c", MODULES_IN_CHILD, *args],
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        expected = sorted(f"qshield.{m}" for m in CONFIG_LAYERS | LAYERS_BY_COMMAND[command])
        assert child.stdout.split() == ["0", "qshield", *expected]

    @pytest.mark.parametrize("command", ["run vqc", "run qsvm", "train ensemble"])
    def test_model_layers_load_before_the_csv(self, command, workspace, tmp_path):
        # compiled after the load, a layer's compiler heap would sit on top of the matrix
        args = command_args(command, workspace, tmp_path)
        child = subprocess.run([sys.executable, "-c", MODULES_AT_LOAD_CSV, *args],
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        expected = sorted(f"qshield.{m}" for m in CONFIG_LAYERS | LAYERS_BY_COMMAND[command])
        assert child.stdout.split() == ["0", *expected]


# main(argv) in a new interpreter: its exit code, then the top-level packages outside
# the standard library that importing the CLI and running the command read from files
# (numpy's Cython extensions also register modules of their own, with no file)
PACKAGES_IN_CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from qshield.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
new = set(sys.modules) - before
loaded = {name.split(".")[0] for name in new if hasattr(sys.modules[name], "__file__")}
print(code, *sorted(loaded - sys.stdlib_module_names))
"""


class TestDependencies:
    """The CLI needs nothing but the standard library and numpy, as pyproject.toml says."""

    def test_cli_import_loads_only_the_standard_library(self):
        code = ("import sys; before = set(sys.modules); import qshield.cli; "
                "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
                "print(*sorted(loaded - sys.stdlib_module_names))")
        assert fresh_python(code) == "qshield\n"

    @pytest.mark.parametrize("command", ["run", "predict"])
    def test_command_loads_only_numpy(self, command, workspace, tmp_path):
        data = ["--data", str(workspace["data"]), "--config", str(workspace["config"])]
        args = {
            "run": ["run", *data, "--out-dir", str(tmp_path / "out")],
            "predict": [
                "predict", *data, "--model", str(workspace["model"]),
                "--preprocess-model", str(workspace["preprocess"]),
                "--out", str(tmp_path / "p.csv"),
            ],
        }[command]
        child = subprocess.run([sys.executable, "-c", PACKAGES_IN_CHILD, *args],
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "0 numpy qshield\n"


# runs one command as "module" (what python -m qshield.cli does) or "main" (the
# qshield.cli:main entry point), then reports whether it loaded numpy.random, whether
# OpenSSL's hash module or libcrypto is in the process (None without /proc), and what
# hashlib, hmac and secrets give afterwards
COMMAND_IN_CHILD = """
import contextlib, io, os, runpy, sys
entry, *argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if entry == "module":
        sys.argv[1:] = argv
        try:
            runpy.run_module("qshield.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    else:
        from qshield.cli import main
        code = main(argv)
maps = "/proc/self/maps"
libcrypto = "libcrypto" in open(maps).read() if os.path.exists(maps) else None
import hashlib, hmac, secrets
print(code, "numpy.random" in sys.modules, sys.modules.get("_hashlib") is not None, libcrypto)
print(hashlib.sha256(b"qshield").hexdigest(), hmac.new(b"key", b"qshield", "sha256").hexdigest())
print(len(secrets.token_hex(16)))
"""


class TestFootprint:
    """A command maps no OpenSSL: numpy.random would load it for an entropy source
    that seeded generators never read. Library imports keep it."""

    @pytest.fixture(scope="class")
    def commands(self, workspace):
        root = workspace["root"]
        qsvm_config = root / "qsvm_config.json"
        config = json.loads(workspace["config"].read_text())
        qsvm_config.write_text(json.dumps({**config, "model": {"type": "qsvm", "n_qubits": 2}}))
        data = ["--data", str(workspace["data"])]
        return {
            "run_vqc": ["run", *data, "--config", str(workspace["config"])],
            "run_qsvm": ["run", *data, "--config", str(qsvm_config)],
            "train_ensemble": ["train", "ensemble", *data, "--config", str(workspace["config"])],
            "evaluate": [
                "evaluate", *data, "--config", str(workspace["config"]),
                "--model", str(workspace["model"]),
                "--preprocess-model", str(workspace["preprocess"]),
            ],
        }

    @pytest.mark.parametrize("entry", ["module", "main"])
    @pytest.mark.parametrize("command", ["run_vqc", "run_qsvm", "train_ensemble", "evaluate"])
    def test_command_loads_no_openssl(self, commands, command, entry, tmp_path):
        args = commands[command]
        if command != "evaluate":
            args = [*args, "--out-dir", str(tmp_path / "out")]
        child = subprocess.run([sys.executable, "-c", COMMAND_IN_CHILD, entry, *args],
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        status, digests, token_length = child.stdout.splitlines()
        code, numpy_random, hashlib_loaded, libcrypto = status.split()
        assert (code, numpy_random, hashlib_loaded) == ("0", "True", "False")
        if libcrypto != "None":
            assert libcrypto == "False"
        assert digests.split() == [
            hashlib.sha256(b"qshield").hexdigest(),
            hmac.new(b"key", b"qshield", "sha256").hexdigest(),
        ]
        assert token_length == "32"

    def test_library_import_keeps_openssl(self):
        code = "import sys, qshield.pipeline, numpy.random; print(sys.modules.get('_hashlib', 0))"
        assert fresh_python(code) != "None\n"


# every option of each command, as its --help names it
COMMAND_OPTIONS = {
    "run": ["--data", "--config", "--seed", "--out-dir"],
    "preprocess": ["--data", "--config", "--out-dir"],
    "train": ["--data", "--config", "--seed", "--out-dir"],
    "predict": ["--model", "--preprocess-model", "--data", "--config", "--out"],
    "explain": [
        "--model", "--preprocess-model", "--data", "--config", "--method", "--row", "--out",
    ],
    "evaluate": ["--model", "--preprocess-model", "--data", "--config", "--seed"],
    "kernel": ["--data", "--config", "--preprocess-model", "--out"],
}


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

    @pytest.mark.parametrize("command, options", sorted(COMMAND_OPTIONS.items()))
    def test_command_help_names_every_option(self, command, options, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"(?<![\w-])--[\w-]+", out)) == {"--help", *options}
        assert ("MODEL_TYPE" in out) == (command == "train")


class TestUsageErrors:
    """A usage error is one "error:" line on stderr and exit 1, before any file is written."""

    @pytest.mark.parametrize("args", [
        [],
        ["frobnicate"],
        ["run", "--data", "x.csv"],
        ["explain", "--model", "m.json", "--data", "x.csv", "--method", "shap"],
        ["run", "--data", "x.csv", "--out-dir", "out", "--seed", "x"],
        # no option takes an abbreviation: --out is not --out-dir
        ["run", "--data", "x.csv", "--out", "out"],
        ["train", "tree", "--data", "x.csv", "--out-dir", "out"],
        # an empty path would mean the working directory
        ["train", "--data", "x.csv", "--out-dir", ""],
        ["run", "--data", "x.csv", "--out-dir", ""],
        ["run", "--data", "", "--out-dir", "out"],
        ["predict", "--model", "m.json", "--data", "x.csv", "--out", ""],
        ["explain", "--model", "m.json", "--data", "x.csv", "--out", ""],
        ["kernel", "--data", "x.csv", "--config", "", "--out", "k.csv"],
        ["evaluate", "--model", "m.json", "--data", "x.csv", "--preprocess-model", ""],
    ], ids=repr)
    def test_one_error_line(self, args, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (error_line,) = captured.err.splitlines()
        assert error_line.startswith("error: qshield")
        assert list(tmp_path.iterdir()) == []

    def test_empty_path_names_its_option(self, capsys):
        assert main(["train", "--data", "x.csv", "--out-dir", ""]) == 1
        assert capsys.readouterr().err == "error: qshield train: argument --out-dir: empty path\n"

    def test_row_out_of_range_is_one_line(self, workspace, capsys):
        capsys.readouterr()
        code = main([
            "explain", "--model", str(workspace["model"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--row", "99",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: row 99 outside 0..{workspace['n_samples'] - 1}\n"


class TestRun:
    def test_interrupt_is_aborted_and_exits_1(self, workspace, tmp_path, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("qshield.pipeline.run_experiment", interrupted)
        capsys.readouterr()
        code = main([
            "run", "--data", str(workspace["data"]), "--out-dir", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert (captured.out, captured.err) == ("", "aborted\n")

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

    @pytest.mark.parametrize("command", [["run"], ["train"]], ids=["run", "train"])
    @pytest.mark.parametrize("model_type", ["vqc", "ensemble", "qsvm"])
    def test_amplitude_vqc_is_one_note(self, command, model_type, workspace, tmp_path, capsys):
        # warned, not refused: the model cannot tell x from -x (ROADMAP item 15)
        config = json.loads(workspace["config"].read_text())
        config["model"].update(type=model_type, encoding="amplitude")
        amplitude = tmp_path / "amplitude.json"
        amplitude.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        capsys.readouterr()
        code = main([
            *command, "--data", str(workspace["data"]),
            "--config", str(amplitude), "--out-dir", str(out_dir),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert (out_dir / "model.json").exists()
        if model_type == "qsvm":  # the kernel's feature map is the angle one
            assert captured.err == ""
        else:
            note = "note: an amplitude-encoded VQC (model.encoding) scores every row x and -x"
            assert captured.err.startswith(note) and captured.err.count("\n") == 1


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

    def test_processed_csv_trains_under_the_same_config(self, tmp_path, capsys):
        # processed.csv names and fills its label column as data.label_column and
        # data.positive_label say, so the config that wrote it reads it back
        data = tmp_path / "data.csv"
        data.write_text("a,class,b\n" + "".join(
            f"{i % 5},{'malware' if i % 3 else 'benign'},{(7 * i) % 11}\n" for i in range(18)
        ))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"label_column": "class", "positive_label": "malware"},
            "model": {"n_qubits": 2, "n_layers": 1, "repetitions": 1},
            "training": {"epochs": 2},
        }))
        out_dir = tmp_path / "pre"
        assert main(["preprocess", "--data", str(data), "--config", str(config),
                     "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "processed.csv").read_text().splitlines()
        assert rows[0] == "pc1,pc2,class"
        assert [row.rpartition(",")[2] for row in rows[1:]] == [
            "malware" if i % 3 else "0" for i in range(18)]
        code = main(["train", "vqc", "--data", str(out_dir / "processed.csv"),
                     "--config", str(config), "--out-dir", str(tmp_path / "model")])
        assert code == 0, capsys.readouterr().err
        assert "trained vqc model on 18 rows" in capsys.readouterr().out

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
        # processed.csv appends the data.label_column column; a kept feature of that
        # name (here the first PCA component, pc1) would make a later run read it as
        # the labels
        data = tmp_path / "data.csv"
        data.write_text("a,label,b,pc1\n" + "".join(
            f"{i},{i * i % 7},{(3 * i) % 5},{'mal' if i % 2 else 'ok'}\n" for i in range(12)
        ))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"label_column": "pc1", "positive_label": "mal"},
            "preprocess": {"pca_components": 2},
        }))
        out_dir = tmp_path / "pre"
        code = main([
            "preprocess", "--data", str(data), "--config", str(config), "--out-dir", str(out_dir),
        ])
        assert code == 2
        (error_line,) = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")
        ]
        assert "feature column 'pc1' is named like the label column" in error_line
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

    def test_without_preprocess_model_scores_the_columns_as_they_stand(
        self, workspace, tmp_path
    ):
        # a model file that records no chain, as one saved by save_model
        model = tmp_path / "model.json"
        save_model(load_model(workspace["model"], ("vqc",)), model)
        out = tmp_path / "preds.csv"
        code = main([
            "predict", "--model", str(model), "--data", str(workspace["data"]),
            "--config", str(workspace["config"]), "--out", str(out),
        ])
        assert code == 0
        raw = load_csv(workspace["data"], "label", "1").features
        write_predictions_csv(*predict_labels(load_model(model, ("vqc",)), raw),
                              tmp_path / "expected.csv")
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_model_exits_2(
        self, case, workspace, svm_model, pca_preprocess, tmp_path, capsys
    ):
        edit, kind, named = MALFORMED_MODELS[case]
        sources = {"qsvm": svm_model, "vqc": workspace["model"], "preprocess": pca_preprocess}
        payload = json.loads(sources[kind].read_text())
        text = edit(payload)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload) if text is None else text)
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

    def test_model_file_repeating_a_key_exits_2(self, workspace, tmp_path, capsys):
        # json alone would keep the last value; the nested key is refused by name
        text = workspace["model"].read_text()
        repeated = text.replace('"repetitions": 1', '"repetitions": 1, "repetitions": 2', 1)
        assert repeated != text
        bad = tmp_path / "model.json"
        bad.write_text(repeated)
        capsys.readouterr()
        code = main([
            "predict", "--model", str(bad), "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]), "--config", str(workspace["config"]),
            "--out", str(tmp_path / "p.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        (error_line,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert f"model file {bad} repeats the key 'repetitions'" in error_line
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

    def test_preprocessing_fitted_with_a_byte_order_mark_scores_a_file_without(
        self, workspace, tmp_path
    ):
        # Excel's "CSV UTF-8" starts the file with one; no fitted name may keep it
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + workspace["data"].read_text(), encoding="utf-8")
        assert main([
            "train", "--data", str(marked), "--config", str(workspace["config"]),
            "--out-dir", str(tmp_path / "marked"),
        ]) == 0
        fitted = tmp_path / "marked" / "preprocess.json"
        assert fitted.read_bytes() == workspace["preprocess"].read_bytes()
        predictions = []
        for i, model in enumerate([tmp_path / "marked" / "model.json", workspace["model"]]):
            out = tmp_path / f"p{i}.csv"
            assert main([
                "predict", "--model", str(model), "--preprocess-model", str(fitted),
                "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                "--out", str(out),
            ]) == 0
            predictions.append(out.read_bytes())
        assert predictions[0] == predictions[1]

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

    def test_scoring_frees_the_raw_matrix_once_standardized(self, tmp_path):
        # predict, evaluate, explain and kernel load and transform their CSV here:
        # the replay overwrites the loaded matrix, so beyond ingest's own peak it
        # holds row blocks and the projected rows, not a standardized copy
        rng = np.random.default_rng(31)
        data = Dataset([f"f{j}" for j in range(80)], rng.normal(size=(4000, 80)),
                       rng.integers(0, 2, 4000))
        write_csv(data, tmp_path / "data.csv")
        preprocess_experiment(PipelineConfig(), tmp_path / "data.csv", tmp_path / "pre")
        args = argparse.Namespace(data=str(tmp_path / "data.csv"),
                                  preprocess_model=str(tmp_path / "pre" / "preprocess.json"))
        scored, peak = traced_peak(cli._load_and_transform, PipelineConfig(), args)
        assert scored.features.shape == (4000, 4)
        assert peak <= 1.4 * data.features.nbytes

    def test_model_reading_more_columns_than_the_csv_has(
        self, workspace, pca_preprocess, tmp_path
    ):
        # each column three times, each third of the basis a third as long: the same map,
        # but wider than the loaded rows, so the replay cannot compact them in place (a
        # write past the loaded buffer shows as the child's abort when it frees it)
        pre = json.loads(pca_preprocess.read_text())
        tripled = {key: value * 3 for key, value in pre.items()
                   if key in ("means", "std_devs", "kept_columns", "pca_center")}
        tripled["pca_basis"] = [[v / 3 for v in row] for row in pre["pca_basis"]] * 3
        (tmp_path / "tripled.json").write_text(json.dumps({**pre, **tripled}))
        model = tmp_path / "model.json"  # records no chain, so it scores behind either
        save_model(load_model(workspace["model"], ("vqc",)), model)
        rows = {}
        for name, path in (("fitted", pca_preprocess), ("tripled", tmp_path / "tripled.json")):
            assert main_in_child(
                "predict", "--model", str(model), "--preprocess-model", str(path),
                "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                "--out", str(tmp_path / f"{name}.csv"),
            ).startswith("0 ")
            with open(tmp_path / f"{name}.csv", newline="") as fh:
                rows[name] = list(csv.DictReader(fh))
        assert len(pre["kept_columns"]) == 2 and len(rows["tripled"]) == workspace["n_samples"]
        for got, want in zip(rows["tripled"], rows["fitted"]):
            assert got["label"] == want["label"]
            assert float(got["probability"]) == pytest.approx(float(want["probability"]), abs=1e-12)


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


class TestChainBinding:
    """A model file from run or train records the SHA-256 of its preprocess.json, and the
    scorers refuse it (exit 2, one error line) behind another chain or none."""

    SCORERS = ("evaluate", "explain", "predict")

    def score(self, command, model, chain, workspace, tmp_path) -> int:
        out = ["--out", str(tmp_path / f"{command}.csv")] if command != "evaluate" else []
        chain_args = ["--preprocess-model", str(chain)] if chain else []
        return main([command, "--model", str(model), *chain_args, "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]), *out])

    def test_model_records_the_sha256_of_its_chain_bytes(self, workspace):
        recorded = json.loads(workspace["model"].read_text())["preprocess_sha256"]
        assert recorded == hashlib.sha256(workspace["preprocess"].read_bytes()).hexdigest()

    @pytest.mark.parametrize("command", SCORERS)
    def test_foreign_chain_refused(self, command, workspace, pca_preprocess, tmp_path, capsys):
        capsys.readouterr()
        assert self.score(command, workspace["model"], pca_preprocess, workspace, tmp_path) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == (f"error: model file {workspace['model']} was not trained behind "
                        f"--preprocess-model {pca_preprocess}: its SHA-256 differs")
        assert captured.out == "" and not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("command", SCORERS)
    def test_no_chain_refused(self, command, workspace, tmp_path, capsys):
        capsys.readouterr()
        assert self.score(command, workspace["model"], None, workspace, tmp_path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"error: model file {workspace['model']} was trained behind a "
                        "preprocess.json; give that file as --preprocess-model")

    @pytest.mark.parametrize("command", SCORERS)
    def test_model_without_the_key_scores_behind_any_chain(
        self, command, workspace, pca_preprocess, tmp_path
    ):
        model = tmp_path / "model.json"
        save_model(load_model(workspace["model"], ("vqc",)), model)
        assert "preprocess_sha256" not in json.loads(model.read_text())
        for chain in (None, workspace["preprocess"], pca_preprocess):
            assert self.score(command, model, chain, workspace, tmp_path) == 0

    def test_wider_model_behind_a_narrower_chain(self, tmp_path, capsys):
        # a 6-qubit model fitted behind 6 PCA components scored through a 4-component
        # chain: 4 features fit on 6 qubits, so only the recorded digest tells them apart
        rng = np.random.default_rng(11)
        for name, seed in (("six.csv", 0), ("four.csv", 1)):
            rows = np.random.default_rng(seed).normal(size=(40, 10))
            write_csv(Dataset([f"f{j}" for j in range(10)], rows, rng.integers(0, 2, 40)),
                      tmp_path / name)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"type": "vqc", "n_qubits": 6, "n_layers": 1, "repetitions": 1},
            "training": {"epochs": 1}, "evaluation": {"bootstrap_iterations": 100},
        }))
        assert main(["train", "vqc", "--data", str(tmp_path / "six.csv"), "--config", str(config),
                     "--out-dir", str(tmp_path / "vqc")]) == 0
        assert main(["preprocess", "--data", str(tmp_path / "four.csv"),
                     "--out-dir", str(tmp_path / "pre")]) == 0
        model, own, foreign = (tmp_path / "vqc" / "model.json", tmp_path / "vqc" / "preprocess.json",
                               tmp_path / "pre" / "preprocess.json")
        assert len(json.loads(foreign.read_text())["pca_basis"][0]) == 4
        capsys.readouterr()
        args = ["predict", "--model", str(model), "--data", str(tmp_path / "four.csv")]
        assert main([*args, "--preprocess-model", str(foreign), "--out", str(tmp_path / "x.csv")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert str(model) in line and str(foreign) in line
        assert main([*args, "--preprocess-model", str(own), "--out", str(tmp_path / "y.csv")]) == 0

    def test_preprocess_into_the_run_directory(self, workspace, tmp_path, capsys):
        # preprocess may replace the preprocess.json of a run in the same directory; the
        # run's model.json is then refused beside it
        out = tmp_path / "out"
        common = ["--data", str(workspace["data"]), "--config", str(workspace["config"])]
        assert main(["run", *common, "--out-dir", str(out)]) == 0
        predict = ["predict", "--model", str(out / "model.json"),
                   "--preprocess-model", str(out / "preprocess.json"), *common]
        assert main([*predict, "--out", str(tmp_path / "before.csv")]) == 0
        pca = tmp_path / "pca.json"
        pca.write_text(json.dumps({"preprocess": {"pca_components": 2}}))
        assert main(["preprocess", "--data", str(workspace["data"]), "--config", str(pca),
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main([*predict, "--out", str(tmp_path / "after.csv")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert str(out / "model.json") in line and str(out / "preprocess.json") in line
        assert not (tmp_path / "after.csv").exists()


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

    def test_kernel_command_runs_no_eigensolver(self, workspace, tmp_path, monkeypatch):
        # the Gram is symmetric, unit-diagonal and PSD by construction, so the
        # command publishes it without an O(n^3) check (tests/test_kernel_fuzz.py holds it)
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel command called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        out = tmp_path / "gram.csv"
        code = main([
            "kernel", "--data", str(workspace["data"]),
            "--preprocess-model", str(workspace["preprocess"]),
            "--config", str(workspace["config"]), "--out", str(out),
        ])
        assert code == 0
        n = workspace["n_samples"]
        assert np.loadtxt(out, delimiter=",").shape == (n, n)


def _write_benchmark_csv(path, rows: int, seed: int, stream: int) -> None:
    """The recipe of the ensemble-score benchmark: 20 N(0, 1) columns, f5 near f4."""
    rng = np.random.default_rng([seed, stream])
    x = rng.standard_normal((rows, 20))
    x[:, 5] = x[:, 4] + 0.01 * rng.standard_normal(rows)
    labels = (x[:, 0] + 0.7 * x[:, 1] + 0.3 * rng.standard_normal(rows) > 0).astype(int)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"f{j}" for j in range(20)] + ["label"]) + "\n")
        for values, label in zip(x.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, values)) + f",{label}\n")


@pytest.fixture(scope="module")
def scoring_files(tmp_path_factory):
    """An ensemble trained as in the ensemble-score benchmark, its score.csv, and
    that file with the label column cut (unlabelled.csv)."""
    root = tmp_path_factory.mktemp("unlabelled")
    config = root / "config.json"
    config.write_text(json.dumps({
        "seed": 0, "training": {"epochs": 2},
        "model": {"type": "ensemble", "n_qubits": 4, "n_layers": 2, "repetitions": 2,
                  "svm_c": 0.1},
    }))
    _write_benchmark_csv(root / "data.csv", 80, 0, 0)
    _write_benchmark_csv(root / "score.csv", 20, 0, 1)
    with open(root / "score.csv", newline="") as src, \
            open(root / "unlabelled.csv", "w", newline="") as dst:
        csv.writer(dst).writerows(row[:-1] for row in csv.reader(src))
    assert main([
        "train", "--data", str(root / "data.csv"), "--config", str(config),
        "--out-dir", str(root / "model"),
    ]) == 0
    return {
        "labelled": root / "score.csv",
        "unlabelled": root / "unlabelled.csv",
        "config": config,
        "model": root / "model" / "model.json",
        "preprocess": root / "model" / "preprocess.json",
    }


class TestUnlabelledData:
    """predict, explain and kernel read no labels, so they score a CSV without the
    label column exactly as the same rows with it; evaluate needs the labels."""

    def run_on_both(self, files, tmp_path, capsys, command, *args):
        """(stdout, bytes of the --out file) of the command on each file."""
        capsys.readouterr()
        outputs = []
        for kind in ("labelled", "unlabelled"):
            out = tmp_path / f"{kind}.csv"
            code = main([
                command, *args, "--preprocess-model", str(files["preprocess"]),
                "--data", str(files[kind]), "--config", str(files["config"]),
                "--out", str(out),
            ])
            assert code == 0
            outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), out.read_bytes()))
        return outputs

    def test_predict_writes_identical_predictions(self, scoring_files, tmp_path, capsys):
        model = ["--model", str(scoring_files["model"])]
        labelled, unlabelled = self.run_on_both(scoring_files, tmp_path, capsys, "predict", *model)
        assert labelled == unlabelled

    def test_explain_gives_the_same_attribution(self, scoring_files, tmp_path, capsys):
        # an ensemble takes the SCORE method only
        args = ["--model", str(scoring_files["model"]), "--method", "score", "--row", "3"]
        labelled, unlabelled = self.run_on_both(scoring_files, tmp_path, capsys, "explain", *args)
        assert labelled == unlabelled

    def test_kernel_writes_the_same_gram(self, scoring_files, tmp_path, capsys):
        labelled, unlabelled = self.run_on_both(scoring_files, tmp_path, capsys, "kernel")
        assert labelled == unlabelled

    @pytest.mark.parametrize("command", ["evaluate", "run", "train", "preprocess"])
    def test_commands_reading_labels_still_need_the_column(
        self, command, scoring_files, tmp_path, capsys
    ):
        files = scoring_files
        args = {
            "evaluate": ["--model", str(files["model"]),
                         "--preprocess-model", str(files["preprocess"])],
        }.get(command, ["--out-dir", str(tmp_path / "out")])
        capsys.readouterr()
        code = main([
            command, *args, "--data", str(files["unlabelled"]), "--config", str(files["config"]),
        ])
        captured = capsys.readouterr()
        assert code == 2
        (error_line,) = captured.err.splitlines()
        assert "label column 'label' not found in header" in error_line


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


@pytest.mark.parametrize("command", ["predict", "evaluate", "explain", "kernel"])
def test_wrong_chain_refused_before_the_csv_is_read(
    command, workspace, tmp_path, capsys, monkeypatch
):
    # a classifier file given as the chain is refused without parsing --data at all
    def unread(*args, **kwargs):
        raise AssertionError("load_csv ran before the chain was checked")

    monkeypatch.setattr("qshield.preprocess.load_csv", unread)
    model = ["--model", str(workspace["model"])] if command != "kernel" else []
    out = ["--out", str(tmp_path / "x.csv")] if command in ("predict", "kernel") else []
    capsys.readouterr()
    code = main([
        command, *model, "--preprocess-model", str(workspace["model"]),
        "--data", str(workspace["data"]), "--config", str(workspace["config"]), *out,
    ])
    captured = capsys.readouterr()
    assert code == 2
    (error_line,) = captured.err.splitlines()
    assert error_line.startswith(f"error: model type mismatch in {workspace['model']}")
    assert not (tmp_path / "x.csv").exists()


# --out command, the writer it runs (patched where it is defined, since each command
# imports its writer when it runs); every writer takes its path last
FAILING_OUT_WRITERS = {
    "predict": "qshield.pipeline.write_predictions_csv",
    "kernel": "qshield.qkernel.write_kernel_csv",
    "explain": "qshield.explain.write_attribution_csv",
}


@pytest.mark.parametrize("command", sorted(FAILING_OUT_WRITERS))
def test_out_writer_failing_midway_leaves_no_file(
    command, workspace, tmp_path, monkeypatch, capsys
):
    # like run, train and preprocess, the --out commands publish a file whole or not at all
    writer = FAILING_OUT_WRITERS[command]

    def write_half(*args):
        with open(args[-1], "w", encoding="utf-8") as fh:
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


# --out-dir command, the first writer it runs (patched where it is defined), its artifact
FAILING_OUT_DIR_WRITERS = {
    "run": ("qshield.pipeline._write_text", "model.json"),
    "train": ("qshield.pipeline._write_text", "model.json"),
    "preprocess": ("qshield.pipeline.write_csv", "processed.csv"),
}


@pytest.mark.parametrize("command", sorted(FAILING_OUT_DIR_WRITERS))
def test_out_dir_writer_failing_midway_exits_1(
    command, workspace, tmp_path, monkeypatch, capsys
):
    # a failed artifact write ends every command the same way as the --out commands
    writer, artifact = FAILING_OUT_DIR_WRITERS[command]

    def write_half(*args, **kwargs):  # write_csv takes the label names by keyword
        with open(args[-1], "w", encoding="utf-8") as fh:
            fh.write("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(writer, write_half)
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = main([
        command, "--data", str(workspace["data"]), "--config", str(workspace["config"]),
        "--out-dir", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (error_line,) = captured.err.splitlines()
    assert error_line.startswith("error: ")
    assert f"cannot write {out_dir / artifact}: [Errno 28] No space left on device" in error_line
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("out", [".", "/", "sub/", "sub/.", ".."])
@pytest.mark.parametrize("command", ["predict", "kernel", "explain"])
def test_out_naming_no_file_exits_1(command, out, workspace, tmp_path, capsys, monkeypatch):
    root = tmp_path / "root"
    (root / "sub").mkdir(parents=True)
    monkeypatch.chdir(root)
    model = ["--model", str(workspace["model"])] if command != "kernel" else []
    capsys.readouterr()
    code = main([
        command, *model, "--preprocess-model", str(workspace["preprocess"]),
        "--data", str(workspace["data"]), "--config", str(workspace["config"]),
        "--out", out,
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: the path names no file\n"
    assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == [Path("root"),
                                                                      Path("root/sub")]


# the commands that score rows with --model, and the options each needs besides it
SCORING_COMMANDS = {
    "predict": ["predict", "--out", "p.csv"],
    "evaluate": ["evaluate"],
    "explain --method score": ["explain", "--method", "score"],
    "explain --method grad": ["explain", "--method", "grad"],
}


@pytest.mark.parametrize("case", sorted(SCORING_COMMANDS))
def test_preprocess_file_as_the_model_exits_2(case, workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = main([
        *SCORING_COMMANDS[case], "--model", str(workspace["preprocess"]),
        "--data", str(workspace["data"]), "--config", str(workspace["config"]),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: model type mismatch in {workspace['preprocess']}: "
        "expected 'vqc' or 'qsvm' or 'ensemble', found 'preprocess'\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", sorted(SCORING_COMMANDS))
def test_ensemble_with_a_preprocess_member_exits_2(case, workspace, tmp_path, capsys,
                                                   monkeypatch):
    members = [json.loads(workspace[key].read_text()) for key in ("model", "preprocess")]
    for member in members:
        del member["format_version"]
    bad = tmp_path / "ensemble.json"
    bad.write_text(json.dumps({"format_version": FORMAT_VERSION, "model_type": "ensemble",
                               "members": members, "weights": [1, 1]}))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = main([
        *SCORING_COMMANDS[case], "--model", str(bad),
        "--preprocess-model", str(workspace["preprocess"]),
        "--data", str(workspace["data"]), "--config", str(workspace["config"]),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: model file {bad} is invalid: "
        "ensemble.members[1] is a preprocess model, not a classifier\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ensemble.json"]


def _huge_qubit_config(workspace, svm_model, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"n_qubits": [0] * 200_000}}))
    return ["run", "--data", str(workspace["data"]), "--config", str(config),
            "--out-dir", str(tmp_path / "out")]


def _wide_unlabelled_csv(workspace, svm_model, tmp_path):
    data = tmp_path / "wide.csv"
    data.write_text(",".join(f"c{j}" for j in range(100_000)) + "\n" + "0," * 99_999 + "0\n")
    return ["preprocess", "--data", str(data), "--out-dir", str(tmp_path / "out")]


def _long_bias_model(workspace, svm_model, tmp_path):
    payload = json.loads(svm_model.read_text())
    payload["bias"] = [0.5] * 100_000
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    return ["predict", "--model", str(model), "--preprocess-model", str(workspace["preprocess"]),
            "--data", str(workspace["data"]), "--config", str(workspace["config"]),
            "--out", str(tmp_path / "p.csv")]


# an error message may quote a huge bad input whole: case -> (arguments, exit code, the
# name the printed line must keep)
HUGE_INPUTS = {
    "config_list_as_n_qubits": (_huge_qubit_config, 1, "model.n_qubits"),
    "csv_without_label_column": (_wide_unlabelled_csv, 2, "label"),
    "model_list_as_bias": (_long_bias_model, 2, "qsvm.bias"),
}


@pytest.mark.parametrize("case", sorted(HUGE_INPUTS))
def test_error_line_quoting_a_huge_input_is_cut(case, workspace, svm_model, tmp_path, capsys):
    make_args, exit_code, named = HUGE_INPUTS[case]
    args = make_args(workspace, svm_model, tmp_path)
    capsys.readouterr()
    code = main(args)
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == ""
    (error_line,) = captured.err.splitlines()
    assert error_line.startswith("error: ") and len(error_line) <= 1000
    assert named in error_line and error_line.endswith("characters cut]")
