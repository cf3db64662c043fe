"""The benchmark's workloads: seeded inputs, the command each one times, and output checks.

Every input is generated here from the run's seed, with this module's own
CSV writer; qshield receives only the CSV files and a config file. The data
follows the baseline recipe of ROADMAP.md: features are i.i.d. N(0, 1),
column 5 is column 4 plus 0.01 * noise (so correlation pruning drops one
column), and label = [x0 + 0.7 * x1 + 0.3 * noise > 0].

Sizes were chosen so that one command takes about 1 to 2 seconds on a 2-core
x86 machine. On a host shared with other tenants, speed drifts by up to half
over seconds to minutes; the median of the ten to twenty commands a run then
fits in is far steadier than the median of a few long ones. The layer each
workload is meant to stress still takes most of its time (see SHARES).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
TOLERANCE = 1e-9
PROBE_QUBITS = (4, 8, 12, 16)  # state sizes of the gate-kernel probe
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run", "predict" or "preprocess"
    rows: int
    features: int
    config: dict  # config file contents apart from the seed
    shape: str
    why: str
    score_rows: int = 0  # rows of the scored file ("predict" only)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="vqc-train",
            command="run",
            rows=60,
            features=20,
            config={
                "model": {"type": "vqc", "n_qubits": 6, "n_layers": 2, "repetitions": 2},
                "training": {"epochs": 2, "batch_size": None},
            },
            shape="qshield run, model.type=vqc: 6 qubits, 2 layers, 2 repetitions; "
            "60 rows x 20 features; 2 epochs, full batch",
            why="Parameter-shift sweeps in train_vqc over the one-qubit gate kernel "
            "dominate. No kernel or SVM code runs, so Gram and SVM changes should "
            "show no change here.",
        ),
        Workload(
            name="qsvm-train",
            command="run",
            rows=45,
            features=20,
            config={"model": {"type": "qsvm", "n_qubits": 8, "repetitions": 2}},
            shape="qshield run, model.type=qsvm: 8 qubits, 2 repetitions; "
            "45 rows x 20 features (31 train, 14 test, every train row a support vector)",
            why="Gram construction and per-row support-vector kernel prediction "
            "dominate; no VQC training runs. The 8-qubit case shows state-size scaling.",
        ),
        Workload(
            name="ensemble-score",
            command="predict",
            rows=80,
            features=20,
            score_rows=20,
            config={
                "model": {
                    "type": "ensemble",
                    "n_qubits": 4,
                    "n_layers": 2,
                    "repetitions": 2,
                    "svm_c": 0.1,
                },
                "training": {"epochs": 2},
            },
            shape="set-up: qshield train ensemble on 80 rows x 20 features (4 qubits, "
            "2 epochs, svm_c 0.1: 75-79 support vectors); timed: qshield predict on "
            "20 fresh rows",
            why="Inference only: model load, apply_preprocess, a per-row VQC forward and "
            "support-vector kernel entries, then the CSV write. Work moved from "
            "training into model load or scoring shows here and nowhere else.",
        ),
        Workload(
            name="preprocess-wide",
            command="preprocess",
            rows=4000,
            features=80,
            config={},
            shape="qshield preprocess: 4000 rows x 80 features, default config "
            "(4 principal components)",
            why="No quantum code runs, so this is the bypass for every simulator change. "
            "CSV parsing (load_csv) and the Jacobi eigensolve at d=79 dominate.",
        ),
    )
}

# Which per-layer metrics should move which end-to-end metric, on which
# workloads, and where no move is predicted. Layer metric names are given
# without the workload prefix they carry in BENCHMARK.json.
PREDICTIONS = (
    {
        "layer": "statevector",
        "metrics": [
            "statevector.apply_gate.ry_us.n{4,8,12,16}",
            "statevector.apply_gate.cnot_us.n{4,8,12,16}",
            "statevector.run_circuit.calls",
            "statevector.run_circuit.self_s",
        ],
        "moves": ["wall_s", "cpu_s"],
        "on": ["vqc-train", "qsvm-train", "ensemble-score"],
        "no_move_on": ["preprocess-wide"],
    },
    {
        "layer": "encoding",
        "metrics": [
            "encoding.apply_feature_map.calls",
            "encoding.apply_feature_map.total_s",
            "encoding.feature_map_circuit.calls",
            "encoding.feature_map_circuit.total_s",
        ],
        "moves": ["wall_s", "rows_per_s"],
        "on": ["qsvm-train", "ensemble-score"],
        "no_move_on": ["preprocess-wide"],
    },
    {
        "layer": "vqc",
        "metrics": [
            "vqc.train_vqc.total_s",
            "vqc.train_vqc.self_s",
            "vqc.train_vqc.epoch_s",
            "vqc.forward.calls",
            "vqc.forward.total_s",
        ],
        "moves": ["wall_s", "rows_per_s"],
        "on": ["vqc-train", "ensemble-score"],
        "no_move_on": ["qsvm-train", "preprocess-wide"],
    },
    {
        "layer": "qkernel",
        "metrics": [
            "qkernel.kernel_matrix.total_s",
            "qkernel.kernel_matrix.entries_per_s",
            "qkernel.KernelMatrix.validate.total_s",
            "qkernel.train_qsvm.total_s",
            "qkernel.train_qsvm.updates",
            "qkernel.n_support",
            "qkernel.kernel_entry.calls",
            "qkernel.kernel_entry.total_s",
            "qkernel.svm_decision.calls",
            "qkernel.svm_decision.total_s",
        ],
        "moves": ["wall_s", "rows_per_s"],
        "on": ["qsvm-train", "ensemble-score"],
        "no_move_on": ["vqc-train", "preprocess-wide"],
    },
    {
        "layer": "preprocess",
        "metrics": [
            "preprocess.load_csv.total_s",
            "preprocess.load_csv.cells_per_s",
            "preprocess.fit_preprocess.self_s",
            "preprocess.prune_correlated.total_s",
            "preprocess.fit_pca.total_s",
            "preprocess.jacobi_eigh.total_s",
            "preprocess.apply_preprocess.total_s",
            "preprocess.write_csv.total_s",
        ],
        "moves": ["wall_s", "rows_per_s"],
        "on": ["preprocess-wide"],
        "no_move_on": ["vqc-train", "qsvm-train", "ensemble-score (under 5% of each)"],
    },
    {
        "layer": "pipeline",
        "metrics": [
            "pipeline.run_experiment.self_s",
            "pipeline.load_model.total_s",
            "pipeline.save_model.total_s",
            "pipeline.write_predictions_csv.total_s",
            "vqc.VqcModel.predict.calls",
            "vqc.VqcModel.predict.total_s",
            "qkernel.SvmModel.predict.calls",
            "qkernel.SvmModel.predict.total_s",
            "pipeline.EnsembleModel.predict.calls",
            "pipeline.EnsembleModel.predict.total_s",
        ],
        "moves": ["rows_per_s", "wall_s"],
        "on": ["ensemble-score", "the predict stage of vqc-train and qsvm-train"],
        "no_move_on": ["preprocess-wide"],
    },
    {
        "layer": "evalstats",
        "metrics": ["evalstats.bootstrap_ci.total_s"],
        "moves": ["wall_s"],
        "on": ["vqc-train", "qsvm-train (a guard, not a target: ~0.03 s)"],
        "no_move_on": ["ensemble-score", "preprocess-wide"],
    },
    {
        "layer": "cli",
        "metrics": ["cli.import_s", "cli.main.total_s", "trace.overhead_s"],
        "moves": ["wall_s"],
        "on": ["all four: import time is the floor once the quantum layers are batched"],
        "no_move_on": [],
    },
)

# Per-layer metrics reported for each workload, as "<workload>.<name>". Each is
# nonzero on its workload at the seed commit; "calls", "updates" and
# "n_support" are exact counts.
LAYER_METRICS = {
    "vqc-train": (
        "statevector.run_circuit.calls",
        "statevector.run_circuit.self_s",
        "encoding.apply_feature_map.calls",
        "encoding.apply_feature_map.total_s",
        "vqc.train_vqc.total_s",
        "vqc.train_vqc.self_s",
        "vqc.train_vqc.epoch_s",
        "vqc.forward.calls",
        "vqc.forward.total_s",
        "vqc.VqcModel.predict.calls",
        "vqc.VqcModel.predict.total_s",
        "preprocess.load_csv.total_s",
        "preprocess.fit_preprocess.self_s",
        "preprocess.jacobi_eigh.total_s",
        "pipeline.run_experiment.self_s",
        "pipeline.save_model.total_s",
        "pipeline.write_predictions_csv.total_s",
        "evalstats.bootstrap_ci.total_s",
        "cli.main.total_s",
        "trace.overhead_s",
    ),
    "qsvm-train": (
        "statevector.run_circuit.calls",
        "statevector.run_circuit.self_s",
        "encoding.feature_map_circuit.calls",
        "encoding.feature_map_circuit.total_s",
        "qkernel.kernel_matrix.total_s",
        "qkernel.kernel_matrix.entries_per_s",
        "qkernel.KernelMatrix.validate.total_s",
        "qkernel.train_qsvm.total_s",
        "qkernel.train_qsvm.updates",
        "qkernel.n_support",
        "qkernel.kernel_entry.calls",
        "qkernel.kernel_entry.total_s",
        "qkernel.svm_decision.calls",
        "qkernel.svm_decision.total_s",
        "qkernel.SvmModel.predict.calls",
        "qkernel.SvmModel.predict.total_s",
        "preprocess.load_csv.total_s",
        "preprocess.fit_preprocess.self_s",
        "preprocess.jacobi_eigh.total_s",
        "pipeline.run_experiment.self_s",
        "pipeline.save_model.total_s",
        "pipeline.write_predictions_csv.total_s",
        "evalstats.bootstrap_ci.total_s",
        "cli.main.total_s",
        "trace.overhead_s",
    ),
    "ensemble-score": (
        "statevector.run_circuit.calls",
        "statevector.run_circuit.self_s",
        "encoding.apply_feature_map.calls",
        "encoding.apply_feature_map.total_s",
        "encoding.feature_map_circuit.calls",
        "encoding.feature_map_circuit.total_s",
        "vqc.forward.calls",
        "vqc.forward.total_s",
        "qkernel.n_support",
        "qkernel.kernel_entry.calls",
        "qkernel.kernel_entry.total_s",
        "qkernel.svm_decision.calls",
        "qkernel.svm_decision.total_s",
        "pipeline.EnsembleModel.predict.calls",
        "pipeline.EnsembleModel.predict.total_s",
        "pipeline.load_model.total_s",
        "pipeline.write_predictions_csv.total_s",
        "preprocess.load_csv.total_s",
        "preprocess.apply_preprocess.total_s",
        "cli.main.total_s",
        "trace.overhead_s",
    ),
    "preprocess-wide": (
        "preprocess.load_csv.total_s",
        "preprocess.load_csv.cells_per_s",
        "preprocess.fit_preprocess.self_s",
        "preprocess.prune_correlated.total_s",
        "preprocess.fit_pca.total_s",
        "preprocess.jacobi_eigh.total_s",
        "preprocess.write_csv.total_s",
        "pipeline.save_model.total_s",
        "cli.main.total_s",
        "trace.overhead_s",
    ),
}

# The spans that should take most of cli.main on each workload, and the share.
SHARES = {
    "vqc-train": (("vqc.train_vqc",), 0.90),
    "qsvm-train": (("qkernel.kernel_matrix", "qkernel.kernel_entry"), 0.90),
    "ensemble-score": (("pipeline.EnsembleModel.predict",), 0.80),
    "preprocess-wide": (("preprocess.load_csv", "preprocess.jacobi_eigh"), 0.80),
}


class OutputError(Exception):
    """An artifact is missing, malformed, or inconsistent with itself."""


def write_dataset(path: Path, rows: int, features: int, seed: int, stream: int) -> None:
    rng = np.random.default_rng([seed, stream])
    x = rng.standard_normal((rows, features))
    x[:, 5] = x[:, 4] + 0.01 * rng.standard_normal(rows)
    labels = (x[:, 0] + 0.7 * x[:, 1] + 0.3 * rng.standard_normal(rows) > 0).astype(int)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"f{j}" for j in range(features)] + ["label"]) + "\n")
        for values, label in zip(x.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, values)) + f",{label}\n")


def prepare_inputs(w: Workload, seed: int, dest: Path) -> None:
    """Write the workload's CSV file(s) and config.json into ``dest``."""
    dest.mkdir(parents=True)
    write_dataset(dest / "data.csv", w.rows, w.features, seed, 0)
    if w.score_rows:
        write_dataset(dest / "score.csv", w.score_rows, w.features, seed, 1)
    with open(dest / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, **w.config}, fh, indent=2, sort_keys=True)


def setup_commands(w: Workload, inputs: Path) -> list[list[str]]:
    """CLI commands run once per set-up, after ``prepare_inputs``."""
    if w.command != "predict":
        return []
    model_type = w.config["model"]["type"]
    return [[
        "train", model_type, "--data", str(inputs / "data.csv"),
        "--config", str(inputs / "config.json"), "--out-dir", str(inputs / "model"),
    ]]


def timed_command(w: Workload, inputs: Path, out: Path) -> list[str]:
    """The CLI arguments of the timed command; ``out`` must exist."""
    data, config = str(inputs / "data.csv"), str(inputs / "config.json")
    if w.command == "run":
        return ["run", "--data", data, "--config", config, "--out-dir", str(out)]
    if w.command == "predict":
        return [
            "predict", "--model", str(inputs / "model" / "model.json"),
            "--preprocess-model", str(inputs / "model" / "preprocess.json"),
            "--data", str(inputs / "score.csv"), "--config", config,
            "--out", str(out / "predictions.csv"),
        ]
    return ["preprocess", "--data", data, "--config", config, "--out-dir", str(out)]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _read_json(path: Path):
    _require(path.is_file(), f"missing artifact {path.name}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise OutputError(f"{path.name} is not valid JSON: {exc}") from None


def read_predictions(path: Path) -> list[list]:
    """[[probability, label], ...] after checking index, range and label rule."""
    _require(path.is_file(), f"missing artifact {path.name}")
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(bool(lines) and lines[0] == "sample_index,probability,label",
             f"{path.name}: bad header")
    out = []
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        _require(len(fields) == 3, f"{path.name} row {i}: {len(fields)} fields")
        try:
            index, p, label = int(fields[0]), float(fields[1]), int(fields[2])
        except ValueError:
            raise OutputError(f"{path.name} row {i}: unparsable {line!r}") from None
        _require(index == i, f"{path.name} row {i}: sample_index {index}")
        _require(0.0 <= p <= 1.0, f"{path.name} row {i}: probability {p} outside [0, 1]")
        _require(label == int(p >= 0.5), f"{path.name} row {i}: label {label} for p={p!r}")
        out.append([p, label])
    return out


def read_outputs(w: Workload, out: Path, stdout: str) -> dict:
    """Check one command's artifacts and return what later runs must reproduce."""
    if w.command == "run":
        for name in ("model.json", "preprocess.json", "report.txt"):
            _require((out / name).is_file(), f"missing artifact {name}")
        report = _read_json(out / "report.json")
        predictions = read_predictions(out / "predictions.csv")
        try:
            n_test, n_samples = report["data"]["n_test"], report["data"]["n_samples"]
            tp, fp, tn, fn = (report["confusion"][k] for k in ("tp", "fp", "tn", "fn"))
            accuracy = report["metrics"]["accuracy"]
        except (KeyError, TypeError) as exc:
            raise OutputError(f"report.json lacks {exc}") from None
        _require(n_samples == w.rows, f"report.json: n_samples {n_samples}, expected {w.rows}")
        _require(len(predictions) == n_test, f"{len(predictions)} predictions for {n_test} test rows")
        _require(tp + fp + tn + fn == n_test, f"confusion does not sum to {n_test}")
        _require(tp + fp == sum(label for _p, label in predictions),
                 "confusion positives differ from predicted labels")
        _require(math.isclose(accuracy, (tp + tn) / n_test, rel_tol=1e-12),
                 f"accuracy {accuracy} disagrees with the confusion matrix")
        return {"predictions": predictions, "report": report}
    if w.command == "predict":
        predictions = read_predictions(out / "predictions.csv")
        _require(len(predictions) == w.score_rows,
                 f"{len(predictions)} predictions for {w.score_rows} rows")
        _require(f"{w.score_rows} predictions written" in stdout, "no prediction count on stdout")
        return {"predictions": predictions}
    return _preprocess_outputs(w, out, stdout)


def _preprocess_outputs(w: Workload, out: Path, stdout: str) -> dict:
    model = _read_json(out / "preprocess.json")
    try:
        line = next(s for s in stdout.splitlines() if s.startswith("rows "))
        rows_part, feats_part = line.split(", ")
        rows_in, rows_out = (int(v) for v in rows_part[len("rows "):].split(" -> "))
        feats_in, feats_out = (int(v) for v in feats_part[len("features "):].split(" -> "))
    except (StopIteration, ValueError):
        raise OutputError(f"unexpected preprocess summary in {stdout!r}") from None
    _require(rows_in == w.rows and feats_in == w.features,
             f"summary reports {rows_in} x {feats_in} input, expected {w.rows} x {w.features}")
    path = out / "processed.csv"
    _require(path.is_file(), "missing artifact processed.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise OutputError(f"processed.csv: {exc}") from None
    expected = [f"pc{i + 1}" for i in range(feats_out)] + ["label"]
    _require(header == expected, f"processed.csv header {header}, expected {expected}")
    _require(table.shape == (rows_out, feats_out + 1),
             f"processed.csv is {table.shape}, expected {(rows_out, feats_out + 1)}")
    _require(bool(np.isin(table[:, -1], (0, 1)).all()), "processed.csv labels are not 0/1")
    # The components are uncorrelated, with the variances the model reports.
    features = table[:, :-1]
    cov = np.atleast_2d(np.cov(features, rowvar=False))
    variance = np.asarray(model.get("explained_variance") or [], dtype=float)
    _require(variance.shape == (feats_out,), "preprocess.json: explained_variance shape")
    scale = float(variance.max())
    _require(bool(np.allclose(cov, np.diag(variance), rtol=0.0, atol=1e-6 * scale)),
             "processed components are not uncorrelated with the reported variances")
    return {
        "summary": [rows_in, rows_out, feats_in, feats_out],
        "preprocess": model,
        "processed": {
            "col_sum": features.sum(axis=0).tolist(),
            "col_sumsq": (features**2).sum(axis=0).tolist(),
            "head": table[:3].tolist(),
            "labels": int(table[:, -1].sum()),
        },
    }


def mismatches(got, want, where: str = "") -> list[str]:
    """Differences between two outputs: exact for ints, strings and labels,
    relative and absolute TOLERANCE for floats."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(set(got) ^ set(want))} differ"]
        return [m for key in sorted(want) for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, v) in enumerate(zip(got, want)) for m in mismatches(g, v, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def input_rows(w: Workload) -> int:
    """Data rows the timed command reads: the scored file for predict, else the data file."""
    return w.score_rows if w.command == "predict" else w.rows
