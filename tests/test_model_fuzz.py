"""Property tests: a saved model file with any top-level value replaced by any
JSON either fails to load with ModelFormatError, or loads into a model that
scores a row (a preprocess file: transforms a row) or raises a QShieldError;
and a model file with a defect spliced into its text ends every command that
reads it with exit 2 and an error line, never an internal error."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    DIGITS_5000,
    NESTED_100000,
    json_defects,
    json_values,
    spliced,
    teacher_vqc_dataset,
    with_support_rows,
)

from qshield.cli import main
from qshield.encoding import FeatureMapSpec
from qshield.errors import ModelFormatError, QShieldError
from qshield.pipeline import EnsembleModel, load_model, predict_labels, save_model
from qshield.preprocess import PreprocessConfig, apply_preprocess, fit_preprocess, write_csv
from qshield.qkernel import kernel_matrix, train_qsvm
from qshield.vqc import VqcModel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

JSON = json_values()


DATA, _ = teacher_vqc_dataset(seed=11, n_qubits=2, n_layers=1, n_samples=12)


def _saved_payloads() -> tuple[dict, np.ndarray]:
    """The JSON that save_model writes for one small model of each kind, and a
    preprocessed row for the models to score."""
    preprocess, processed = fit_preprocess(DATA, PreprocessConfig(pca_components=2))
    spec = FeatureMapSpec(2, 1)
    svm = with_support_rows(
        train_qsvm(kernel_matrix(processed, spec), 2 * processed.labels - 1, 1.0),
        processed.features, spec,
    )
    vqc = VqcModel.fresh(2, 1, 1, "angle")
    models = {
        "vqc": vqc,
        "qsvm": svm,
        "preprocess": preprocess,
        "ensemble": EnsembleModel([vqc, svm], np.array([0.5, 0.5])),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for kind, model in models.items():
            save_model(model, Path(tmp) / kind)
        payloads = {kind: json.loads((Path(tmp) / kind).read_text()) for kind in models}
    return payloads, processed.features[:1]


PAYLOADS, ROW = _saved_payloads()
FIELDS = [(kind, key) for kind, payload in PAYLOADS.items() for key in sorted(payload)]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(st.sampled_from(FIELDS), JSON)
@hypothesis.example(("qsvm", "support_indices"), [1e300])
@hypothesis.example(("preprocess", "kept_columns"), [1e80])
@hypothesis.example(("vqc", "readout_qubit"), 1.0)
def test_model_loads_or_raises_model_format_error(model_path, field, value):
    kind, key = field
    model_path.write_text(json.dumps({**PAYLOADS[kind], key: value}))
    try:
        model = load_model(model_path, (kind,))
    except ModelFormatError:
        return
    try:
        if kind == "preprocess":
            apply_preprocess(model, DATA)
        else:
            predict_labels(model, ROW)
    except QShieldError:
        pass


# every command that reads a model file; a spliced preprocess file goes in as
# --preprocess-model beside a valid model, any other kind as --model
COMMANDS = ("predict", "explain", "evaluate")


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_data") / "data.csv"
    write_csv(DATA, path)
    return path


@pytest.mark.parametrize("command", COMMANDS)
@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(case=st.sampled_from(sorted(PAYLOADS)).flatmap(
    lambda kind: json_defects(PAYLOADS[kind]).map(lambda text: (kind, text))
))
@hypothesis.example(case=("vqc", spliced(PAYLOADS["vqc"], ("params",), NESTED_100000)))
@hypothesis.example(
    case=("preprocess", spliced(PAYLOADS["preprocess"], ("means",), NESTED_100000))
)
@hypothesis.example(case=("qsvm", spliced(PAYLOADS["qsvm"], ("bias",), DIGITS_5000)))
def test_unreadable_model_text_exits_2(command, case, data_path, tmp_path_factory):
    kind, text = case
    root = tmp_path_factory.mktemp("model")
    spliced_path, valid_path = root / "spliced.json", root / "valid.json"
    spliced_path.write_text(text, encoding="utf-8")
    valid_path.write_text(json.dumps(PAYLOADS["vqc" if kind == "preprocess" else "preprocess"]))
    model, preprocess = (
        (valid_path, spliced_path) if kind == "preprocess" else (spliced_path, valid_path)
    )
    args = ["--model", str(model), "--preprocess-model", str(preprocess), "--data", str(data_path)]
    if command == "predict":
        args += ["--out", str(root / "p.csv")]
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main([command, *args])
    err = stderr.getvalue()
    assert code == 2, err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "internal error" not in err
