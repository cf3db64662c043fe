"""Property test: a saved model file with any top-level value replaced by any
JSON either fails to load with ModelFormatError, or loads into a model that
scores a row (a preprocess file: transforms a row) or raises a QShieldError."""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import teacher_vqc_dataset

from qshield.encoding import FeatureMapSpec
from qshield.errors import ModelFormatError, QShieldError
from qshield.pipeline import EnsembleModel, load_model, predict_labels, save_model
from qshield.preprocess import PreprocessConfig, apply_preprocess, fit_preprocess
from qshield.qkernel import kernel_matrix, train_qsvm
from qshield.vqc import VqcModel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


DATA, _ = teacher_vqc_dataset(seed=11, n_qubits=2, n_layers=1, n_samples=12)


def _saved_payloads() -> tuple[dict, np.ndarray]:
    """The JSON that save_model writes for one small model of each kind, and a
    preprocessed row for the models to score."""
    preprocess, processed = fit_preprocess(DATA, PreprocessConfig(pca_components=2))
    spec = FeatureMapSpec(2, 1)
    svm = train_qsvm(
        kernel_matrix(processed, spec), 2 * processed.labels - 1, 1.0,
        vectors=processed.features, feature_map=spec,
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
        model = load_model(model_path)
    except ModelFormatError:
        return
    try:
        if kind == "preprocess":
            apply_preprocess(model, DATA)
        else:
            predict_labels(model, ROW)
    except QShieldError:
        pass
