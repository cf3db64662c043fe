"""Config parsing, model persistence, ensembles, and full experiment runs."""
import fcntl
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import holding_out_dir, teacher_vqc_dataset, traced_peak, with_support_rows

from qshield import pipeline
from qshield.encoding import FeatureMapSpec
from qshield.errors import (
    ConfigError,
    ModelFormatError,
    PipelineStageError,
    QShieldError,
    QubitCapError,
)
from qshield.evalstats import ConfusionMatrix, MetricsReport, StatReport
from qshield.pipeline import (
    EnsembleModel,
    PipelineConfig,
    load_model,
    predict_labels,
    preprocess_experiment,
    run_experiment,
    save_model,
    train_experiment,
)
from qshield.preprocess import (
    Dataset,
    PreprocessConfig,
    PreprocessModel,
    apply_preprocess,
    fit_preprocess,
    load_csv,
    write_csv,
)
from qshield.qkernel import SvmModel, kernel_matrix, train_qsvm
from qshield.vqc import TrainConfig, VqcModel, train_vqc


def write_teacher_csv(path, seed=201, n=24):
    data, _ = teacher_vqc_dataset(seed=seed, n_qubits=2, n_layers=1, n_samples=n)
    write_csv(data, path)
    return data


def fast_config(**model_overrides):
    raw = {
        "seed": 7,
        "model": {"type": "vqc", "n_qubits": 2, "n_layers": 1, "repetitions": 1,
                  **model_overrides},
        "training": {"epochs": 5, "learning_rate": 0.1},
        "evaluation": {"test_fraction": 0.25, "bootstrap_iterations": 100},
        "preprocess": {"apply_pca": False},
    }
    return PipelineConfig.from_dict(raw)


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig.from_dict({})
        assert config.seed == 0
        assert config.model.type == "vqc"
        assert config.training.epochs == 20
        assert config.evaluation.bootstrap_iterations == 1000

    def test_omitted_epochs_falls_back_to_default(self):
        config = PipelineConfig.from_dict({"training": {"learning_rate": 0.1}})
        assert config.training.epochs == 20
        assert config.training.learning_rate == 0.1

    def test_round_trip_through_dict(self):
        config = fast_config()
        rebuilt = PipelineConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_unknown_top_level_key(self):
        message = "unknown key(s) ['modle'] in config"
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            PipelineConfig.from_dict({"modle": {}})

    def test_top_level_errors_take_the_section_form(self):
        message = "unknown key(s) ['modle', 'zz'] in config"
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            PipelineConfig.from_dict({"zz": 1, "modle": {}})
        with pytest.raises(ConfigError, match=re.escape("config must be an object, got [1, 2]")):
            PipelineConfig.from_dict([1, 2])

    def test_every_section_off_its_defaults_round_trips(self):
        config = PipelineConfig.from_dict({
            "seed": 3,
            "data": {"label_column": "class", "positive_label": "bad"},
            "preprocess": {"correlation_threshold": 0.9, "outlier_z_cap": 4.0,
                           "pca_components": 3, "apply_pca": False},
            "model": {"type": "ensemble", "n_qubits": 3, "n_layers": 1, "repetitions": 1,
                      "encoding": "amplitude", "svm_c": 2, "svm_tol": 0.01,
                      "svm_max_passes": 50, "ensemble_weights": [1, 0.5]},
            "training": {"epochs": 4, "learning_rate": 0.2, "batch_size": 8,
                         "optimizer": "gd", "beta1": 0.8, "beta2": 0.99, "eps": 1e-7},
            "evaluation": {"test_fraction": 0.4, "bootstrap_iterations": 200},
        })
        defaults = PipelineConfig()
        for section in fields(PipelineConfig):
            assert getattr(config, section.name) != getattr(defaults, section.name), section.name
        rebuilt = PipelineConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert json.dumps(rebuilt.to_dict()) == json.dumps(config.to_dict())

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            PipelineConfig.from_dict({"model": {"qubits": 3}})

    def test_training_seed_key_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            PipelineConfig.from_dict({"training": {"epochs": 5, "seed": 3}})

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"seed": "zero"})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict([1, 2])

    def test_bad_model_type(self):
        with pytest.raises(ConfigError, match="model type"):
            PipelineConfig.from_dict({"model": {"type": "forest"}})

    def test_qubit_cap_enforced(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"model": {"n_qubits": 25}})

    def test_depth_cap_enforced(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"model": {"n_layers": 11, "repetitions": 2}})

    def test_huge_depth_fails_cap_check_not_allocation(self):
        with pytest.raises(ConfigError, match="depth cap"):
            PipelineConfig.from_dict({"model": {"n_layers": 10**10}})

    def test_json_forms_of_field_types_accepted(self):
        config = PipelineConfig.from_dict({
            "model": {"svm_c": 2, "ensemble_weights": [1, 3]},
            "preprocess": {"pca_components": None},
            "training": {"batch_size": None},
        })
        assert type(config.model.svm_c) is int  # kept as written, so reports are unchanged
        assert config.model.ensemble_weights == (1, 3)
        assert config.preprocess.pca_components is None

    def test_replace_runs_the_checks_again(self):
        config = PipelineConfig()
        with pytest.raises(ConfigError, match="seed"):
            replace(config, seed=-5)
        with pytest.raises(ConfigError, match="model type"):
            replace(config.model, type="forest")

    def test_bad_svm_c(self):
        with pytest.raises(ConfigError, match="svm_c"):
            PipelineConfig.from_dict({"model": {"svm_c": -1.0}})

    def test_bad_ensemble_weights(self):
        with pytest.raises(ConfigError, match="ensemble_weights"):
            PipelineConfig.from_dict(
                {"model": {"type": "ensemble", "ensemble_weights": [-1.0, 2.0]}}
            )

    def test_bad_test_fraction(self):
        with pytest.raises(ConfigError, match="test_fraction"):
            PipelineConfig.from_dict({"evaluation": {"test_fraction": 1.5}})

    def test_bootstrap_floor(self):
        with pytest.raises(ConfigError, match="bootstrap_iterations"):
            PipelineConfig.from_dict({"evaluation": {"bootstrap_iterations": 10}})

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "training": {"epochs": 2}}))
        config = PipelineConfig.from_json_file(path)
        assert config.seed == 3
        assert config.training.epochs == 2

    def test_invalid_json_reports_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": }')
        with pytest.raises(ConfigError, match="byte offset"):
            PipelineConfig.from_json_file(path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            PipelineConfig.from_json_file(tmp_path / "absent.json")


class _StubModel:
    def __init__(self, p):
        self.p = p

    def predict_proba(self, features):
        return np.full(len(features), self.p)


def raised(build, *args, **kwargs):
    """(exception type, message) of what ``build`` raises, or None if it returns."""
    try:
        build(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# qubits, layers, repetitions (so depths 0 to 24, the cap 12 among them) and encodings
ARCHITECTURES = [
    (q, layers, reps, encoding)
    for q in (0, 1, 20, 21) for layers in (0, 1, 11, 12) for reps in (0, 1, 11, 12)
    for encoding in ("angle", "basis")
]


def test_config_checks_an_architecture_as_the_model_does():
    # one definition per limit: a config is refused exactly when the model it
    # describes would be, with the same exception and message
    outcomes = {}
    for q, layers, reps, encoding in ARCHITECTURES:
        model = raised(VqcModel.fresh, q, layers, reps, encoding)
        config = raised(pipeline.ModelConfig, n_qubits=q, n_layers=layers,
                        repetitions=reps, encoding=encoding)
        assert config == model, (q, layers, reps, encoding)
        outcomes[model] = outcomes.get(model, 0) + 1
    assert outcomes[None] == 6  # 1 and 20 qubits at depths 2, 12 and 12


# two bad fields: the first reported is the first in qubits, repetitions, n_layers,
# encoding, depth (architecture -> exception type and message)
FIRST_ERROR = {
    (0, 2, 0, "angle"): (QubitCapError, "qubit count must be an integer in [1, 20], got 0"),
    (21, 12, 2, "angle"): (QubitCapError, "qubit count must be an integer in [1, 20], got 21"),
    (4, 0, 0, "angle"): (ConfigError, "repetitions must be a positive integer, got 0"),
    (4, 0, 2, "basis"): (ConfigError, "n_layers must be a positive integer, got 0"),
    (4, 12, 2, "basis"): (ConfigError, "encoding must be one of ('angle', 'amplitude'), "
                                       "got 'basis'"),
    (4, 11, 2, "angle"): (ConfigError, "n_layers + repetitions = 13 exceeds the depth cap 12"),
}


@pytest.mark.parametrize("architecture", sorted(FIRST_ERROR, key=repr), ids=repr)
def test_config_reports_the_first_bad_field(architecture):
    q, layers, reps, encoding = architecture
    assert raised(pipeline.ModelConfig, n_qubits=q, n_layers=layers, repetitions=reps,
                  encoding=encoding) == FIRST_ERROR[architecture]


class TestPredictLabels:
    def test_clips_and_labels_at_half(self):
        probabilities, labels = predict_labels(
            _StubModel(np.array([-0.25, 0.0, 0.4999, 0.5, 1.0, 1.5])), np.zeros((6, 1))
        )
        np.testing.assert_array_equal(probabilities, [0.0, 0.0, 0.4999, 0.5, 1.0, 1.0])
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])


class TestEnsemble:
    def test_weights_normalize(self):
        model = EnsembleModel([_StubModel(0.0), _StubModel(1.0)], np.array([1.0, 3.0]))
        np.testing.assert_allclose(model.weights, [0.25, 0.75])
        np.testing.assert_allclose(model.predict_proba(np.zeros((3, 1))), 0.75)

    def test_convex_combination(self):
        model = EnsembleModel([_StubModel(0.2), _StubModel(0.8)], np.array([0.5, 0.5]))
        p = model.predict_proba(np.zeros((1, 1)))[0]
        assert p == pytest.approx(0.5)
        assert predict_labels(model, np.zeros((1, 1)))[1][0] == 1  # tie goes malicious

    def test_member_count_mismatch(self):
        with pytest.raises(ConfigError):
            EnsembleModel([_StubModel(0.5)], np.array([0.5, 0.5]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleModel([_StubModel(0.5), _StubModel(0.5)], np.array([-1.0, 2.0]))

    def test_empty_member_list_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleModel([], np.array([]))


class TestPersistence:
    def trained_vqc(self):
        data, _ = teacher_vqc_dataset(seed=211, n_qubits=2, n_layers=1, n_samples=12)
        model, _ = train_vqc(
            data, VqcModel.fresh(2, 1, repetitions=1),
            TrainConfig(epochs=2, learning_rate=0.1, seed=1),
        )
        return model, data

    def trained_svm(self):
        data, _ = teacher_vqc_dataset(seed=223, n_qubits=2, n_layers=1, n_samples=10)
        spec = FeatureMapSpec(2, 1)
        gram = kernel_matrix(data, spec)
        model = with_support_rows(train_qsvm(gram, 2 * data.labels - 1, C=5.0), data.features, spec)
        return model, data

    def test_vqc_round_trip(self, tmp_path):
        model, data = self.trained_vqc()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, ("vqc",))
        assert np.array_equal(loaded.params, model.params)
        assert loaded.feature_map == model.feature_map
        rows = data.features[:4]
        np.testing.assert_allclose(loaded.predict_proba(rows), model.predict_proba(rows), atol=1e-15)

    def test_svm_round_trip(self, tmp_path):
        model, data = self.trained_svm()
        path = tmp_path / "svm.json"
        save_model(model, path)
        loaded = load_model(path, ("qsvm",))
        assert np.array_equal(loaded.dual_coeffs, model.dual_coeffs)
        assert loaded.bias == model.bias
        rows = data.features[:4]
        np.testing.assert_allclose(loaded.predict_proba(rows), model.predict_proba(rows), atol=1e-15)

    def test_preprocess_round_trip(self, tmp_path):
        rng = np.random.default_rng(227)
        data = Dataset(
            [f"f{i}" for i in range(4)], rng.normal(size=(30, 4)),
            rng.integers(0, 2, 30),
        )
        model, _ = fit_preprocess(data, PreprocessConfig(pca_components=2))
        path = tmp_path / "pre.json"
        save_model(model, path)
        loaded = load_model(path, ("preprocess",))
        fresh = data.take_rows(slice(0, 5))
        np.testing.assert_allclose(
            apply_preprocess(loaded, fresh).features,
            apply_preprocess(model, fresh).features,
            atol=1e-15,
        )

    def test_ensemble_round_trip(self, tmp_path):
        vqc_model, data = self.trained_vqc()
        svm_model, _ = self.trained_svm()
        model = EnsembleModel([vqc_model, svm_model], np.array([0.6, 0.4]))
        path = tmp_path / "ens.json"
        save_model(model, path)
        loaded = load_model(path, ("ensemble",))
        rows = data.features[:4]
        np.testing.assert_allclose(loaded.predict_proba(rows), model.predict_proba(rows), atol=1e-15)

    def test_saved_keys_are_pinned(self, tmp_path):
        # the keys come from the model dataclasses' field names, so renaming a
        # field would change the file format; this pins the format instead
        vqc_model, data = self.trained_vqc()
        svm_model, _ = self.trained_svm()
        pre_model, _ = fit_preprocess(data, PreprocessConfig(pca_components=2))
        models = {
            "vqc": vqc_model, "qsvm": svm_model, "preprocess": pre_model,
            "ensemble": EnsembleModel([vqc_model, svm_model], np.array([0.5, 0.5])),
        }
        saved = {}
        for kind, model in models.items():
            save_model(model, tmp_path / kind)
            saved[kind] = json.loads((tmp_path / kind).read_text())
        common = ["format_version", "model_type"]
        assert sorted(saved["vqc"]) == sorted(common + [
            "encoding", "entangling", "feature_map", "n_layers", "n_qubits", "optimizer_meta",
            "params", "readout_qubit", "rng_seed",
        ])
        assert sorted(saved["qsvm"]) == sorted(common + [
            "C", "bias", "converged", "dual_coeffs", "feature_map", "n_updates",
            "support_indices", "support_vectors",
        ])
        assert sorted(saved["preprocess"]) == sorted(common + [
            "explained_variance", "feature_names", "kept_columns", "means", "pca_basis",
            "pca_center", "std_ddof", "std_devs",
        ])
        assert sorted(saved["ensemble"]) == sorted(common + ["members", "weights"])
        assert [m["model_type"] for m in saved["ensemble"]["members"]] == ["vqc", "qsvm"]
        for kind in ("vqc", "qsvm"):
            assert sorted(saved[kind]["feature_map"]) == ["entangling", "n_qubits", "repetitions"]

    def test_objective_trace_is_not_saved(self, tmp_path):
        model, data = self.trained_svm()
        spec = FeatureMapSpec(2, 1)
        fit = train_qsvm(kernel_matrix(data, spec), 2 * data.labels - 1, C=5.0,
                         record_objective=True)
        traced = with_support_rows(fit, data.features, spec)
        assert traced.objective_history
        save_model(traced, tmp_path / "traced.json")
        save_model(model, tmp_path / "plain.json")
        assert "objective_history" not in json.loads((tmp_path / "traced.json").read_text())
        assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("kind", ["vqc", "qsvm", "preprocess", "ensemble"])
    def test_load_then_save_is_byte_identical(self, kind, tmp_path):
        model, data = self.trained_vqc()
        if kind == "qsvm":
            model, _ = self.trained_svm()
        if kind == "preprocess":
            model, _ = fit_preprocess(data, PreprocessConfig(pca_components=2))
        if kind == "ensemble":
            model = EnsembleModel([model, self.trained_svm()[0]], np.array([0.3, 0.7]))
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        save_model(model, first)
        save_model(load_model(first, (kind,)), again)
        assert again.read_bytes() == first.read_bytes()

    def test_version_mismatch(self, tmp_path):
        model, _ = self.trained_vqc()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="format version"):
            load_model(path, ("vqc",))

    def test_type_mismatch(self, tmp_path):
        model, _ = self.trained_vqc()
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="model type mismatch"):
            load_model(path, ("qsvm",))

    def test_missing_field(self, tmp_path):
        model, _ = self.trained_vqc()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["params"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="missing field"):
            load_model(path, ("vqc",))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path, ("vqc",))

    def test_unknown_model_type(self, tmp_path):
        # a file's own type must be one the caller expects, so only a member can be unknown
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 1, "model_type": "ensemble",
                                    "members": [{"model_type": "tree"}], "weights": [1.0]}))
        with pytest.raises(ModelFormatError, match="unknown model type 'tree'"):
            load_model(path, ("ensemble",))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(tmp_path / "nope.json", ("vqc",))

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1]")
        with pytest.raises(ModelFormatError, match="does not contain an object"):
            load_model(path, ("vqc",))

    def test_unknown_class_not_saved(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot serialize model of type object"):
            save_model(object(), tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()


# the codec reads each field's type from dataclasses.fields, which holds the annotation
# itself, not its text, only where the module does not postpone annotations
CODEC_CLASSES = [PipelineConfig, pipeline.DataConfig, PreprocessConfig, pipeline.ModelConfig,
                 TrainConfig, pipeline.EvalConfig, VqcModel, SvmModel, PreprocessModel,
                 FeatureMapSpec]


@pytest.mark.parametrize("cls", CODEC_CLASSES, ids=lambda cls: cls.__name__)
def test_codec_field_types_are_types_not_text(cls):
    assert [f.name for f in fields(cls) if isinstance(f.type, str)] == []


STANDARDIZATION = {"means": np.zeros(3), "std_devs": np.ones(3), "kept_columns": np.arange(3)}
# model classes check their own fields, so a model built in Python that no file
# could hold fails as it is built: case -> (class, fields, text the error contains)
INCONSISTENT_MODELS = {
    "svm_3_coeffs_2_indices": (SvmModel, {
        "dual_coeffs": np.ones(3), "bias": 0.0, "support_indices": np.arange(2),
        "support_vectors": None, "C": 1.0, "feature_map": None,
    }, "have lengths [3, 2, 3]"),
    "svm_3_vectors_2_coeffs": (SvmModel, {
        "dual_coeffs": np.ones(2), "bias": 0.0, "support_indices": np.arange(2),
        "support_vectors": np.zeros((3, 2)), "C": 1.0, "feature_map": None,
    }, "have lengths [2, 2, 3]"),
    "svm_1d_support_vectors": (SvmModel, {
        "dual_coeffs": np.ones(2), "bias": 0.0, "support_indices": np.arange(2),
        "support_vectors": np.zeros(2), "C": 1.0, "feature_map": None,
    }, "support_vectors must be 2-D rows, got shape (2,)"),
    "short_means": (
        PreprocessModel, {**STANDARDIZATION, "means": np.zeros(2)}, "got shapes (2,), (3,), (3,)"
    ),
    "zero_std_dev": (
        PreprocessModel, {**STANDARDIZATION, "std_devs": np.array([1.0, 0.0, 1.0])},
        "std_devs must be > 0",
    ),
    "pca_basis_misfit": (PreprocessModel, {
        **STANDARDIZATION, "pca_basis": np.ones((2, 2)), "explained_variance": np.ones(2),
        "pca_center": np.zeros(3),
    }, "pca_basis of shape (2, 2) does not map 3 kept columns"),
    "std_ddof_0": (PreprocessModel, {"std_ddof": 0}, "std_ddof must be 1"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_MODELS))
def test_inconsistent_model_fails_as_it_is_built(case):
    cls, kwargs, message = INCONSISTENT_MODELS[case]
    with pytest.raises(QShieldError, match=re.escape(message)):
        cls(**kwargs)


class TestRunExperiment:
    def test_artifacts_and_report(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        out = tmp_path / "out"
        report = run_experiment(fast_config(), data_path, out)

        for name in ("model.json", "preprocess.json", "predictions.csv",
                      "report.json", "report.txt"):
            assert (out / name).exists(), name
        assert not (out / ".lock").exists()

        assert report["config"]["seed"] == 7
        assert report["data"]["n_samples"] == 24
        assert report["data"]["n_train"] + report["data"]["n_test"] == 24
        assert 0.0 <= report["metrics"]["accuracy"] <= 1.0
        assert report["bootstrap"]["ci_low"] <= report["bootstrap"]["ci_high"]
        assert len(report["loss_history"]) == 6

        header = (out / "predictions.csv").read_text().splitlines()[0]
        assert header == "sample_index,probability,label"
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["metrics"] == report["metrics"]

    def test_report_fields_are_the_result_dataclasses(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        report = run_experiment(fast_config(), data_path, tmp_path / "out")

        def names(cls):
            return {f.name for f in fields(cls)}

        assert set(report["metrics"]) == names(MetricsReport) - {"confusion"}
        assert set(report["confusion"]) == names(ConfusionMatrix)
        assert set(report["bootstrap"]) == names(StatReport)

    def test_reruns_are_byte_identical(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(fast_config(), data_path, out_a)
        run_experiment(fast_config(), data_path, out_b)
        for name in ("model.json", "preprocess.json", "predictions.csv",
                      "report.json", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_changes_training(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        config = fast_config()
        run_experiment(config, data_path, tmp_path / "s7")
        run_experiment(replace(config, seed=8), data_path, tmp_path / "s8")
        a = json.loads((tmp_path / "s7" / "model.json").read_text())
        b = json.loads((tmp_path / "s8" / "model.json").read_text())
        assert a["params"] != b["params"]

    def test_qsvm_pipeline(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        out = tmp_path / "svm_out"
        report = run_experiment(fast_config(type="qsvm", svm_c=10.0), data_path, out)
        assert report["svm"]["converged"] is True
        model = json.loads((out / "model.json").read_text())
        assert model["model_type"] == "qsvm"

    @pytest.mark.parametrize("model_type", ["qsvm", "ensemble"])
    def test_fit_runs_no_eigensolver(self, model_type, tmp_path, monkeypatch):
        # the Gram is PSD by construction (Schur product of real Gram matrices),
        # so a fit does not pay for an O(m^3) eigenvalue check
        def refuse(matrix):
            raise AssertionError("a fit called np.linalg.eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        config = fast_config(type=model_type, svm_c=10.0)
        summary = train_experiment(config, data_path, tmp_path / "out")
        assert summary["svm"]["n_support"] > 0

    def test_qsvm_saves_the_training_rows_at_its_support_indices(self, tmp_path):
        # the solver returns duals only; _train_model attaches the rows they index
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        config = fast_config(type="qsvm", svm_c=10.0)
        train_experiment(config, data_path, tmp_path / "out")
        _, _, processed = pipeline._load_and_preprocess(config, data_path)
        saved = load_model(tmp_path / "out" / "model.json", ("qsvm",))
        assert 0 < len(saved.support_indices) < processed.n_samples
        assert np.array_equal(saved.support_vectors, processed.features[saved.support_indices])
        assert saved.feature_map == pipeline.feature_map_spec(config)

    def test_ensemble_pipeline(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        out = tmp_path / "ens_out"
        report = run_experiment(
            fast_config(type="ensemble", ensemble_weights=[0.7, 0.3]), data_path, out
        )
        assert "loss_history" in report
        assert "svm" in report
        model = json.loads((out / "model.json").read_text())
        assert model["model_type"] == "ensemble"
        assert model["weights"] == [0.7, 0.3]

    def test_locked_directory_rejected(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        out = tmp_path / "busy"
        with holding_out_dir(out), pytest.raises(ConfigError, match="locked"):
            run_experiment(fast_config(), data_path, out)

    def test_lock_on_a_replaced_file_counts_as_held(self, tmp_path, monkeypatch):
        # between this run's open and its flock, the holder unlinked .lock on
        # leaving and a third run created a fresh one: the lock won is void
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        out = tmp_path / "busy"
        real_flock = fcntl.flock

        def holder_leaves(fd, operation):
            (out / ".lock").unlink()
            (out / ".lock").touch()
            real_flock(fd, operation)

        monkeypatch.setattr(pipeline.fcntl, "flock", holder_leaves)
        with pytest.raises(ConfigError, match="locked"):
            run_experiment(fast_config(), data_path, out)
        assert [p.name for p in out.iterdir()] == [".lock"]

    def test_missing_data_wraps_into_stage_error(self, tmp_path):
        with pytest.raises(PipelineStageError) as info:
            run_experiment(fast_config(), tmp_path / "absent.csv", tmp_path / "out")
        assert info.value.stage == "load"
        assert info.value.exit_code == 2
        assert "load" in str(info.value)

    def test_pca_resolves_to_qubit_count(self, tmp_path):
        rng = np.random.default_rng(229)
        # five informative columns; PCA must shrink them to n_qubits = 2
        base, _ = teacher_vqc_dataset(seed=233, n_qubits=2, n_layers=1, n_samples=24)
        extra = rng.normal(size=(24, 3))
        data = Dataset(
            ["f0", "f1", "g0", "g1", "g2"],
            np.column_stack([base.features, extra]),
            base.labels,
        )
        data_path = tmp_path / "wide.csv"
        write_csv(data, data_path)
        config = PipelineConfig.from_dict({
            "seed": 7,
            "model": {"type": "vqc", "n_qubits": 2, "n_layers": 1, "repetitions": 1},
            "training": {"epochs": 2, "learning_rate": 0.1},
            "evaluation": {"test_fraction": 0.25, "bootstrap_iterations": 100},
        })
        report = run_experiment(config, data_path, tmp_path / "pca_out")
        assert report["data"]["n_features_encoded"] == 2


class TestPreprocessExperiment:
    def test_writes_processed_csv_and_model(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_teacher_csv(data_path)
        out = tmp_path / "pre"
        summary = preprocess_experiment(fast_config(), data_path, out)
        assert summary["n_samples_in"] == 24
        assert summary["n_features_out"] == 2
        processed = load_csv(out / "processed.csv", "label", "1")
        assert processed.n_samples == summary["n_samples_out"]
        model = load_model(out / "preprocess.json", ("preprocess",))
        assert model.kept_columns is not None

    def test_raw_matrix_freed_once_standardized(self, tmp_path):
        # the raw matrix is released when its first standardized copy exists,
        # so the peak is one working matrix and one temporary, not the raw
        # matrix on top of them
        rng = np.random.default_rng(29)
        data = Dataset([f"f{j}" for j in range(80)], rng.normal(size=(4000, 80)),
                       rng.integers(0, 2, 4000))
        write_csv(data, tmp_path / "data.csv")
        _, peak = traced_peak(
            preprocess_experiment, PipelineConfig(), tmp_path / "data.csv", tmp_path / "pre"
        )
        assert peak <= 2.3 * data.features.nbytes

    def test_fit_overwrites_the_loaded_matrix(self, tmp_path):
        # the chain runs in the memory load_csv filled, so beyond ingest's own peak
        # it holds row blocks and d x d matrices; a chain that standardizes into
        # a new matrix reads about 2.2x here
        rng = np.random.default_rng(37)
        data = Dataset([f"f{j}" for j in range(80)], rng.normal(size=(4000, 80)),
                       rng.integers(0, 2, 4000))
        write_csv(data, tmp_path / "data.csv")
        (shape, _, processed), peak = traced_peak(
            pipeline._load_and_preprocess, PipelineConfig(), tmp_path / "data.csv"
        )
        assert shape == (4000, 80) and processed.n_features == 4
        assert peak <= 1.4 * data.features.nbytes


# (experiment, writer it runs, the artifact that writer makes, what the failure raises)
FAILING_WRITERS = {
    "run": (run_experiment, "write_predictions_csv", "predictions.csv", PipelineStageError),
    "preprocess": (preprocess_experiment, "write_csv", "processed.csv", ConfigError),
    "train": (train_experiment, "_write_text", "model.json", ConfigError),
}


@pytest.mark.parametrize("case", sorted(FAILING_WRITERS))
def test_writer_failing_midway_leaves_no_artifact(case, tmp_path, monkeypatch):
    experiment, writer, artifact, raised = FAILING_WRITERS[case]
    data_path = tmp_path / "data.csv"
    write_teacher_csv(data_path)
    out = tmp_path / "out"

    def write_half(*args, **kwargs):  # write_csv takes the label names by keyword
        with open(args[-1], "w", encoding="utf-8") as fh:
            fh.write("sample_index,prob")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pipeline, writer, write_half)
    with pytest.raises(raised):
        experiment(fast_config(), data_path, out)
    left = sorted(p.name for p in out.iterdir())
    assert artifact not in left
    assert not [name for name in left if name.endswith(".tmp")]


# every writer a --out-dir command passes to _publish, patched where the command looks it up
ARTIFACT_WRITERS = ("save_model", "write_csv", "write_predictions_csv", "_write_text")


@pytest.mark.parametrize("case", sorted(FAILING_WRITERS))
def test_failed_rerun_never_mixes_two_runs(case, tmp_path, monkeypatch):
    # a rerun into a used directory whose second artifact fails to write: the
    # directory may hold the first run's set or the rerun's, never parts of both
    experiment = FAILING_WRITERS[case][0]
    first_csv, second_csv = tmp_path / "first.csv", tmp_path / "second.csv"
    write_teacher_csv(first_csv)
    write_teacher_csv(second_csv, seed=202)
    first_config, second_config = fast_config(), replace(fast_config(), seed=8)
    out = tmp_path / "out"
    experiment(first_config, first_csv, out)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    experiment(second_config, second_csv, tmp_path / "fresh")
    second = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    assert first.keys() == second.keys()
    assert all(first[name] != second[name] for name in first)

    started: list = []  # the .tmp path of each artifact begun, in order

    def failing_second(real):
        def write(*args, **kwargs):  # write_csv takes the label names by keyword
            if args[-1] not in started:
                started.append(args[-1])
            if len(started) == 2:
                raise OSError(28, "No space left on device")
            return real(*args, **kwargs)
        return write

    for name in ARTIFACT_WRITERS:
        monkeypatch.setattr(pipeline, name, failing_second(getattr(pipeline, name)))
    with pytest.raises((ConfigError, PipelineStageError), match="No space left on device"):
        experiment(second_config, second_csv, out)
    assert len(started) == 2
    left = {p.name: p.read_bytes() for p in out.iterdir()}
    assert left.items() <= first.items() or left.items() <= second.items()
