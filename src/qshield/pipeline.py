"""End-to-end experiment orchestration, model persistence, ensembles.

All artifacts are JSON or CSV written with sorted keys and repr-precision
floats, so identical (data, config, seed) runs produce byte-identical
files.  Stage seeds derive from the single experiment seed: split uses
seed, training seed + 1, bootstrap seed + 2.
"""
from __future__ import annotations

import fcntl
import json
import math
import os
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .encoding import FeatureMapSpec
from .errors import (
    ConfigError,
    DegenerateInputError,
    ModelFormatError,
    NumericalError,
    PipelineStageError,
    QShieldError,
)
from .evalstats import bootstrap_ci, confusion, format_metrics_table, metrics
from .preprocess import (
    Dataset,
    PreprocessConfig,
    PreprocessModel,
    fit_preprocess,
    load_csv,
    train_test_split,
    write_csv,
)
from .qkernel import BOUND_SNAP, SvmModel, kernel_matrix, train_qsvm
from .vqc import TrainConfig, VqcModel, train_vqc

FORMAT_VERSION = 1
MODEL_TYPES = ("vqc", "qsvm", "ensemble")


@dataclass(frozen=True)
class DataConfig:
    label_column: str = "label"
    positive_label: str = "1"


@dataclass(frozen=True)
class ModelConfig:
    type: str = "vqc"
    n_qubits: int = 4
    n_layers: int = 2
    repetitions: int = 2
    encoding: str = "angle"
    svm_c: float = 1.0
    svm_tol: float = 1e-3
    svm_max_passes: int = 10000
    ensemble_weights: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self) -> None:
        if self.type not in MODEL_TYPES:
            raise ConfigError(f"model type must be one of {MODEL_TYPES}, got {self.type!r}")
        # constructing a throwaway model runs the qubit/depth/encoding checks
        VqcModel.fresh(self.n_qubits, self.n_layers, self.repetitions, self.encoding)
        if not self.svm_c >= BOUND_SNAP:
            raise ConfigError(f"model.svm_c must be at least {BOUND_SNAP}, got {self.svm_c!r}")
        if not 0 < self.svm_tol < math.inf:
            raise ConfigError(f"svm_tol must be finite and positive, got {self.svm_tol!r}")
        if self.svm_max_passes < 1:
            raise ConfigError(f"svm_max_passes must be at least 1, got {self.svm_max_passes!r}")
        weights = self.ensemble_weights
        if len(weights) != 2 or any(w < 0 for w in weights) or not sum(weights) > 0:
            raise ConfigError(
                f"ensemble_weights must be two non-negative numbers with a "
                f"positive sum, got {weights!r}"
            )


@dataclass(frozen=True)
class EvalConfig:
    test_fraction: float = 0.3
    bootstrap_iterations: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be strictly between 0 and 1, got {self.test_fraction!r}"
            )
        if self.bootstrap_iterations < 100:
            raise ConfigError(
                f"bootstrap_iterations must be at least 100, got {self.bootstrap_iterations!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """A whole run's settings; every section checks its own fields when built."""

    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        hints = typing.get_type_hints(cls)
        kwargs: dict = {}
        for key, value in raw.items():
            if key not in hints:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _checked(value, hints[key], key)
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {path} is not valid JSON (byte offset {exc.pos}): {exc.msg}"
            ) from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["model"]["ensemble_weights"] = list(self.model.ensemble_weights)
        # the experiment seed is the single source; drop the derived copy so
        # the emitted dict is accepted by from_dict again
        out["training"].pop("seed", None)
        return out


# never read from JSON: the derived training seed and the SVM's objective trace
_NOT_READ = {"seed", "objective_history"}
_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
          dict: "an object"}


def _checked(value, hint, name: str, model_file: bool = False):
    """``value`` if it is JSON of the annotated type ``hint``, else ConfigError naming ``name``.

    A bool is not a number, an int is a float, a float must be finite,
    ``X | None`` takes null, ``tuple[...]`` takes a list of that length
    (returned as a tuple), ``list[X]`` a list of X, a dataclass an object
    and ``np.ndarray`` a list of numbers (see ``_numbers``).
    """
    optional = isinstance(hint, types.UnionType)  # annotations use unions only as X | None
    if optional:
        if value is None:
            return None
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if is_dataclass(hint):
        return _build_section(hint, value, name, model_file)
    if hint is np.ndarray:
        return _numbers(value, name)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        if isinstance(value, list):
            return [_checked(v, args[0], name) for v in value]
        raise ConfigError(f"{name} must be a list, got {value!r}")
    if args:
        if isinstance(value, list) and len(value) == len(args):
            return tuple(_checked(v, a, name) for v, a in zip(value, args))
        raise ConfigError(f"{name} must be a list of {len(args)} values, got {value!r}")
    if isinstance(value, bool) == (hint is bool) and isinstance(
        value, (int, float) if hint is float else hint
    ):
        if hint is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        return value
    null = " or null" if optional else ""
    raise ConfigError(f"{name} must be {_KINDS[hint]}{null}, got {value!r}")


def _check_keys(value: dict, keys, where: str, required: bool) -> None:
    unknown, missing = sorted(set(value) - set(keys)), sorted(set(keys) - set(value))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    if missing and required:
        raise ConfigError(f"missing field(s) {missing} in {where}")


def _build_section(cls, value, name: str, model_file: bool = False):
    """``cls`` from a JSON object; a model file's sections must set every field."""
    section = "section" if model_file else "config section"
    if not isinstance(value, dict):
        raise ConfigError(f"{section} {name!r} must be an object, got {value!r}")
    hints = {k: h for k, h in typing.get_type_hints(cls).items() if k not in _NOT_READ}
    _check_keys(value, hints, f"{section} {name!r}", required=model_file)
    try:
        kwargs = {k: _checked(v, hints[k], f"{name}.{k}", model_file) for k, v in value.items()}
        return cls(**kwargs)
    except QShieldError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} {name!r}: {exc}") from exc


@dataclass
class EnsembleModel:
    """Soft-voting mixture; weights normalize to sum 1 at construction."""

    members: list
    weights: np.ndarray

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("ensemble needs at least one member")
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(self.members),):
            raise ConfigError(
                f"{weights.shape} weights for {len(self.members)} members"
            )
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ConfigError("weights must be non-negative with a positive sum")
        self.weights = weights / weights.sum()

    def predict_proba(self, features) -> np.ndarray:
        """Weighted mean of the members' probabilities, per row."""
        return sum(w * m.predict_proba(features) for w, m in zip(self.weights, self.members))


# A model file holds its dataclass's fields by name, except that the SVM's
# objective trace is not saved (_NOT_READ) and a preprocess file states the
# ddof of its standard deviations.
_MODEL_CLASSES = {"vqc": VqcModel, "qsvm": SvmModel, "preprocess": PreprocessModel,
                  "ensemble": EnsembleModel}
_CONSTANTS = {"preprocess": {"std_ddof": 1}}


def _saved_fields(cls) -> list[str]:
    """Names of the saved fields of a model dataclass, each its key in the file."""
    return [f.name for f in fields(cls) if f.name not in _NOT_READ]


def _model_payload(model) -> dict:
    if isinstance(model, EnsembleModel):
        members = [_model_payload(m) for m in model.members]
        return {"model_type": "ensemble", "members": members, "weights": model.weights.tolist()}
    model_type = next((t for t, c in _MODEL_CLASSES.items() if type(model) is c), None)
    if model_type is None:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    payload = {"model_type": model_type, **_CONSTANTS.get(model_type, {})}
    for name in _saved_fields(type(model)):
        value = getattr(model, name)
        if is_dataclass(value):
            value = asdict(value)
        payload[name] = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    return payload


def save_model(model, path) -> None:
    """Write a versioned JSON model file (repr-precision floats)."""
    _write_json({"format_version": FORMAT_VERSION, **_model_payload(model)}, path)


def _write_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _publish(path: Path, write, *args) -> None:
    """Run ``write(*args, tmp)`` on ``.<name>.tmp`` beside ``path``, then rename it onto ``path``.

    A writer that fails midway leaves neither file behind, so an artifact
    is complete or absent.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(*args, tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _numbers(value, name: str) -> np.ndarray:
    """A (nested) list of finite numbers, not bools, as an int array if all are ints."""
    cells = np.array(value if isinstance(value, list) else [None], dtype=object)
    kinds = {type(v) for v in cells.flat}
    try:
        arr = cells.astype(int if kinds <= {int} else float) if kinds <= {int, float} else None
    except OverflowError as exc:
        raise ModelFormatError(f"{name} holds an integer out of range") from exc
    if arr is None or not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{name} must be a list of finite numbers, or of rows of them")
    return arr


def _decode_model(body: dict):
    """The model a parsed model file (without its format_version) holds."""
    model_type = body.pop("model_type", None)
    cls = next((c for t, c in _MODEL_CLASSES.items() if t == model_type), None)
    if cls is None:
        raise ModelFormatError(f"unknown model type {model_type!r}")
    keys = set(_saved_fields(cls)) | set(_CONSTANTS.get(model_type, ()))
    _check_keys(body, keys, f"section {model_type!r}", required=True)
    if cls is EnsembleModel:
        members = _checked(body["members"], list[dict], "ensemble.members")
        weights = _numbers(body["weights"], "ensemble.weights")
        return EnsembleModel([_decode_model(m) for m in members], weights)
    for key, value in _CONSTANTS.get(model_type, {}).items():
        if _checked(body.pop(key), int, f"{model_type}.{key}") != value:
            raise ModelFormatError(f"{model_type}.{key} must be {value}")
    for key in {"params", "means", "std_devs", "kept_columns"} & body.keys():
        if body[key] is None:
            raise ModelFormatError(f"{model_type}.{key} must not be null")
    model = _build_section(cls, body, model_type, model_file=True)
    if cls is SvmModel:
        coeffs, indices, vectors = model.dual_coeffs, model.support_indices, model.support_vectors
        lengths = [len(coeffs), len(indices), len(coeffs if vectors is None else vectors)]
        rows = vectors is None or not len(vectors) or vectors.ndim == 2
        if coeffs.ndim != 1 or indices.ndim != 1 or len(set(lengths)) > 1 or not rows:
            raise ModelFormatError(f"dual_coeffs, support_indices and support_vectors (feature "
                                   f"rows) have lengths {lengths}")
    if cls is PreprocessModel:
        means, stds, kept = model.means, model.std_devs, model.kept_columns
        if kept.ndim != 1 or not means.shape == stds.shape == kept.shape:
            raise ModelFormatError(f"means, std_devs and kept_columns must be lists of one "
                                   f"length, got shapes {means.shape}, {stds.shape}, {kept.shape}")
        if not np.all(stds > 0):
            raise ModelFormatError("std_devs must be > 0")
        basis, variance, center = model.pca_basis, model.explained_variance, model.pca_center
        if len({v is None for v in (basis, variance, center)}) > 1:
            raise ModelFormatError("pca_basis, explained_variance, pca_center: all or none null")
        if basis is not None and not (
            variance.ndim == 1 and basis.shape == (len(kept), len(variance))
            and center.shape == (len(kept),)
        ):
            raise ModelFormatError(f"pca_basis of shape {basis.shape} does not map {len(kept)} "
                                   f"kept columns (pca_center {center.shape}) onto "
                                   f"{variance.shape} explained variances")
    for key in ("support_indices", "kept_columns"):
        indices = getattr(model, key, np.zeros(0, dtype=int))
        if indices.dtype.kind != "i" or np.any(indices < 0):
            raise ModelFormatError(f"{model_type}.{key} must hold non-negative integers")
    return model


def load_model(path, expected_type: str | None = None):
    """Read a model file, checking version and (optionally) model type."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"model file {path} is not valid JSON (byte offset {exc.pos}): {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"model file {path} does not contain an object")
    version = payload.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model file {path} has unsupported format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if expected_type is not None and payload.get("model_type") != expected_type:
        raise ModelFormatError(
            f"model type mismatch in {path}: expected {expected_type!r}, "
            f"found {payload.get('model_type')!r}"
        )
    try:
        return _decode_model(payload)
    except (QShieldError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"model file {path} is invalid: {exc}") from exc


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


@contextmanager
def _output_dir(out_dir):
    """Create ``out_dir`` and hold it for one run by a ``flock`` on ``out_dir/.lock``.

    The kernel drops the lock when its holder exits, however it ends, so a
    crashed run never blocks the next one.  The holder unlinks ``.lock``
    before it lets go; a run that locked a file already unlinked (its inode
    no longer the one at the path) counts the directory as held.
    """
    out = Path(out_dir)
    lock = out / ".lock"
    try:
        out.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock, os.O_RDWR | os.O_CREAT)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            held = not os.path.samestat(os.fstat(fd), os.stat(lock))
        except (BlockingIOError, FileNotFoundError):
            held = True
        if held:
            raise ConfigError(f"output directory {out} is locked by another run")
        try:
            yield out
        finally:
            lock.unlink(missing_ok=True)
    finally:
        os.close(fd)


def _resolved_preprocess_config(config: PipelineConfig) -> PreprocessConfig:
    p = config.preprocess
    if p.apply_pca and p.pca_components is None:
        p = replace(p, pca_components=config.model.n_qubits)
    return p


def feature_map_spec(config: PipelineConfig) -> FeatureMapSpec:
    """The angle feature map the configured kernel SVM encodes with."""
    return FeatureMapSpec(config.model.n_qubits, config.model.repetitions)


def _load_and_preprocess(config: PipelineConfig, data_path):
    """The load and preprocess stages; returns (raw shape, fitted chain, processed data)."""
    with _stage("load"):
        loaded = [load_csv(data_path, config.data.label_column, config.data.positive_label)]
    shape = loaded[0].features.shape
    with _stage("preprocess"):
        # pop() hands over the only reference, so the fit can free the raw matrix
        pre_model, processed = fit_preprocess(loaded.pop(), _resolved_preprocess_config(config))
    return shape, pre_model, processed


def _train_model(config: PipelineConfig, train: Dataset):
    """Returns (model, extras-for-report)."""
    if train.labels.min() == train.labels.max():
        raise DegenerateInputError(
            f"training rows hold a single class: data.positive_label {config.data.positive_label!r}"
            f" must match some but not all of column {config.data.label_column!r}"
        )
    m = config.model
    extras: dict = {}
    training = replace(config.training, seed=config.seed + 1)
    if m.type in ("vqc", "ensemble"):
        arch = VqcModel.fresh(m.n_qubits, m.n_layers, m.repetitions, m.encoding)
        vqc_model, history = train_vqc(train, arch, training)
        extras["loss_history"] = [float(v) for v in history]
    if m.type in ("qsvm", "ensemble"):
        spec = feature_map_spec(config)
        svm_model = train_qsvm(
            kernel_matrix(train, spec),
            2 * train.labels - 1,
            m.svm_c,
            tol=m.svm_tol,
            max_passes=m.svm_max_passes,
            vectors=train.features,
            feature_map=spec,
        )
        extras["svm"] = {
            "converged": bool(svm_model.converged),
            "n_support": int(len(svm_model.support_indices)),
            "n_updates": int(svm_model.n_updates),
        }
    if m.type == "vqc":
        return vqc_model, extras
    if m.type == "qsvm":
        return svm_model, extras
    return EnsembleModel([vqc_model, svm_model], np.asarray(m.ensemble_weights)), extras


def predict_labels(model, features) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities clipped to [0, 1], labels) per row; label 1 (malicious) when p >= 0.5."""
    probabilities = np.asarray(model.predict_proba(features), dtype=float)
    bad = probabilities[~np.isfinite(probabilities)]
    if bad.size:
        raise NumericalError(f"classifier produced a non-finite probability ({float(bad[0])!r})")
    probabilities = np.clip(probabilities, 0.0, 1.0)
    return probabilities, (probabilities >= 0.5).astype(int)


def write_predictions_csv(probabilities, labels, path) -> None:
    """Columns: sample_index, probability, label."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("sample_index,probability,label\n")
        for i, (p, label) in enumerate(zip(probabilities.tolist(), labels.tolist())):
            fh.write(f"{i},{p!r},{label}\n")


def evaluate_predictions(labels, truth, config: PipelineConfig):
    """(metrics with their confusion matrix, accuracy bootstrap drawn from seed + 2)."""
    correct = (labels == truth).astype(int)
    stats = bootstrap_ci(correct, config.evaluation.bootstrap_iterations, config.seed + 2)
    return metrics(confusion(labels, truth)), stats


def run_experiment(config: PipelineConfig, data_path, out_dir) -> dict:
    """preprocess -> split -> train -> predict -> evaluate, writing artifacts.

    Writes model.json, preprocess.json, predictions.csv, report.json, and
    report.txt into ``out_dir`` and returns the report dictionary.
    """
    with _output_dir(out_dir) as out:
        (n_samples, n_features), pre_model, processed = _load_and_preprocess(config, data_path)
        with _stage("split"):
            train, test = train_test_split(
                processed, config.evaluation.test_fraction, config.seed
            )
        with _stage("train"):
            model, extras = _train_model(config, train)
        with _stage("predict"):
            probabilities, labels = predict_labels(model, test.features)
        with _stage("evaluate"):
            metric_report, stats = evaluate_predictions(labels, test.labels, config)
        with _stage("report"):
            metric_fields = asdict(metric_report)
            report = {
                "config": config.to_dict(),
                "data": {
                    "n_samples": n_samples,
                    "n_features": n_features,
                    "n_train": int(train.n_samples),
                    "n_test": int(test.n_samples),
                    "n_features_encoded": int(train.n_features),
                },
                "confusion": metric_fields.pop("confusion"),
                "metrics": metric_fields,
                "bootstrap": asdict(stats),
                **extras,
            }
            _publish(out / "model.json", save_model, model)
            _publish(out / "preprocess.json", save_model, pre_model)
            _publish(out / "predictions.csv", write_predictions_csv, probabilities, labels)
            _publish(out / "report.json", _write_json, report)
            _publish(out / "report.txt", _write_text, format_metrics_table(metric_report, stats))
    return report


def preprocess_experiment(config: PipelineConfig, data_path, out_dir) -> dict:
    """Standalone preprocessing: writes processed.csv and preprocess.json."""
    with _output_dir(out_dir) as out:
        (n_samples, n_features), pre_model, processed = _load_and_preprocess(config, data_path)
        # first, so that write_csv refusing a feature named "label" leaves no artifact
        _publish(out / "processed.csv", write_csv, processed)
        _publish(out / "preprocess.json", save_model, pre_model)
    return {
        "n_samples_in": n_samples,
        "n_samples_out": int(processed.n_samples),
        "n_features_in": n_features,
        "n_features_out": int(processed.n_features),
    }


def train_experiment(config: PipelineConfig, data_path, out_dir) -> dict:
    """Preprocess all rows and train the configured model on them.

    Writes model.json and preprocess.json into ``out_dir``; returns the row
    count and the training extras that ``run`` puts in its report.
    """
    with _output_dir(out_dir) as out:
        _, pre_model, processed = _load_and_preprocess(config, data_path)
        with _stage("train"):
            model, extras = _train_model(config, processed)
        _publish(out / "model.json", save_model, model)
        _publish(out / "preprocess.json", save_model, pre_model)
    return {"n_samples": int(processed.n_samples), **extras}
