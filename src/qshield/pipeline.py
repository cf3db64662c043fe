"""End-to-end experiment orchestration, model persistence, ensembles.

All artifacts are JSON or CSV written with sorted keys and repr-precision
floats, so identical (data, config, seed) runs produce byte-identical
files.  Stage seeds derive from the single experiment seed: split uses
seed, training seed + 1, bootstrap seed + 2.
"""

import fcntl
import importlib
import json
import os
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DegenerateInputError, ModelFormatError, NumericalError,
                     PipelineStageError, QShieldError)
from .limits import BOUND_SNAP, TrainConfig, check_ansatz, check_feature_map
from .preprocess import (Dataset, PreprocessConfig, _fit_preprocess, load_csv, train_test_split,
                         write_csv)

FORMAT_VERSION = 1
MODEL_TYPES = ("vqc", "qsvm", "ensemble")
CHAIN_KEY = "preprocess_sha256"  # run and train: the SHA-256 of the preprocess.json they write


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
        check_feature_map(self.n_qubits, self.repetitions)
        check_ansatz(self.n_layers, self.encoding, self.repetitions)
        if not self.svm_c >= BOUND_SNAP:
            raise ConfigError(f"model.svm_c must be at least {BOUND_SNAP}, got {self.svm_c!r}")
        if not 0 < self.svm_tol < 2:  # train_qsvm's range: at tol >= 2 it fits nothing
            raise ConfigError(f"svm_tol must lie in (0, 2), got {self.svm_tol!r}")
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
        return _build_section(cls, raw, "")

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        return cls.from_dict(_read_json(path, "config", ConfigError))

    def to_dict(self) -> dict:
        return _payload(self)


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
    """``cls`` from the JSON object at ``name`` ("" for a config); a model file sets every field."""
    where = f"{'section' if model_file else 'config section'} {name!r}" if name else "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    saved = _saved_fields(cls)
    _check_keys(value, saved, where, required=model_file)
    try:
        kwargs = {k: _checked(v, saved[k], f"{name}.{k}".lstrip("."), model_file)
                  for k, v in value.items()}
        return cls(**kwargs)
    except QShieldError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _saved_fields(cls) -> dict:
    """Type by name (its JSON key) of each dataclass field not marked ``saved: False``."""
    return {f.name: f.type for f in fields(cls) if f.metadata.get("saved", True)}


def _payload(obj) -> dict:
    """A dataclass's saved fields as JSON: sections as objects, arrays and tuples as lists."""
    out = {}
    for name in _saved_fields(type(obj)):
        value = getattr(obj, name)
        if is_dataclass(value):
            value = _payload(value)
        elif isinstance(value, (np.ndarray, np.generic, tuple)):
            value = list(value) if isinstance(value, tuple) else value.tolist()
        out[name] = value
    return out


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


# a model file holds its dataclass's saved fields; each class checks its own when built.
# A type's module is imported only when a file or a config names the type.
_MODEL_CLASSES = {"vqc": "vqc.VqcModel", "qsvm": "qkernel.SvmModel",
                  "preprocess": "preprocess.PreprocessModel", "ensemble": "pipeline.EnsembleModel"}


def _model_class(model_type: str) -> type:
    module, name = _MODEL_CLASSES[model_type].split(".")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _import_layers(model_type: str) -> None:
    """Import the modules that train ``model_type``; run and train do so before the CSV is
    read, so that the compiler's heap does not sit on top of the loaded matrix."""
    for member in ("vqc", "qsvm") if model_type == "ensemble" else (model_type,):
        _model_class(member)


def _model_payload(model) -> dict:
    model_type = next((t for t, path in _MODEL_CLASSES.items()
                       if path.partition(".")[2] == type(model).__name__), None)
    if model_type is None or type(model) is not _model_class(model_type):
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    payload = {"model_type": model_type, **_payload(model)}
    if model_type == "ensemble":
        payload["members"] = [_model_payload(m) for m in model.members]
    return payload


def _model_file(model) -> dict:
    return {"format_version": FORMAT_VERSION, **_model_payload(model)}


def save_model(model, path) -> None:
    """Write a versioned JSON model file (repr-precision floats)."""
    _write_text(_json_text(_model_file(model)), path)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _chain_digest(chain: bytes) -> str:
    """What a model file records, under CHAIN_KEY, of the preprocess.json bytes beside it."""
    import hashlib  # here, not at the top, so preprocess does not load it

    return hashlib.sha256(chain).hexdigest()


def _model_and_chain(out: Path, model, pre_model) -> tuple:
    """model.json and preprocess.json as ``_publish`` artifacts; the model file records the
    digest of the chain file, so a scorer can refuse any other chain."""
    chain = _json_text(_model_file(pre_model))
    model_file = {**_model_file(model), CHAIN_KEY: _chain_digest(chain.encode())}
    return ((out / "model.json", _write_text, _json_text(model_file)),
            (out / "preprocess.json", _write_text, chain))


def _write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _publish(*artifacts) -> None:
    """Publish ``(path, write, *args)`` artifacts as one set: each ``write(*args, tmp)``
    makes ``.<name>.tmp`` beside its path, and only once all are written are the old
    files at the paths removed and the new ones renamed onto them.

    So a failure never leaves files of two runs: a failing writer leaves the previous
    set whole, and a failed removal or rename leaves files of one run, the rest absent.
    No ``.tmp`` file stays.  An OSError becomes a ConfigError (exit 1), and so does a
    path that names no file (such as ``""``, ``.`` or ``out/``).
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for path, write, *args in artifacts:
            if os.path.basename(path) in ("", ".", ".."):
                raise ConfigError(f"cannot write {path}: the path names no file")
            target = Path(path)
            staged.append((target, target.with_name(f".{target.name}.tmp")))
            write(*args, staged[-1][1])
        for path, _ in staged:
            path.unlink(missing_ok=True)
        for path, tmp in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        for _, tmp in staged:
            tmp.unlink(missing_ok=True)


def _read_json(path, what: str, error: type[QShieldError]):
    """The JSON value in the UTF-8 file at ``path``, or ``error`` naming the file as ``what``
    when it cannot be read or decoded, is not JSON, or repeats a key in an object."""

    def unique_keys(pairs: list) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{what} {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON (byte offset {exc.pos}): {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting past the recursion limit
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


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
    cls = next((_model_class(t) for t in _MODEL_CLASSES if t == model_type), None)
    if cls is None:
        raise ModelFormatError(f"unknown model type {model_type!r}")
    _check_keys(body, _saved_fields(cls), f"section {model_type!r}", required=True)
    if cls is EnsembleModel:
        members = _checked(body["members"], list[dict], "ensemble.members")
        for i, member in enumerate(members):
            if member.get("model_type") == "preprocess":
                raise ModelFormatError(f"ensemble.members[{i}] is a preprocess model, not a classifier")
        weights = _numbers(body["weights"], "ensemble.weights")
        return EnsembleModel([_decode_model(m) for m in members], weights)
    non_null = {"params", "means", "std_devs", "kept_columns", "support_vectors", "feature_map"}
    for key in non_null & body.keys():
        if body[key] is None:
            raise ModelFormatError(f"{model_type}.{key} must not be null")
    model = _build_section(cls, body, model_type, model_file=True)
    for key in ("support_indices", "kept_columns"):
        indices = getattr(model, key, np.zeros(0, dtype=int))
        if indices.dtype.kind != "i" or np.any(indices < 0):
            raise ModelFormatError(f"{model_type}.{key} must hold non-negative integers")
    return model


def load_model(path, expected_types: tuple[str, ...]):
    """Read a model file, checking its version and that its type is one of ``expected_types``."""
    return _read_model(path, expected_types)[0]


def _read_model(path, expected_types: tuple[str, ...]) -> tuple:
    """``load_model``'s model, and the chain SHA-256 that the file records (None if none)."""
    payload = _read_json(path, "model file", ModelFormatError)
    if not isinstance(payload, dict):
        raise ModelFormatError(f"model file {path} does not contain an object")
    version = payload.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model file {path} has unsupported format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if payload.get("model_type") not in expected_types:
        raise ModelFormatError(
            f"model type mismatch in {path}: expected {' or '.join(map(repr, expected_types))}, "
            f"found {payload.get('model_type')!r}"
        )
    chain = payload.pop(CHAIN_KEY, None)
    try:
        return _decode_model(payload), chain
    except (QShieldError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"model file {path} is invalid: {exc}") from exc


@contextmanager
def _stage(name: str):
    try:
        yield
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


def feature_map_spec(config: PipelineConfig):
    """The angle feature map the configured kernel SVM encodes with."""
    from .encoding import FeatureMapSpec

    return FeatureMapSpec(config.model.n_qubits, config.model.repetitions)


def _load_and_preprocess(config: PipelineConfig, data_path):
    """The load and preprocess stages; returns (raw shape, fitted chain, processed data)."""
    with _stage("load"):
        loaded = load_csv(data_path, config.data.label_column, config.data.positive_label)
    with _stage("preprocess"):  # overwrites the loaded matrix; only its shape is read after
        pre_model, processed = _fit_preprocess(loaded, _resolved_preprocess_config(config))
    return loaded.features.shape, pre_model, processed


def _train_model(config: PipelineConfig, train: Dataset):
    """Returns (model, extras-for-report)."""
    if train.labels.min() == train.labels.max():
        raise DegenerateInputError(
            f"training rows hold a single class: data.positive_label {config.data.positive_label!r}"
            f" must match some but not all of column {config.data.label_column!r}"
        )
    m = config.model
    members: list = []
    extras: dict = {}
    if m.type in ("vqc", "ensemble"):
        from .vqc import VqcModel, train_vqc

        arch = VqcModel.fresh(m.n_qubits, m.n_layers, m.repetitions, m.encoding)
        vqc_model, history = train_vqc(train, arch, replace(config.training, seed=config.seed + 1))
        members.append(vqc_model)
        extras["loss_history"] = [float(v) for v in history]
    if m.type in ("qsvm", "ensemble"):
        from .qkernel import kernel_matrix, train_qsvm

        spec = feature_map_spec(config)
        fit = train_qsvm(kernel_matrix(train, spec), 2 * train.labels - 1, m.svm_c,
                         tol=m.svm_tol, max_passes=m.svm_max_passes)
        # the solver sees only the kernel; the model scores new rows against these
        svm_model = replace(fit, support_vectors=train.features[fit.support_indices],
                            feature_map=spec)
        members.append(svm_model)
        extras["svm"] = {
            "converged": bool(svm_model.converged),
            "n_support": int(len(svm_model.support_indices)),
            "n_updates": int(svm_model.n_updates),
        }
    weights = np.asarray(m.ensemble_weights)
    return (members[0] if len(members) == 1 else EnsembleModel(members, weights)), extras


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
    from .evalstats import bootstrap_ci, confusion, metrics

    correct = (labels == truth).astype(int)
    stats = bootstrap_ci(correct, config.evaluation.bootstrap_iterations, config.seed + 2)
    return metrics(confusion(labels, truth)), stats


def run_experiment(config: PipelineConfig, data_path, out_dir) -> dict:
    """preprocess -> split -> train -> predict -> evaluate, writing artifacts.

    Writes model.json, preprocess.json, predictions.csv, report.json, and
    report.txt into ``out_dir`` and returns the report dictionary.
    """
    from .evalstats import format_metrics_table

    with _output_dir(out_dir) as out:
        _import_layers(config.model.type)
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
            _publish(
                *_model_and_chain(out, model, pre_model),
                (out / "predictions.csv", write_predictions_csv, probabilities, labels),
                (out / "report.json", _write_text, _json_text(report)),
                (out / "report.txt", _write_text, format_metrics_table(metric_report, stats)),
            )
    return report


def preprocess_experiment(config: PipelineConfig, data_path, out_dir) -> dict:
    """Standalone preprocessing: writes processed.csv and preprocess.json."""
    with _output_dir(out_dir) as out:
        (n_samples, n_features), pre_model, processed = _load_and_preprocess(config, data_path)
        _publish(
            (out / "processed.csv", partial(write_csv, label_column=config.data.label_column,
                                            positive_label=config.data.positive_label), processed),
            (out / "preprocess.json", save_model, pre_model),
        )
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
        _import_layers(config.model.type)
        _, pre_model, processed = _load_and_preprocess(config, data_path)
        with _stage("train"):
            model, extras = _train_model(config, processed)
        _publish(*_model_and_chain(out, model, pre_model))
    return {"n_samples": int(processed.n_samples), **extras}
