"""Dataset ingestion and classical preprocessing.

The fitted transform is: standardize (dropping constant columns), remove
outlier rows, re-standardize, prune correlated columns, then optionally
project onto principal components found with LAPACK's symmetric
eigensolver (``np.linalg.eigh``).
Fitted models replay the whole chain on new data as one affine map plus
an optional projection.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DegenerateOutputError,
    IngestionError,
    InvalidInputError,
    ShapeError,
)

CONST_STD_FLOOR = 1e-12
# fp guard so exact duplicates register as |r| = 1 at threshold 1.0
CORR_EPS = 1e-12


@dataclass
class Dataset:
    """Feature matrix with binary labels (1 = malicious)."""

    feature_names: list[str]
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise InvalidInputError("features contain NaN or infinite entries")
        labels = np.asarray(self.labels)
        if labels.shape != (features.shape[0],):
            raise ShapeError(
                f"{labels.shape} labels for {features.shape[0]} feature rows"
            )
        if labels.size and not np.all(np.isin(labels, (0, 1))):
            raise InvalidInputError("labels must be 0 or 1")
        if len(self.feature_names) != features.shape[1]:
            raise ShapeError(
                f"{len(self.feature_names)} feature names for "
                f"{features.shape[1]} columns"
            )
        self.features = features
        self.labels = labels.astype(int)
        self.feature_names = list(self.feature_names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take_rows(self, index) -> "Dataset":
        return Dataset(self.feature_names, self.features[index], self.labels[index])

    def take_columns(self, index) -> "Dataset":
        names = [self.feature_names[i] for i in index]
        return Dataset(names, self.features[:, index], self.labels)


def load_csv(path, label_column: str, positive_label: str) -> Dataset:
    """Read a header-first CSV; the label column maps positive_label to 1.

    Rows stream into one flat buffer of doubles, so ingest holds 8 B per
    cell rather than the text.  Blank rows are skipped; errors name the
    data row (counting non-blank rows) and the physical line.
    """
    values = array("d")
    labels: list[int] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = filter(None, reader)
            header = next(rows, None)
            if header is None:
                raise IngestionError(f"{path}: file is empty")
            if label_column not in header:
                raise IngestionError(
                    f"{path}: label column {label_column!r} not found in header {header}"
                )
            label_idx = header.index(label_column)
            feature_names = header[:label_idx] + header[label_idx + 1:]
            for row_num, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}: row {row_num} (line {reader.line_num}): expected "
                        f"{len(header)} fields, got {len(row)}"
                    )
                labels.append(1 if row.pop(label_idx).strip() == positive_label else 0)
                try:
                    values.extend(map(float, row))
                except ValueError:
                    # drop what extend appended before the bad cell, then retry the row
                    del values[(row_num - 1) * len(feature_names):]
                    where = f"{path}: row {row_num} (line {reader.line_num})"
                    values.extend(_parse_cells(row, feature_names, where))
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not labels:
        raise DegenerateInputError(f"{path}: no data rows")
    features = np.frombuffer(values, dtype=float).reshape(len(labels), len(feature_names))
    return Dataset(feature_names, features, np.array(labels))


def _parse_cells(cells: list[str], names: list[str], where: str) -> list[float]:
    """Cell by cell after ``str.strip()``, which also drops the separators
    \\x1c-\\x1f that ``float()`` keeps; names the first cell that is not a number."""
    parsed = []
    for name, cell in zip(names, cells):
        try:
            parsed.append(float(cell.strip()))
        except ValueError:
            raise IngestionError(
                f"{where}: column {name!r}: cannot parse {cell.strip()!r} as a number"
            ) from None
    return parsed


def write_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Full-precision CSV dump with a trailing label column; a float prints as its repr.

    Rows become Python floats one at a time, so the dump holds one row of them."""
    if label_column in dataset.feature_names:
        raise InvalidInputError(f"feature column {label_column!r} is named like the label column")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + [label_column])
        rows = zip(dataset.features, dataset.labels.tolist())
        writer.writerows(row.tolist() + [label] for row, label in rows)


@dataclass
class PreprocessModel:
    """Fitted transform: column subset, affine standardization, optional PCA."""

    means: np.ndarray | None = None
    std_devs: np.ndarray | None = None
    kept_columns: np.ndarray | None = None
    pca_basis: np.ndarray | None = None
    explained_variance: np.ndarray | None = None
    pca_center: np.ndarray | None = None
    feature_names: list[str] = field(default_factory=list)


def fit_standardize(data: Dataset) -> PreprocessModel:
    """Column means and sample (n-1) standard deviations; constants dropped."""
    if data.n_samples < 2:
        raise DegenerateInputError(
            f"standardization needs at least 2 samples, got {data.n_samples}"
        )
    means = data.features.mean(axis=0)
    stds = data.features.std(axis=0, ddof=1)
    kept = np.flatnonzero(stds >= CONST_STD_FLOOR)
    return PreprocessModel(
        means=means[kept],
        std_devs=stds[kept],
        kept_columns=kept,
        feature_names=data.feature_names,
    )


def apply_standardize(model: PreprocessModel, data: Dataset) -> Dataset:
    """(x - mean) / std over the model's kept columns; fitted names must match, in order."""
    kept = model.kept_columns
    if kept.size and kept.max() >= data.n_features:
        raise ShapeError(
            f"model expects column {kept.max()} but data has {data.n_features} columns"
        )
    if model.feature_names and data.feature_names != model.feature_names:
        pairs = enumerate(zip([*data.feature_names, None], [*model.feature_names, None]))
        col, (got, want) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        raise ShapeError(f"data column {col + 1} is {got!r}, not the fitted {want!r}")
    feats = data.features[:, kept]  # a copy, so the arithmetic runs in place
    feats -= model.means
    feats /= model.std_devs
    names = [data.feature_names[c] for c in kept]
    return Dataset(names, feats, data.labels)


def fit_pca(data: Dataset, n_components: int) -> PreprocessModel:
    """Top-k principal directions of the sample covariance.

    Each component's largest-magnitude entry is made positive so the
    basis is reproducible.
    """
    if not isinstance(n_components, int) or n_components < 1:
        raise InvalidInputError(f"n_components must be a positive integer, got {n_components!r}")
    if n_components > data.n_features:
        raise ShapeError(
            f"cannot extract {n_components} components from {data.n_features} columns"
        )
    if data.n_samples < 2:
        raise DegenerateInputError(
            f"covariance needs at least 2 samples, got {data.n_samples}"
        )
    center = data.features.mean(axis=0)
    centered = data.features - center
    cov = centered.T @ centered / (data.n_samples - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order][:n_components]
    basis = evecs[:, order][:, :n_components].copy()
    for col in range(basis.shape[1]):
        pivot = np.argmax(np.abs(basis[:, col]))
        if basis[pivot, col] < 0:
            basis[:, col] = -basis[:, col]
    return PreprocessModel(
        pca_basis=basis,
        explained_variance=evals,
        pca_center=center,
        feature_names=data.feature_names,
    )


def apply_pca(model: PreprocessModel, data: Dataset) -> Dataset:
    """Project centered features onto the fitted basis; names become pc1..pck."""
    basis = model.pca_basis
    if basis is None:
        raise ConfigError("model has no fitted PCA basis")
    if data.n_features != basis.shape[0]:
        raise ShapeError(
            f"model expects {basis.shape[0]} columns, data has {data.n_features}"
        )
    projected = (data.features - model.pca_center) @ basis
    names = [f"pc{i + 1}" for i in range(basis.shape[1])]
    return Dataset(names, projected, data.labels)


def prune_correlated(data: Dataset, threshold: float = 0.95) -> tuple[Dataset, list[int]]:
    """Greedy Pearson pruning: scanning left to right, drop the later column
    of any pair with |r| >= threshold."""
    if not 0.0 < threshold <= 1.0:
        raise InvalidInputError(f"threshold must be in (0, 1], got {threshold!r}")
    d = data.n_features
    if d < 2 or data.n_samples < 2:
        return data.take_columns(list(range(d))), []
    corr = np.corrcoef(data.features, rowvar=False)
    keep = np.ones(d, dtype=bool)
    dropped: list[int] = []
    for i in range(d):
        if not keep[i]:
            continue
        for j in range(i + 1, d):
            if keep[j] and abs(corr[i, j]) >= threshold - CORR_EPS:
                keep[j] = False
                dropped.append(j)
    return data.take_columns(np.flatnonzero(keep)), sorted(dropped)


def remove_outliers(data: Dataset, z_cap: float = 5.0) -> tuple[Dataset, list[int]]:
    """Drop rows with any |value| > z_cap; expects standardized input."""
    if not z_cap > 0:
        raise InvalidInputError(f"z_cap must be positive, got {z_cap!r}")
    bad = (np.abs(data.features) > z_cap).any(axis=1)
    if bad.all() and data.n_samples > 0:
        raise DegenerateOutputError("outlier removal would discard every row")
    removed = np.flatnonzero(bad)
    return data.take_rows(~bad), [int(i) for i in removed]


def train_test_split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split; per class, round(fraction * count) rows go to test
    (at least one).  Singleton classes stay in train."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidInputError(
            f"test_fraction must be strictly between 0 and 1, got {test_fraction!r}"
        )
    if data.n_samples == 0:
        raise DegenerateInputError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    for cls in (0, 1):
        members = np.flatnonzero(data.labels == cls)
        count = len(members)
        if count == 0:
            continue
        if count == 1:
            continue  # singleton class stays in train
        n_test = max(1, int(math.floor(test_fraction * count + 0.5)))
        if n_test >= count:
            raise InvalidInputError(
                f"test_fraction {test_fraction} leaves no training rows for class {cls}"
            )
        picked = rng.permutation(members)[:n_test]
        test_idx.extend(int(i) for i in picked)
    if not test_idx or len(test_idx) == data.n_samples:
        raise InvalidInputError(
            f"test_fraction {test_fraction} produces an empty train or test part"
        )
    test_mask = np.zeros(data.n_samples, dtype=bool)
    test_mask[test_idx] = True
    return data.take_rows(~test_mask), data.take_rows(test_mask)


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the fitted chain."""

    correlation_threshold: float = 0.95
    outlier_z_cap: float = 5.0
    pca_components: int | None = None
    apply_pca: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.correlation_threshold <= 1.0:
            raise ConfigError(
                f"correlation_threshold must be in (0, 1], got {self.correlation_threshold!r}"
            )
        if not self.outlier_z_cap > 0:
            raise ConfigError(f"outlier_z_cap must be positive, got {self.outlier_z_cap!r}")
        if self.pca_components is not None and self.pca_components < 1:
            raise ConfigError(
                f"pca_components must be a positive integer, got {self.pca_components!r}"
            )


def fit_preprocess(data: Dataset, config: PreprocessConfig) -> tuple[PreprocessModel, Dataset]:
    """Fit the full chain and return (model, processed training data).

    The two standardization passes and the column drops are folded into a
    single affine map over the surviving original columns.

    ``data`` is never modified.  Each stage's result replaces its input, and
    ``data`` is dropped once standardized: a caller passing its only reference
    frees the raw matrix there on CPython >= 3.11, whose frames take over call
    arguments (a 3.10 caller's frame holds it until the fit returns).
    """
    first = fit_standardize(data)
    work = apply_standardize(first, data)
    del data
    work, _removed = remove_outliers(work, config.outlier_z_cap)
    if work.n_samples < 2:
        raise DegenerateInputError("fewer than 2 rows survive outlier removal")
    second = fit_standardize(work)
    work = apply_standardize(second, work)
    work, dropped_local = prune_correlated(work, config.correlation_threshold)
    if work.n_features == 0:
        raise DegenerateOutputError("no feature columns survive preprocessing")

    # compose the two affine passes over the surviving columns
    orig_after_second = first.kept_columns[second.kept_columns]
    mean_eff = first.means[second.kept_columns] + second.means * first.std_devs[second.kept_columns]
    std_eff = first.std_devs[second.kept_columns] * second.std_devs
    keep_local = np.delete(np.arange(len(orig_after_second)), dropped_local)
    model = PreprocessModel(
        means=mean_eff[keep_local],
        std_devs=std_eff[keep_local],
        kept_columns=orig_after_second[keep_local],
        feature_names=first.feature_names,
    )

    if config.apply_pca:
        k = config.pca_components
        if k is None:
            raise ConfigError("pca_components must be set when apply_pca is true")
        k = min(k, work.n_features)
        pca = fit_pca(work, k)
        model = replace(
            model,
            pca_basis=pca.pca_basis,
            explained_variance=pca.explained_variance,
            pca_center=pca.pca_center,
        )
        work = apply_pca(pca, work)
    return model, work


def apply_preprocess(model: PreprocessModel, data: Dataset) -> Dataset:
    """Replay a fitted chain on new data; ``data`` is dropped once standardized."""
    if model.kept_columns is None:
        raise ConfigError("model has no fitted standardization")
    data = apply_standardize(model, data)
    if model.pca_basis is not None:
        data = apply_pca(model, data)
    return data
