"""Dataset ingestion and classical preprocessing.

A CSV is read in one pass: numpy's C reader parses the body block by block,
and at the first block it refuses, a ``csv`` reader, the one source of
ingestion errors, takes over.  Both parse numbers with CPython's correctly
rounded string-to-double, so a row gives the same doubles either way.

The fitted transform is: standardize (dropping constant columns), remove
outlier rows, re-standardize, prune correlated columns, then optionally
project onto principal components found with LAPACK's symmetric
eigensolver (``np.linalg.eigh``).
Fitted models replay the whole chain on new data as one affine map plus
an optional projection.
"""

import csv
import io
import math
import warnings
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DegenerateOutputError,
    IngestionError,
    InvalidInputError,
    ShapeError,
)

# characters of CSV text per numpy parse: a block's temporaries stay small beside the matrix
BLOCK_CHARS = 1 << 16
CONST_STD_FLOOR = 1e-12
# fp guard so exact duplicates register as |r| = 1 at threshold 1.0
CORR_EPS = 1e-12
ROW_BLOCK = 256  # rows per block of a copy or reduction that would hold a matrix-sized temporary


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
        return _gather(self, np.arange(self.n_samples), index)


def load_csv(path, label_column: str, positive_label: str, require_labels: bool = True) -> Dataset:
    """Read a header-first CSV; the label column maps positive_label to 1.

    With ``require_labels`` false, a header without the label column is
    taken too: every column is a feature and the labels are zeros.

    One pass over one open file: numpy's C reader parses the body in blocks
    of about ``BLOCK_CHARS`` characters (``_plain_block``), and the csv
    reader takes the first block it refuses and the rest of the file, giving
    the same dataset or raising the documented error.  Rows go into one flat
    buffer of doubles, any label last, so ingest holds 8 B per cell rather than
    the text.  A leading UTF-8 byte-order mark is dropped.  Blank rows are
    skipped; errors name the data row (counting non-blank rows) and the
    physical line.
    """
    values = array("d")
    lines_read = 0  # physical lines before those the current csv reader has read
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(filter(None, reader), None)
            if header is None:
                raise IngestionError(f"{path}: file is empty")
            if label_column not in header and require_labels:
                raise IngestionError(
                    f"{path}: label column {label_column!r} not found in header {header}"
                )
            label_idx = header.index(label_column) if label_column in header else None
            width = len(header)
            feature_names = [name for i, name in enumerate(header) if i != label_idx]
            lines_read = reader.line_num
            while block := fh.readlines(BLOCK_CHARS):
                table = _plain_block(block, label_idx, width, positive_label)
                if table is None:
                    break
                values.frombytes(memoryview(table).cast("B"))
                lines_read += len(block)
            reader = csv.reader(chain(block, fh))
            for row_num, row in enumerate(filter(None, reader), start=len(values) // width + 1):
                if len(row) != width:
                    raise IngestionError(
                        f"{path}: row {row_num} (line {lines_read + reader.line_num}): "
                        f"expected {width} fields, got {len(row)}"
                    )
                label = [] if label_idx is None else [row.pop(label_idx).strip() == positive_label]
                try:
                    values.extend(map(float, row))
                except ValueError:
                    # drop what extend appended before the bad cell, then retry the row
                    del values[(row_num - 1) * width:]
                    where = f"{path}: row {row_num} (line {lines_read + reader.line_num})"
                    values.extend(_parse_cells(row, feature_names, where))
                values.extend(label)
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise IngestionError(f"{path}: line {lines_read + reader.line_num}: {exc}") from exc
    if not values:
        raise DegenerateInputError(f"{path}: no data rows")
    table = np.frombuffer(values).reshape(-1, width)
    if label_idx is None:
        return Dataset(feature_names, table, np.zeros(len(table), dtype=int))
    return Dataset(feature_names, table[:, :-1], table[:, -1].astype(int))


def _plain_block(lines: list[str], label_idx: int | None, width: int,
                 positive_label: str) -> np.ndarray | None:
    """The lines parsed by ``np.loadtxt`` into one float matrix, any label column last.

    None for lines the C reader cannot match exactly: a quote in a label
    cell (a quote in a feature cell fails the float parse), a line
    longer than the csv field limit, a cell numpy's float parser refuses
    (such as ``1_0``), a ragged row or no data rows.
    """
    if max(map(len, lines)) > csv.field_size_limit():
        return None

    def label(cell: str) -> bool:
        if '"' in cell:  # csv unquotes it
            raise ValueError("quote in a label cell")
        return cell.strip() == positive_label

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            table = np.loadtxt(
                lines, delimiter=",", comments=None, ndmin=2,
                converters={} if label_idx is None else {label_idx: label},
            )
    except (ValueError, UserWarning):
        return None
    # loadtxt fixes the width from the first row, which may not be the header's
    if table.shape[1] != width:
        return None
    if label_idx in (None, width - 1):
        return table
    return table.take([*range(label_idx), *range(label_idx + 1, width), label_idx], axis=1)


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


def write_csv(dataset: Dataset, path, label_column: str = "label",
              positive_label: str = "1") -> None:
    """Full-precision CSV dump, a float as its repr, that ``load_csv`` with the same label
    names reads back: class 1 is ``positive_label``, class 0 ``0`` (``1`` if that is taken).

    Only the header and the positive label go through ``csv.writer``, since a name may need
    quoting; a row of reprs never does, so it is joined as ``csv.writer`` would write it."""
    if label_column in dataset.feature_names:
        raise InvalidInputError(f"feature column {label_column!r} is named like the label column")
    quoted = io.StringIO()
    csv.writer(quoted).writerow(["", positive_label])  # "," + the cell + "\r\n"
    label_text = ("1" if positive_label == "0" else "0", quoted.getvalue()[1:-2])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(dataset.feature_names + [label_column])
        for row, label in zip(dataset.features, dataset.labels.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{label_text[label]}\r\n")


@dataclass
class PreprocessModel:
    """Fitted transform: column subset, affine standardization, optional PCA; either part
    may be absent, all its arrays None (``fit_standardize`` fits no PCA, ``fit_pca`` no
    standardization)."""

    means: np.ndarray | None = None
    std_devs: np.ndarray | None = None
    kept_columns: np.ndarray | None = None
    pca_basis: np.ndarray | None = None
    explained_variance: np.ndarray | None = None
    pca_center: np.ndarray | None = None
    feature_names: list[str] = field(default_factory=list)
    std_ddof: int = 1  # std_devs are sample (n - 1) deviations; a saved file states it

    def __post_init__(self) -> None:
        if self.std_ddof != 1:
            raise ConfigError("preprocess.std_ddof must be 1")
        means, stds, kept = self.means, self.std_devs, self.kept_columns
        shapes = np.shape(means), np.shape(stds), np.shape(kept)
        standardized = any(v is not None for v in (means, stds, kept))
        if standardized and (np.ndim(kept) != 1 or len(set(shapes)) > 1):
            raise ShapeError(f"means, std_devs and kept_columns must be lists of one "
                             f"length, got shapes {', '.join(map(str, shapes))}")
        if standardized and not np.all(stds > 0):
            raise InvalidInputError("std_devs must be > 0")
        basis, variance, center = self.pca_basis, self.explained_variance, self.pca_center
        if len({v is None for v in (basis, variance, center)}) > 1:
            raise ConfigError("pca_basis, explained_variance, pca_center: all or none null")
        if basis is not None:
            n_in = len(center if kept is None else kept)
            if not (np.ndim(variance) == 1 and np.shape(basis) == (n_in, len(variance))
                    and np.shape(center) == (n_in,)):
                raise ShapeError(f"pca_basis of shape {np.shape(basis)} does not map {n_in} "
                                 f"kept columns (pca_center {np.shape(center)}) onto "
                                 f"{np.shape(variance)} explained variances")


def _gather(data: Dataset, rows, cols, overwrite: bool = False) -> Dataset:
    """``data``'s ascending ``rows`` and its ``cols`` in a new C matrix or, with ``overwrite`` on a
    row-major matrix no narrower, its front: a row lands at or before its source, read first."""
    x, shape = data.features, (len(rows), len(cols))
    row_major = x.strides[1] == x.itemsize and x.strides[0] >= x.itemsize * x.shape[1]
    out = (np.lib.stride_tricks.as_strided(x, shape, (shape[1] * x.itemsize, x.itemsize))
           if overwrite and row_major and shape[1] <= x.shape[1] else np.empty(shape))
    for r in range(0, len(rows), ROW_BLOCK):
        out[r:r + ROW_BLOCK] = x[np.ix_(rows[r:r + ROW_BLOCK], cols)]
    return Dataset([data.feature_names[c] for c in cols], out, data.labels[rows])


def fit_standardize(data: Dataset) -> PreprocessModel:
    """Column means and sample (n-1) standard deviations; constants dropped."""
    if data.n_samples < 2:
        raise DegenerateInputError(
            f"standardization needs at least 2 samples, got {data.n_samples}"
        )
    means, total = data.features.mean(axis=0), np.zeros(data.n_features)
    for r in range(0, data.n_samples, ROW_BLOCK):
        total += ((data.features[r:r + ROW_BLOCK] - means) ** 2).sum(axis=0)
    stds = np.sqrt(total / (data.n_samples - 1))
    kept = np.flatnonzero(stds >= CONST_STD_FLOOR)
    return PreprocessModel(
        means=means[kept],
        std_devs=stds[kept],
        kept_columns=kept,
        feature_names=data.feature_names,
    )


def _standardize(model: PreprocessModel, data: Dataset) -> Dataset:
    """``apply_standardize`` in the memory of ``data.features``."""
    kept = model.kept_columns
    if kept.size and kept.max() >= data.n_features:
        raise ShapeError(
            f"model expects column {kept.max()} but data has {data.n_features} columns"
        )
    if model.feature_names and data.feature_names != model.feature_names:
        pairs = enumerate(zip([*data.feature_names, None], [*model.feature_names, None]))
        col, (got, want) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        raise ShapeError(f"data column {col + 1} is {got!r}, not the fitted {want!r}")
    out = _gather(data, np.arange(data.n_samples), kept, overwrite=True)
    out.features -= model.means
    out.features /= model.std_devs
    return replace(out)  # checked again, as x / std can overflow


def apply_standardize(model: PreprocessModel, data: Dataset) -> Dataset:
    """(x - mean) / std over the model's kept columns; fitted names must match, in order."""
    return _standardize(model, replace(data, features=data.features.copy(order="C")))


def _centred_products(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of ``x`` and its centred columns' products, summed a row block at a time."""
    center = x.mean(axis=0)
    products = np.zeros((x.shape[1], x.shape[1]))
    for r in range(0, len(x), ROW_BLOCK):
        centred = x[r:r + ROW_BLOCK] - center
        products += centred.T @ centred
    return center, products


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
    center, products = _centred_products(data.features)
    evals, evecs = np.linalg.eigh(products / (data.n_samples - 1))
    order = np.argsort(evals)[::-1]
    evals = evals[order][:n_components]
    basis = evecs[:, order][:, :n_components].copy()
    pivots = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    basis[:, pivots < 0] *= -1.0
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
    projected = np.empty((data.n_samples, basis.shape[1]))
    for r in range(0, data.n_samples, ROW_BLOCK):
        projected[r:r + ROW_BLOCK] = (data.features[r:r + ROW_BLOCK] - model.pca_center) @ basis
    names = [f"pc{i + 1}" for i in range(basis.shape[1])]
    return Dataset(names, projected, data.labels)


def _uncorrelated(x: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the columns that greedy Pearson pruning keeps."""
    keep = np.ones(x.shape[1], dtype=bool)
    if x.shape[1] < 2 or len(x) < 2:
        return keep
    products = _centred_products(x)[1]
    scale = np.sqrt(np.diag(products))
    corr = np.abs(products / scale[:, None] / scale)
    for i in range(len(keep)):
        if keep[i]:
            # ~(>=), not <, so a NaN correlation keeps its column
            keep[i + 1:] &= ~(corr[i, i + 1:] >= threshold - CORR_EPS)
    return keep


def prune_correlated(data: Dataset, threshold: float = 0.95) -> tuple[Dataset, list[int]]:
    """Greedy Pearson pruning: scanning left to right, drop the later column
    of any pair with |r| >= threshold."""
    if not 0.0 < threshold <= 1.0:
        raise InvalidInputError(f"threshold must be in (0, 1], got {threshold!r}")
    keep = _uncorrelated(data.features, threshold)
    return data.take_columns(np.flatnonzero(keep)), np.flatnonzero(~keep).tolist()


def _outlier_rows(x: np.ndarray, z_cap: float) -> np.ndarray:
    """Mask of the rows with any |value| > z_cap, from row maxima and minima (no |x| copy)."""
    bad = (x.max(axis=1, initial=-np.inf) > z_cap) | (x.min(axis=1, initial=np.inf) < -z_cap)
    if bad.all() and len(x) > 0:
        raise DegenerateOutputError("outlier removal would discard every row")
    return bad


def remove_outliers(data: Dataset, z_cap: float = 5.0) -> tuple[Dataset, list[int]]:
    """Drop rows with any |value| > z_cap; expects standardized input."""
    if not z_cap > 0:
        raise InvalidInputError(f"z_cap must be positive, got {z_cap!r}")
    bad = _outlier_rows(data.features, z_cap)
    return data.take_rows(~bad), np.flatnonzero(bad).tolist()


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
    test_mask = np.zeros(data.n_samples, dtype=bool)
    for cls in (0, 1):
        members = np.flatnonzero(data.labels == cls)
        if len(members) < 2:
            continue  # an absent or singleton class stays in train
        n_test = max(1, int(math.floor(test_fraction * len(members) + 0.5)))
        if n_test >= len(members):
            raise InvalidInputError(
                f"test_fraction {test_fraction} leaves no training rows for class {cls}"
            )
        test_mask[rng.permutation(members)[:n_test]] = True
    if not test_mask.any() or test_mask.all():
        raise InvalidInputError(
            f"test_fraction {test_fraction} produces an empty train or test part"
        )
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
    single affine map over the surviving original columns.  ``data`` is
    never modified: the chain runs in a copy.
    """
    return _fit_preprocess(replace(data, features=data.features.copy(order="C")), config)


def _fit_preprocess(data: Dataset, config: PreprocessConfig):  # overwrites data.features
    first = fit_standardize(data)
    work = _standardize(first, data)
    rows = np.flatnonzero(~_outlier_rows(work.features, config.outlier_z_cap))
    work = _gather(work, rows, np.arange(work.n_features), overwrite=True)
    if work.n_samples < 2:
        raise DegenerateInputError("fewer than 2 rows survive outlier removal")
    second = fit_standardize(work)
    work = _standardize(second, work)
    keep_local = np.flatnonzero(_uncorrelated(work.features, config.correlation_threshold))
    work = _gather(work, np.arange(work.n_samples), keep_local, overwrite=True)
    if work.n_features == 0:
        raise DegenerateOutputError("no feature columns survive preprocessing")

    # compose the two affine passes over the surviving columns
    orig_after_second = first.kept_columns[second.kept_columns]
    mean_eff = first.means[second.kept_columns] + second.means * first.std_devs[second.kept_columns]
    std_eff = first.std_devs[second.kept_columns] * second.std_devs
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
        pca = fit_pca(work, min(k, work.n_features))
        model = replace(
            model,
            pca_basis=pca.pca_basis,
            explained_variance=pca.explained_variance,
            pca_center=pca.pca_center,
        )
        work = apply_pca(pca, work)
    return model, work


def apply_preprocess(model: PreprocessModel, data: Dataset) -> Dataset:
    """Replay a fitted chain on new data; ``data`` is never modified."""
    return _apply_preprocess(model, replace(data, features=data.features.copy(order="C")))


def _apply_preprocess(model: PreprocessModel, data: Dataset) -> Dataset:  # overwrites data.features
    if model.kept_columns is None:
        raise ConfigError("model has no fitted standardization")
    data = _standardize(model, data)
    return data if model.pca_basis is None else apply_pca(model, data)
