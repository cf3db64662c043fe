"""CSV ingestion, standardization, PCA on LAPACK eigh, pruning, splitting."""
import contextlib
import csv
import io
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from helpers import (
    jacobi_eigh,
    reference_fit_preprocess,
    reference_load_csv,
    reference_pca_signs,
    reference_prune_correlated,
    traced_peak,
)

from qshield import preprocess
from qshield.errors import (
    ConfigError,
    DegenerateInputError,
    DegenerateOutputError,
    IngestionError,
    InvalidInputError,
    QShieldError,
    ShapeError,
)
from qshield.preprocess import (
    Dataset,
    PreprocessConfig,
    PreprocessModel,
    apply_pca,
    apply_preprocess,
    apply_standardize,
    fit_pca,
    fit_preprocess,
    fit_standardize,
    load_csv,
    prune_correlated,
    remove_outliers,
    train_test_split,
    write_csv,
)


def toy_dataset(rng, n=20, d=4):
    return Dataset(
        [f"f{i}" for i in range(d)],
        rng.normal(size=(n, d)),
        rng.integers(0, 2, n),
    )


def planted_columns(seed, n=40, d=12):
    """Normal columns plus planted ones: column 3 copies column 0, 7 is an affine
    negation of 3, 9 is 5 plus noise, and 10 is constant (a NaN correlation)."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    feats[:, 3] = feats[:, 0]
    feats[:, 7] = 1.0 - 2.0 * feats[:, 3]
    feats[:, 9] = feats[:, 5] + 0.3 * rng.normal(size=n)
    feats[:, 10] = 4.0
    return Dataset([f"f{j}" for j in range(d)], feats, np.zeros(n, dtype=int))


def data_with_covariance_spectrum(rng, spectrum, n):
    """n rows whose sample covariance is R diag(spectrum) R^T, R a random rotation."""
    d = len(spectrum)
    noise = rng.normal(size=(n, d))
    # orthonormal columns orthogonal to the all-ones vector, so zero-mean
    white, _ = np.linalg.qr(noise - noise.mean(axis=0))
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    features = math.sqrt(n - 1) * (white * np.sqrt(spectrum)) @ rotation.T
    return Dataset([f"f{i}" for i in range(d)], features + 3.0, np.zeros(n, dtype=int))


class TestDataset:
    def test_properties(self):
        data = Dataset(["a", "b"], np.zeros((3, 2)), np.array([0, 1, 0]))
        assert data.n_samples == 3
        assert data.n_features == 2

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(["a"], np.array([[np.nan]]), np.array([0]))

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(["a"], np.zeros((2, 1)), np.array([0, 5]))

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(["a"], np.zeros((2, 1)), np.array([0]))

    def test_name_count_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(["a", "b", "c"], np.zeros((2, 2)), np.array([0, 1]))

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(["a"], np.zeros(3), np.array([0, 1, 0]))

    def test_take_rows_and_columns(self):
        data = Dataset(
            ["a", "b", "c"],
            np.arange(12.0).reshape(4, 3),
            np.array([0, 1, 0, 1]),
        )
        rows = data.take_rows([0, 2])
        assert rows.n_samples == 2
        assert list(rows.labels) == [0, 0]
        cols = data.take_columns([2, 0])
        assert cols.feature_names == ["c", "a"]
        np.testing.assert_array_equal(cols.features[:, 1], data.features[:, 0])


class TestCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = toy_dataset(rng, n=7, d=3)
        path = tmp_path / "out.csv"
        write_csv(data, path)
        back = load_csv(path, label_column="label", positive_label="1")
        assert back.feature_names == data.feature_names
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)

    def test_label_column_anywhere(self, tmp_path):
        path = self.write(tmp_path, "y,f0\n1,0.5\nbenign,1.5\n")
        data = load_csv(path, label_column="y", positive_label="1")
        assert data.feature_names == ["f0"]
        assert list(data.labels) == [1, 0]
        np.testing.assert_array_equal(data.features[:, 0], [0.5, 1.5])

    def test_positive_label_string(self, tmp_path):
        path = self.write(tmp_path, "f0,label\n1.0,malware\n2.0,clean\n")
        data = load_csv(path, label_column="label", positive_label="malware")
        assert list(data.labels) == [1, 0]

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "f0,label\n1.0,1\n\n2.0,0\n\n")
        data = load_csv(path, label_column="label", positive_label="1")
        assert data.n_samples == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_csv(tmp_path / "nope.csv", label_column="label", positive_label="1")

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_csv(self.write(tmp_path, ""), label_column="label", positive_label="1")

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "f0,f1\n1.0,2.0\n")
        with pytest.raises(IngestionError, match="label column"):
            load_csv(path, label_column="label", positive_label="1")

    @pytest.mark.parametrize("text", ["f0,f1\n1.0,2.0\n\n3.0,4.0\n", 'f0,f1\n"1.0",2.0\n3.0,4.0\n'])
    def test_missing_label_column_taken_when_labels_are_not_required(self, tmp_path, text):
        # the C reader takes the first file, the csv reader the quoted one
        data = load_csv(self.write(tmp_path, text), "label", "1", require_labels=False)
        assert data.feature_names == ["f0", "f1"]
        assert data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert data.labels.tolist() == [0, 0]

    def test_unlabelled_errors_name_row_line_and_column(self, tmp_path):
        path = self.write(tmp_path, "f0,f1\n1,2\n\n3,x\n")
        with pytest.raises(IngestionError, match=r"row 2 \(line 4\).*'f1'.*'x'"):
            load_csv(path, "label", "1", require_labels=False)

    def test_label_column_read_when_labels_are_not_required(self, tmp_path):
        path = self.write(tmp_path, "f0,label\n1.0,1\n2.0,0\n")
        assert load_csv(path, "label", "1", require_labels=False).labels.tolist() == [1, 0]

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "f0,label\n")
        with pytest.raises(DegenerateInputError):
            load_csv(path, label_column="label", positive_label="1")

    def test_header_only_warns_nothing(self, tmp_path):
        # loadtxt warns "input contained no data"; that must not reach a user
        path = self.write(tmp_path, "f0,label\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DegenerateInputError):
                load_csv(path, label_column="label", positive_label="1")
        assert caught == []

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n1.0,2.0,1\n3.0,oops,0\n")
        with pytest.raises(IngestionError, match=r"row 2 \(line 3\).*'f1'.*'oops'"):
            load_csv(path, label_column="label", positive_label="1")

    def test_errors_name_the_physical_line_after_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n\n\n1,2,1\n3,x,0\n")
        with pytest.raises(IngestionError, match=r"row 2 \(line 5\).*'b'.*'x'"):
            load_csv(path, label_column="label", positive_label="1")

    def test_ingest_holds_the_numbers_not_the_text(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "wide.csv"
        write_csv(toy_dataset(rng, n=2000, d=40), path)
        data, peak = traced_peak(load_csv, path, "label", "1")
        assert peak < 2 * data.features.nbytes + 2**20

    def test_plain_ingest_holds_little_beyond_the_matrix(self, tmp_path):
        # the rows' buffer grows as blocks arrive, so it holds somewhat more than
        # the matrix (about 1.23x here), but never the text (alone about 2.5x)
        rng = np.random.default_rng(11)
        path = tmp_path / "wide.csv"
        write_csv(toy_dataset(rng, n=4000, d=80), path)
        data, peak = traced_peak(load_csv, path, "label", "1")
        assert peak < 1.3 * data.features.nbytes + 2**16

    @staticmethod
    def spy_on_blocks(monkeypatch):
        """Each block's lines with what ``_plain_block`` returned for them."""
        calls = []
        plain_block = preprocess._plain_block

        def spy(lines, *args):
            calls.append((lines, plain_block(lines, *args)))
            return calls[-1][1]

        monkeypatch.setattr(preprocess, "_plain_block", spy)
        return calls

    def test_plain_file_takes_the_c_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        expected = toy_dataset(rng, n=4000, d=80)
        path = tmp_path / "wide.csv"
        write_csv(expected, path)
        blocks = self.spy_on_blocks(monkeypatch)
        data = load_csv(path, "label", "1")
        assert len(blocks) > 1
        assert all(table is not None for _, table in blocks)
        assert data.features.tobytes() == expected.features.tobytes()
        assert data.labels.tolist() == expected.labels.tolist()

    @pytest.mark.parametrize("text, error", [
        ('f0,label\n"1.5",1\n2.5,0\n', None),  # a quoted cell
        ("f0,label\n1_0,1\n2.5,0\n", None),  # float() takes it, the C parser does not
        ("f0,f1,label\n1,2,1\n3,0\n", IngestionError),  # a ragged row
    ])
    def test_other_files_reach_the_streaming_reader(self, tmp_path, monkeypatch, text, error):
        blocks = self.spy_on_blocks(monkeypatch)
        with pytest.raises(error) if error else contextlib.nullcontext():
            load_csv(self.write(tmp_path, text), "label", "1")
        assert [table is None for _, table in blocks] == [True]

    def test_nul_in_a_label_cell_takes_the_c_reader(self, tmp_path, monkeypatch):
        # the csv reader and the label converter both read "1\0" as a cell that is not "1"
        path = self.write(tmp_path, "f0,label\n1.5,1\0\n2.5,1\n")
        expected = reference_load_csv(path, "label", "1")
        blocks = self.spy_on_blocks(monkeypatch)
        data = load_csv(path, "label", "1")
        assert [table is None for _, table in blocks] == [False]
        assert data.labels.tolist() == expected.labels.tolist() == [0, 1]
        assert data.features.tobytes() == expected.features.tobytes()

    def test_late_refusal_parses_each_line_once(self, tmp_path, monkeypatch):
        # only the last row holds a cell numpy's parser refuses, so the csv
        # reader reads the header and the last block, nothing the C reader took
        rng = np.random.default_rng(19)
        path = tmp_path / "late.csv"
        write_csv(toy_dataset(rng, n=2000, d=10), path)
        with open(path, "a") as fh:
            fh.write("1_0," * 10 + "1\n")
        expected = reference_load_csv(path, "label", "1")
        blocks = self.spy_on_blocks(monkeypatch)
        rows, csv_reader = [], csv.reader

        class CountingReader:
            def __init__(self, lines):
                self.reader = csv_reader(lines)

            def __iter__(self):
                return self

            def __next__(self):
                rows.append(next(self.reader))
                return rows[-1]

            line_num = property(lambda self: self.reader.line_num)

        monkeypatch.setattr(csv, "reader", CountingReader)
        data = load_csv(path, "label", "1")
        monkeypatch.undo()
        assert len(blocks) > 2
        assert [table is None for _, table in blocks] == [False] * (len(blocks) - 1) + [True]
        assert len(rows) <= 1 + len(blocks[-1][0])
        assert data.feature_names == expected.feature_names
        assert data.labels.tolist() == expected.labels.tolist()
        assert data.features.tobytes() == expected.features.tobytes()

    @pytest.mark.parametrize("header", ["label,f0,f1", "f0,f1,label"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        # Excel's "CSV UTF-8" starts the file with one
        text = header + "\n1,0.5,2\n0,1.5,1\n"
        plain = load_csv(self.write(tmp_path, text), "label", "1")
        marked_path = tmp_path / "bom.csv"
        marked_path.write_text("\ufeff" + text, encoding="utf-8")
        marked = load_csv(marked_path, "label", "1")
        assert marked.feature_names == plain.feature_names == ["f0", "f1"]
        assert marked.labels.tolist() == plain.labels.tolist()
        assert marked.features.tobytes() == plain.features.tobytes()

    def test_write_matches_per_cell_repr(self, tmp_path):
        # the bytes of the per-cell writer that write_csv replaced, on signed
        # zeros, subnormals and extremes, and on header names csv.writer quotes
        rng = np.random.default_rng(17)
        n = 60
        feats = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-300, 300, size=(n, 5))
        feats[:4] = [[-0.0, 0.0, 5e-324, 1e308, 3.0],
                     [-5e-324, -1e308, 2.2250738585072014e-308, 0.1, 1 / 3],
                     [1e16, 1.5e-7, -2.0, 123456789.0, math.pi],
                     [np.nextafter(1.0, 2.0), 1e22, 1e-5, -1e-320, 100.0]]
        names = ["f0", "has,comma", 'has "quote"', "two\nlines", " spaced "]
        data = Dataset(names, feats, rng.integers(0, 2, n))
        path = tmp_path / "out.csv"
        write_csv(data, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(data.feature_names + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert path.read_bytes().startswith(b'f0,"has,comma","has ""quote""","two\nlines", spaced ,')

    @pytest.mark.parametrize("positive, negative, cell", [
        ("1", "0", "1"), ("0", "1", "0"), ("malware", "0", "malware"),
        ("mal,ware", "0", '"mal,ware"'), ('say "bad"', "0", '"say ""bad"""'),
    ])
    def test_write_names_the_label_column_and_classes(self, tmp_path, positive, negative, cell):
        # class 1 is the positive label as csv.writer quotes it; class 0 is 0 unless
        # that is the positive label; load_csv with the same names reads it back
        data = Dataset(["f0", "f1"], [[0.5, -1.0], [2.0, 3.0], [0.0, 1e-300]], [1, 0, 1])
        path = tmp_path / "out.csv"
        write_csv(data, path, label_column="kind", positive_label=positive)
        assert path.read_bytes().decode().split("\r\n") == [
            "f0,f1,kind", f"0.5,-1.0,{cell}", f"2.0,3.0,{negative}", f"0.0,1e-300,{cell}", ""]
        back = load_csv(path, "kind", positive)
        assert back.feature_names == ["f0", "f1"]
        assert back.labels.tolist() == [1, 0, 1]
        assert back.features.tobytes() == data.features.tobytes()

    def test_write_refuses_feature_named_like_label_column(self, tmp_path):
        data = Dataset(["a", "label"], np.zeros((2, 2)), np.array([0, 1]))
        path = tmp_path / "out.csv"
        with pytest.raises(InvalidInputError, match="feature column 'label'"):
            write_csv(data, path)
        assert not path.exists()

    def test_short_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n1.0,1\n")
        with pytest.raises(IngestionError, match="expected 3 fields, got 2"):
            load_csv(path, label_column="label", positive_label="1")


class TestStandardize:
    def test_zero_mean_unit_sample_std(self):
        rng = np.random.default_rng(5)
        data = toy_dataset(rng, n=50, d=3)
        model = fit_standardize(data)
        out = apply_standardize(model, data)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_uses_sample_not_population_std(self):
        data = Dataset(["x"], np.array([[0.0], [2.0]]), np.array([0, 1]))
        model = fit_standardize(data)
        # sample std of (0, 2) is sqrt(2), not 1
        assert model.std_devs[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_constant_column_dropped(self):
        data = Dataset(
            ["a", "const", "b"],
            np.array([[1.0, 7.0, 2.0], [3.0, 7.0, 5.0], [4.0, 7.0, 9.0]]),
            np.array([0, 1, 0]),
        )
        model = fit_standardize(data)
        out = apply_standardize(model, data)
        assert out.feature_names == ["a", "b"]
        assert list(model.kept_columns) == [0, 2]

    def test_single_row_rejected(self):
        data = Dataset(["a"], np.array([[1.0]]), np.array([0]))
        with pytest.raises(DegenerateInputError):
            fit_standardize(data)

    def test_apply_uses_training_statistics(self):
        train = Dataset(["x"], np.array([[0.0], [10.0]]), np.array([0, 1]))
        model = fit_standardize(train)
        new = Dataset(["x"], np.array([[5.0]]), np.array([0]))
        out = apply_standardize(model, new)
        assert out.features[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_apply_holds_one_copy_of_the_output(self):
        # the kept columns are gathered once and standardized in place: no
        # second full-size temporary for the difference or the quotient
        rng = np.random.default_rng(11)
        data = toy_dataset(rng, n=2000, d=40)
        model = fit_standardize(data)
        out, peak = traced_peak(apply_standardize, model, data)
        assert peak <= 1.5 * out.features.nbytes + 64 * 1024
        expected = (data.features[:, model.kept_columns] - model.means) / model.std_devs
        assert np.array_equal(out.features, expected)

    def test_apply_to_narrow_data_rejected(self):
        rng = np.random.default_rng(7)
        model = fit_standardize(toy_dataset(rng, n=10, d=4))
        with pytest.raises(ShapeError):
            apply_standardize(model, toy_dataset(rng, n=3, d=2))


class TestJacobi:
    """The cyclic Jacobi oracle that the PCA tests compare against."""

    def test_known_two_by_two(self):
        evals, evecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(sorted(evals), [1.0, 3.0], atol=1e-12)

    def test_matches_lapack_on_random_matrices(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 8):
            m = rng.normal(size=(n, n))
            sym = (m + m.T) / 2.0
            evals, _ = jacobi_eigh(sym)
            np.testing.assert_allclose(
                np.sort(evals), np.linalg.eigvalsh(sym), atol=1e-10
            )

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(6, 6))
        sym = (m + m.T) / 2.0
        evals, vecs = jacobi_eigh(sym)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(vecs @ np.diag(evals) @ vecs.T, sym, atol=1e-10)

    def test_diagonal_input_is_fixed_point(self):
        evals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 0.5]))
        np.testing.assert_allclose(sorted(evals), [-1.0, 0.5, 3.0], atol=1e-14)
        np.testing.assert_allclose(vecs, np.eye(3), atol=1e-14)

    def test_one_by_one(self):
        evals, vecs = jacobi_eigh(np.array([[4.0]]))
        assert evals[0] == 4.0
        assert vecs[0, 0] == 1.0

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            jacobi_eigh(np.zeros((2, 3)))


class TestPca:
    def test_line_data_has_diagonal_direction(self):
        t = np.linspace(-2, 2, 9)
        data = Dataset(["x", "y"], np.column_stack([t, t]), np.zeros(9, dtype=int))
        model = fit_pca(data, 2)
        np.testing.assert_allclose(
            model.pca_basis[:, 0], [1 / math.sqrt(2)] * 2, atol=1e-10
        )
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_projected_covariance_is_diagonal_descending(self):
        rng = np.random.default_rng(21)
        data = toy_dataset(rng, n=60, d=5)
        model = fit_pca(data, 5)
        out = apply_pca(model, data)
        cov = np.cov(out.features, rowvar=False, ddof=1)
        np.testing.assert_allclose(cov, np.diag(model.explained_variance), atol=1e-10)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_full_rank_projection_preserves_distances(self):
        rng = np.random.default_rng(25)
        data = toy_dataset(rng, n=30, d=4)
        out = apply_pca(fit_pca(data, 4), data)
        d_before = np.linalg.norm(data.features[0] - data.features[1])
        d_after = np.linalg.norm(out.features[0] - out.features[1])
        assert d_after == pytest.approx(d_before, abs=1e-10)

    @pytest.mark.parametrize("d, close_top", [(2, False), (19, False), (79, False), (79, True)])
    def test_matches_jacobi_oracle(self, d, close_top):
        rng = np.random.default_rng(60 + d)
        if close_top:
            # top of the preprocess-wide spectrum: leading eigenvalues within 1%
            spectrum = np.concatenate([[1.2825, 1.2736, 1.2549, 1.2407],
                                       np.linspace(1.2, 0.05, d - 4)])
            data = data_with_covariance_spectrum(rng, spectrum, n=4 * d)
        else:
            data = toy_dataset(rng, n=3 * d + 10, d=d)
        model = fit_pca(data, d)
        evals, evecs = jacobi_eigh(np.cov(data.features, rowvar=False, ddof=1))
        order = np.argsort(evals)[::-1]
        basis = evecs[:, order]
        pivots = np.argmax(np.abs(basis), axis=0)
        basis = basis * np.sign(basis[pivots, np.arange(d)])
        np.testing.assert_allclose(model.explained_variance, evals[order], rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.pca_basis, basis, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_flips_match_the_per_column_loop(self, seed):
        data = planted_columns(seed)
        data = data.take_columns([j for j in range(data.n_features) if j != 10])
        model = fit_pca(data, data.n_features)
        # the eigenvectors as fit_pca computes them, then the one-column-at-a-time flips
        centered = data.features - data.features.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / (data.n_samples - 1))
        raw = evecs[:, np.argsort(evals)[::-1]]
        basis = reference_pca_signs(raw)
        flipped = (basis != raw).any(axis=0)
        assert flipped.any() and not flipped.all()
        assert model.pca_basis.tobytes() == basis.tobytes()

    def test_sign_convention(self):
        rng = np.random.default_rng(27)
        model = fit_pca(toy_dataset(rng, n=40, d=4), 3)
        for col in range(3):
            pivot = np.argmax(np.abs(model.pca_basis[:, col]))
            assert model.pca_basis[pivot, col] > 0

    def test_component_names(self):
        rng = np.random.default_rng(33)
        data = toy_dataset(rng, n=20, d=4)
        out = apply_pca(fit_pca(data, 2), data)
        assert out.feature_names == ["pc1", "pc2"]

    def test_too_many_components(self):
        rng = np.random.default_rng(35)
        with pytest.raises(ShapeError):
            fit_pca(toy_dataset(rng, n=10, d=3), 4)

    def test_bad_component_count(self):
        rng = np.random.default_rng(39)
        with pytest.raises(InvalidInputError):
            fit_pca(toy_dataset(rng, n=10, d=3), 0)

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_pca(toy_dataset(np.random.default_rng(41), n=1, d=3), 2)

    def test_apply_to_wrong_width_rejected(self):
        rng = np.random.default_rng(42)
        model = fit_pca(toy_dataset(rng, n=10, d=3), 2)
        with pytest.raises(ShapeError):
            apply_pca(model, toy_dataset(rng, n=5, d=4))

    def test_apply_without_fit(self):
        from qshield.preprocess import PreprocessModel

        rng = np.random.default_rng(43)
        with pytest.raises(ConfigError):
            apply_pca(PreprocessModel(), toy_dataset(rng, n=5, d=2))


class TestPrune:
    def test_duplicate_column_dropped(self):
        rng = np.random.default_rng(45)
        base = rng.normal(size=20)
        data = Dataset(
            ["a", "copy", "b"],
            np.column_stack([base, base, rng.normal(size=20)]),
            np.zeros(20, dtype=int),
        )
        pruned, dropped = prune_correlated(data, 0.95)
        assert pruned.feature_names == ["a", "b"]
        assert dropped == [1]

    def test_negated_column_dropped(self):
        rng = np.random.default_rng(49)
        base = rng.normal(size=20)
        data = Dataset(
            ["a", "neg"],
            np.column_stack([base, -base]),
            np.zeros(20, dtype=int),
        )
        pruned, dropped = prune_correlated(data, 1.0)
        assert pruned.feature_names == ["a"]
        assert dropped == [1]

    def test_uncorrelated_columns_survive(self):
        rng = np.random.default_rng(51)
        data = toy_dataset(rng, n=200, d=4)
        pruned, dropped = prune_correlated(data, 0.95)
        assert pruned.n_features == 4
        assert dropped == []

    def test_earlier_column_wins(self):
        rng = np.random.default_rng(55)
        base = rng.normal(size=30)
        noise = base + 1e-8 * rng.normal(size=30)
        data = Dataset(
            ["first", "second"],
            np.column_stack([base, noise]),
            np.zeros(30, dtype=int),
        )
        pruned, dropped = prune_correlated(data, 0.99)
        assert pruned.feature_names == ["first"]
        assert dropped == [1]

    # a threshold, or (near_r) an offset from the 5-9 pair's |r|: within CORR_EPS or not
    @pytest.mark.parametrize("threshold, near_r", [
        (0.3, False), (0.95, False), (1.0, False), (-5e-13, True), (5e-13, True), (2e-12, True),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_greedy_pair_loop(self, seed, threshold, near_r):
        data = planted_columns(seed)
        with np.errstate(invalid="ignore", divide="ignore"):  # the constant column's NaN
            r = abs(np.corrcoef(data.features, rowvar=False)[5, 9])
            threshold += r if near_r else 0.0
            kept, dropped_ref = reference_prune_correlated(data, threshold)
            pruned, dropped = prune_correlated(data, threshold)
        assert 3 in dropped and 10 in kept  # the copy goes; a NaN correlation keeps its column
        if near_r:
            assert (9 in dropped) == (threshold <= r + preprocess.CORR_EPS)
        assert dropped == dropped_ref
        assert all(type(j) is int for j in dropped)
        assert pruned.feature_names == [f"f{j}" for j in kept]
        assert pruned.features.tobytes() == data.features[:, kept].tobytes()

    def test_threshold_validation(self):
        rng = np.random.default_rng(57)
        data = toy_dataset(rng, n=10, d=2)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                prune_correlated(data, bad)


class TestOutliers:
    def test_flagged_row_removed(self):
        feats = np.zeros((5, 2))
        feats[3, 1] = 9.0
        data = Dataset(["a", "b"], feats, np.zeros(5, dtype=int))
        cleaned, removed = remove_outliers(data, 5.0)
        assert cleaned.n_samples == 4
        assert removed == [3]
        assert type(removed[0]) is int

    def test_boundary_value_survives(self):
        feats = np.zeros((2, 1))
        feats[0, 0] = 5.0  # exactly at the cap, not beyond it
        data = Dataset(["a"], feats, np.zeros(2, dtype=int))
        cleaned, removed = remove_outliers(data, 5.0)
        assert cleaned.n_samples == 2
        assert removed == []

    def test_all_rows_dropped_rejected(self):
        data = Dataset(["a"], np.full((3, 1), 99.0), np.zeros(3, dtype=int))
        with pytest.raises(DegenerateOutputError):
            remove_outliers(data, 5.0)

    def test_bad_cap_rejected(self):
        data = Dataset(["a"], np.zeros((2, 1)), np.zeros(2, dtype=int))
        with pytest.raises(InvalidInputError):
            remove_outliers(data, 0.0)


class TestSplit:
    def make(self, n0, n1, seed=60):
        rng = np.random.default_rng(seed)
        labels = np.array([0] * n0 + [1] * n1)
        return Dataset(["x"], rng.normal(size=(n0 + n1, 1)), labels)

    def test_stratified_counts(self):
        data = self.make(10, 10)
        train, test = train_test_split(data, 0.2, seed=0)
        assert test.n_samples == 4
        assert list(np.bincount(test.labels)) == [2, 2]
        assert train.n_samples == 16

    def test_rounds_half_up(self):
        data = self.make(5, 5)
        train, test = train_test_split(data, 0.3, seed=0)
        # 0.3 * 5 = 1.5 rounds to 2 per class
        assert list(np.bincount(test.labels)) == [2, 2]

    def test_partition_is_exact(self):
        data = self.make(8, 6)
        train, test = train_test_split(data, 0.25, seed=1)
        assert train.n_samples + test.n_samples == 14
        combined = np.sort(np.concatenate([train.features[:, 0], test.features[:, 0]]))
        np.testing.assert_array_equal(combined, np.sort(data.features[:, 0]))

    def test_deterministic(self):
        data = self.make(9, 7)
        a_train, a_test = train_test_split(data, 0.3, seed=5)
        b_train, b_test = train_test_split(data, 0.3, seed=5)
        assert np.array_equal(a_test.features, b_test.features)
        c_train, c_test = train_test_split(data, 0.3, seed=6)
        assert not np.array_equal(a_test.features, c_test.features)

    def test_singleton_class_stays_in_train(self):
        data = self.make(6, 1)
        train, test = train_test_split(data, 0.3, seed=2)
        assert 1 not in test.labels
        assert (train.labels == 1).sum() == 1

    def test_singleton_class_split_matches_recorded_rows(self):
        # feature x is the row index; the rows are recorded values, so a change to the
        # permutation draw, or a singleton class that draws at all, shows here
        labels = np.array([0, 0, 0, 1, 0, 0, 0, 0, 0])
        train, test = train_test_split(Dataset(["x"], np.arange(9.0)[:, None], labels), 0.3, seed=4)
        assert train.features[:, 0].tolist() == [0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert test.features[:, 0].tolist() == [1.0, 2.0]
        assert train.labels.tolist() == [0, 1, 0, 0, 0, 0, 0]
        assert test.labels.tolist() == [0, 0]

    def test_empty_and_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            train_test_split(self.make(0, 0), 0.3, seed=0)
        with pytest.raises(InvalidInputError):  # a singleton class leaves test empty
            train_test_split(self.make(1, 0), 0.3, seed=0)

    def test_fraction_bounds(self):
        data = self.make(5, 5)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(InvalidInputError):
                train_test_split(data, bad, seed=0)

    def test_fraction_that_empties_train_rejected(self):
        data = self.make(5, 5)
        with pytest.raises(InvalidInputError):
            train_test_split(data, 0.999, seed=0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_every_stage_returns_c_order(order):
    # the fitted chain works in one C matrix; stages that return C order too give
    # the same bits as the chain, since numpy sums a C and an F matrix differently
    rng = np.random.default_rng(71)
    raw = toy_dataset(rng, n=30, d=5)
    data = Dataset(raw.feature_names, np.asarray(raw.features, order=order), raw.labels)
    assert data.features.flags.f_contiguous == (order == "F")
    standardize, pca = fit_standardize(data), fit_pca(data, 2)
    chain = fit_preprocess(data, PreprocessConfig(outlier_z_cap=2.5, apply_pca=False))[0]
    outputs = {
        "apply_standardize": apply_standardize(standardize, data),
        "take_columns": data.take_columns([3, 0, 1]),
        "remove_outliers": remove_outliers(data, 1.5)[0],
        "apply_pca": apply_pca(pca, data),
        "fit_preprocess": fit_preprocess(data, PreprocessConfig(apply_pca=False))[1],
        "apply_preprocess": apply_preprocess(chain, data),
    }
    for name, out in outputs.items():
        assert out.features.flags.c_contiguous and out.n_features > 1, name
    assert 0 < outputs["remove_outliers"].n_samples < data.n_samples


def random_fit_case(seed):
    """A seeded (dataset, config) mixing outlier rows, constant and
    near-duplicate columns, PCA on and off, and every threshold and cap."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8)) if seed % 4 == 0 else int(rng.integers(8, 60))
    d = int(rng.integers(1, 9))
    feats = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d) + rng.uniform(-5.0, 5.0, d)
    for j in range(1, d):
        if rng.random() < 0.3:
            source = int(rng.integers(0, j))
            noise = rng.choice([0.0, 1e-9, 1e-3, 0.1])
            feats[:, j] = rng.choice([-2.0, 1.0, 3.0]) * feats[:, source] + noise * rng.normal(size=n)
    constant = rng.random(d) < (1.0 if seed % 25 == 0 else 0.2)
    feats[:, constant] = rng.uniform(-3.0, 3.0, int(constant.sum()))
    if rng.random() < 0.5:
        rows = rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)
        feats[rows, int(rng.integers(0, d))] += rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 100.0)
    apply_pca = seed % 2 == 0
    config = PreprocessConfig(
        correlation_threshold=(0.5, 0.9, 0.95, 0.999, 1.0)[seed % 5],
        outlier_z_cap=(0.5, 1.0, 2.0, 5.0)[seed // 5 % 4] if n < 8 else (2.0, 3.0, 5.0)[seed % 3],
        pca_components=None if seed % 50 == 2 else int(rng.integers(1, d + 2)),
        apply_pca=apply_pca,
    )
    return Dataset([f"f{j}" for j in range(d)], feats, rng.integers(0, 2, n)), config


def assert_same_dataset(got, want):
    assert got.feature_names == want.feature_names
    for a, b in ((got.features, want.features), (got.labels, want.labels)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
            b.flags.c_contiguous, b.flags.f_contiguous)


def assert_same_model(got, want):
    for f in fields(PreprocessModel):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b


class TestFullChain:
    def test_fit_matches_reference_fit(self):
        # bitwise the same models, outputs and errors as the fit that kept each
        # stage's input alive, and the argument is left untouched
        outcomes = set()
        for seed in range(200):
            data, config = random_fit_case(seed)
            before = Dataset(data.feature_names, data.features.copy(), data.labels.copy())
            try:
                want = reference_fit_preprocess(data, config)
            except QShieldError as exc:
                with pytest.raises(type(exc)) as got:
                    fit_preprocess(data, config)
                assert str(got.value) == str(exc)
                outcomes.add(str(exc))
            else:
                model, processed = fit_preprocess(data, config)
                for f in fields(PreprocessModel):
                    a, b = getattr(model, f.name), getattr(want[0], f.name)
                    if isinstance(b, np.ndarray):
                        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                    else:
                        assert a == b
                assert_same_dataset(processed, want[1])
                outcomes.add("pca" if config.apply_pca else "no pca")
            assert_same_dataset(data, before)
        assert {
            "pca",
            "no pca",
            "fewer than 2 rows survive outlier removal",
            "no feature columns survive preprocessing",
            "outlier removal would discard every row",
            "pca_components must be set when apply_pca is true",
        } <= outcomes

    def test_overwriting_chain_matches_the_copying_one(self, tmp_path):
        # the commands fit and replay in the matrix load_csv returns (a view that
        # skips the label column); the public functions copy and leave it alone
        outcomes = set()
        for seed in range(1, 200, 3):
            data, config = random_fit_case(seed)
            path = tmp_path / f"{seed}.csv"
            write_csv(data, path)
            loaded = load_csv(path, "label", "1")
            before = loaded.features.copy()
            try:
                model, processed = fit_preprocess(loaded, config)
            except QShieldError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    preprocess._fit_preprocess(load_csv(path, "label", "1"), config)
                outcomes.add(type(exc).__name__)
                continue
            got_model, got = preprocess._fit_preprocess(load_csv(path, "label", "1"), config)
            assert_same_model(got_model, model)
            assert_same_dataset(got, processed)
            replayed = preprocess._apply_preprocess(model, load_csv(path, "label", "1"))
            assert_same_dataset(replayed, apply_preprocess(model, loaded))
            assert loaded.features.tobytes() == before.tobytes()
            outcomes.add("pca" if config.apply_pca else "no pca")
        assert {"pca", "no pca", "DegenerateOutputError"} <= outcomes

    @pytest.mark.parametrize("kept, order", [
        ([0, 1, 2, 0, 1, 2, 0, 1, 2], "C"), ([2, 1, 0], "C"), ([2, 1, 0], "F"),
    ])
    def test_replay_writes_inside_the_loaded_rows(self, kept, order):
        # a model may list a column twice or out of order: a wider map than the rows,
        # or rows that are not row-major, get a new matrix, and a reordering of row-major
        # rows compacts in place; nothing past them changes
        rng = np.random.default_rng(83)
        buffer = np.asarray(rng.normal(size=(50, 4)), order=order)
        rows = Dataset(["a", "b", "c"], buffer[:40, 1:], rng.integers(0, 2, 40))
        want = (rows.features[:, kept] - 0.5) / 2.0
        tail = buffer[40:].copy()
        model = PreprocessModel(means=np.full(len(kept), 0.5), std_devs=np.full(len(kept), 2.0),
                                kept_columns=np.array(kept), feature_names=["a", "b", "c"])
        got = preprocess._apply_preprocess(model, rows)
        assert np.array_equal(got.features, want) and got.features.flags.c_contiguous
        assert np.array_equal(buffer[40:], tail)

    def test_fit_holds_one_working_copy(self):
        # beyond the caller's input: one standardized working matrix and one
        # numpy temporary (with its boolean mask in remove_outliers)
        data = toy_dataset(np.random.default_rng(23), n=4000, d=80)
        _, peak = traced_peak(fit_preprocess, data, PreprocessConfig(pca_components=4))
        assert peak <= 2.25 * data.features.nbytes + 64 * 1024

    def composite_dataset(self):
        rng = np.random.default_rng(63)
        n = 50
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        c = rng.normal(size=n)
        feats = np.column_stack([a, a, np.full(n, 3.0), b, c, 2 * b])
        feats[7] += 40.0  # standardizes far past any sane z cap
        names = ["a", "dup_a", "const", "b", "c", "scaled_b"]
        return Dataset(names, feats, rng.integers(0, 2, n))

    def test_chain_drops_expected_columns_and_rows(self):
        data = self.composite_dataset()
        config = PreprocessConfig(
            correlation_threshold=0.95, outlier_z_cap=5.0,
            pca_components=3, apply_pca=True,
        )
        model, processed = fit_preprocess(data, config)
        # const dropped by std floor; dup_a and scaled_b by correlation
        assert [data.feature_names[i] for i in model.kept_columns] == ["a", "b", "c"]
        assert processed.n_samples == 49
        assert processed.feature_names == ["pc1", "pc2", "pc3"]

    def test_chain_without_pca(self):
        data = self.composite_dataset()
        config = PreprocessConfig(apply_pca=False)
        model, processed = fit_preprocess(data, config)
        assert model.pca_basis is None
        assert processed.feature_names == ["a", "b", "c"]
        np.testing.assert_allclose(processed.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(
            processed.features.std(axis=0, ddof=1), 1.0, atol=1e-10
        )

    def test_apply_without_standardization_rejected(self):
        with pytest.raises(ConfigError):
            apply_preprocess(PreprocessModel(), self.composite_dataset())

    def test_apply_replays_fit_transform(self):
        # on the surviving training rows, replay must equal the fitted output
        data = self.composite_dataset()
        config = PreprocessConfig(pca_components=2, apply_pca=True)
        model, processed = fit_preprocess(data, config)
        replayed = apply_preprocess(model, data)
        survivors = [i for i in range(data.n_samples) if i != 7]
        np.testing.assert_allclose(
            replayed.features[survivors], processed.features, atol=1e-10
        )

    def test_apply_on_fresh_rows(self):
        data = self.composite_dataset()
        config = PreprocessConfig(pca_components=2, apply_pca=True)
        model, _ = fit_preprocess(data, config)
        fresh = Dataset(data.feature_names, data.features[:5] * 1.0, data.labels[:5])
        out = apply_preprocess(model, fresh)
        assert out.n_features == 2
        assert out.n_samples == 5

    def test_pca_requested_without_component_count(self):
        data = self.composite_dataset()
        with pytest.raises(ConfigError):
            fit_preprocess(data, PreprocessConfig(pca_components=None, apply_pca=True))

    def test_component_count_clamped_to_survivors(self):
        data = self.composite_dataset()
        config = PreprocessConfig(pca_components=10, apply_pca=True)
        _, processed = fit_preprocess(data, config)
        assert processed.n_features == 3
