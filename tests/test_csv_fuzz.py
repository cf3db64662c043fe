"""Property test: the streaming load_csv agrees with the list-of-rows reader it
replaced (helpers.reference_load_csv) on generated CSV text.

Both must return the same names, labels and bitwise-equal features, or raise
the same exception class.  The messages must match too, with two intended
differences: errors name the physical line (the old reader printed the data
row number plus one, wrong after a blank line), and a csv module error (a
field over its size limit) becomes an IngestionError naming the line, which
the old reader let escape raw and raised before any data fault.
"""
import csv
import re
import tempfile
from pathlib import Path

import pytest
from helpers import reference_load_csv

from qshield.errors import IngestionError, QShieldError
from qshield.preprocess import load_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELD_LIMIT = csv.field_size_limit()
WHITESPACE = (
    " \t\x0b\x0c\x1c\x1d\x1e\x1f"
    "\x85\xa0\u1680\u2000\u2003\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
FINITE = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-10**6, 10**6).map(str)
    | st.sampled_from(["1_0", ".5", "+1.", "1E-3", "-0"])
)
NON_FINITE = st.sampled_from(["nan", "NaN", "-inf", "1e999"])
# no comma, quote or line break, so an unquoted cell stays one cell
NOT_NUMBERS = st.text(
    st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",)), max_size=3
)
LABELS = st.sampled_from(["1", "0", "malware", ""])
LINE_BREAK = re.compile(r"\r\n|\r|\n")


@st.composite
def _cell(draw, values):
    """A value padded with whitespace, quoted or not; a quoted cell may hold line breaks."""
    quoted = draw(st.booleans())
    pad = st.text(st.sampled_from(WHITESPACE + ("\r\n" if quoted else "")), max_size=2)
    body = draw(pad) + draw(values) + draw(pad)
    return f'"{body}"' if quoted else body


@st.composite
def csv_files(draw):
    """(records, endings): rows of rendered cells, [] for a blank line, and each
    record's line ending.  Half the files hold finite numbers in full rows only."""
    n_features = draw(st.integers(0, 3))
    header = [f"f{i}" for i in range(n_features)]
    label_at = draw(st.integers(0, n_features))
    header.insert(label_at, "y" if draw(st.integers(0, 9)) == 0 else "label")
    if draw(st.booleans()):
        values, widths = FINITE, st.just(len(header))
    else:
        values = st.one_of(FINITE, NON_FINITE, NOT_NUMBERS)
        widths = st.one_of(st.just(len(header)), st.integers(0, len(header) + 1))
    records = [[]] * draw(st.integers(0, 1)) + [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            records.append([])
        else:
            cells = [LABELS if i == label_at else values for i in range(draw(widths))]
            records.append([draw(_cell(c)) for c in cells])
    endings = st.lists(
        st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(records), max_size=len(records)
    )
    return records, draw(endings)


def _render(records, endings):
    """The CSV text and, for each non-blank record, its last physical line."""
    text, lines = "", []
    for cells, ending in zip(records, endings):
        record = ",".join(cells)
        text += record
        if record:
            lines.append(1 + len(LINE_BREAK.findall(text)))
        text += ending
    return text, lines


def _unquoted(cell: str) -> str:
    return cell[1:-1] if len(cell) >= 2 and cell[0] == cell[-1] == '"' else cell


def _oversized_record(records) -> int:
    """Index, among the non-blank records, of the first holding a field over the csv limit."""
    rows = [cells for cells in records if ",".join(cells)]
    return next(
        i for i, cells in enumerate(rows) if any(len(_unquoted(c)) > FIELD_LIMIT for c in cells)
    )


def _with_physical_line(message: str, data_lines: list[int]) -> str:
    """The old message with "row N (line N+1)" naming row N's physical line."""
    return re.sub(
        r"row (\d+) \(line \d+\)",
        lambda m: f"row {m[1]} (line {data_lines[int(m[1]) - 1]})",
        message,
    )


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(csv_files())
@hypothesis.example(([["f0", "label"], ["1" * (FIELD_LIMIT + 1), "1"]], ["\n", "\n"]))
@hypothesis.example(([["f0", "label"], ["x" * (FIELD_LIMIT + 1)]], ["\n", "\n"]))
@hypothesis.example(([["a", "b", "label"], [], [], ["1", "2", "1"], ["3", "x", "0"]], ["\n"] * 5))
@hypothesis.example(([["a", "label"], ['"1\r\n"', "1"], ["2", "0", "9"]], ["\n", "\r\n", "\n"]))
@hypothesis.example(([["a", "b", "label"], ["1", "2\x1f", "1"], ["3", "4", "0"]], ["\n"] * 3))
def test_load_csv_matches_reference(file):
    records, endings = file
    text, lines = _render(records, endings)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            expected = reference_load_csv(path, "label", "1")
        except csv.Error as exc:
            # only the pinned examples hold an oversized field, each the file's one fault
            with pytest.raises(IngestionError) as caught:
                load_csv(path, "label", "1")
            assert str(caught.value) == f"{path}: line {lines[_oversized_record(records)]}: {exc}"
            return
        except QShieldError as exc:
            with pytest.raises(QShieldError) as caught:
                load_csv(path, "label", "1")
            assert type(caught.value) is type(exc)
            assert str(caught.value) == _with_physical_line(str(exc), lines[1:])
            return
        actual = load_csv(path, "label", "1")
    assert actual.feature_names == expected.feature_names
    assert actual.labels.tolist() == expected.labels.tolist()
    assert actual.features.shape == expected.features.shape
    assert actual.features.tobytes() == expected.features.tobytes()
