import ast
import csv
import hashlib
import io
import locale
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigline import dataset
from rigline.dataset import (
    CLASS_FAILURE,
    CLASS_NORMAL,
    DEFAULT_COLUMNS,
    DEFAULT_NORMAL_PARAMS,
    DEFAULT_SHIFTED_COLUMNS,
    Dataset,
    Standardizer,
    SyntheticGenConfig,
    class_distribution,
    class_order,
    generate_synthetic,
    load_csv,
    save_csv,
    split_train_test,
)
from rigline.errors import (
    ArityError,
    ConfigError,
    EmptyDatasetError,
    MissingLabelsError,
    ParseError,
    RiglineError,
)
from rigline.imbalance import SmoteConfig, smote

HERE = os.path.dirname(__file__)
SAMPLE = os.path.join(HERE, "data", "sample_sensor.csv")


def test_load_sample_shape_and_schema():
    d = load_csv(SAMPLE)
    assert d.n_rows == 19
    assert d.arity == 5
    assert d.feature_names() == [
        "Operating Temperature",
        "Operating Pressure",
        "Working Pressure",
        "Gas Detector",
        "Flow Rate",
    ]
    assert d.schema[0] == ("Operating Temperature", "Deg.")
    assert d.schema[4] == ("Flow Rate", "cc/min")
    assert not d.label_presence


def test_load_sample_values_and_meta():
    d = load_csv(SAMPLE)
    assert np.allclose(d.X[0], [98.6, 75.57, 79.52, 9.9, 359])
    assert np.allclose(d.X[18], [94.2, 78.6, 76.86, 9.9, 346])
    assert d.meta_schema == ("S No.", "Time Stamp")
    assert d.meta[0] == ("1048576", "2/8/2014 2:28")
    assert d.meta[18] == ("1048594", "2/8/2014 2:32")


def test_sample_column_stats_match_defaults():
    # The stock generator means/stddevs are the sample statistics of the
    # 19-row fixture; recompute them here so the constants cannot drift.
    d = load_csv(SAMPLE)
    means = d.X.mean(axis=0)
    sds = d.X.std(axis=0, ddof=1)
    for j, (mu, sd) in enumerate(DEFAULT_NORMAL_PARAMS):
        assert means[j] == pytest.approx(mu, abs=1e-12)
        assert sds[j] == pytest.approx(sd, abs=1e-12)
    assert means[0] == pytest.approx(95.6, abs=0.01)


def test_header_only_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("a,b,c\n")
    d = load_csv(str(p))
    assert d.n_rows == 0
    assert d.arity == 3


def test_no_header_at_all(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_csv(str(p))


def test_ragged_row_raises_arity_error(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ArityError) as exc:
        load_csv(str(p))
    assert "row 3" in str(exc.value)


def test_non_numeric_cell_raises_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,oops\n")
    with pytest.raises(ParseError) as exc:
        load_csv(str(p))
    assert "row 2" in str(exc.value) and "b" in str(exc.value)


def test_nan_cell_raises_parse_error(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("a,b\n1,nan\n")
    with pytest.raises(ParseError):
        load_csv(str(p))


def test_labeled_load_and_class_column(tmp_path):
    p = tmp_path / "labeled.csv"
    p.write_text("a,b,class\n1,2,normal\n3,4,failure\n5,6,normal\n")
    d = load_csv(str(p))
    assert d.arity == 2
    assert list(d.labels) == ["normal", "failure", "normal"]
    assert class_order(d.labels) == [CLASS_NORMAL, CLASS_FAILURE]


@pytest.mark.parametrize("text", [
    "\na,b,class\n1,2,up\n3,4,down\n",
    'a,b," Class "\n1,2,up\n3,4,down\n',
])
def test_label_column_is_read_from_the_header(tmp_path, text):
    p = tmp_path / "labeled.csv"
    p.write_text(text)
    d = load_csv(str(p))
    assert d.arity == 2
    assert list(d.labels) == ["up", "down"]


def test_round_trip_is_bit_exact(tmp_path):
    d = load_csv(SAMPLE)
    d = d.with_labels([CLASS_NORMAL] * 19)
    out = tmp_path / "out.csv"
    save_csv(d, str(out))
    d2 = load_csv(str(out))
    assert np.array_equal(d.X, d2.X)
    assert list(d.labels) == list(d2.labels)
    assert d2.meta == d.meta
    # A second save of the reload is byte-identical.
    out2 = tmp_path / "out2.csv"
    save_csv(d2, str(out2))
    assert out.read_bytes() == out2.read_bytes()


# Cells that csv quotes or that sit at the edges of what repr and float()
# must carry: commas, quotes, spaces, non-ASCII text; subnormals, -0.0 and
# the largest doubles.
_cell_text = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8)
_label_text = _cell_text.map(str.strip).filter(bool)
_any_double = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, -1.7976931348623157e308]),
)


@st.composite
def csv_datasets(draw):
    n = draw(st.integers(0, 6))
    arity = draw(st.integers(1, 4))
    values = draw(st.lists(_any_double, min_size=n * arity, max_size=n * arity))
    meta = draw(st.lists(st.tuples(_cell_text, _cell_text), min_size=n, max_size=n))
    labels = draw(st.lists(_label_text, min_size=n, max_size=n))
    schema = [(f"f{j}", "psi" if j % 2 else "") for j in range(arity)]
    X = np.array(values, dtype=float).reshape(n, arity)
    return Dataset(schema, X, labels, meta, ("S No.", "Time Stamp"))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(csv_datasets())
def test_csv_round_trip_property(tmp_path_factory, d):
    first = tmp_path_factory.getbasetemp() / "round_trip_1.csv"
    second = tmp_path_factory.getbasetemp() / "round_trip_2.csv"
    save_csv(d, str(first))
    d2 = load_csv(str(first))
    assert d2.X.shape == d.X.shape and d2.X.tobytes() == d.X.tobytes()
    assert d2.labels.tolist() == d.labels.tolist()
    assert d2.meta == d.meta and d2.meta_schema == d.meta_schema
    save_csv(d2, str(second))
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("block", [1, 1024])
def test_carriage_returns_survive_a_round_trip(tmp_path, monkeypatch, block):
    # csv.writer quotes a cell only for its "\n" line terminator; a bare CR
    # in a header, label or meta cell would split the row on reload.
    monkeypatch.setattr(dataset, "_WRITE_BLOCK", block)
    d = Dataset([("f\r0", ""), ("f1", "psi")], np.arange(6.0).reshape(3, 2) / 7,
                ["a\rb", "n", "n"], [("s\r1", "t"), ("2", "t"), ("3", "t\r\n")],
                ("S No.", "Time Stamp"))
    out = tmp_path / "cr.csv"
    save_csv(d, str(out))
    back = load_csv(str(out))
    assert back.schema == d.schema and back.X.tobytes() == d.X.tobytes()
    assert back.labels.tolist() == d.labels.tolist() and back.meta == d.meta
    # Only the rows that hold a CR are quoted.
    assert out.read_bytes().split(b"\n")[2] == b"2,t,0.2857142857142857,0.42857142857142855,n"


def test_unit_round_trip(tmp_path):
    d = load_csv(SAMPLE)
    out = tmp_path / "u.csv"
    save_csv(d, str(out))
    d2 = load_csv(str(out))
    assert d2.schema == d.schema


def test_saved_files_get_the_mode_open_would_give(tmp_path):
    out = tmp_path / "out.csv"
    old = os.umask(0o022)
    try:
        save_csv(load_csv(SAMPLE), str(out))
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


# ---------------------------------------------------------------------------
# save_csv writes blocks of rows, each joined by commas and newlines when
# csv.writer would write every cell bare, else through csv.writer; its bytes
# must be those of one csv.writer pass over the whole table.

def _reference_csv(d):
    """The table's columns zipped into rows and written by one csv.writer,
    but for the rows that hold a carriage return: those have every cell
    quoted, so that the CR does not split the row on reload. The meta
    columns are as many as both the meta schema names and the rows hold."""
    k = min(len(d.meta_schema or ()), len(d._meta or ()))
    header = list(d.meta_schema or ())[:k]
    header += [f"{name} (in {unit})" if unit else name for name, unit in d.schema]
    header += ["class"] if d.label_presence else []
    columns = list(zip(*d.meta))[:k] if d.meta is not None else []
    columns += [[repr(v) for v in column] for column in d.X.T.tolist()]
    columns += [d.labels.tolist()] if d.label_presence else []
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in [header, *zip(*columns)]:
        (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
    return buf.getvalue().encode(locale.getpreferredencoding(False))


# Text that csv.writer quotes or passes through at the edges: separators,
# quotes, line breaks, NUL, NBSP and the empty string.
_hostile_text = st.text(st.sampled_from([",", '"', "\r", "\n", "\0", "\xa0", "x", " "]),
                        max_size=3)
_tame_text = st.text(st.sampled_from(["1", "/", ":", " ", "a", "\xe9"]), max_size=4)


@st.composite
def block_datasets(draw):
    n = draw(st.integers(0, 12))
    arity = draw(st.integers(0, 3))
    n_meta = draw(st.integers(0, 2))
    labeled = draw(st.booleans())
    hostile = draw(st.sampled_from([0, 1, 5]))  # in 10 text cells

    def text(tame=_tame_text):
        return draw(_hostile_text if draw(st.integers(0, 9)) < hostile else tame)

    X = np.array(draw(st.lists(_any_double, min_size=n * arity, max_size=n * arity)))
    meta = [tuple(text() for _ in range(n_meta)) for _ in range(n)] if n_meta else None
    if meta and draw(st.booleans()):  # a short meta row cuts every row's meta cells
        i = draw(st.integers(0, n - 1))
        meta[i] = meta[i][:-1]
    labels = [text() for _ in range(n)] if labeled else None
    schema = [(text(st.just(f"f{j}")), text(st.sampled_from(["psi", ""])))
              for j in range(arity)]
    return Dataset(schema, X.reshape(n, arity), labels, meta,
                   ("S No.", "Time Stamp")[:n_meta] or None)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(block_datasets(), st.integers(1, 4))
def test_save_csv_matches_one_csv_writer_pass(tmp_path_factory, d, block):
    out = tmp_path_factory.getbasetemp() / "blocks.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_WRITE_BLOCK", block)
        save_csv(d, str(out))
    assert out.read_bytes() == _reference_csv(d)


PINNED_SHA256 = "5a8bbcb823c56eed10564310dbf63d62da34eee05878e9c41723f6a28b49e35a"


def test_save_csv_bytes_are_pinned(tmp_path):
    # 9,000 rows in nine 1,024-row blocks; one meta cell in the fifth
    # block holds a comma and is quoted. The digest is of the file the
    # whole-table csv.writer save wrote.
    rng = np.random.default_rng(11)
    X = rng.normal(100.0, 10.0, size=(9000, 5)) * rng.choice([1e-8, 1.0, 1e8], size=(9000, 1))
    meta = [(str(1048576 + i), f"2/8/2014 {i // 60 % 24}:{i % 60:02d}") for i in range(9000)]
    meta[5000] = ("1053576", "2/8/2014, 11:20")
    labels = np.where(rng.random(9000) < 0.13, CLASS_FAILURE, CLASS_NORMAL)
    schema = [("Operating Pressure", "psi"), ("Flow Rate", "cc/min"), ("b", ""), ("c", ""),
              ("d", "")]
    out = tmp_path / "pinned.csv"
    save_csv(Dataset(schema, X, labels, meta, ("S No.", "Time Stamp")), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SHA256


@pytest.mark.parametrize("meta, names, kept", [
    ([("1", "t1"), ("2",)], ("S No.", "Time Stamp"), [("1",), ("2",)]),
    ([("1", "t1"), ("2", "t2")], ("S No.",), [("1",), ("2",)]),
    (None, ("S No.", "Time Stamp"), None),
])
def test_meta_names_and_columns_of_two_widths_save_a_square_file(tmp_path, meta, names, kept):
    # The header and the rows carry as many meta columns as both the meta
    # schema names and the table holds; a ragged file would not reload.
    d = Dataset([("a", ""), ("b", "psi")], [[1.5, 2.0], [3.0, -0.0]], ["n", "f"], meta, names)
    out = tmp_path / "square.csv"
    save_csv(d, str(out))
    assert out.read_bytes() == _reference_csv(d)
    back = load_csv(str(out))
    assert back.meta == kept and back.meta_schema == (kept and names[:1])
    assert back.schema == d.schema and back.X.tobytes() == d.X.tobytes()
    assert back.labels.tolist() == ["n", "f"]


@pytest.mark.parametrize("existing", [False, True])
def test_failed_save_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch, existing):
    out = tmp_path / "out.csv"
    if existing:
        out.write_text("old\n")
    d = Dataset([("a", ""), ("b", "")], np.arange(100.0).reshape(50, 2), ["x"] * 50)
    calls = []

    def failing_repr(value):
        calls.append(value)
        if len(calls) > 60:  # in the fourth block of ten rows
            raise RuntimeError("formatting failed")
        return repr(value)

    monkeypatch.setattr(dataset, "_WRITE_BLOCK", 10)
    monkeypatch.setattr(dataset, "repr", failing_repr, raising=False)
    with pytest.raises(RuntimeError, match="formatting failed"):
        save_csv(d, str(out))
    assert len(calls) == 61
    assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
    if existing:
        assert out.read_text() == "old\n"


# ---------------------------------------------------------------------------
# load_csv's columnar path (`_load_plain`) against the per-cell reference
# loop (`_load_cells`): the same Dataset down to the feature bits, or the same
# error.

def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def _contents(d):
    labels = None if d.labels is None else (d.labels.dtype, d.labels.tolist())
    return d.schema, d.X.shape, d.X.tobytes(), labels, d.meta, d.meta_schema


def _outcome(load, *args):
    try:
        return _contents(load(*args))
    except RiglineError as e:
        return type(e), str(e)


def _csv_text(rows, **fmt):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", **fmt).writerows(rows)
    return buf.getvalue()


# Cells that float() and np.loadtxt may judge apart, or that sit at the edge
# of either: a digit separator and Arabic-Indic digits (float() only), NBSP,
# form feed and spaces around a number, non-finite and out-of-range
# spellings, an empty cell and hex.
_HOSTILE_CELLS = (
    "1_000", "\u0661\u0662", "\xa07.5", "2.5\xa0", "\x0c3\x0c", " 4 ", "nan",
    "-Infinity", "1e999", "4.9e-325", "", "0x10",
)
_feature_cell = st.one_of(
    st.sampled_from(_HOSTILE_CELLS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# Free text that csv never quotes: no comma, quote, line break or NUL.
_plain_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x00'),
    max_size=6,
)


@st.composite
def plain_tables(draw):
    n_meta = draw(st.integers(0, 2))
    arity = draw(st.integers(1, 3))
    labeled = draw(st.booleans())
    header = ["S No.", "Time Stamp"][:n_meta] + [f"f{j}" for j in range(arity)]
    header += ["class"] if labeled else []
    # Blank and all-comma rows, which both loaders skip, may come before the
    # header and between rows.
    skipped = st.sampled_from(["", " ", ",,", " , "])
    lines = draw(st.lists(skipped, max_size=2)) + [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        lines += draw(st.lists(skipped, max_size=1))
        cells = draw(st.lists(_plain_text, min_size=n_meta, max_size=n_meta))
        cells += draw(st.lists(_feature_cell, min_size=arity, max_size=arity))
        cells += [draw(_plain_text)] if labeled else []
        ragged = draw(st.sampled_from([0] * 8 + [-1, 1]))
        cells = cells[:-1] if ragged < 0 else cells + ["9"] * ragged
        lines.append(",".join(cells))
    # LF or CRLF line ends, mixed within a file, and now and then a lone CR,
    # which only the reference loop reads.
    ends = st.sampled_from(["\n"] * 6 + ["\r\n"] * 5 + ["\r"])
    return "".join(line + draw(ends) for line in lines)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(plain_tables(), st.sampled_from([1, 8, 64, dataset._READ_CHUNK]))
def test_fast_path_matches_the_per_cell_reference(tmp_path_factory, text, chunk):
    # Small chunks put blank rows, the header alone, or a bad row after
    # parsed ones in a piece of their own, and split CRLF pairs across reads.
    path = tmp_path_factory.getbasetemp() / "plain.csv"
    path.write_text(text, newline="")
    reference = _outcome(dataset._load_cells, str(path), _read(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_READ_CHUNK", chunk)
        assert _outcome(load_csv, str(path)) == reference
        fast = dataset._load_plain(str(path))
    if fast is not None:
        assert _contents(fast) == reference


def test_cells_only_float_accepts_load_through_the_fallback(tmp_path):
    p = tmp_path / "separators.csv"
    p.write_text("a,b\n1_000,\u0661\u0662\n")
    assert dataset._load_plain(str(p)) is None
    assert load_csv(str(p)).X.tolist() == [[1000.0, 12.0]]


# A header with meta and label columns, a blank row, an all-comma row, and
# cells with padding that is kept (meta) or stripped (features, labels).
_TWIN_ROWS = [
    ["S No.", "Time Stamp", "Operating Pressure (in psi)", "Flow Rate", " Class"],
    ["1048576", "2/8/2014 2:28", "75.57", " 359 ", "normal"],
    [],
    ["", "", "", "", ""],
    ["1048577", " 2/8/2014 2:29", "-0.0", "4.9e-324", " failure "],
]


@pytest.mark.parametrize("twin", ["quoted", "crlf", "lone_cr"])
def test_quoted_and_crlf_twins_load_the_same_dataset(tmp_path, twin):
    plain = tmp_path / "plain.csv"
    plain.write_text(_csv_text(_TWIN_ROWS), newline="")
    other = tmp_path / f"{twin}.csv"
    other.write_text({
        "quoted": _csv_text(_TWIN_ROWS, quoting=csv.QUOTE_ALL),
        "crlf": _csv_text(_TWIN_ROWS).replace("\n", "\r\n"),
        "lone_cr": _csv_text(_TWIN_ROWS).replace("\n", "\r"),
    }[twin], newline="")
    d = load_csv(str(plain))
    assert d.schema == (("Operating Pressure", "psi"), ("Flow Rate", ""))
    assert d.X.tobytes() == np.array([[75.57, 359.0], [-0.0, 5e-324]]).tobytes()
    assert d.labels.tolist() == ["normal", "failure"]
    assert d.meta == [("1048576", "2/8/2014 2:28"), ("1048577", " 2/8/2014 2:29")]
    assert _contents(load_csv(str(other))) == _contents(d)
    assert _contents(dataset._load_cells(str(plain), _read(plain))) == _contents(d)


@pytest.mark.parametrize("quoted", ["none", "label", "all"],
                         ids=["plain-path", "reference-loop", "quoted-header"])
def test_a_byte_order_mark_loads_as_the_same_table(tmp_path, quoted):
    # Excel's "CSV UTF-8" starts the file with U+FEFF; a quoted cell sends
    # the file through the per-cell reference loop, and with every cell
    # quoted the mark sits before the first cell's opening quote.
    text = _csv_text(_TWIN_ROWS, quoting=csv.QUOTE_ALL if quoted == "all" else csv.QUOTE_MINIMAL)
    plain = tmp_path / "plain.csv"
    plain.write_text(text.replace(",normal", ',"normal"') if quoted == "label" else text,
                     newline="")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert (dataset._load_plain(str(bom)) is None) == (quoted != "none")
    d = load_csv(str(bom))
    assert d.meta_schema == ("S No.", "Time Stamp")
    assert d.meta[0] == ("1048576", "2/8/2014 2:28")
    assert _contents(d) == _contents(load_csv(str(plain)))
    assert _contents(dataset._load_cells(str(bom), _read(bom))) == _contents(d)


@pytest.mark.parametrize("text", [
    "a,b,class\n",
    "a,b,class\n,,\n\n",
    "\n , ,\na,b,class\n,,\n",
])
def test_header_only_files_on_both_paths(tmp_path, text):
    p = tmp_path / "header.csv"
    p.write_text(text)
    d = load_csv(str(p))
    assert d.X.shape == (0, 2) and d.labels.tolist() == []
    assert _contents(dataset._load_cells(str(p), _read(p))) == _contents(d)


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
@pytest.mark.parametrize("row, error, message", [
    (["3"], ArityError, "row 3 has 1 cells, header has 2"),
    (["3", "4", "5"], ArityError, "row 3 has 3 cells, header has 2"),
    (["3", " oops"], ParseError, "row 3, column 'b': cannot parse 'oops'"),
    (["3", "1_"], ParseError, "row 3, column 'b': cannot parse '1_'"),
    (["3", " inf"], ParseError, "row 3, column 'b': non-finite value 'inf'"),
    (["3", "1e999"], ParseError, "row 3, column 'b': non-finite value '1e999'"),
])
def test_bad_rows_give_the_same_error_on_both_paths(tmp_path, quoting, row, error, message):
    # The blank row is not counted: row 3 is the third non-blank row.
    p = tmp_path / "bad.csv"
    p.write_text(_csv_text([["a", "b"], ["1", "2"], [], row], quoting=quoting), newline="")
    with pytest.raises(error) as exc:
        load_csv(str(p))
    assert str(exc.value) == f"{p}: {message}"


def test_plain_files_load_without_the_csv_module(tmp_path, monkeypatch):
    # Guards the fast path: if an edit sent every load through the reference
    # loop, these loads would reach csv.reader.
    crlf = tmp_path / "crlf.csv"
    crlf.write_text(_csv_text(_TWIN_ROWS).replace("\n", "\r\n"), newline="")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(_csv_text(_TWIN_ROWS, quoting=csv.QUOTE_ALL), newline="")
    paths = [SAMPLE, str(crlf)]
    expected = [_contents(load_csv(p)) for p in paths]

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(dataset.csv, "reader", no_reader)
    assert [_contents(load_csv(p)) for p in paths] == expected
    with pytest.raises(AssertionError):
        load_csv(str(quoted))


def test_plain_files_are_read_in_pieces(tmp_path, monkeypatch):
    # Guards the streamed read: if an edit read a plain file whole before
    # parsing it, or sent a file whose CRLF pairs a read splits to the
    # reference loop, a read would ask for more than _READ_CHUNK characters.
    # One-character reads split every CRLF.
    crlf = tmp_path / "crlf.csv"
    crlf.write_text(_csv_text(_TWIN_ROWS).replace("\n", "\r\n"), newline="")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(_csv_text(_TWIN_ROWS, quoting=csv.QUOTE_ALL), newline="")
    paths = [SAMPLE, str(crlf)]
    expected = [_contents(load_csv(p)) for p in paths]
    reads = []

    def piecewise_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        whole = fh.read

        def read(size=-1):
            assert 0 < size <= dataset._READ_CHUNK, f"read({size})"
            reads.append(size)
            return whole(size)

        fh.read = read
        return fh

    monkeypatch.setattr(dataset, "_READ_CHUNK", 1)
    monkeypatch.setattr(dataset, "open", piecewise_open, raising=False)
    assert [_contents(load_csv(p)) for p in paths] == expected
    assert len(reads) > sum(map(os.path.getsize, paths))
    with pytest.raises(AssertionError):
        load_csv(str(quoted))


@pytest.mark.parametrize("text, lines", [
    ("", 0), ("\n", 1), ("a", 1), ("a\n", 1), ("a\nb", 2), ("a\r\nb\r\n", 2),
    ("a\n\n,,\nb\n", 4),
])
@pytest.mark.parametrize("chunk", [1, 2, dataset._READ_CHUNK])
def test_count_lines(tmp_path, monkeypatch, text, lines, chunk):
    p = tmp_path / "lines.csv"
    p.write_text(text, newline="")
    monkeypatch.setattr(dataset, "_READ_CHUNK", chunk)
    assert dataset._count_lines(str(p)) == lines


_EXPORT_ROWS = [["S No.", "Time Stamp", "a", "b", "class"]] + [
    [str(1048576 + i), f"2/8/2014 2:{i:02d}", repr(i / 7), repr(-i * 1e10), "normal"]
    for i in range(30)
]


@pytest.mark.parametrize("chunk", [64, dataset._READ_CHUNK])
@pytest.mark.parametrize("short", [1, 10, 31])
def test_a_file_with_more_rows_than_counted_loads_through_the_reference_loop(
        tmp_path, monkeypatch, chunk, short):
    # The line count sizes the feature matrix. A file that holds more rows
    # than were counted (it grew between the two reads) goes to _load_cells;
    # with 64-character reads the rows run out in a later piece.
    p = tmp_path / "export.csv"
    p.write_text(_csv_text(_EXPORT_ROWS), newline="")
    reference = _contents(dataset._load_cells(str(p), _read(p)))
    assert dataset._count_lines(str(p)) == 31
    assert _contents(dataset._load_plain(str(p))) == reference
    monkeypatch.setattr(dataset, "_READ_CHUNK", chunk)
    monkeypatch.setattr(dataset, "_count_lines", lambda path: 31 - short)
    assert dataset._load_plain(str(p)) is None
    assert _contents(load_csv(str(p))) == reference


def test_non_ascii_meta_loads_on_the_plain_path_and_saves_the_same_bytes(tmp_path):
    # The meta cells are kept as their UTF-8 bytes and read back as str.
    rows = [["S No.", "Time Stamp", "a", "class"],
            ["Z\xfcrich", "\u6e29\u5ea6 2:28", "1.5", "normal"],
            ["\xa0x\xa0", "", "-0.0", "failure"],
            ["3", "\xa0", "2.5", "normal"]]
    p = tmp_path / "utf8.csv"
    p.write_text(_csv_text(rows), newline="")
    d = dataset._load_plain(str(p))
    assert d is not None
    assert d.meta == [tuple(row[:2]) for row in rows[1:]]
    assert [col.dtype.kind for col in d._meta] == ["S", "S"]
    assert _contents(d) == _contents(dataset._load_cells(str(p), _read(p)))
    out = tmp_path / "saved.csv"
    save_csv(d, str(out))
    assert out.read_bytes() == p.read_bytes()
    save_csv(d.subset([2, 0]).append_rows([[7.0]], ["failure"]), str(out))
    assert load_csv(str(out)).meta == [tuple(rows[3][:2]), tuple(rows[1][:2]), ("", "")]


@pytest.fixture
def export_csv(tmp_path):
    """A 40,000-row export: serial and timestamp columns, 5 features."""
    rng = np.random.default_rng(0)
    p = tmp_path / "export.csv"
    with open(p, "w") as fh:
        fh.write("S No.,Time Stamp,a,b,c,d,e\n")
        for i, x in enumerate(rng.normal(100.0, 10.0, size=(40000, 5)).tolist()):
            fh.write(f"{1048576 + i},2/8/2014 {i // 240 % 24}:{i // 4 % 60:02d},"
                     + ",".join(map(repr, x)) + "\n")
    return p


def _traced(step):
    """step() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return step(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_peak_memory_is_bounded(export_csv, tmp_path):
    # The export above with CRLF line ends, whose pairs the streamed read
    # splits across pieces: it peaks at 4.9 MB, as the LF file does, and
    # loads the same table. Its meta as one tuple of str per row peaked at
    # 11.3 MB, as numpy str columns at 9.7.
    crlf = tmp_path / "export_crlf.csv"
    crlf.write_bytes(export_csv.read_bytes().replace(b"\n", b"\r\n"))
    d, peak = _traced(lambda: load_csv(str(crlf)))
    assert d.n_rows == 40000 and len(d.meta) == 40000
    assert _contents(d) == _contents(load_csv(str(export_csv)))
    assert peak < 6 * 2**20


def test_load_csv_without_meta_skips_its_memory(export_csv):
    # Without its meta the export's load peaks at 4.0 MB, with it at 4.9.
    # Joining one feature matrix per piece at the end peaked at 5.0 MB.
    d, peak = _traced(lambda: load_csv(str(export_csv), meta=False))
    assert d.n_rows == 40000 and d.meta is None
    assert peak < 4.5 * 2**20


@pytest.fixture
def sampled_csv(tmp_path):
    """A 70,000-row labeled table shaped like an export after SMOTE: 40,000
    rows with serial and timestamp cells, 13% of them failures, then 30,000
    failure rows with blank meta cells."""
    rng = np.random.default_rng(1)
    p = tmp_path / "sampled.csv"
    with open(p, "w") as fh:
        fh.write("S No.,Time Stamp,a,b,c,d,e,class\n")
        for i, x in enumerate(rng.normal(100.0, 10.0, size=(70000, 5)).tolist()):
            meta = (f"{1048576 + i},2/8/2014 {i // 240 % 24}:{i // 4 % 60:02d}"
                    if i < 40000 else ",")
            label = CLASS_FAILURE if i >= 40000 or rng.random() < 0.13 else CLASS_NORMAL
            fh.write(f"{meta},{','.join(map(repr, x))},{label}\n")
    return p


def test_labels_load_as_codes_without_a_string_copy(sampled_csv):
    # The labels are coded piece by piece through one dict into one code
    # array: the load peaks at 5.7 MB. As one str array per piece, joined
    # at the end, it peaked at 7.3 MB (both copies held at once, 4 bytes
    # per character).
    d, peak = _traced(lambda: load_csv(str(sampled_csv), meta=False))
    assert d.n_rows == 70000 and peak < 6.5 * 2**20
    assert d.classes == [CLASS_NORMAL, CLASS_FAILURE] and d.codes.dtype == np.uint8


def test_csv_read_and_write_memory_does_not_grow_with_the_table(export_csv, tmp_path):
    # Keeping every row as a list of cell strings (csv.reader) peaked at
    # 28.6 MB, splitting the whole text into lines at 22.8, and parsing that
    # text in chunks at 15.1; reading the file in pieces, with the labels as
    # one array per piece, took 11.3, and with the meta as one str array per
    # column and piece 9.7. The meta as UTF-8 bytes, one feature matrix
    # filled piece by piece, and each piece let go before the next is read
    # take 4.9. Formatting the whole table before writing it peaked at
    # 17.8 MB above the loaded dataset; blocks of 4,096 rows took 1.8, of
    # 1,024 rows 0.6.
    out = tmp_path / "saved.csv"
    d, load_peak = _traced(lambda: load_csv(str(export_csv)))
    _, save_peak = _traced(lambda: save_csv(d, str(out)))
    assert d.n_rows == 40000 and len(d.meta) == 40000
    assert out.read_bytes() == export_csv.read_bytes()
    assert load_peak < 6 * 2**20
    assert save_peak < 10 * 2**20


def test_plain_tables_save_without_the_csv_module(export_csv, sampled_csv, tmp_path,
                                                  monkeypatch):
    # Guards the joined write: if an edit sent every block back to
    # csv.writer, these saves would reach it.
    tables = [(p.read_bytes(), load_csv(str(p))) for p in (export_csv, sampled_csv)]

    def no_writer(*args, **kwargs):
        raise AssertionError("csv.writer called")

    monkeypatch.setattr(dataset.csv, "writer", no_writer)
    out = tmp_path / "saved.csv"
    for text, d in tables:
        save_csv(d, str(out))
        assert out.read_bytes() == text


def test_only_a_block_with_a_quoted_cell_reaches_csv_writer(tmp_path, monkeypatch):
    meta = [(str(i), f"2/8/2014 0:{i:02d}") for i in range(12)]
    meta[6] = ("6", "2/8/2014, 0:06")
    d = Dataset([("a", ""), ("b", "psi")], np.arange(24.0).reshape(12, 2) / 7,
                ["n"] * 11 + ["f"], meta, ("S No.", "Time Stamp"))
    expected = _reference_csv(d)
    written, writer = [], csv.writer

    class Spy:
        def __init__(self, buf, **fmt):
            self.writer = writer(buf, **fmt)

        def writerow(self, row):
            written.append(row[0])
            return self.writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(dataset, "_WRITE_BLOCK", 4)
    monkeypatch.setattr(dataset.csv, "writer", Spy)
    out = tmp_path / "one_quoted_block.csv"
    save_csv(d, str(out))
    assert out.read_bytes() == expected
    assert written == ["4", "5", "6", "7"]


# ---------------------------------------------------------------------------
# Labels are held as codes into the classes present; only rigline.dataset
# turns names into codes.

_any_name = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"),
                    max_size=6)
_class_names = st.one_of(st.sampled_from([CLASS_NORMAL, CLASS_FAILURE]), _any_name)


def _decoded(d):
    """d's labels as a list, after checking that its codes index the class
    order of the labels present, read-only and one byte each."""
    labels = d.labels.tolist()
    assert d.classes == class_order(labels)
    assert [d.classes[c] for c in d.codes.tolist()] == labels
    assert d.codes.dtype == np.uint8 and not d.codes.flags.writeable
    return labels


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(_class_names, max_size=12), st.data())
def test_labels_are_codes_of_the_classes_present(tmp_path_factory, labels, data):
    n = len(labels)
    d = Dataset([("a", ""), ("b", "psi")], np.arange(2.0 * n).reshape(n, 2), labels)
    assert _decoded(d) == labels
    idx = data.draw(st.lists(st.integers(-n, n - 1), max_size=15) if n else st.just([]))
    assert _decoded(d.subset(idx)) == [labels[i] for i in idx]
    relabeled = data.draw(st.lists(_class_names, min_size=n, max_size=n))
    assert _decoded(d.with_labels(relabeled)) == relabeled
    extra = data.draw(_class_names)
    assert _decoded(d.append_rows([[0.5, 1.5]], [extra])) == labels + [extra]
    counts = [labels.count(c) for c in set(labels)]
    if len(counts) == 2 and min(counts) > 1:
        grown = _decoded(smote(d, SmoteConfig(k_neighbors=1)))
        assert grown[:n] == labels and len(set(grown[n:])) <= 1
    out = tmp_path_factory.getbasetemp() / "codes.csv"
    save_csv(d, str(out))
    for loaded in (dataset._load_plain(str(out)), dataset._load_cells(str(out), _read(out))):
        if loaded is not None:
            assert _decoded(loaded) == [label.strip() for label in labels]


def test_codes_take_the_smallest_unsigned_dtype():
    for n, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16)):
        names = [f"c{i:03d}" for i in range(n)]
        d = Dataset([("a", "")], np.zeros((n, 1)), names[::-1])
        assert d.classes == names and d.codes.dtype == dtype
        assert d.labels.tolist() == names[::-1]


def _label_decisions(path):
    """(function, what) of each class_order call and each comparison of a
    .labels attribute in the module at path."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "class_order":
                    found.append((scope, "class_order"))
            if isinstance(child, ast.Compare) and any(
                    isinstance(x, ast.Attribute) and x.attr == "labels"
                    for x in [child.left, *child.comparators]):
                found.append((scope, ".labels comparison"))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    with open(path) as fh:
        visit(ast.parse(fh.read()), None)
    return found


def test_only_dataset_turns_label_names_into_class_indices():
    # Every other module reads a table's classes and codes. The one
    # exception is confusion, whose matrix covers the union of a model's
    # and a test set's classes.
    src = os.path.join(HERE, os.pardir, "src", "rigline")
    found = {(name, *decision)
             for name in sorted(os.listdir(src)) if name.endswith(".py") and name != "dataset.py"
             for decision in _label_decisions(os.path.join(src, name))}
    assert found == {("evaluation.py", "confusion", "class_order")}


def _csv_writers(path):
    """Each csv.writer or csv.DictWriter the module at path names, and each
    import from csv."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "csv"
            or isinstance(node, ast.Attribute) and node.attr in ("writer", "DictWriter")
            and isinstance(node.value, ast.Name) and node.value.id == "csv"]


def test_only_dataset_writes_csv():
    # Every CSV table goes through dataset.csv_text, so every table quotes
    # its cells by one rule.
    src = os.path.join(HERE, os.pardir, "src", "rigline")
    found = {name: writers for name in sorted(os.listdir(src)) if name.endswith(".py")
             if (writers := _csv_writers(os.path.join(src, name)))}
    assert list(found) == ["dataset.py"], found


def test_class_order_pair_and_generic():
    assert class_order(["failure", "normal", "normal"]) == ["normal", "failure"]
    assert class_order(["b", "a", "c"]) == ["a", "b", "c"]


def test_dataset_validation():
    with pytest.raises(ArityError):
        Dataset([("a", ""), ("b", "")], [[1.0]])
    with pytest.raises(ArityError):
        Dataset([("a", "")], [[1.0], [2.0]], labels=["x"])
    with pytest.raises(ParseError):
        Dataset([("a", "")], [[np.inf]])


def test_rows_are_read_only():
    d = load_csv(SAMPLE)
    with pytest.raises(ValueError):
        d.X[0, 0] = 0.0


def test_instance_iteration():
    d = load_csv(SAMPLE)
    one = d.subset([2])
    assert one.labels is None
    assert one.X[0, 3] == pytest.approx(10.2)
    assert d.n_rows == 19


def test_split_fraction_and_disjointness():
    cfg = SyntheticGenConfig(row_count=100, seed=5)
    d = generate_synthetic(cfg)
    train, test = split_train_test(d, 0.66, seed=3)
    assert train.n_rows == 66
    assert test.n_rows == 34
    # Disjoint and exhaustive: every source row lands in exactly one part.
    joined = np.vstack([train.X, test.X])
    assert sorted(map(tuple, joined)) == sorted(map(tuple, d.X))


def test_split_large_counts():
    # floor(0.66 * 870000) = 574200
    d = Dataset([("v", "")], np.arange(870000, dtype=float).reshape(-1, 1))
    train, test = split_train_test(d, 0.66, seed=0)
    assert train.n_rows == 574200
    assert test.n_rows == 870000 - 574200


def test_split_determinism_and_order_preservation():
    d = Dataset([("v", "")], np.arange(50, dtype=float).reshape(-1, 1))
    a1, b1 = split_train_test(d, 0.5, seed=9)
    a2, b2 = split_train_test(d, 0.5, seed=9)
    assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.X, b2.X)
    # Row order within each part follows the source order.
    assert np.all(np.diff(a1.X[:, 0]) > 0)
    assert np.all(np.diff(b1.X[:, 0]) > 0)
    a3, _ = split_train_test(d, 0.5, seed=10)
    assert not np.array_equal(a1.X, a3.X)


def test_split_rejects_bad_fraction():
    d = Dataset([("v", "")], [[1.0]])
    for frac in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError):
            split_train_test(d, frac)


def test_synthetic_counts_and_determinism():
    cfg = SyntheticGenConfig(row_count=1000, seed=12)
    d = generate_synthetic(cfg)
    dist = class_distribution(d)
    assert dist[CLASS_FAILURE][0] == 130
    assert dist[CLASS_NORMAL][0] == 870
    assert dist[CLASS_FAILURE][1] == pytest.approx(0.13)
    d2 = generate_synthetic(cfg)
    assert np.array_equal(d.X, d2.X)
    assert np.array_equal(d.labels, d2.labels)
    d3 = generate_synthetic(SyntheticGenConfig(row_count=1000, seed=13))
    assert not np.array_equal(d.X, d3.X)


def test_synthetic_moments_near_config():
    d = generate_synthetic(SyntheticGenConfig(row_count=20000, seed=3))
    norm = d.X[d.labels == CLASS_NORMAL]
    fail = d.X[d.labels == CLASS_FAILURE]
    # The failure class moves the two pressures and the gas reading (columns
    # 1-3) up by the default 2 sigma; temperature and flow stay put.
    failure_params = [
        (mu + (2 * sd if j in (1, 2, 3) else 0.0), sd)
        for j, (mu, sd) in enumerate(DEFAULT_NORMAL_PARAMS)
    ]
    for j, (mu, sd) in enumerate(DEFAULT_NORMAL_PARAMS):
        assert norm[:, j].mean() == pytest.approx(mu, abs=5 * sd / math.sqrt(len(norm)))
    for j, (mu, sd) in enumerate(failure_params):
        assert fail[:, j].mean() == pytest.approx(mu, abs=5 * sd / math.sqrt(len(fail)))
    # Shifted columns sit 2 sigma above the normal-class mean by default.
    assert failure_params[1][0] == pytest.approx(
        DEFAULT_NORMAL_PARAMS[1][0] + 2 * DEFAULT_NORMAL_PARAMS[1][1]
    )
    assert failure_params[0][0] == pytest.approx(DEFAULT_NORMAL_PARAMS[0][0])
    assert [name for name, _ in d.schema] == [name for name, _ in DEFAULT_COLUMNS]
    assert [DEFAULT_COLUMNS[j][0] for j in (1, 2, 3)] == list(DEFAULT_SHIFTED_COLUMNS)


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        SyntheticGenConfig(row_count=0)
    with pytest.raises(ConfigError):
        SyntheticGenConfig(row_count=1)
    with pytest.raises(ConfigError):
        SyntheticGenConfig(row_count=10, failure_fraction=1.0)


def test_class_distribution_requires_labels():
    d = load_csv(SAMPLE)
    with pytest.raises(MissingLabelsError):
        class_distribution(d)


def test_subset_and_append():
    d = load_csv(SAMPLE).with_labels([CLASS_NORMAL] * 19)
    s = d.subset([0, 2, 4])
    assert s.n_rows == 3
    assert s.meta[1] == d.meta[2]
    grown = d.append_rows([[1, 2, 3, 4, 5]], [CLASS_FAILURE])
    assert grown.n_rows == 20
    assert grown.labels[-1] == CLASS_FAILURE


def test_derived_datasets_keep_the_normalised_meta_rows():
    d = Dataset([("a", ""), ("b", "")], [[1.0, 2.0], [3.0, 4.0]], ["x", "y"],
                [[7, 2.5], ["s", None]], ["S No.", "Time Stamp"])
    assert d.meta == [("7", "2.5"), ("s", "None")]
    by_codes = d.with_codes(["x", "x", "y"], np.array([2, 1]))
    assert by_codes.classes == ["x", "y"] and by_codes.labels.tolist() == ["y", "x"]
    for derived in (d.with_labels(["y", "x"]), by_codes, d.without_labels(),
                    Standardizer().fit(d.X).transform_dataset(d)):
        assert derived.meta == d.meta and derived.meta_schema == d.meta_schema
    with pytest.raises(ArityError):
        d.with_codes(["x"], np.array([0]))
    assert d.subset([1]).meta == [("s", "None")]
    grown = d.append_rows([[5.0, 6.0]], ["x"])
    assert grown.meta == d.meta + [("", "")]
    with pytest.raises(ArityError):
        d.append_rows([5.0, 6.0], ["x"])


@pytest.mark.parametrize("meta", [None, [("7", "a"), ("8", "b")]])
@pytest.mark.parametrize("rows, labels, shapes", [
    ([5.0, 6.0], ["x"], "(2,) with labels of shape (1,)"),
    ([[5.0, 6.0, 7.0]], ["x"], "(1, 3) with labels of shape (1,)"),
    ([[5.0, 6.0]], ["x", "y"], "(1, 2) with labels of shape (2,)"),
    ([[[5.0, 6.0]]], ["x"], "(1, 1, 2) with labels of shape (1,)"),
])
def test_append_rows_checks_the_shape_of_its_input(meta, rows, labels, shapes):
    d = Dataset([("a", ""), ("b", "")], [[1.0, 2.0], [3.0, 4.0]], ["x", "y"], meta,
                meta and ("S No.", "Time Stamp"))
    with pytest.raises(ArityError) as exc:
        d.append_rows(rows, labels)
    assert str(exc.value) == f"cannot append rows of shape {shapes} to a table of shape (2, 2)"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(block_datasets().filter(lambda d: d.label_presence and d.arity > 0), st.data())
def test_grown_and_cut_tables_save_the_tuple_reference(tmp_path_factory, d, data):
    # The meta rows as tuples, grown and cut as lists: a new row is blank in
    # every column, a cut takes whole rows.
    rows = d.meta
    extra = data.draw(st.integers(0, 5))
    grown = d.append_rows(np.ones((extra, d.arity)), ["z"] * extra)
    if rows is not None:
        rows += [("",) * (len(rows[0]) if rows else len(d.meta_schema or ()))] * extra
    idx = data.draw(st.lists(st.integers(-grown.n_rows, grown.n_rows - 1), max_size=15)
                    if grown.n_rows else st.just([]))
    cut = grown.subset(idx)
    assert cut.meta == (None if rows is None else [rows[i] for i in idx])
    out = tmp_path_factory.getbasetemp() / "grown_cut.csv"
    save_csv(cut, str(out))
    assert out.read_bytes() == _reference_csv(cut)


def test_meta_cells_that_end_in_nul_survive(tmp_path):
    meta = [("1\0", "a"), ("2", "\0"), ("3", "b\0\0")]
    d = Dataset([("v", "")], [[1.0], [2.0], [3.0]], ["x", "y", "x"], meta,
                ("S No.", "Time Stamp"))
    assert d.meta == meta
    assert d.subset([2, 0]).meta == [meta[2], meta[0]]
    out = tmp_path / "nul.csv"
    save_csv(d.subset([1, 2]), str(out))
    assert out.read_bytes() == _reference_csv(d.subset([1, 2]))
    assert load_csv(str(out)).meta == meta[1:]


def test_meta_cells_utf8_cannot_encode_stay_str():
    # A lone surrogate has no UTF-8 bytes, so its column keeps str objects.
    meta = [("1", "\ud800"), ("2", "b")]
    d = Dataset([("v", "")], [[1.0], [2.0]], ["x", "y"], meta, ("S No.", "Time Stamp"))
    assert [col.dtype.kind for col in d._meta] == ["S", "O"]
    assert d.meta == meta
    grown = d.subset([1, 0]).append_rows([[3.0]], ["x"])
    assert grown.meta == [meta[1], meta[0], ("", "")]
    assert grown.subset([2]).meta == [("", "")]


@pytest.mark.parametrize("twin", ["plain", "quoted"])
def test_load_without_meta_keeps_the_features_and_labels(tmp_path, twin):
    p = tmp_path / f"{twin}.csv"
    quoting = csv.QUOTE_ALL if twin == "quoted" else csv.QUOTE_MINIMAL
    p.write_text(_csv_text(_TWIN_ROWS, quoting=quoting), newline="")
    full, bare = load_csv(str(p)), load_csv(str(p), meta=False)
    assert full.meta is not None and full.meta_schema == ("S No.", "Time Stamp")
    assert bare.meta is None and bare.meta_schema is None
    assert _contents(bare)[:4] == _contents(full)[:4]
    assert _contents(dataset._load_cells(str(p), _read(p), False)) == _contents(bare)


def test_standardizer_round_trip():
    rng = np.random.default_rng(0)
    X = rng.normal(5.0, 3.0, size=(200, 4))
    sc = Standardizer().fit(X)
    Z = sc.transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)
    # Constant columns survive without dividing by zero.
    Xc = np.hstack([X, np.full((200, 1), 7.0)])
    Zc = Standardizer().fit_transform(Xc)
    assert np.allclose(Zc[:, -1], 0.0)
    with pytest.raises(ConfigError):
        Standardizer().transform(X)
