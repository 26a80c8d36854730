"""Sensor dataset container, CSV I/O, synthetic generation, and splitting.

The CSV layout mirrors rig sensor exports: a header row, comma separation,
optional leading serial-number and timestamp ("M/D/YYYY H:MM") columns, then
numeric feature columns. Serial/timestamp columns are carried as metadata and
never enter the feature matrix.
"""

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    ConfigError,
    EmptyDatasetError,
    MissingLabelsError,
    ParseError,
)
from .util import atomic_write_text, check_number

CLASS_NORMAL = "normal"
CLASS_FAILURE = "failure"

LABEL_COLUMN = "class"

# Header names treated as bookkeeping rather than features. Only a leading
# run of such columns is stripped.
_SERIAL_RE = re.compile(r"^(s\.?\s*no\.?|serial(\s*no\.?)?|sno|id|index|no\.?)$")
_TIME_RE = re.compile(r"(time|date|stamp)")

# Column header like "Operating Temperature (in Deg.)" or "Flow Rate (cc/min)".
_UNIT_RE = re.compile(r"^(.*?)\s*\((?:in\s+)?([^()]*)\)\s*$")


def class_order(labels):
    """Canonical class ordering for a label collection.

    The normal/failure pair orders normal first (it is the positive class);
    any other label set is sorted ascending. Names are plain str.
    """
    classes = sorted(str(c) for c in set(labels))
    if classes == [CLASS_FAILURE, CLASS_NORMAL]:
        return [CLASS_NORMAL, CLASS_FAILURE]
    return classes


class Dataset:
    """Immutable table of numeric feature rows with an optional label column.

    Labels are held as codes: `classes` lists the class names present, in
    class_order, and `codes` is a read-only array of the smallest unsigned
    dtype giving each row's index into it (both None when unlabeled; a cut
    that lacks a class drops it). `labels` decodes them on each call.

    Parameters
    ----------
    schema : sequence of (name, unit) pairs, one per feature column.
    X : array-like of shape (n_rows, arity), all finite.
    labels : optional sequence of n_rows class names (made str).
    meta : optional sequence of n_rows rows of bookkeeping cells (serial
        number, timestamp, ...), excluded from features. They are kept as
        one 1-D array per column, as many columns as the shortest row has
        cells: the cells' UTF-8 bytes, or str objects in a column with a
        cell that ends in NUL or that UTF-8 cannot encode. A column may end
        before the table does, and the rows past its end have blank cells
        there.
    meta_schema : column names for the meta cells.
    """

    def __init__(self, schema, X, labels=None, meta=None, meta_schema=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(0, len(schema)) if X.size == 0 else X.reshape(1, -1)
        if X.ndim != 2:
            raise ArityError(f"feature matrix must be 2-D, got ndim={X.ndim}")
        if X.shape[1] != len(schema):
            raise ArityError(
                f"schema has {len(schema)} columns but rows have {X.shape[1]}"
            )
        if X.size and not np.all(np.isfinite(X)):
            raise ParseError("features must be finite (no NaN/inf)")
        self.schema = tuple((str(n), str(u)) for n, u in schema)
        self.X = X
        self.X.setflags(write=False)
        self.classes, self.codes = _names_coded(labels, X.shape[0])
        self._meta = None if meta is None else _meta_columns(meta, X.shape[0], meta_schema)
        self.meta_schema = tuple(meta_schema) if meta_schema else None

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def arity(self) -> int:
        return self.X.shape[1]

    @property
    def label_presence(self) -> bool:
        return self.codes is not None

    @property
    def labels(self):
        """Each row's class name, decoded on each call; None when unlabeled."""
        return None if self.codes is None else np.array(self.classes, dtype=str)[self.codes]

    def feature_names(self):
        return [n for n, _ in self.schema]

    @property
    def meta(self):
        """The meta rows as a list of tuples of str, built on each call, or
        None when the table has no meta."""
        if self._meta is None:
            return None
        if not self._meta:
            return [()] * self.n_rows
        return list(zip(*self._meta_cells(0, self.n_rows)))

    def _meta_cells(self, a, b):
        """Rows a to b of each meta column as a list of str, blank past the
        column's end."""
        b = min(b, self.n_rows)
        out = []
        for col in self._meta or ():
            cells = col[a:b].tolist()
            if col.dtype.kind == "S":
                cells = [cell.decode() for cell in cells]
            out.append(cells + [""] * (b - a - len(cells)))
        return out

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        X = self.X[indices]
        codes = None if self.codes is None else self.codes[indices]
        meta = None
        if self._meta is not None:
            rows = np.where(indices < 0, indices + self.n_rows, indices)
            meta = tuple(_frozen(np.append(col, _blank(col))[np.minimum(rows, len(col))])
                         for col in self._meta)
        return self._derive(X, self.classes, codes, meta)

    def with_labels(self, labels) -> "Dataset":
        return self._derive(self.X, *_names_coded(labels, self.n_rows), self._meta)

    def with_codes(self, names, codes) -> "Dataset":
        """with_labels of the labels names[codes], one code per row."""
        if len(codes) != self.n_rows:
            raise ArityError(f"{len(codes)} labels for {self.n_rows} rows")
        return self._derive(self.X, names, codes, self._meta)

    def without_labels(self) -> "Dataset":
        return self._derive(self.X, None, None, self._meta)

    def with_features(self, schema, X) -> "Dataset":
        """These rows' labels on another schema and feature matrix, no meta."""
        d = _assembled(schema, X, None, self.classes, self.codes, None)
        if d.n_rows != self.n_rows:
            raise ArityError(f"{d.n_rows} feature rows for {self.n_rows} labeled rows")
        return d

    def append_rows(self, X_new, labels_new) -> "Dataset":
        """New dataset with labeled rows appended. X_new must be 2-D with the
        table's arity and labels_new hold one label per row. The new rows'
        meta cells are blank in every column the meta schema names: the
        columns are shared, and the new rows lie past their ends."""
        if self.codes is None:
            raise MissingLabelsError("can only append labeled rows to a labeled dataset")
        X_new = np.asarray(X_new, dtype=float)
        labels_new = np.asarray(labels_new, dtype=str)
        if X_new.ndim != 2 or X_new.shape[1] != self.arity or labels_new.shape != X_new.shape[:1]:
            raise ArityError(
                f"cannot append rows of shape {X_new.shape} with labels of shape "
                f"{labels_new.shape} to a table of shape {self.X.shape}"
            )
        names, codes = np.unique(labels_new, return_inverse=True)
        X = np.vstack([self.X, X_new])
        return self._grown(X, self.classes + names.tolist(),
                           np.concatenate([self.codes, codes + len(self.classes)]))

    def _grown(self, X, names, codes) -> "Dataset":
        """This table with rows appended, given whole: X and codes (into
        names) hold this table's rows first and the new ones after. The
        meta columns are shared, cut to the meta schema's width, and the
        new rows lie past their ends."""
        meta = None if self._meta is None else self._meta[:len(self.meta_schema or ())]
        return self._derive(X, names, codes, meta)

    def _derive(self, X, names, codes, meta) -> "Dataset":
        """A Dataset with this one's schemas, X, and names[codes] and meta
        as _assembled takes them."""
        return _assembled(self.schema, X, self.meta_schema, names, codes, meta)


def _assembled(schema, X, meta_schema, names, codes, meta):
    """A Dataset with the labels names[codes] (none when codes is None) and
    the given meta columns, which are read-only column arrays and are kept
    as they are."""
    d = Dataset(schema, X, None, None, meta_schema)
    if codes is not None:
        d.classes, d.codes = _coded(names, codes)
    d._meta = meta
    return d


def _names_coded(labels, n_rows):
    """The classes and codes of a sequence of n_rows class names, or None
    and None for no labels."""
    if labels is None:
        return None, None
    labels = np.asarray(labels, dtype=str)
    if labels.shape != (n_rows,):
        raise ArityError(f"{len(labels)} labels for {n_rows} rows")
    return _coded(*np.unique(labels, return_inverse=True))


def _coded(names, codes):
    """The classes and codes of the labels names[codes], where names may
    repeat or go unused: the names present, in class_order, and each row's
    index among them, read-only in the smallest unsigned dtype."""
    present = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    classes = class_order(names[i] for i in present)
    index = {c: i for i, c in enumerate(classes)}
    dtype = np.min_scalar_type(max(len(classes) - 1, 0))
    return classes, _frozen(np.array([index.get(n, 0) for n in names], dtype=dtype)[codes])


def _meta_columns(rows, n_rows, meta_schema):
    """The meta columns of the given rows of cells, each cell made a str:
    as many as the shortest row has cells (the meta schema's width when
    there are no rows)."""
    rows = [tuple(map(str, row)) for row in rows]
    if len(rows) != n_rows:
        raise ArityError(f"{len(rows)} meta rows for {n_rows} rows")
    width = min(map(len, rows), default=len(meta_schema or ()))
    return tuple(_meta_column([row[j] for row in rows]) for j in range(width))


def _meta_column(cells):
    """One meta column of str cells, as their UTF-8 bytes. Fixed-width
    numpy strings drop trailing NULs, so a column with a cell that ends in
    one, or with a cell UTF-8 cannot encode, is an object array of str."""
    if not any(cell.endswith("\0") for cell in cells):
        try:
            return _frozen(np.array([cell.encode() for cell in cells], dtype=bytes))
        except UnicodeEncodeError:
            pass
    return _frozen(np.array(cells, dtype=object))


def _blank(col):
    """The blank cell of a meta column: b"" for bytes, "" for str objects."""
    return b"" if col.dtype.kind == "S" else ""


def _frozen(a):
    a.setflags(write=False)
    return a


def _parse_header_cell(cell: str):
    m = _UNIT_RE.match(cell.strip())
    if m:
        return m.group(1).strip(), m.group(2).strip()
    return cell.strip(), ""


def _is_meta_header(cell: str) -> bool:
    name = cell.strip().lower()
    return bool(_SERIAL_RE.match(name)) or bool(_TIME_RE.search(name))


def _layout(path, header):
    """Column roles from the stripped header cells: (n_meta, feat_idx,
    has_labels, the feature schema). A byte-order mark that starts the first
    cell, as Excel's "CSV UTF-8" writes one, is removed from header."""
    header[0] = header[0].removeprefix("\ufeff")
    n_meta = 0
    while n_meta < min(2, len(header)) and _is_meta_header(header[n_meta]):
        n_meta += 1
    has_labels = header[-1].lower() == LABEL_COLUMN
    feat_idx = list(range(n_meta, len(header) - 1 if has_labels else len(header)))
    if not feat_idx:
        raise EmptyDatasetError(f"{path}: no feature columns in header")
    return n_meta, feat_idx, has_labels, [_parse_header_cell(header[j]) for j in feat_idx]


def load_csv(path: str, meta: bool = True) -> Dataset:
    """Load a sensor CSV. Header required; numeric cells must parse as reals.

    Leading serial/timestamp columns become row metadata; with meta=False
    their cells are skipped and the table has no meta and no meta schema
    (the header still decides which columns they are). When the last
    header cell is the label column (`class`, any case) that column is read
    as the nominal class label.

    A file without quotes, lone carriage returns or NUL characters is read
    in pieces and parsed column-wise by `_load_plain`; anything that path
    does not accept goes through the per-cell reference loop `_load_cells`,
    which names the row and column of a bad cell.
    """
    d = _load_plain(path, meta)
    if d is not None:
        return d
    with open(path, newline="") as fh:
        return _load_cells(path, fh.read(), meta)


# Characters read from the file at a time. Each piece `_load_plain` parses
# ends at the last newline read, so its line and cell temporaries do not
# grow with the file.
_READ_CHUNK = 1 << 19


def _pieces(fh):
    """The text of fh in pieces of about _READ_CHUNK characters, each but the
    last cut after a newline, with "\r\n" read as "\n". A CR that ends a
    read lies after the cut, so it meets the LF that may follow it. Only
    the carried tail is held while the next read runs."""
    rest = ""
    while chunk := fh.read(_READ_CHUNK):
        text = (rest + chunk).replace("\r\n", "\n")
        cut = text.rfind("\n") + 1
        piece, rest = text[:cut], text[cut:]
        del chunk, text
        yield piece
        del piece
    yield rest


def _count_lines(path):
    """The number of lines in the file, read _READ_CHUNK bytes at a time:
    its newline bytes, and one more when bytes follow the last of them."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_READ_CHUNK):
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")


def _load_plain(path, meta=True):
    """Columnar parse of unquoted text split on newlines and commas.

    On such text `csv.reader` yields exactly the comma-separated fields of
    each line. The file's lines are counted first, so the feature matrix is
    allocated once and each piece's rows are parsed into it; the file is
    then read and parsed a piece at a time (`_pieces`). Each piece's labels
    are coded through one dict of the names seen so far into a code array
    allocated with the matrix; its meta cells (as UTF-8 bytes) become one
    array per column, joined at the end. Returns None when a piece holds a
    quote, a lone CR or a NUL, when it holds more rows than the count left
    room for, or when a row's arity, a cell `np.loadtxt` rejects or a
    non-finite value needs the reference loop to decide.
    """
    n_lines = _count_lines(path)
    header, filled, names, columns = None, 0, {}, None
    with open(path, newline="") as fh:
        for piece in _pieces(fh):
            if any(c in piece for c in '"\r\0'):
                return None
            lines = [ln for ln in piece.split("\n") if ln.replace(",", "").strip()]
            if header is None and lines:
                header = [c.strip() for c in lines.pop(0).split(",")]
                n_meta, feat_idx, has_labels, schema = _layout(path, header)
                commas = len(header) - 1
                X = np.empty((max(n_lines - 1, 0), len(feat_idx)))
                codes = np.empty(len(X) if has_labels else 0, dtype=np.intp)
                if meta and n_meta:  # an empty first piece, so no rows still join
                    columns = [[np.array([], dtype=bytes)] for _ in range(n_meta)]
            if not lines:
                continue
            if any(ln.count(",") != commas for ln in lines) or filled + len(lines) > len(X):
                return None
            try:
                block = np.loadtxt(lines, delimiter=",", usecols=feat_idx, comments=None, ndmin=2)
            except ValueError:
                return None
            if block.shape != (len(lines), len(feat_idx)) or not np.isfinite(block).all():
                return None
            X[filled:filled + len(lines)] = block
            if has_labels:
                codes[filled:filled + len(lines)] = [
                    names.setdefault(ln.rpartition(",")[2].strip(), len(names)) for ln in lines]
            filled += len(lines)
            for j, pieces in enumerate(columns or ()):
                pieces.append(np.array([ln.split(",", j + 1)[j].encode() for ln in lines],
                                       dtype=bytes))
            del piece, lines, block  # before the next read
    if header is None:
        return None
    return _assembled(schema, X[:filled], columns and header[:n_meta], list(names),
                      codes[:filled] if has_labels else None,
                      columns and tuple(_frozen(np.concatenate(pieces)) for pieces in columns))


def _load_cells(path, text, meta=True):
    """Reference parse: `csv.reader` rows and one `float()` per cell. A
    byte-order mark that starts the text is dropped first, so that it does
    not sit before the opening quote of a quoted first cell."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyDatasetError(f"{path}: file has no header row")
    header = [c.strip() for c in rows[0]]
    n_meta, feat_idx, has_labels, schema = _layout(path, header)

    X = np.empty((len(rows) - 1, len(feat_idx)), dtype=float)
    labels = [] if has_labels else None
    columns = [[] for _ in range(n_meta)] if meta and n_meta else None
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ArityError(
                f"{path}: row {i} has {len(row)} cells, header has {len(header)}"
            )
        for k, j in enumerate(feat_idx):
            cell = row[j].strip()
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i}, column '{header[j]}': cannot parse {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{path}: row {i}, column '{header[j]}': non-finite value {cell!r}"
                )
            X[i - 2, k] = v
        if has_labels:
            labels.append(row[-1].strip())
        for cells, cell in zip(columns or (), row):
            cells.append(cell)
    return _assembled(schema, X, columns and header[:n_meta], *_names_coded(labels, len(X)),
                      columns and tuple(_meta_column(cells) for cells in columns))


# Rows per block of `save_csv`: only one block's cells and text exist at a
# time, so the write's memory does not grow with the table.
_WRITE_BLOCK = 1024


def save_csv(d: Dataset, path: str) -> None:
    """Write a dataset back to CSV. Floats use repr so reloads are bit-exact.

    The meta columns written are as many as both the meta schema names and
    the table holds, so the header and the rows have one width. The text is
    formatted and written _WRITE_BLOCK rows at a time into a staged file
    that is renamed into place, so readers never see a half-written table.
    """
    k = min(len(d.meta_schema or ()), len(d._meta or ()))
    header = list(d.meta_schema or ())[:k]
    for name, unit in d.schema:
        header.append(f"{name} (in {unit})" if unit else name)
    if d.label_presence:
        header.append(LABEL_COLUMN)
    atomic_write_text(path, _csv_blocks(d, header, k))


def _csv_blocks(d, header, k):
    """The CSV text of d with its first k meta columns: the header line,
    then one `csv_text` chunk per _WRITE_BLOCK rows."""
    yield csv_text([header])
    for a in range(0, d.n_rows, _WRITE_BLOCK):
        b = a + _WRITE_BLOCK
        labels = [[d.classes[c] for c in d.codes[a:b].tolist()]] if d.label_presence else []
        floats = [map(repr, column) for column in d.X[a:b].T.tolist()]
        yield csv_text(list(zip(*d._meta_cells(a, b)[:k], *floats, *labels)))


def csv_text(rows):
    """The csv.writer text of the list rows, all of one width: every CSV
    table the package writes, save_csv's and compare_table's. When the
    writer would write every cell bare (rows of two or more cells, none
    holding a comma, quote, CR or LF), that text is the cells joined by
    commas and newlines, and is built so; a block whose first row needs
    quoting is not joined at all. Any other block goes through csv.writer.
    The writer quotes a cell only for its "\n" line terminator, so a bare CR
    would split a row on reload: when the text holds one, every cell of each
    row that holds a CR is quoted."""
    width = len(rows[0]) if rows else 0
    if width > 1 and not any(c in cell for cell in rows[0] for c in ',"\r\n'):
        text = "\n".join(map(",".join, rows)) + "\n"
        if (text.count(",") == len(rows) * (width - 1) and text.count("\n") == len(rows)
                and '"' not in text and "\r" not in text):
            return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    if "\r" not in (text := buf.getvalue()):
        return text
    buf = io.StringIO()
    plain, quoted = (csv.writer(buf, lineterminator="\n", quoting=q)
                     for q in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
    for row in rows:
        (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
    return buf.getvalue()


# Default generator columns: per-column (mean, stddev) sample statistics of a
# 19-row slice of real rig sensor readings (tests recompute them from the
# same rows). Stddev is the n-1 sample estimate.
DEFAULT_COLUMNS = (
    ("Operating Temperature", "Deg."),
    ("Operating Pressure", "psi"),
    ("Working Pressure", "psi"),
    ("Gas Detector", "PPM"),
    ("Flow Rate", "cc/min"),
)
DEFAULT_NORMAL_PARAMS = (
    (95.60526315789475, 3.1535647702614127),
    (77.23736842105262, 1.8394136810566781),
    (77.95157894736842, 1.677512255818434),
    (9.98421052631579, 0.26721434986154824),
    (362.89473684210526, 20.335777822574745),
)
# Failure signature: pressure and gas columns drift upward; temperature and
# flow stay put. The shift size (in stddevs) is a config knob.
DEFAULT_SHIFTED_COLUMNS = ("Operating Pressure", "Working Pressure", "Gas Detector")
DEFAULT_FAILURE_FRACTION = 0.13


@dataclass(frozen=True)
class SyntheticGenConfig:
    """The synthetic source: row count, failure fraction, seed and how many
    normal-class stddevs the failure class's shifted columns drift up."""

    row_count: int
    failure_fraction: float = DEFAULT_FAILURE_FRACTION
    seed: int = 0
    failure_shift_sigma: float = 2.0

    def __post_init__(self):
        check_number("row_count", self.row_count, int, lambda v: v >= 2, ">= 2")
        check_number("failure_fraction", self.failure_fraction, float,
                     lambda v: 0 < v < 1, "in (0,1)")
        check_number("seed", self.seed, int, lambda v: v >= 0, ">= 0")
        check_number("failure_shift_sigma", self.failure_shift_sigma, float)


def generate_synthetic(cfg: SyntheticGenConfig) -> Dataset:
    """Draw a labeled dataset from per-class, per-column Gaussians: the
    default columns' statistics for the normal class, the same with the
    shifted columns' means moved up for the failure class.

    Class counts are round(row_count * fraction); rows are shuffled but the
    whole draw is deterministic for a fixed seed.
    """
    n_fail = int(round(cfg.row_count * cfg.failure_fraction))
    n_norm = cfg.row_count - n_fail
    rng = np.random.default_rng(cfg.seed)
    X = np.empty((cfg.row_count, len(DEFAULT_COLUMNS)))
    for j, ((name, _), (mu, sd)) in enumerate(zip(DEFAULT_COLUMNS, DEFAULT_NORMAL_PARAMS)):
        shift = cfg.failure_shift_sigma * sd if name in DEFAULT_SHIFTED_COLUMNS else 0.0
        X[:n_norm, j] = rng.normal(mu, sd, size=n_norm)
        X[n_norm:, j] = rng.normal(mu + shift, sd, size=n_fail)
    labels = np.array([CLASS_NORMAL] * n_norm + [CLASS_FAILURE] * n_fail)
    perm = rng.permutation(cfg.row_count)
    return Dataset(DEFAULT_COLUMNS, X[perm], labels[perm])


def split_train_test(d: Dataset, train_fraction: float, seed: int = 0):
    """Split into (train, test); train gets floor(fraction * n) rows.

    Parts are disjoint and exhaustive, and both preserve the input row order.
    """
    if d.n_rows == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    check_number("train_fraction", train_fraction, float, lambda v: 0 < v < 1, "in (0,1)")
    check_number("seed", seed, int, lambda v: v >= 0, ">= 0")
    n_train = math.floor(train_fraction * d.n_rows)
    idx = np.random.default_rng(seed).permutation(d.n_rows)
    train_idx = np.sort(idx[:n_train])
    test_idx = np.sort(idx[n_train:])
    return d.subset(train_idx), d.subset(test_idx)


def stratified_folds(d: Dataset, n_folds: int, seed: int = 0):
    """Deterministic stratified k-fold assignment of a labeled dataset.

    Returns an int array mapping each row to a fold in [0, k). Rows of each
    class are shuffled with the seed and dealt round-robin, so per-fold class
    proportions match the whole within one row. If the rarest class has fewer
    rows than n_folds, k drops to that count (with a warning) so every fold
    sees every class.
    """
    check_number("n_folds", n_folds, int, lambda v: v >= 2, ">= 2")
    check_number("seed", seed, int, lambda v: v >= 0, ">= 0")
    rarest = int(np.bincount(d.codes).min())
    if rarest < n_folds:
        if rarest < 2:
            raise ConfigError(
                f"rarest class has {rarest} rows; need at least 2 to fold"
            )
        warnings.warn(f"reducing folds from {n_folds} to {rarest} (rarest class)")
        n_folds = rarest
    rng = np.random.default_rng(seed)
    assign = np.empty(d.n_rows, dtype=int)
    for code in range(len(d.classes)):
        idx = np.flatnonzero(d.codes == code)
        idx = idx[rng.permutation(len(idx))]
        assign[idx] = np.arange(len(idx)) % n_folds
    return assign


def class_distribution(d: Dataset) -> dict:
    """Map each class to (count, fraction). Fractions sum to 1."""
    if not d.label_presence:
        raise MissingLabelsError("class_distribution needs a labeled dataset")
    counts = np.bincount(d.codes, minlength=len(d.classes)).tolist()
    return {cls: (count, count / d.n_rows) for cls, count in zip(d.classes, counts)}


class Standardizer:
    """Column-wise zero-mean unit-variance scaling.

    Statistics come from the data passed to fit (the training split); constant
    columns get scale 1 so they pass through unchanged.
    """

    def __init__(self):
        self.means = None
        self.scales = None

    def fit(self, X) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        self.means = X.mean(axis=0)
        scales = X.std(axis=0)
        scales[scales < 1e-12] = 1.0
        self.scales = scales
        return self

    def transform(self, X) -> np.ndarray:
        if self.means is None:
            raise ConfigError("Standardizer used before fit")
        Z = np.asarray(X, dtype=float) - self.means
        Z /= self.scales
        return Z

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def transform_dataset(self, d: Dataset) -> Dataset:
        return d._derive(self.transform(d.X), d.classes, d.codes, d._meta)
