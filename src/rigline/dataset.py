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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    ConfigError,
    EmptyDatasetError,
    MissingLabelsError,
    ParseError,
)
from .util import atomic_write_text

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

    Parameters
    ----------
    schema : sequence of (name, unit) pairs, one per feature column.
    X : array-like of shape (n_rows, arity), all finite.
    labels : optional sequence of n_rows class names.
    meta : optional sequence of n_rows tuples of bookkeeping strings
        (serial number, timestamp, ...), excluded from features.
    meta_schema : column names for the meta tuples.
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
        if labels is None:
            self.labels = None
        else:
            labels = np.asarray(labels, dtype=str)
            if labels.shape != (X.shape[0],):
                raise ArityError(
                    f"{len(labels)} labels for {X.shape[0]} rows"
                )
            self.labels = labels
            self.labels.setflags(write=False)
        if meta is not None:
            meta = [tuple(str(c) for c in row) for row in meta]
            if len(meta) != X.shape[0]:
                raise ArityError(f"{len(meta)} meta rows for {X.shape[0]} rows")
        self.meta = meta
        self.meta_schema = tuple(meta_schema) if meta_schema else None

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def arity(self) -> int:
        return self.X.shape[1]

    @property
    def label_presence(self) -> bool:
        return self.labels is not None

    def feature_names(self):
        return [n for n, _ in self.schema]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        labels = None if self.labels is None else self.labels[indices]
        meta = None if self.meta is None else [self.meta[i] for i in indices]
        return Dataset(self.schema, self.X[indices], labels, meta, self.meta_schema)

    def with_labels(self, labels) -> "Dataset":
        return Dataset(self.schema, self.X, labels, self.meta, self.meta_schema)

    def without_labels(self) -> "Dataset":
        return Dataset(self.schema, self.X, None, self.meta, self.meta_schema)

    def append_rows(self, X_new, labels_new) -> "Dataset":
        """New dataset with extra labeled rows appended (meta dropped for new rows)."""
        if self.labels is None:
            raise MissingLabelsError("can only append labeled rows to a labeled dataset")
        X = np.vstack([self.X, np.asarray(X_new, dtype=float)])
        labels = np.concatenate([self.labels, np.asarray(labels_new, dtype=str)])
        meta = None
        if self.meta is not None:
            blank = tuple("" for _ in (self.meta_schema or ()))
            meta = list(self.meta) + [blank] * len(X_new)
        return Dataset(self.schema, X, labels, meta, self.meta_schema)


def _parse_header_cell(cell: str):
    m = _UNIT_RE.match(cell.strip())
    if m:
        return m.group(1).strip(), m.group(2).strip()
    return cell.strip(), ""


def _is_meta_header(cell: str) -> bool:
    name = cell.strip().lower()
    return bool(_SERIAL_RE.match(name)) or bool(_TIME_RE.search(name))


def load_csv(path: str) -> Dataset:
    """Load a sensor CSV. Header required; numeric cells must parse as reals.

    Leading serial/timestamp columns become row metadata. When the last
    header cell is the label column (`class`, any case) that column is read
    as the nominal class label.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyDatasetError(f"{path}: file has no header row")
    header = [c.strip() for c in rows[0]]

    n_meta = 0
    while n_meta < min(2, len(header)) and _is_meta_header(header[n_meta]):
        n_meta += 1
    has_labels = header[-1].lower() == LABEL_COLUMN
    label_idx = len(header) - 1 if has_labels else None
    feat_idx = [
        j for j in range(n_meta, len(header)) if label_idx is None or j != label_idx
    ]
    if not feat_idx:
        raise EmptyDatasetError(f"{path}: no feature columns in header")
    schema = [_parse_header_cell(header[j]) for j in feat_idx]

    X = np.empty((len(rows) - 1, len(feat_idx)), dtype=float)
    labels = [] if has_labels else None
    meta = [] if n_meta else None
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
            labels.append(row[label_idx].strip())
        if n_meta:
            meta.append(tuple(row[:n_meta]))
    return Dataset(schema, X, labels, meta, header[:n_meta] if n_meta else None)


def save_csv(d: Dataset, path: str) -> None:
    """Write a dataset back to CSV. Floats use repr so reloads are bit-exact.

    The file is staged and renamed into place, so readers never see a
    half-written table.
    """
    header = list(d.meta_schema or ())
    for name, unit in d.schema:
        header.append(f"{name} (in {unit})" if unit else name)
    if d.label_presence:
        header.append(LABEL_COLUMN)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    labels = d.labels.tolist() if d.label_presence else None
    for i, x in enumerate(d.X.tolist()):
        row = list(d.meta[i]) if d.meta is not None else []
        row.extend(map(repr, x))
        if labels is not None:
            row.append(labels[i])
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


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
        if self.row_count < 2:
            raise ConfigError(f"row_count must be >= 2, got {self.row_count}")
        if not 0.0 < self.failure_fraction < 1.0:
            raise ConfigError(
                f"failure_fraction must be in (0,1), got {self.failure_fraction}"
            )
        if not math.isfinite(self.failure_shift_sigma):
            raise ConfigError(
                f"failure_shift_sigma must be finite, got {self.failure_shift_sigma}")


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
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0,1), got {train_fraction}")
    n_train = math.floor(train_fraction * d.n_rows)
    idx = np.random.default_rng(seed).permutation(d.n_rows)
    train_idx = np.sort(idx[:n_train])
    test_idx = np.sort(idx[n_train:])
    return d.subset(train_idx), d.subset(test_idx)


def stratified_folds(labels, n_folds: int, seed: int = 0):
    """Deterministic stratified k-fold assignment.

    Returns an int array mapping each row to a fold in [0, k). Rows of each
    class are shuffled with the seed and dealt round-robin, so per-fold class
    proportions match the whole within one row. If the rarest class has fewer
    rows than n_folds, k drops to that count (with a warning) so every fold
    sees every class.
    """
    labels = np.asarray(labels, dtype=str)
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    counts = [int(np.sum(labels == c)) for c in class_order(labels)]
    rarest = min(counts)
    if rarest < n_folds:
        if rarest < 2:
            raise ConfigError(
                f"rarest class has {rarest} rows; need at least 2 to fold"
            )
        import warnings

        warnings.warn(f"reducing folds from {n_folds} to {rarest} (rarest class)")
        n_folds = rarest
    rng = np.random.default_rng(seed)
    assign = np.empty(len(labels), dtype=int)
    for cls in class_order(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        assign[idx] = np.arange(len(idx)) % n_folds
    return assign


def class_distribution(d: Dataset) -> dict:
    """Map each class to (count, fraction). Fractions sum to 1."""
    if not d.label_presence:
        raise MissingLabelsError("class_distribution needs a labeled dataset")
    total = d.n_rows
    out = {}
    for cls in class_order(d.labels):
        count = int(np.sum(d.labels == cls))
        out[cls] = (count, count / total)
    return out


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
        return (np.asarray(X, dtype=float) - self.means) / self.scales

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def transform_dataset(self, d: Dataset) -> Dataset:
        return Dataset(d.schema, self.transform(d.X), d.labels, d.meta, d.meta_schema)
