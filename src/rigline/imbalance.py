"""Class-imbalance treatments: SMOTE oversampling, random undersampling,
and a minimum-expected-cost prediction wrapper."""

from dataclasses import dataclass

import numpy as np

from .baseline_learners import TrainedModel
from .dataset import Dataset, Standardizer
from .errors import ConfigError, SingleClassError
from .util import check_number


@dataclass(frozen=True)
class SmoteConfig:
    """k_neighbors: neighbor pool size; target_ratio: desired minority/majority
    count ratio (1.0 balances); seed drives every random draw."""

    k_neighbors: int = 5
    target_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_number("k_neighbors", self.k_neighbors, int, lambda v: v >= 1, ">= 1")
        check_number("target_ratio", self.target_ratio, float, lambda v: 0 < v <= 1, "in (0,1]")
        check_number("seed", self.seed, int, lambda v: v >= 0, ">= 0")


def _two_class_split(d: Dataset):
    """The minority's code and the row count of each class of a two-class
    table; on a tie the minority is the second class."""
    if not d.label_presence:
        raise SingleClassError("sampling needs a labeled dataset")
    if len(d.classes) == 1:
        raise SingleClassError(f"only one class present: {d.classes[0]}")
    if len(d.classes) > 2:
        raise ConfigError(f"sampling expects two classes, got {len(d.classes)}")
    counts = np.bincount(d.codes).tolist()
    return int(counts[0] >= counts[1]), counts


# Rows per block of the neighbor search. A block holds one buffer of
# _NEIGHBOR_BLOCK * m floats, so memory grows linearly with the m rows
# searched: 2.6 MB at m = 5,000 with 64-row blocks, against 10.2 MB with
# 256. BLAS rounds the block product Z[rows] @ Z.T differently for a
# different block shape (in the last bit), so a block size can only move
# which of two nearly tied rows is nearer, in minorities of more than 64
# rows; a minority of 64 rows or fewer is one block whatever the size.
_NEIGHBOR_BLOCK = 64
# Rows of a block turned from products into distances at a time; their
# temporaries are _DISTANCE_SLICE * m floats.
_DISTANCE_SLICE = 16


def _nearest_neighbors(Z: np.ndarray, k: int) -> np.ndarray:
    """The k nearest other rows of each row of Z, as an (m, k) index array.

    Squared Euclidean distances are norms[i] + norms[j] - 2 * (z_i . z_j);
    each row's neighbors are the first k columns of a stable argsort of its
    distances with its own at inf: nearest first, ties broken by row index.
    Rows are searched in blocks of _NEIGHBOR_BLOCK; needs k < m.
    """
    m = len(Z)
    norms = np.sum(Z * Z, axis=1)
    out = np.empty((m, k), dtype=np.intp)
    for start in range(0, m, _NEIGHBOR_BLOCK):
        rows = np.arange(start, min(start + _NEIGHBOR_BLOCK, m))
        out[rows] = _block_neighbors(Z, norms, rows, k)
    return out


def _block_neighbors(Z, norms, rows, k):
    """_nearest_neighbors of the given consecutive rows, in one len(rows) x m
    buffer: the doubled product, turned into distances in place a slice of
    rows at a time. It is freed on return, before the next block allocates
    its own."""
    sq = Z[rows] @ Z.T
    sq *= 2.0
    kth = np.empty(len(rows))
    for a in range(0, len(rows), _DISTANCE_SLICE):
        part, own = sq[a:a + _DISTANCE_SLICE], rows[a:a + _DISTANCE_SLICE]
        np.subtract(norms[own, None] + norms[None, :], part, out=part)
        part[np.arange(len(own)), own] = np.inf
        kth[a:a + len(own)] = np.partition(part, k - 1, axis=1)[:, k - 1]
    # Every row has at least k candidates at or under its k-th distance;
    # sort them by (row, distance, column) and keep each row's first k.
    r, c = np.nonzero(sq <= kth[:, None])
    order = np.lexsort((c, sq[r, c], r))
    r, c = r[order], c[order]
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    return c[rank < k].reshape(-1, k)


def smote(d: Dataset, cfg: SmoteConfig = SmoteConfig()) -> Dataset:
    """Append interpolated minority rows until minority/majority hits the
    target ratio (within one row).

    Each synthetic row is p + delta * (n - p) for a seeded-random minority
    row p, one of its k nearest minority neighbors n (Euclidean distance on
    standardized features, distance ties broken by row index), and delta
    uniform in [0,1]. Original rows stay in place as a prefix.
    """
    minority, counts = _two_class_split(d)
    n_min, n_maj = counts[minority], counts[1 - minority]
    if n_min <= cfg.k_neighbors:
        raise ConfigError(
            f"minority class has {n_min} rows; need more than k={cfg.k_neighbors}"
        )
    needed = int(round(cfg.target_ratio * n_maj)) - n_min
    if needed <= 0:
        return d

    Xmin = d.X[d.codes == minority]
    Z = Standardizer().fit(d.X).transform(Xmin)
    neighbors = _nearest_neighbors(Z, cfg.k_neighbors)

    rng = np.random.default_rng(cfg.seed)
    picks = rng.integers(n_min, size=needed)
    partner_slots = rng.integers(cfg.k_neighbors, size=needed)
    deltas = rng.uniform(0.0, 1.0, size=needed)
    # The grown table is allocated once, the input rows copied into its
    # head. Its tail takes the partners N and becomes the synthetic rows in
    # place: the arithmetic of P + deltas * (N - P), without its
    # temporaries. np.take's default mode would buffer its output.
    n = d.n_rows
    X = np.empty((n + needed, d.arity))
    X[:n] = d.X
    tail = X[n:]
    np.take(Xmin, neighbors[picks, partner_slots], axis=0, out=tail, mode="clip")
    P = Xmin[picks]
    tail -= P
    tail *= deltas[:, None]
    tail += P
    del P
    codes = np.empty(n + needed, dtype=d.codes.dtype)
    codes[:n] = d.codes
    codes[n:] = minority
    return d._grown(X, d.classes, codes)


def undersample(d: Dataset, seed: int = 0) -> Dataset:
    """Drop seeded-random majority rows until both classes have equal counts.

    Minority rows and the relative order of survivors are untouched; balanced
    input comes back unchanged.
    """
    check_number("seed", seed, int, lambda v: v >= 0, ">= 0")
    minority, counts = _two_class_split(d)
    if counts[0] == counts[1]:
        return d
    rng = np.random.default_rng(seed)
    keep = d.codes == minority
    keep[rng.choice(np.flatnonzero(~keep), size=counts[minority], replace=False)] = True
    return d.subset(np.flatnonzero(keep))


class CostMatrix:
    """2x2 misclassification costs, cost[actual][predicted], zero diagonal."""

    def __init__(self, rows):
        m = np.asarray(rows, dtype=float)
        if m.shape != (2, 2):
            raise ConfigError(f"cost matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ConfigError("costs must be finite")
        if m[0, 0] != 0.0 or m[1, 1] != 0.0:
            raise ConfigError("cost matrix diagonal must be zero")
        if m[0, 1] < 0 or m[1, 0] < 0:
            raise ConfigError("costs must be nonnegative")
        if m[0, 1] == 0.0 and m[1, 0] == 0.0:
            raise ConfigError("at least one off-diagonal cost must be positive")
        self.m = m

    @classmethod
    def from_off_diagonal(cls, first_as_second: float, second_as_first: float):
        return cls([[0.0, first_as_second], [second_as_first, 0.0]])


def default_cost_matrix(d: Dataset) -> CostMatrix:
    """Misreading the minority class costs majority/minority; the reverse
    costs 1. Class index order follows the table's classes."""
    minority, counts = _two_class_split(d)
    m = np.zeros((2, 2))
    m[minority][1 - minority] = counts[1 - minority] / counts[minority]
    m[1 - minority][minority] = 1.0
    return CostMatrix(m)


class CostSensitiveModel(TrainedModel):
    """Wraps a probabilistic model; predicts the class minimizing expected
    cost instead of the probability argmax. Probabilities pass through."""

    learner = "costwrap"

    def __init__(self, base: TrainedModel, cm: CostMatrix):
        if len(base.classes) != 2:
            raise ConfigError("cost-sensitive wrapping expects a two-class model")
        super().__init__(base.classes)
        self.base = base
        self.cm = cm
        self.arity = getattr(base, "arity", None)

    def _score(self, X):
        s = self.base.score(X)
        # column c of P @ cost: sum_a P(a) cost[a][c], the expected cost of c
        return s._replace(picks=np.argmin(s.proba @ self.cm.m, axis=1))
