import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigline.baseline_learners import TrainedModel, train_naive_bayes
from rigline.dataset import (
    CLASS_FAILURE,
    CLASS_NORMAL,
    Dataset,
    Standardizer,
    SyntheticGenConfig,
    class_distribution,
    generate_synthetic,
)
from rigline.errors import ConfigError, SingleClassError
from rigline.imbalance import (
    _NEIGHBOR_BLOCK,
    CostMatrix,
    CostSensitiveModel,
    SmoteConfig,
    _nearest_neighbors,
    default_cost_matrix,
    smote,
    undersample,
)


def imbalanced(n=1000, seed=0):
    return generate_synthetic(SyntheticGenConfig(row_count=n, seed=seed))


# ---------------------------------------------------------------------------
# SMOTE

def test_smote_balances_870_130():
    d = imbalanced(1000, seed=1)
    out = smote(d, SmoteConfig(seed=2))
    dist = class_distribution(out)
    assert dist[CLASS_NORMAL][0] == 870
    assert dist[CLASS_FAILURE][0] == 870
    assert out.n_rows == 1740


def test_smote_prefix_and_synthetic_labels():
    d = imbalanced(400, seed=3)
    out = smote(d, SmoteConfig(seed=4))
    assert np.array_equal(out.X[: d.n_rows], d.X)
    assert np.array_equal(out.labels[: d.n_rows], d.labels)
    assert np.all(out.labels[d.n_rows :] == CLASS_FAILURE)


def test_smote_synthetic_rows_inside_minority_bbox():
    d = imbalanced(600, seed=5)
    out = smote(d, SmoteConfig(seed=6))
    minority = d.X[d.labels == CLASS_FAILURE]
    lo, hi = minority.min(axis=0), minority.max(axis=0)
    synth = out.X[d.n_rows :]
    assert np.all(synth >= lo - 1e-9)
    assert np.all(synth <= hi + 1e-9)


def test_smote_colinearity():
    # Each synthetic point must sit on a segment between two minority rows:
    # (s - p) and (n - p) parallel with a gap factor in [0,1] for some pair.
    d = imbalanced(300, seed=7)
    out = smote(d, SmoteConfig(seed=8))
    minority = d.X[d.labels == CLASS_FAILURE]
    for s in out.X[d.n_rows :][:50]:
        found = False
        for i in range(len(minority)):
            p = minority[i]
            sp = s - p
            for j in range(len(minority)):
                if j == i:
                    continue
                np_ = minority[j] - p
                denom = float(np_ @ np_)
                delta = float(sp @ np_) / denom
                if -1e-9 <= delta <= 1 + 1e-9 and np.linalg.norm(sp - delta * np_) < 1e-9:
                    found = True
                    break
            if found:
                break
        assert found


def test_smote_target_ratio_and_noop():
    d = imbalanced(1000, seed=9)
    half = smote(d, SmoteConfig(target_ratio=0.5, seed=10))
    dist = class_distribution(half)
    assert dist[CLASS_FAILURE][0] == round(0.5 * 870)
    # Ratio already satisfied: unchanged dataset object.
    assert smote(half, SmoteConfig(target_ratio=0.1, seed=11)) is half


def test_smote_determinism():
    d = imbalanced(500, seed=12)
    a = smote(d, SmoteConfig(seed=13))
    b = smote(d, SmoteConfig(seed=13))
    c = smote(d, SmoteConfig(seed=14))
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_smote_errors():
    d = imbalanced(60, seed=15)  # 8 failure rows
    n_fail = int(np.sum(d.labels == CLASS_FAILURE))
    with pytest.raises(ConfigError):
        smote(d, SmoteConfig(k_neighbors=n_fail))
    single = Dataset([("x", "")], [[1.0], [2.0]], ["a", "a"])
    with pytest.raises(SingleClassError):
        smote(single)
    with pytest.raises(ConfigError):
        SmoteConfig(k_neighbors=0)
    with pytest.raises(ConfigError):
        SmoteConfig(target_ratio=1.5)


def test_smote_zero_gap_returns_p():
    # Colinearity at the boundary: a synthetic row with delta ~ 0 equals p.
    # Force it by construction: two identical minority points make every
    # interpolation land on the shared location.
    X = np.vstack([np.random.default_rng(0).normal(size=(20, 2)), [[5.0, 5.0]] * 3])
    d = Dataset([("a", ""), ("b", "")], X, ["n"] * 20 + ["f"] * 3)
    out = smote(d, SmoteConfig(k_neighbors=2, seed=0))
    synth = out.X[d.n_rows :]
    assert np.allclose(synth, 5.0)


def reference_synthetic_rows(d, cfg, minority):
    """P + deltas * (N - P) with smote's draws, in smote's order, and the
    neighbours _nearest_neighbors finds on the standardized minority."""
    Xmin = d.X[d.labels == minority]
    n_maj = d.n_rows - len(Xmin)
    needed = int(round(cfg.target_ratio * n_maj)) - len(Xmin)
    Z = Standardizer().fit(d.X).transform(Xmin)
    neighbors = _nearest_neighbors(Z, cfg.k_neighbors)
    rng = np.random.default_rng(cfg.seed)
    picks = rng.integers(len(Xmin), size=needed)
    partner_slots = rng.integers(cfg.k_neighbors, size=needed)
    deltas = rng.uniform(0.0, 1.0, size=needed)
    P, N = Xmin[picks], Xmin[neighbors[picks, partner_slots]]
    return P + deltas[:, None] * (N - P)


@pytest.mark.parametrize("n_min, n_maj, k, ratio, with_meta", [
    (12, 100, 5, 1.0, False),
    (64, 300, 3, 0.8, False),
    (65, 300, 5, 1.0, True),
    (300, 1000, 7, 0.9, True),
])
def test_smote_rows_are_the_reference_bit_for_bit(n_min, n_maj, k, ratio, with_meta):
    # Minorities of one 64-row neighbour block and of several; the minority
    # rows lie scattered through the table. With meta, the grown table's
    # meta is what append_rows gives the same rows.
    rng = np.random.default_rng(n_min)
    labels = rng.permutation(["f"] * n_min + ["n"] * n_maj)
    X = rng.normal(size=(len(labels), 4)) * [1.0, 10.0, 1e-3, 1e5]
    meta = [(str(1048576 + i), f"2/8/2014 {i // 60 % 24}:{i % 60:02d}")
            for i in range(len(labels))] if with_meta else None
    d = Dataset([(f"c{j}", "") for j in range(4)], X, labels, meta,
                ("S No.", "Time Stamp") if with_meta else None)
    cfg = SmoteConfig(k_neighbors=k, target_ratio=ratio, seed=n_maj)
    synthetic = reference_synthetic_rows(d, cfg, "f")
    out = smote(d, cfg)
    expected = d.append_rows(synthetic, ["f"] * len(synthetic))
    assert out.X.tobytes() == expected.X.tobytes()
    assert out.labels.dtype == expected.labels.dtype
    assert out.labels.tolist() == expected.labels.tolist()
    assert out.meta == expected.meta and out.meta_schema == expected.meta_schema
    if with_meta:
        assert out.meta[d.n_rows:] == [("", "")] * len(synthetic)


def dense_neighbors(Z, k):
    """Reference: the full distance matrix, self at inf, stable argsort."""
    norms = np.sum(Z * Z, axis=1)
    sq = norms[:, None] + norms[None, :] - 2.0 * (Z @ Z.T)
    np.fill_diagonal(sq, np.inf)
    return np.argsort(sq, axis=1, kind="stable")[:, :k]


@st.composite
def tied_neighbor_problems(draw):
    b = _NEIGHBOR_BLOCK
    m = draw(st.one_of(st.integers(2, 12), st.sampled_from([b - 1, b, b + 1, 2 * b + 1])))
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(m - 1, 8)))
    # Integer or half-step values on a small grid: every distance is exact
    # and ties are common.
    spread = draw(st.integers(1, 4))
    step = draw(st.sampled_from([0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    Z = np.random.default_rng(seed).integers(-spread, spread + 1, size=(m, dim)) * step
    return Z, k


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tied_neighbor_problems())
def test_nearest_neighbors_match_dense_stable_sort(problem):
    Z, k = problem
    got = _nearest_neighbors(Z, k)
    assert got.shape == (len(Z), k)
    assert np.array_equal(got, dense_neighbors(Z, k))


def two_buffer_block_neighbors(Z, k):
    """Reference: each block's distances as a sum of norms minus the doubled
    product, in two whole-block buffers, then the same candidate sort."""
    norms = np.sum(Z * Z, axis=1)
    out = []
    for start in range(0, len(Z), _NEIGHBOR_BLOCK):
        rows = np.arange(start, min(start + _NEIGHBOR_BLOCK, len(Z)))
        sq = norms[rows, None] + norms[None, :]
        dot = Z[rows] @ Z.T
        dot *= 2.0
        sq -= dot
        sq[rows - rows[0], rows] = np.inf
        kth = np.partition(sq, k - 1, axis=1)[:, k - 1]
        r, c = np.nonzero(sq <= kth[:, None])
        order = np.lexsort((c, sq[r, c], r))
        r, c = r[order], c[order]
        rank = np.arange(len(r)) - np.searchsorted(r, r)
        out.append(c[rank < k].reshape(-1, k))
    return np.concatenate(out)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from([_NEIGHBOR_BLOCK - 1, _NEIGHBOR_BLOCK, _NEIGHBOR_BLOCK + 1,
                        2 * _NEIGHBOR_BLOCK + 1]),
       st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 0.1, 0.3, 1 / 3]))
def test_nearest_neighbors_keep_the_two_buffer_rounding(m, dim, k, seed, step):
    # Floats that are not on a binary grid, so distances round. Normal draws,
    # or a decimal grid shifted by a random offset: there rows that are
    # equally far apart get distances that differ in the last bits, so the
    # order of tied rows shows whether the arithmetic is the reference's.
    rng = np.random.default_rng(seed)
    if step is None:
        Z = rng.normal(size=(m, dim))
    else:
        Z = rng.integers(-3, 4, size=(m, dim)) * step + rng.normal(size=dim)
    assert np.array_equal(_nearest_neighbors(Z, k), two_buffer_block_neighbors(Z, k))


def test_smote_neighbor_blocks_hold_two_buffers():
    # The neighbor search alone over the 4,000-row minority below: a
    # 64 x 4,000 block is 2 MB per float matrix, and the search never holds
    # two of them at once. With 256-row blocks, four alive at once peaked at
    # 32.2 MB and one buffer, with the doubled product turned into distances
    # in place, at 9.0; one 64-row buffer takes 2.6.
    Z = np.random.default_rng(0).normal(size=(4000, 5))
    block_bytes = _NEIGHBOR_BLOCK * len(Z) * Z.itemsize
    tracemalloc.start()
    try:
        neighbors = _nearest_neighbors(Z, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert neighbors.shape == (4000, 5)
    assert peak < 2 * block_bytes


def test_smote_memory_is_linear_in_minority_rows():
    # A dense 4,000 x 4,000 neighbor search takes 128 MB per float or index
    # matrix. Blocks of rows, with a 256 x 4,000 block at 8 MB per float
    # matrix: four of them alive at once (the sum, the product, its double
    # and the partitioned copy) peaked at 32.2 MB, the distances and one
    # buffer for the product and the partition at 17.6, and the doubled
    # product turned into distances in place, over the standardized minority
    # rows only, at 9.4. A 64 x 4,000 block is 2 MB, and with the synthetic
    # rows formed in place the whole of smote takes 3.0; writing them
    # straight into the grown table leaves that peak, the block search's, as
    # it was.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12000, 5))
    d = Dataset([(f"c{j}", "") for j in range(5)], X, ["n"] * 8000 + ["f"] * 4000)
    tracemalloc.start()
    try:
        out = smote(d, SmoteConfig(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n_rows == 16000
    assert peak < 3.5 * 2**20


# ---------------------------------------------------------------------------
# Undersampling

def test_undersample_balances_and_preserves_rows():
    d = imbalanced(1000, seed=16)
    out = undersample(d, seed=17)
    dist = class_distribution(out)
    assert dist[CLASS_NORMAL][0] == 130
    assert dist[CLASS_FAILURE][0] == 130
    # Every surviving row is an original row.
    original = set(map(tuple, d.X))
    assert all(tuple(row) in original for row in out.X)
    # Minority rows all survive.
    fail_in = d.X[d.labels == CLASS_FAILURE]
    fail_out = out.X[out.labels == CLASS_FAILURE]
    assert sorted(map(tuple, fail_in)) == sorted(map(tuple, fail_out))


def test_undersample_balanced_fixed_point_and_determinism():
    X = np.arange(8, dtype=float).reshape(-1, 1)
    d = Dataset([("v", "")], X, ["a", "b"] * 4)
    out = undersample(d, seed=1)
    assert np.array_equal(out.X, d.X)
    big = imbalanced(500, seed=18)
    a = undersample(big, seed=19)
    b = undersample(big, seed=19)
    assert np.array_equal(a.X, b.X)


def test_undersample_single_class_error():
    with pytest.raises(SingleClassError):
        undersample(Dataset([("x", "")], [[1.0]], ["a"]))


# ---------------------------------------------------------------------------
# Cost-sensitive wrapping

class FixedProbModel(TrainedModel):
    """Test double emitting a constant probability row."""

    learner = "fixed"

    def __init__(self, classes, p):
        super().__init__(classes)
        self.p = np.asarray(p, dtype=float)

    def _proba_matrix(self, X):
        return np.tile(self.p, (X.shape[0], 1))


def test_cost_sensitive_example_cost_arithmetic():
    # cost[normal][failure]=1, cost[failure][normal]=5; P(failure)=0.3:
    # predicting normal costs 0.3*5=1.5, predicting failure 0.7*1=0.7.
    cm = CostMatrix([[0, 1], [5, 0]])
    base = FixedProbModel([CLASS_NORMAL, CLASS_FAILURE], [0.7, 0.3])
    wrapped = CostSensitiveModel(base, cm)
    assert wrapped.predict(np.zeros(3)) == CLASS_FAILURE
    # Probabilities pass through unchanged.
    assert np.allclose(wrapped.predict_proba(np.zeros(3)), [0.7, 0.3])


def test_cost_sensitive_boundary_certain_normal():
    cm = CostMatrix([[0, 1], [1000, 0]])
    base = FixedProbModel([CLASS_NORMAL, CLASS_FAILURE], [1.0, 0.0])
    assert CostSensitiveModel(base, cm).predict(np.zeros(2)) == CLASS_NORMAL


def test_uniform_costs_match_argmax_over_grid():
    cm = CostMatrix([[0, 1], [1, 0]])
    for p in np.linspace(0.01, 0.99, 25):
        base = FixedProbModel(["n", "f"], [p, 1 - p])
        wrapped = CostSensitiveModel(base, cm)
        assert wrapped.predict(np.zeros(2)) == base.predict(np.zeros(2))


def test_cost_sensitive_on_real_model_moves_decisions():
    d = imbalanced(800, seed=20)
    nb = train_naive_bayes(d)
    cm = default_cost_matrix(d)
    wrapped = CostSensitiveModel(nb, cm)
    plain_fail = np.sum(nb.predict(d.X) == CLASS_FAILURE)
    cost_fail = np.sum(wrapped.predict(d.X) == CLASS_FAILURE)
    # Expensive missed failures push predictions toward the failure class.
    assert cost_fail >= plain_fail


def test_default_cost_matrix_ratio():
    d = imbalanced(1000, seed=21)
    cm = default_cost_matrix(d)
    # classes = [normal, failure]; missing a failure costs 870/130.
    assert cm.m[1][0] == pytest.approx(870 / 130)
    assert cm.m[0][1] == pytest.approx(1.0)


def test_cost_matrix_validation():
    with pytest.raises(ConfigError):
        CostMatrix([[0, 1]])
    with pytest.raises(ConfigError):
        CostMatrix([[1, 1], [1, 0]])
    with pytest.raises(ConfigError):
        CostMatrix([[0, -1], [1, 0]])
    with pytest.raises(ConfigError):
        CostMatrix([[0, 0], [0, 0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            CostMatrix.from_off_diagonal(bad, 1.0)
    assert CostMatrix.from_off_diagonal(1.0, 6.5).m.tolist() == [[0.0, 1.0], [6.5, 0.0]]
