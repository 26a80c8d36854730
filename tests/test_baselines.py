import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigline import baseline_learners
from rigline.baseline_learners import (
    MlpConfig,
    best_split,
    mlp_loss_grad,
    mlp_pack,
    train_cart,
    train_mlp,
    train_naive_bayes,
    train_random_forest,
    train_rule_list,
)
from rigline.dataset import (
    CLASS_FAILURE,
    CLASS_NORMAL,
    Dataset,
    SyntheticGenConfig,
    generate_synthetic,
)
from rigline.errors import ConfigError, ShapeError, SingleClassError
from rigline.modeldoc import model_to_text


def toy_dataset():
    X = np.array(
        [[1.0, 10.0], [2.0, 11.0], [3.0, 9.0], [10.0, -1.0], [11.0, 0.0], [12.0, 1.0]]
    )
    labels = ["a", "a", "a", "b", "b", "b"]
    return Dataset([("f0", ""), ("f1", "")], X, labels)


def synth(n=600, seed=0, shift=2.5):
    return generate_synthetic(
        SyntheticGenConfig(row_count=n, seed=seed, failure_shift_sigma=shift)
    )


def accuracy(m, d):
    return float(np.mean(m.predict(d.X) == d.labels))


# ---------------------------------------------------------------------------
# Naive Bayes

def test_nb_posterior_matches_hand_bayes_rule():
    # Oracle: one feature, two classes with known sample moments; compute the
    # posterior directly from Gaussian densities and the priors.
    X = np.array([[0.0], [2.0], [4.0], [10.0], [12.0]])
    labels = ["lo", "lo", "lo", "hi", "hi"]
    d = Dataset([("v", "")], X, labels)
    m = train_naive_bayes(d)
    x = 6.0
    mu_lo, var_lo = 2.0, 8.0 / 3.0
    mu_hi, var_hi = 11.0, 1.0

    def dens(v, mu, var):
        return math.exp(-0.5 * (v - mu) ** 2 / var) / math.sqrt(2 * math.pi * var)

    p_hi = 0.4 * dens(x, mu_hi, var_hi)
    p_lo = 0.6 * dens(x, mu_lo, var_lo)
    expected = np.array([p_hi, p_lo]) / (p_hi + p_lo)
    assert m.classes == ["hi", "lo"]
    got = m.predict_proba(np.array([x]))
    assert np.allclose(got, expected, atol=1e-12)


def test_nb_separable_accuracy_and_shapes():
    d = synth(seed=1)
    m = train_naive_bayes(d)
    assert accuracy(m, d) > 0.9
    P = m.predict_proba(d.X)
    assert P.shape == (d.n_rows, 2)
    assert np.allclose(P.sum(axis=1), 1.0)
    single = m.predict_proba(d.X[0])
    assert single.shape == (2,)
    assert m.classes == [CLASS_NORMAL, CLASS_FAILURE]


def test_nb_constant_feature_does_not_blow_up():
    X = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 1.0], [1.0, 2.0]])
    d = Dataset([("c", ""), ("v", "")], X, ["a", "a", "b", "b"])
    m = train_naive_bayes(d)
    P = m.predict_proba(X)
    assert np.all(np.isfinite(P))


def test_learners_reject_unlabeled_and_wrong_arity():
    d = toy_dataset()
    with pytest.raises(SingleClassError):
        train_naive_bayes(d.without_labels())
    m = train_naive_bayes(d)
    with pytest.raises(ShapeError):
        m.predict_proba(np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# Decision tree

def oracle_best_split(X, y, K, min_leaf=1):
    """Scalar re-derivation of the best Gini split for cross-checking."""

    def gini(counts):
        n = sum(counts)
        if n == 0:
            return 0.0
        return 1.0 - sum((c / n) ** 2 for c in counts)

    n = len(y)
    total = [int(np.sum(y == k)) for k in range(K)]
    parent = gini(total)
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for a, b in zip(values, values[1:]):
            thr = 0.5 * (a + b)
            left = [0] * K
            n_left = 0
            for i in range(n):
                if X[i, f] <= thr:
                    left[y[i]] += 1
                    n_left += 1
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            right = [total[k] - left[k] for k in range(K)]
            gain = parent - (n_left * gini(left) + n_right * gini(right)) / n
            if gain > 1e-12 and (best is None or gain > best[2] + 1e-12):
                best = (f, thr, gain)
    return best


def test_best_split_matches_oracle_on_random_data():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 4))
        K = int(rng.integers(2, 4))
        X = np.round(rng.normal(size=(n, dim)), 2)
        y = rng.integers(K, size=n)
        got = best_split(X, y, K, list(range(dim)))
        want = oracle_best_split(X, y, K)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-12)
            assert got[2] == pytest.approx(want[2], abs=1e-10)


@st.composite
def tied_split_problems(draw):
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 3))
    K = draw(st.sampled_from([2, 3]))
    values = draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
    y = draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n))
    min_leaf = draw(st.integers(1, 3))
    return np.array(values, dtype=float).reshape(n, dim), np.array(y), K, min_leaf


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tied_split_problems())
def test_best_split_matches_oracle_on_heavy_ties(problem):
    X, y, K, min_leaf = problem
    got = best_split(X, y, K, list(range(X.shape[1])), min_leaf)
    want = oracle_best_split(X, y, K, min_leaf)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == want[0] and got[1] == want[1]
        assert abs(got[2] - want[2]) <= 1e-10


@st.composite
def segmented_split_problems(draw):
    """Several segments (row samples, repeats allowed) of one tied integer
    table, each with its own feature subset, plus a one-row segment and a
    single-class one; and a block size, so that blocks split the batch."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 4))
    K = draw(st.sampled_from([2, 3]))
    values = draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
    y = np.array(draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)))
    F = draw(st.integers(1, dim))
    segments = [np.array(rows) for rows in draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=40), min_size=1, max_size=5))]
    segments += [np.array([n - 1]), np.flatnonzero(y == y[0])]
    features = [sorted(draw(st.lists(st.integers(0, dim - 1), min_size=F, max_size=F,
                                      unique=True))) for _ in segments]
    min_leaf = draw(st.integers(1, 3))
    block = draw(st.sampled_from([1, 16, 512]))
    X = np.array(values, dtype=float).reshape(n, dim)
    return X, y, K, segments, features, min_leaf, block


@settings(derandomize=True, deadline=None, max_examples=300)
@given(segmented_split_problems())
def test_segmented_search_matches_oracle_per_segment(problem):
    X, y, K, segments, features, min_leaf, block = problem
    saved = baseline_learners.SPLIT_BLOCK_ROWS
    baseline_learners.SPLIT_BLOCK_ROWS = block
    try:
        splits = baseline_learners._segment_splits(X, y, K, segments, features, min_leaf)
    finally:
        baseline_learners.SPLIT_BLOCK_ROWS = saved
    assert len(splits) == len(segments)
    for rows, feats, got in zip(segments, features, splits):
        want = oracle_best_split(X[rows][:, feats], y[rows], K, min_leaf)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == feats[want[0]] and got[1] == want[1]
            assert abs(got[2] - want[2]) <= 1e-10


def test_cart_perfect_on_separable_toy():
    d = toy_dataset()
    m = train_cart(d)
    assert accuracy(m, d) == 1.0
    # Laplace smoothing keeps leaf probabilities off 0/1.
    P = m.predict_proba(d.X)
    assert np.all(P > 0.0) and np.all(P < 1.0)


def test_cart_depth_and_min_leaf_limits():
    d = synth(seed=2)
    stump = train_cart(d, max_depth=1)
    assert stump.depth() <= 1
    deep = train_cart(d, max_depth=None, min_leaf=25)
    # Every leaf holds at least min_leaf rows by construction; spot-check size.
    assert deep.n_leaves() <= d.n_rows / 25 + 1
    with pytest.raises(ConfigError):
        train_cart(d, min_leaf=0)


@pytest.mark.parametrize("max_depth, min_leaf", [
    (float("nan"), 1), (-1, 1), (2.5, 1), (None, 0), (None, 1.5), (None, None),
])
def test_tree_growth_rejects_bad_depth_and_leaf_size(max_depth, min_leaf):
    d = toy_dataset()
    for train in (
        lambda: train_cart(d, max_depth=max_depth, min_leaf=min_leaf),
        lambda: train_random_forest(d, n_trees=2, max_depth=max_depth, min_leaf=min_leaf),
        lambda: train_rule_list(d, max_rule_depth=max_depth, min_leaf=min_leaf),
    ):
        with pytest.raises(ConfigError):
            train()


def test_cart_single_class_is_a_leaf():
    X = np.array([[1.0], [2.0], [3.0]])
    d = Dataset([("v", "")], X, ["a", "a", "a"])
    m = train_cart(d)
    assert m.root.is_leaf
    assert m.predict(np.array([9.9])) == "a"


# ---------------------------------------------------------------------------
# Random forest

def test_forest_with_all_features_one_tree_equals_cart():
    d = synth(n=200, seed=3)
    cart = train_cart(d, max_depth=4)
    rf = train_random_forest(
        d, n_trees=1, features_per_split=d.arity, bootstrap=False, max_depth=4, seed=5
    )
    assert np.array_equal(rf.predict_proba(d.X), cart.predict_proba(d.X))


def test_forest_determinism_and_seed_sensitivity():
    d = synth(n=200, seed=4)
    a = train_random_forest(d, n_trees=5, seed=1, max_depth=3)
    b = train_random_forest(d, n_trees=5, seed=1, max_depth=3)
    c = train_random_forest(d, n_trees=5, seed=2, max_depth=3)
    assert np.array_equal(a.predict_proba(d.X), b.predict_proba(d.X))
    assert not np.array_equal(a.predict_proba(d.X), c.predict_proba(d.X))


def test_forest_accuracy_and_fps_clamp():
    d = synth(n=400, seed=5)
    m = train_random_forest(d, n_trees=20, seed=0)
    assert accuracy(m, d) > 0.9
    with pytest.warns(UserWarning):
        train_random_forest(d, n_trees=2, features_per_split=99, seed=0)
    with pytest.raises(ConfigError):
        train_random_forest(d, n_trees=0)


# ---------------------------------------------------------------------------
# Golden pins: SHA-256 of the model documents of trees, forests and rule
# lists on heavily tied three-class data. A change in a tree's RNG draw
# order, its tie rule or its stopping rule changes a digest.

def tied_three_class(n=90, seed=11):
    rng = np.random.default_rng(seed)
    y = rng.integers(3, size=n)
    X = rng.integers(0, 4, size=(n, 5)) + y[:, None] * (rng.random((n, 5)) < 0.4)
    return Dataset([(f"f{j}", "") for j in range(5)], X.astype(float),
                   [("a", "b", "c")[k] for k in y])


GOLDEN_MODELS = {
    "rf": (lambda d: train_random_forest(d, n_trees=9, seed=3),
           "59a3343c3bbcebc15994408c39e0bedd216147e1e737cf2566413024068228b4"),
    "rf-no-bootstrap-depth3": (
        lambda d: train_random_forest(d, n_trees=6, seed=4, bootstrap=False, max_depth=3),
        "f3192c74b77df17bf79984c4694944caa04dcc958c7c561ecf76837ea1db3f4a"),
    "rf-min-leaf3": (lambda d: train_random_forest(d, n_trees=6, seed=5, min_leaf=3),
                     "d14cd1607aa38d8fba699037fa2746d561af705248a6ef98379663265f57de12"),
    "rf-clamped": (lambda d: train_random_forest(d, n_trees=4, seed=6, features_per_split=9),
                   "d5bf4fa96a4f0840b93b18bd72d7abb3af7d5c2abd460af779df80c2d567470d"),
    "tree": (lambda d: train_cart(d),
             "ba2aaa24e09d6856890e8fa9a9d5854ce7b44aeaf11958ab6445a03e436af313"),
    "tree-depth3-min-leaf3": (lambda d: train_cart(d, max_depth=3, min_leaf=3),
                              "402a494c14c9202ca19f148ae83bddd1cbd6ded544defcb1cb46ac33f1924eaa"),
    "part": (lambda d: train_rule_list(d),
             "b0c688c9e18df8d353beaf9e82984e4560c668a9759049d2ed1ab74bf5aa7eb7"),
}


@pytest.mark.filterwarnings("ignore:features_per_split")
@pytest.mark.parametrize("case", sorted(GOLDEN_MODELS))
def test_tree_models_match_golden_digests(case):
    train, digest = GOLDEN_MODELS[case]
    text = model_to_text(train(tied_three_class()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Rule list

def test_rule_list_separable_and_default_rule():
    d = toy_dataset()
    m = train_rule_list(d)
    assert accuracy(m, d) == 1.0
    assert len(m.rules) >= 1
    # Rules carry conjunctions of at most max_rule_depth conditions.
    for rule in m.rules:
        assert 1 <= len(rule.conditions) <= 3
        for f, op, thr in rule.conditions:
            assert op in ("le", "gt")
            assert 0 <= f < d.arity
    assert m.default_counts.sum() >= 0


def test_rule_list_single_class_input():
    X = np.array([[1.0], [2.0]])
    d = Dataset([("v", "")], X, ["only", "only"])
    m = train_rule_list(d)
    assert m.predict(np.array([5.0])) == "only"


def test_rule_list_reasonable_on_synthetic():
    d = synth(n=500, seed=6)
    m = train_rule_list(d)
    assert accuracy(m, d) > 0.85


# ---------------------------------------------------------------------------
# Batch routing against a per-row reference

def _laplace_row(counts):
    return (counts + 1.0) / (counts.sum() + len(counts))


def _tree_row(tree, x):
    node = tree.root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return _laplace_row(node.counts)


def _rules_row(model, x):
    for rule in model.rules:
        if all(x[f] <= thr if op == "le" else x[f] > thr for f, op, thr in rule.conditions):
            return _laplace_row(rule.counts)
    return _laplace_row(model.default_counts)


def reference_proba(model, X):
    """Walk one row at a time: descend each tree, or take the first rule
    whose conditions all hold."""
    rows = []
    for x in X:
        if model.learner == "tree":
            rows.append(_tree_row(model, x))
        elif model.learner == "rf":
            p = np.zeros(len(model.classes))
            for t in model.trees:
                p += _tree_row(t, x)
            rows.append(p / len(model.trees))
        else:
            rows.append(_rules_row(model, x))
    return np.array(rows)


def _split_points(model):
    """(feature, threshold) of every split or rule condition in the model."""
    if model.learner == "part":
        return [(f, thr) for r in model.rules for f, _, thr in r.conditions]
    points = []

    def walk(node):
        if not node.is_leaf:
            points.append((node.feature, node.threshold))
            walk(node.left)
            walk(node.right)

    for tree in model.trees if model.learner == "rf" else [model]:
        walk(tree.root)
    return points


@pytest.mark.parametrize("train", [
    pytest.param(lambda d: train_cart(d), id="tree"),
    pytest.param(lambda d: train_random_forest(d, n_trees=5, seed=3), id="rf"),
    pytest.param(lambda d: train_rule_list(d), id="part"),
])
def test_batch_routing_matches_per_row_reference(train):
    d = synth(n=300, seed=8, shift=1.0)
    m = train(d)
    # Rows that sit exactly on a split threshold go left (the 'le' side).
    on_threshold = []
    for i, (f, thr) in enumerate(_split_points(m)):
        x = d.X[i % d.n_rows].copy()
        x[f] = thr
        on_threshold.append(x)
    assert on_threshold
    X = np.vstack([d.X, on_threshold])
    assert np.array_equal(m.predict_proba(X), reference_proba(m, X))
    assert np.array_equal(m.predict_proba(X[0]), reference_proba(m, X[:1])[0])


# ---------------------------------------------------------------------------
# Neural network

def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    n, dim, hidden, K = 12, 3, 4, 2
    X = rng.normal(size=(n, dim))
    Y = np.zeros((n, K))
    Y[np.arange(n), rng.integers(K, size=n)] = 1.0
    n_params = dim * hidden + hidden + hidden * K + K
    h = 1e-6
    for _ in range(5):
        params = rng.uniform(-1.0, 1.0, size=n_params)
        _, grad = mlp_loss_grad(params, X, Y, hidden)
        for j in rng.choice(n_params, size=6, replace=False):
            e = np.zeros(n_params)
            e[j] = h
            lp, _ = mlp_loss_grad(params + e, X, Y, hidden)
            lm, _ = mlp_loss_grad(params - e, X, Y, hidden)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(grad[j]), 1e-8)
            assert abs(grad[j] - fd) / denom < 1e-4


def test_mlp_learns_separable_data():
    d = toy_dataset()
    m = train_mlp(d, MlpConfig(hidden_units=4, epochs=300, seed=0))
    assert accuracy(m, d) == 1.0
    P = m.predict_proba(d.X)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_mlp_determinism_and_defaults():
    d = synth(n=150, seed=7)
    cfg = MlpConfig(epochs=20, seed=3)
    a = train_mlp(d, cfg)
    b = train_mlp(d, cfg)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    # Default width is the rounded mean of input and output arity.
    assert a.W1.shape == (5, math.ceil((5 + 2) / 2))


def test_mlp_config_validation():
    with pytest.raises(ConfigError):
        MlpConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        MlpConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        MlpConfig(hidden_units=0)


def test_mlp_pack_unpack_round_trip():
    rng = np.random.default_rng(1)
    W1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=4)
    W2 = rng.normal(size=(4, 2))
    b2 = rng.normal(size=2)
    from rigline.baseline_learners import mlp_unpack

    out = mlp_unpack(mlp_pack(W1, b1, W2, b2), 3, 4, 2)
    for got, want in zip(out, (W1, b1, W2, b2)):
        assert np.array_equal(got, want)
