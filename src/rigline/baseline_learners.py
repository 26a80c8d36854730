"""From-scratch baseline classifiers: naive Bayes, a Gini decision tree, a
random forest, a separate-and-conquer rule list, and a one-hidden-layer
neural network.

All learners share the TrainedModel interface: predict_proba returns class
probabilities in the model's class order and predict takes the argmax
(first class wins ties).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Standardizer, class_order
from .errors import ConfigError, DivergenceError, ShapeError, SingleClassError
from .util import derive_seed, diag_gaussian_log_density


class TrainedModel:
    """Base for trained classifiers.

    Subclasses set self.classes (ordered class names) and implement
    _proba_matrix(X) -> (n, K) rows summing to 1.
    """

    learner = "base"

    def __init__(self, classes):
        self.classes = list(classes)

    def _check_arity(self, X):
        expected = getattr(self, "arity", None)
        if expected is not None and X.shape[1] != expected:
            raise ShapeError(f"model expects {expected} features, got {X.shape[1]}")

    def predict_proba(self, x):
        """Class probabilities. 1-D input -> (K,), 2-D input -> (n, K)."""
        X = np.asarray(x, dtype=float)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ShapeError(f"input must be 1-D or 2-D, got ndim={X.ndim}")
        self._check_arity(X)
        P = self._proba_matrix(X)
        return P[0] if single else P

    def predict(self, x):
        P = self.predict_proba(x)
        if P.ndim == 1:
            return self.classes[int(np.argmax(P))]
        return np.array([self.classes[int(i)] for i in np.argmax(P, axis=1)])

    def _proba_matrix(self, X):
        raise NotImplementedError


def _encode_labels(d: Dataset):
    classes = class_order(d.labels)
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[l] for l in d.labels], dtype=int)
    return classes, y


def _require_labeled(d: Dataset):
    if not d.label_presence:
        raise SingleClassError("training needs a labeled dataset")
    if d.n_rows == 0:
        raise ConfigError("training needs at least one row")


# ---------------------------------------------------------------------------
# Naive Bayes

class NaiveBayesModel(TrainedModel):
    learner = "nb"

    def __init__(self, classes, priors, means, variances):
        super().__init__(classes)
        self.priors = priors
        self.means = means
        self.variances = variances
        self.arity = means.shape[1]

    def _proba_matrix(self, X):
        log_post = diag_gaussian_log_density(X, self.means, self.variances)
        log_post += np.log(self.priors)
        m = log_post.max(axis=1, keepdims=True)
        p = np.exp(log_post - m)
        return p / p.sum(axis=1, keepdims=True)


def train_naive_bayes(d: Dataset) -> NaiveBayesModel:
    """Gaussian naive Bayes: per-class, per-feature normal densities."""
    _require_labeled(d)
    classes, y = _encode_labels(d)
    K = len(classes)
    n, dim = d.X.shape
    priors = np.empty(K)
    means = np.empty((K, dim))
    variances = np.empty((K, dim))
    col_var = d.X.var(axis=0)
    floor = np.maximum(1e-9 * np.maximum(col_var, 1.0), 1e-12)
    for k in range(K):
        rows = d.X[y == k]
        priors[k] = len(rows) / n
        means[k] = rows.mean(axis=0)
        variances[k] = np.maximum(rows.var(axis=0), floor)
    return NaiveBayesModel(classes, priors, means, variances)


# ---------------------------------------------------------------------------
# Decision tree (Gini impurity, numeric splits at midpoints, Laplace leaves)

class TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "counts")

    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, counts=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.counts = counts

    @property
    def is_leaf(self):
        return self.feature < 0


class DecisionTreeModel(TrainedModel):
    learner = "tree"

    def __init__(self, classes, root, arity):
        super().__init__(classes)
        self.root = root
        self.arity = arity

    def _leaf_for(self, x):
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def _proba_matrix(self, X):
        K = len(self.classes)
        P = np.empty((X.shape[0], K))
        for i in range(X.shape[0]):
            counts = self._leaf_for(X[i]).counts
            P[i] = (counts + 1.0) / (counts.sum() + K)
        return P

    def depth(self):
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def n_leaves(self):
        def walk(node):
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)


def _gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p * p))


def best_split(X, y, K, feature_ids, min_leaf=1):
    """Exhaustive best Gini split over the given features.

    Candidate thresholds are midpoints between adjacent distinct values.
    Returns (feature, threshold, gain) or None when nothing improves. Ties
    break toward the lowest feature index, then the lowest threshold.
    """
    n = len(y)
    total = np.bincount(y, minlength=K).astype(float)
    parent = _gini(total)
    best = None
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        onehot = np.zeros((n, K))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)
        boundary = np.nonzero(xs[:-1] < xs[1:])[0]
        for b in boundary:
            n_left = b + 1
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            lc = left_counts[b]
            rc = total - lc
            w_impurity = (n_left * _gini(lc) + n_right * _gini(rc)) / n
            gain = float(parent - w_impurity)
            thr = float(0.5 * (xs[b] + xs[b + 1]))
            if gain > 1e-12 and (best is None or gain > best[2] + 1e-12):
                best = (f, thr, gain)
    return best


def _grow_tree(X, y, K, depth, max_depth, min_leaf, feature_picker):
    counts = np.bincount(y, minlength=K).astype(float)
    if (
        len(y) < 2 * min_leaf
        or (max_depth is not None and depth >= max_depth)
        or np.count_nonzero(counts) <= 1
    ):
        return TreeNode(counts=counts)
    split = best_split(X, y, K, feature_picker(), min_leaf)
    if split is None:
        return TreeNode(counts=counts)
    f, thr, _ = split
    mask = X[:, f] <= thr
    left = _grow_tree(X[mask], y[mask], K, depth + 1, max_depth, min_leaf, feature_picker)
    right = _grow_tree(X[~mask], y[~mask], K, depth + 1, max_depth, min_leaf, feature_picker)
    return TreeNode(f, thr, left, right, counts)


def train_cart(d: Dataset, max_depth=None, min_leaf: int = 1) -> DecisionTreeModel:
    """Binary decision tree minimizing Gini impurity, greedy top-down."""
    _require_labeled(d)
    if min_leaf < 1:
        raise ConfigError(f"min_leaf must be >= 1, got {min_leaf}")
    classes, y = _encode_labels(d)
    all_features = list(range(d.arity))
    root = _grow_tree(d.X, y, len(classes), 0, max_depth, min_leaf, lambda: all_features)
    return DecisionTreeModel(classes, root, d.arity)


# ---------------------------------------------------------------------------
# Random forest (bagged trees with per-node feature subsampling)

class RandomForestModel(TrainedModel):
    learner = "rf"

    def __init__(self, classes, trees, arity):
        super().__init__(classes)
        self.trees = trees
        self.arity = arity

    def _proba_matrix(self, X):
        P = np.zeros((X.shape[0], len(self.classes)))
        for t in self.trees:
            P += t._proba_matrix(X)
        return P / len(self.trees)


def train_random_forest(
    d: Dataset,
    n_trees: int = 100,
    features_per_split=None,
    seed: int = 0,
    max_depth=None,
    min_leaf: int = 1,
    bootstrap: bool = True,
) -> RandomForestModel:
    """Forest of Gini trees on bootstrap samples, choosing among a random
    feature subset at every node. Defaults to ceil(sqrt(arity)) features."""
    _require_labeled(d)
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    if features_per_split is None:
        features_per_split = int(math.ceil(math.sqrt(d.arity)))
    if features_per_split > d.arity:
        warnings.warn(
            f"features_per_split={features_per_split} exceeds arity {d.arity}; clamping"
        )
        features_per_split = d.arity
    if features_per_split < 1:
        raise ConfigError("features_per_split must be >= 1")
    classes, y = _encode_labels(d)
    K = len(classes)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, "tree", t))
        if bootstrap:
            idx = rng.integers(d.n_rows, size=d.n_rows)
            Xb, yb = d.X[idx], y[idx]
        else:
            Xb, yb = d.X, y
        if features_per_split == d.arity:
            picker = lambda: list(range(d.arity))
        else:
            def picker(rng=rng):
                return sorted(
                    int(v)
                    for v in rng.choice(d.arity, size=features_per_split, replace=False)
                )
        root = _grow_tree(Xb, yb, K, 0, max_depth, min_leaf, picker)
        trees.append(DecisionTreeModel(classes, root, d.arity))
    return RandomForestModel(classes, trees, d.arity)


# ---------------------------------------------------------------------------
# Rule list (separate-and-conquer: grow a small tree, keep its best leaf
# as a rule, remove the rows it covers, repeat)

@dataclass
class Rule:
    """Conjunction of (feature, 'le'/'gt', threshold) tests with class counts."""

    conditions: list
    counts: np.ndarray

    def matches(self, x) -> bool:
        for f, op, thr in self.conditions:
            if op == "le" and not x[f] <= thr:
                return False
            if op == "gt" and not x[f] > thr:
                return False
        return True


class RuleListModel(TrainedModel):
    learner = "part"

    def __init__(self, classes, rules, default_counts, arity):
        super().__init__(classes)
        self.rules = rules
        self.default_counts = default_counts
        self.arity = arity

    def _counts_for(self, x):
        for rule in self.rules:
            if rule.matches(x):
                return rule.counts
        return self.default_counts

    def _proba_matrix(self, X):
        K = len(self.classes)
        P = np.empty((X.shape[0], K))
        for i in range(X.shape[0]):
            counts = self._counts_for(X[i])
            P[i] = (counts + 1.0) / (counts.sum() + K)
        return P


def _best_leaf_path(node, path):
    """(coverage, purity, path, counts) of the best leaf under node.

    Prefers pure leaves, then the leaf covering the most rows; the path is
    the list of split conditions from the root."""
    if node.is_leaf:
        n = node.counts.sum()
        purity = node.counts.max() / n if n > 0 else 0.0
        return (purity, n, path, node.counts)
    l = _best_leaf_path(node.left, path + [(node.feature, "le", node.threshold)])
    r = _best_leaf_path(node.right, path + [(node.feature, "gt", node.threshold)])
    return max(l, r, key=lambda t: (t[0], t[1]))


def train_rule_list(d: Dataset, max_rule_depth: int = 3, min_leaf: int = 1) -> RuleListModel:
    """Ordered rule list learned by separate-and-conquer.

    Each round grows a depth-limited Gini tree on the remaining rows, turns
    its best leaf into a rule, and drops the covered rows. Uncovered rows fall
    through to a default rule holding the leftover class counts."""
    _require_labeled(d)
    classes, y = _encode_labels(d)
    K = len(classes)
    X = d.X
    rules = []
    max_rules = 200
    while len(y) > 0 and len(rules) < max_rules:
        all_features = list(range(d.arity))
        root = _grow_tree(X, y, K, 0, max_rule_depth, min_leaf, lambda: all_features)
        if root.is_leaf:
            break
        _, _, path, counts = _best_leaf_path(root, [])
        rule = Rule(path, counts.copy())
        covered = np.array([rule.matches(x) for x in X])
        if not covered.any():
            break
        rules.append(rule)
        X, y = X[~covered], y[~covered]
    default_counts = np.bincount(y, minlength=K).astype(float)
    if default_counts.sum() == 0:
        # Everything got covered: fall back to the full training distribution.
        _, y_all = _encode_labels(d)
        default_counts = np.bincount(y_all, minlength=K).astype(float)
    return RuleListModel(classes, rules, default_counts, d.arity)


# ---------------------------------------------------------------------------
# One-hidden-layer neural network (sigmoid hidden units, softmax output,
# minibatch gradient descent with momentum)

@dataclass(frozen=True)
class MlpConfig:
    hidden_units: int | None = None  # None -> ceil((arity + n_classes) / 2)
    learning_rate: float = 0.3
    momentum: float = 0.2
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.hidden_units is not None and self.hidden_units < 1:
            raise ConfigError("hidden_units must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0,1)")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


class MlpModel(TrainedModel):
    learner = "mlp"

    def __init__(self, classes, W1, b1, W2, b2, scaler):
        super().__init__(classes)
        self.W1 = W1
        self.b1 = b1
        self.W2 = W2
        self.b2 = b2
        self.scaler = scaler
        self.arity = W1.shape[0]

    def _proba_matrix(self, X):
        Z = self.scaler.transform(X)
        H = _sigmoid(Z @ self.W1 + self.b1)
        return _softmax(H @ self.W2 + self.b2)


def _sigmoid(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def _softmax(v):
    m = v.max(axis=1, keepdims=True)
    e = np.exp(v - m)
    return e / e.sum(axis=1, keepdims=True)


def mlp_pack(W1, b1, W2, b2):
    return np.concatenate([W1.ravel(), b1, W2.ravel(), b2])


def mlp_unpack(params, dim, hidden, K):
    i = 0
    W1 = params[i : i + dim * hidden].reshape(dim, hidden)
    i += dim * hidden
    b1 = params[i : i + hidden]
    i += hidden
    W2 = params[i : i + hidden * K].reshape(hidden, K)
    i += hidden * K
    b2 = params[i : i + K]
    return W1, b1, W2, b2


def mlp_loss_grad(params, X, Y_onehot, hidden):
    """Mean cross-entropy and its gradient in packed-parameter form.

    Kept separate from training so the gradient can be checked against
    finite differences.
    """
    n, dim = X.shape
    K = Y_onehot.shape[1]
    W1, b1, W2, b2 = mlp_unpack(params, dim, hidden, K)
    A1 = X @ W1 + b1
    H = _sigmoid(A1)
    P = _softmax(H @ W2 + b2)
    eps = 1e-300
    loss = -float(np.sum(Y_onehot * np.log(P + eps))) / n
    dA2 = (P - Y_onehot) / n
    gW2 = H.T @ dA2
    gb2 = dA2.sum(axis=0)
    dH = dA2 @ W2.T
    dA1 = dH * H * (1.0 - H)
    gW1 = X.T @ dA1
    gb1 = dA1.sum(axis=0)
    return loss, mlp_pack(gW1, gb1, gW2, gb2)


def train_mlp(d: Dataset, cfg: MlpConfig = MlpConfig()) -> MlpModel:
    """Train the network by seeded minibatch SGD with momentum.

    Features are standardized internally; the scaler rides along in the model.
    """
    _require_labeled(d)
    classes, y = _encode_labels(d)
    K = len(classes)
    scaler = Standardizer()
    X = scaler.fit_transform(d.X)
    n, dim = X.shape
    hidden = cfg.hidden_units or int(math.ceil((dim + K) / 2))
    Y = np.zeros((n, K))
    Y[np.arange(n), y] = 1.0

    rng = np.random.default_rng(cfg.seed)
    params = rng.uniform(-0.5, 0.5, size=dim * hidden + hidden + hidden * K + K)
    velocity = np.zeros_like(params)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grad = mlp_loss_grad(params, X[batch], Y[batch], hidden)
            velocity = cfg.momentum * velocity - cfg.learning_rate * grad
            params = params + velocity
        if not np.all(np.isfinite(params)):
            raise DivergenceError(
                "network weights became non-finite; lower the learning rate"
            )
    W1, b1, W2, b2 = mlp_unpack(params, dim, hidden, K)
    return MlpModel(classes, W1.copy(), b1.copy(), W2.copy(), b2.copy(), scaler)
