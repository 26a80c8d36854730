"""From-scratch baseline classifiers: naive Bayes, a Gini decision tree, a
random forest, a separate-and-conquer rule list, and a one-hidden-layer
neural network.

All learners share the TrainedModel interface: score returns class
probabilities, rank scores and picked classes in the model's class order from
one pass, predict_proba the probabilities and predict the picked classes
(here the argmax, first class wins ties).
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, Standardizer, class_order
from .errors import ConfigError, DivergenceError, ShapeError, SingleClassError
from .util import derive_seed, diag_gaussian_posterior


class Scores(NamedTuple):
    """One scoring pass over n rows, columns aligned with the model's classes."""

    proba: np.ndarray  # (n, K) class probabilities
    ranks: np.ndarray  # (n, K) rank scores: proba, or SVM margins [f, -f]
    picks: np.ndarray  # (n,) index of the predicted class


class TrainedModel:
    """Base for trained classifiers.

    Subclasses set self.classes (ordered class names) and either implement
    _proba_matrix(X) -> (n, K) rows summing to 1, or wrap other models by
    overriding _score(X) -> Scores.
    """

    learner = "base"

    def __init__(self, classes):
        self.classes = list(classes)

    def _matrix(self, x):
        """x as a 2-D float matrix (1-D input is one row) of the model's arity."""
        X = np.asarray(x, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ShapeError(f"input must be 1-D or 2-D, got ndim={X.ndim}")
        expected = getattr(self, "arity", None)
        if expected is not None and X.shape[1] != expected:
            raise ShapeError(f"model expects {expected} features, got {X.shape[1]}")
        return X

    def predict_proba(self, x):
        """Class probabilities. 1-D input -> (K,), 2-D input -> (n, K)."""
        P = self._proba_matrix(self._matrix(x))
        return P[0] if np.ndim(x) == 1 else P

    def score(self, X) -> Scores:
        """Probabilities, rank scores and picked class indices of the rows of
        X from one pass; the single entry that predict and evaluation read."""
        return self._score(self._matrix(X))

    def predict(self, x):
        """Picked class name of one row, or an array of names for a matrix."""
        names = np.asarray(self.classes)[self.score(x).picks]
        return str(names[0]) if np.ndim(x) == 1 else names

    def _score(self, X) -> Scores:
        # Probabilities go through predict_proba, the entry tracers wrap.
        P = self.predict_proba(X)
        return Scores(P, P, np.argmax(P, axis=1))

    def _proba_matrix(self, X):
        return self._score(X).proba


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
        return diag_gaussian_posterior(X, self.priors, self.means, self.variances)[1]


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

    def _proba_matrix(self, X):
        P = np.empty((X.shape[0], len(self.classes)))

        def route(node, rows):
            if node.is_leaf:
                P[rows] = _laplace(node.counts)
            elif len(rows):
                left = X[rows, node.feature] <= node.threshold
                route(node.left, rows[left])
                route(node.right, rows[~left])

        route(self.root, np.arange(X.shape[0]))
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


def _laplace(counts):
    """Laplace-smoothed class probabilities of a leaf's or a rule's counts."""
    return (counts + 1.0) / (counts.sum() + len(counts))


def _gini(counts, n):
    """Gini impurity 1 - sum((c/n)^2) of each row of class counts c summing to n."""
    p = counts / n
    return 1.0 - np.sum(p * p, axis=-1)


# The segmented split search takes together the nodes whose last row falls in
# one window of this many rows, so its temporaries stay small at any tree count.
SPLIT_BLOCK_ROWS = 512


def best_split(X, y, K, feature_ids, min_leaf=1):
    """Exhaustive best Gini split of all rows of X over the given features.

    Candidate thresholds are midpoints between adjacent distinct values.
    Returns (feature, threshold, gain) or None when nothing improves. Ties
    break toward the lowest feature index, then the lowest threshold. This
    is the one-segment case of the segmented search that grows every tree.
    """
    return _split_block(X, y, K, [np.arange(len(y))], [list(feature_ids)], min_leaf)[0]


def _segment_splits(X, y, K, segments, features, min_leaf):
    """best_split of each segment (a node's row indices into X and y) over
    its own features, all lists of one length, a SPLIT_BLOCK_ROWS block at a time."""
    block = np.cumsum([len(r) for r in segments]) // SPLIT_BLOCK_ROWS
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(segments)]
    return [split for a, b in zip(cuts, cuts[1:])
            for split in _split_block(X, y, K, segments[a:b], features[a:b], min_leaf)]


def _split_block(X, y, K, segments, features, min_leaf):
    """_segment_splits of one block: every segment in one segmented search."""
    sizes = np.array([len(r) for r in segments])
    S, F, L = len(segments), len(features[0]), int(sizes.max())
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(S, dtype=np.min_scalar_type(S)), sizes)
    rows = np.concatenate(segments)
    # Column j of a row holds its segment's j-th feature. Sort every column
    # by value, then stably by segment: by (segment, value).
    cols = X[rows[:, None], np.asarray(features)[seg]]
    order = np.argsort(cols, axis=0)
    order = np.take_along_axis(order, np.argsort(seg[order], axis=0, kind="stable"), axis=0)
    xs = np.take_along_axis(cols, order, axis=0)
    # left[p, j]: class counts of the rows of p's segment up to p in the
    # order of column j; the running counts reset at each segment boundary.
    left = np.cumsum(np.eye(K)[y[rows][order]], axis=0)
    left[sizes[0]:] -= np.repeat(left[starts[1:] - 1], sizes[1:], axis=0)
    total = left[starts + sizes - 1]
    n_left = np.arange(1, len(seg) + 1) - starts[seg]
    n_right = sizes[seg] - n_left
    # A threshold needs a larger value next in its own segment: n_right >= 1
    # rules out the pair that crosses into the next segment.
    valid = np.vstack((xs[:-1] < xs[1:], np.zeros((1, F), dtype=bool)))
    valid &= ((n_left >= min_leaf) & (n_right >= min_leaf))[:, None]
    vp, vj = np.nonzero(valid)
    vs, nl, nr, vl = seg[vp], n_left[vp], n_right[vp], left[vp, vj]
    w_impurity = (nl * _gini(vl, nl[:, None])
                  + nr * _gini(total[vs, vj] - vl, nr[:, None])) / sizes[vs]
    # Scan each segment's candidates feature by feature, then by threshold,
    # after a -inf in column 0. Only a gain above every earlier one can take
    # the lead, so the scan skips the rest.
    gains = np.full((S, 1 + F * L), -np.inf)
    gains[vs, vj * L + nl] = _gini(total, sizes[:, None, None])[vs, vj] - w_impurity
    lead = gains[:, 1:] > np.maximum.accumulate(gains, axis=1)[:, :-1]
    lead_s, lead_i = np.nonzero(lead & (gains[:, 1:] > 1e-12))
    mids, starts = 0.5 * (xs[:-1] + xs[1:]), starts.tolist()
    splits = [None] * S
    for s, i, g in zip(lead_s.tolist(), lead_i.tolist(), gains[lead_s, lead_i + 1].tolist()):
        if splits[s] is None or g > splits[s][2] + 1e-12:
            j, b = divmod(i, L)
            splits[s] = (features[s][j], float(mids[starts[s] + b, j]), g)
    return splits


def _grow_trees(X, y, K, samples, pick, max_depth, min_leaf):
    """Grow one Gini tree on each row sample (indices into X and y); return
    the roots. The trees grow in lockstep: at each step, every tree takes the
    next splittable node of its pre-order walk and draws its features with
    pick(tree index), and one segmented search splits all of those nodes, so
    each tree draws in the order it would alone."""
    if not (max_depth is None or isinstance(max_depth, numbers.Integral) and max_depth >= 0):
        raise ConfigError(f"depth limit must be None or an integer >= 0, got {max_depth!r}")
    if not (isinstance(min_leaf, numbers.Integral) and min_leaf >= 1):
        raise ConfigError(f"min_leaf must be an integer >= 1, got {min_leaf!r}")
    holders = [TreeNode() for _ in samples]
    # Pending nodes per tree, next on top: (rows, depth, parent, side); roots hang off holders.
    stacks = [[(rows, 0, h, "left")] for rows, h in zip(samples, holders)]
    while True:
        batch, features = [], []
        for t, stack in enumerate(stacks):
            while stack:
                rows, depth, parent, side = stack.pop()
                counts = np.bincount(y[rows], minlength=K).astype(float)
                node = TreeNode(counts=counts)
                setattr(parent, side, node)
                if (len(rows) >= 2 * min_leaf and (max_depth is None or depth < max_depth)
                        and np.count_nonzero(counts) > 1):
                    batch.append((t, node, rows, depth))
                    features.append(pick(t))
                    break
        if not batch:
            return [h.left for h in holders]
        splits = _segment_splits(X, y, K, [b[2] for b in batch], features, min_leaf)
        for (t, node, rows, depth), split in zip(batch, splits):
            if split is not None:
                node.feature, node.threshold, _ = split
                left = X[rows, node.feature] <= node.threshold
                stacks[t] += [(rows[~left], depth + 1, node, "right"),
                              (rows[left], depth + 1, node, "left")]


def train_cart(d: Dataset, max_depth=None, min_leaf: int = 1) -> DecisionTreeModel:
    """Binary decision tree minimizing Gini impurity, greedy top-down."""
    _require_labeled(d)
    classes, y = _encode_labels(d)
    root, = _grow_trees(d.X, y, len(classes), [np.arange(d.n_rows)],
                        lambda t: list(range(d.arity)), max_depth, min_leaf)
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
    rngs = [np.random.default_rng(derive_seed(seed, "tree", t)) for t in range(n_trees)]
    samples = [rng.integers(d.n_rows, size=d.n_rows) if bootstrap else np.arange(d.n_rows)
               for rng in rngs]

    def pick(t):
        return sorted(rngs[t].choice(d.arity, features_per_split, replace=False).tolist())

    roots = _grow_trees(d.X, y, len(classes), samples, pick, max_depth, min_leaf)
    trees = [DecisionTreeModel(classes, root, d.arity) for root in roots]
    return RandomForestModel(classes, trees, d.arity)


# ---------------------------------------------------------------------------
# Rule list (separate-and-conquer: grow a small tree, keep its best leaf
# as a rule, remove the rows it covers, repeat)

@dataclass
class Rule:
    """Conjunction of (feature, 'le'/'gt', threshold) tests with class counts."""

    conditions: list
    counts: np.ndarray

    def covers(self, X) -> np.ndarray:
        """Mask of the rows of X that satisfy every condition."""
        mask = np.ones(X.shape[0], dtype=bool)
        for f, op, thr in self.conditions:
            mask &= X[:, f] <= thr if op == "le" else X[:, f] > thr
        return mask


class RuleListModel(TrainedModel):
    learner = "part"

    def __init__(self, classes, rules, default_counts, arity):
        super().__init__(classes)
        self.rules = rules
        self.default_counts = default_counts
        self.arity = arity

    def _proba_matrix(self, X):
        P = np.empty((X.shape[0], len(self.classes)))
        unassigned = np.ones(X.shape[0], dtype=bool)
        for rule in self.rules:
            hit = unassigned & rule.covers(X)
            P[hit] = _laplace(rule.counts)
            unassigned &= ~hit
        P[unassigned] = _laplace(self.default_counts)
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
        root, = _grow_trees(X, y, K, [np.arange(len(y))], lambda t: list(range(d.arity)),
                            max_rule_depth, min_leaf)
        if root.is_leaf:
            break
        _, _, path, counts = _best_leaf_path(root, [])
        rule = Rule(path, counts.copy())
        covered = rule.covers(X)
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
        H = sigmoid(Z @ self.W1 + self.b1)
        return _softmax(H @ self.W2 + self.b2)


def sigmoid(v):
    """Logistic function, evaluated without overflow for either sign."""
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
    H = sigmoid(A1)
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
