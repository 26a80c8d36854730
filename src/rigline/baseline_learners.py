"""From-scratch baseline classifiers: naive Bayes, a Gini decision tree, a
random forest, a separate-and-conquer rule list, and a one-hidden-layer
neural network.

All learners share the TrainedModel interface: score returns class
probabilities, rank scores and picked classes in the model's class order from
one pass, predict_proba the probabilities and predict the picked classes
(here the argmax, first class wins ties).
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, Standardizer
from .errors import ConfigError, DivergenceError, ShapeError, SingleClassError
from .util import check_number, derive_seed, diag_gaussian_posterior


class Scores(NamedTuple):
    """One scoring pass over n rows, columns aligned with the model's classes."""

    proba: np.ndarray  # (n, K) class probabilities
    ranks: np.ndarray  # (n, K) rank scores: proba, or SVM margins [f, -f]
    picks: np.ndarray  # (n,) index of the predicted class


class TrainedModel:
    """Base for trained classifiers.

    __init__ sets the classes (ordered class names) and the arity (None when
    unknown, and then inputs of any width pass); check_fits is the one check
    that a model nested in another fits it. Subclasses either implement
    _proba_matrix(X) -> (n, K) rows summing to 1, or wrap other models by
    overriding _score(X) -> Scores.
    """

    learner = "base"

    def __init__(self, classes, arity=None):
        self.classes = list(classes)
        self.arity = arity

    def check_fits(self, classes, arity=None) -> None:
        """Raise ShapeError unless the model has these classes, in this order,
        and this arity where both arities are known."""
        classes = list(classes)
        if self.classes != classes or None not in (self.arity, arity) and self.arity != arity:
            raise ShapeError(f"{self.learner} model has classes {self.classes} and arity "
                             f"{self.arity}; its parent needs classes {classes} and arity {arity}")

    def _matrix(self, x):
        """x as a 2-D float matrix (1-D input is one row) of the model's arity."""
        X = np.asarray(x, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ShapeError(f"input must be 1-D or 2-D, got ndim={X.ndim}")
        if self.arity is not None and X.shape[1] != self.arity:
            raise ShapeError(f"model expects {self.arity} features, got {X.shape[1]}")
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
        super().__init__(classes, means.shape[1])
        self.priors = priors
        self.means = means
        self.variances = variances

    def _proba_matrix(self, X):
        return diag_gaussian_posterior(X, self.priors, self.means, self.variances)[1]


def train_naive_bayes(d: Dataset) -> NaiveBayesModel:
    """Gaussian naive Bayes: per-class, per-feature normal densities."""
    _require_labeled(d)
    classes, y = d.classes, d.codes
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

# Prediction routes a block of this many rows through every tree at once, so
# its (rows, trees) temporaries stay small at any row count.
WALK_BLOCK_ROWS = 512


class NodeArrays(NamedTuple):
    """Trees as pre-order node arrays, one tree after another; the one store
    of a trained tree or forest.

    A row at node i moves to child[i, 1] (the left child, i + 1) when its
    value of feature[i] is <= threshold[i], else to child[i, 0] (the right
    child). A leaf has feature -1 (the walk reads a row's last value there),
    a NaN threshold, which no value is <=, and itself as right child, so a
    row that reached it stays there. node_arrays derives the last three
    fields from the first three."""

    feature: np.ndarray  # (N,) split feature, -1 at a leaf
    threshold: np.ndarray  # (N,) split threshold, NaN at a leaf
    counts: np.ndarray  # (N, K) a leaf's class counts, 0 at a split
    child: np.ndarray  # (N, 2) right and left child
    roots: np.ndarray  # (T,) index of each tree's root
    depth: int  # deepest leaf of any tree


def node_arrays(feature, threshold, counts) -> NodeArrays:
    """NodeArrays of one or more trees from the feature, threshold and class
    counts of their nodes, each tree in pre-order, one after another. A
    split's left child comes next and its right child after the left
    subtree; a node that no split waits for is the next tree's root."""
    feature = np.array(feature, dtype=np.intp)
    child = np.arange(len(feature))[:, None] + np.arange(2)  # a leaf is its own right child
    roots, depth = [], 0
    todo = []  # the open tree's nodes to come, next on top: (right child of split or -1, depth)
    for i, f in enumerate(feature.tolist()):
        if not todo:
            roots.append(i)
            todo.append((-1, 0))
        parent, d = todo.pop()
        if parent >= 0:
            child[parent, 0] = i
        depth = max(depth, d)
        if f >= 0:
            todo += [(i, d + 1), (-1, d + 1)]
    return NodeArrays(feature, np.array(threshold, dtype=float), np.array(counts, dtype=float),
                      child, np.array(roots, dtype=np.intp), depth)


class TreeNode(NamedTuple):
    """Read-only view of node i of a NodeArrays, for walks one node at a time."""

    nodes: NodeArrays
    i: int

    is_leaf = property(lambda self: bool(self.nodes.feature[self.i] < 0))
    feature = property(lambda self: int(self.nodes.feature[self.i]))
    threshold = property(lambda self: float(self.nodes.threshold[self.i]))
    counts = property(lambda self: self.nodes.counts[self.i])
    left = property(lambda self: TreeNode(self.nodes, int(self.nodes.child[self.i, 1])))
    right = property(lambda self: TreeNode(self.nodes, int(self.nodes.child[self.i, 0])))


def _laplace(counts):
    """Laplace-smoothed class probabilities of class counts on the last axis."""
    return (counts + 1.0) / (counts.sum(axis=-1, keepdims=True) + counts.shape[-1])


def _walk_trees(nodes: NodeArrays, X):
    """Mean of the trees' leaf probabilities for each row of X. Every (row,
    tree) pair of a block of rows takes one step down per depth level, and
    each class's leaf probabilities add up in tree order."""
    T, K = len(nodes.roots), nodes.counts.shape[1]
    child, proba = nodes.child.ravel(), _laplace(nodes.counts)
    P = np.empty((X.shape[0], K))
    for a in range(0, X.shape[0], WALK_BLOCK_ROWS):
        block = X[a : a + WALK_BLOCK_ROWS]
        cells = block.ravel()
        row_start = np.arange(len(block))[:, None] * block.shape[1]
        at = np.broadcast_to(nodes.roots, (len(block), T))
        for _ in range(nodes.depth):
            left = cells[row_start + nodes.feature[at]] <= nodes.threshold[at]
            at = child[2 * at + left]
        for k in range(K):
            P[a : a + len(block), k] = np.cumsum(proba[at, k], axis=1)[:, -1] / T
    return P


class RandomForestModel(TrainedModel):
    """Bagged trees held in one NodeArrays, the model's only store of them;
    prediction walks every tree at once."""

    learner = "rf"

    def __init__(self, classes, nodes: NodeArrays, arity):
        super().__init__(classes, arity)
        self.nodes = nodes

    @property
    def trees(self) -> list:
        """Each tree as a DecisionTreeModel over a copy of its slice of the
        store, built on each call."""
        ends = [*self.nodes.roots[1:].tolist(), len(self.nodes.feature)]
        return [DecisionTreeModel(self.classes, node_arrays(*(f[a:b] for f in self.nodes[:3])),
                                  self.arity) for a, b in zip(self.nodes.roots.tolist(), ends)]

    def _proba_matrix(self, X):
        return _walk_trees(self.nodes, X)


class DecisionTreeModel(RandomForestModel):
    """One tree: the one-tree forest."""

    learner = "tree"

    @property
    def root(self) -> TreeNode:
        return TreeNode(self.nodes, 0)

    def depth(self):
        return self.nodes.depth

    def n_leaves(self):
        return int(np.count_nonzero(self.nodes.feature < 0))


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
    one NodeArrays of all of them, in sample order. The trees grow in
    lockstep: at each step, every tree takes the next splittable node of its
    pre-order walk and draws its features with pick(tree index), and one
    segmented search splits all of those nodes, so each tree draws in the
    order it would alone. max_depth is None for no limit."""
    if max_depth is not None:
        check_number("max_depth", max_depth, int, lambda v: v >= 0, ">= 0")
    check_number("min_leaf", min_leaf, int, lambda v: v >= 1, ">= 1")
    trees = [[] for _ in samples]  # each tree's decided nodes, in pre-order
    stacks = [[(rows, 0)] for rows in samples]  # pending nodes per tree, next on top
    while True:
        batch, features = [], []
        for t, stack in enumerate(stacks):
            while stack:
                rows, depth = stack.pop()
                counts = np.bincount(y[rows], minlength=K).astype(float)
                if (len(rows) >= 2 * min_leaf and (max_depth is None or depth < max_depth)
                        and np.count_nonzero(counts) > 1):
                    batch.append((t, rows, depth, counts))
                    features.append(pick(t))
                    break
                trees[t].append((-1, np.nan, counts))
        if not batch:
            return node_arrays(*zip(*(node for nodes in trees for node in nodes)))
        splits = _segment_splits(X, y, K, [b[1] for b in batch], features, min_leaf)
        for (t, rows, depth, counts), split in zip(batch, splits):
            if split is None:
                trees[t].append((-1, np.nan, counts))
                continue
            feature, threshold, _ = split
            trees[t].append((feature, threshold, np.zeros(K)))
            left = X[rows, feature] <= threshold
            stacks[t] += [(rows[~left], depth + 1), (rows[left], depth + 1)]


def train_cart(d: Dataset, max_depth=None, min_leaf: int = 1) -> DecisionTreeModel:
    """Binary decision tree minimizing Gini impurity, greedy top-down."""
    _require_labeled(d)
    nodes = _grow_trees(d.X, d.codes, len(d.classes), [np.arange(d.n_rows)],
                        lambda t: list(range(d.arity)), max_depth, min_leaf)
    return DecisionTreeModel(d.classes, nodes, d.arity)


# ---------------------------------------------------------------------------
# Random forest (bagged trees with per-node feature subsampling)

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
    check_number("n_trees", n_trees, int, lambda v: v >= 1, ">= 1")
    check_number("seed", seed, int)
    if not isinstance(bootstrap, bool):
        raise ConfigError(f"bootstrap must be True or False, got {bootstrap!r}")
    if features_per_split is None:
        features_per_split = int(math.ceil(math.sqrt(d.arity)))
    check_number("features_per_split", features_per_split, int, lambda v: v >= 1, ">= 1")
    if features_per_split > d.arity:
        warnings.warn(
            f"features_per_split={features_per_split} exceeds arity {d.arity}; clamping"
        )
        features_per_split = d.arity
    rngs = [np.random.default_rng(derive_seed(seed, "tree", t)) for t in range(n_trees)]
    samples = [rng.integers(d.n_rows, size=d.n_rows) if bootstrap else np.arange(d.n_rows)
               for rng in rngs]

    def pick(t):
        return sorted(rngs[t].choice(d.arity, features_per_split, replace=False).tolist())

    nodes = _grow_trees(d.X, d.codes, len(d.classes), samples, pick, max_depth, min_leaf)
    return RandomForestModel(d.classes, nodes, d.arity)


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
        super().__init__(classes, arity)
        self.rules = rules
        self.default_counts = default_counts

    def _proba_matrix(self, X):
        P = np.empty((X.shape[0], len(self.classes)))
        unassigned = np.ones(X.shape[0], dtype=bool)
        for rule in self.rules:
            hit = unassigned & rule.covers(X)
            P[hit] = _laplace(rule.counts)
            unassigned &= ~hit
        P[unassigned] = _laplace(self.default_counts)
        return P


def _best_leaf_path(nodes):
    """(path, counts) of the best leaf of a one-tree NodeArrays.

    Prefers pure leaves, then the leaf covering the most rows, then the
    first in pre-order; the path is the list of split conditions from the
    root, built from parent links."""
    counts = nodes.counts
    leaves = np.flatnonzero(nodes.feature < 0).tolist()
    best = max(leaves, key=lambda i: (counts[i].max() / counts[i].sum(), counts[i].sum()))
    parent = {}
    for i in np.flatnonzero(nodes.feature >= 0).tolist():
        parent[int(nodes.child[i, 1])] = (i, "le")
        parent[int(nodes.child[i, 0])] = (i, "gt")
    path, at = [], best
    while at in parent:
        at, op = parent[at]
        path.append((int(nodes.feature[at]), op, float(nodes.threshold[at])))
    return path[::-1], counts[best]


def train_rule_list(d: Dataset, max_rule_depth: int = 3, min_leaf: int = 1) -> RuleListModel:
    """Ordered rule list learned by separate-and-conquer.

    Each round grows a depth-limited Gini tree on the remaining rows, turns
    its best leaf into a rule, and drops the covered rows. Uncovered rows fall
    through to a default rule holding the leftover class counts."""
    _require_labeled(d)
    if max_rule_depth is not None:
        check_number("max_rule_depth", max_rule_depth, int, lambda v: v >= 0, ">= 0")
    classes, y = d.classes, d.codes
    K = len(classes)
    X = d.X
    rules = []
    max_rules = 200
    while len(y) > 0 and len(rules) < max_rules:
        nodes = _grow_trees(X, y, K, [np.arange(len(y))], lambda t: list(range(d.arity)),
                            max_rule_depth, min_leaf)
        if nodes.feature[0] < 0:
            break
        path, counts = _best_leaf_path(nodes)
        rule = Rule(path, counts.copy())
        covered = rule.covers(X)
        if not covered.any():
            break
        rules.append(rule)
        X, y = X[~covered], y[~covered]
    default_counts = np.bincount(y, minlength=K).astype(float)
    if default_counts.sum() == 0:
        # Everything got covered: fall back to the full training distribution.
        default_counts = np.bincount(d.codes, minlength=K).astype(float)
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
        if self.hidden_units is not None:
            check_number("hidden_units", self.hidden_units, int, lambda v: v >= 1, ">= 1")
        check_number("learning_rate", self.learning_rate, float, lambda v: v > 0, "> 0")
        check_number("momentum", self.momentum, float, lambda v: 0 <= v < 1, "in [0,1)")
        check_number("epochs", self.epochs, int, lambda v: v >= 1, ">= 1")
        check_number("batch_size", self.batch_size, int, lambda v: v >= 1, ">= 1")
        check_number("seed", self.seed, int, lambda v: v >= 0, ">= 0")


class MlpModel(TrainedModel):
    learner = "mlp"

    def __init__(self, classes, W1, b1, W2, b2, scaler):
        super().__init__(classes, W1.shape[0])
        self.W1 = W1
        self.b1 = b1
        self.W2 = W2
        self.b2 = b2
        self.scaler = scaler

    def _proba_matrix(self, X):
        Z = self.scaler.transform(X)
        H = sigmoid(Z @ self.W1 + self.b1)
        return _softmax(H @ self.W2 + self.b2)


def sigmoid(v):
    """Logistic function, evaluated without overflow for either sign."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    classes, y = d.classes, d.codes
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
