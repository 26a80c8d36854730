"""Plain-text model documents.

Every trained model, and the EM mixture, serializes to a line-based tagged
format ("model <kind>" first, then key/value lines; nested models wrapped in
begin_model/end_model). Floats are written with repr so a reload reproduces
the exact bits.

Each kind's layout is one function f(doc, m) listed in _KINDS. It runs when
writing, with m the model, and when reading, with m None; `m and text(m.x)`
is the text to write, None when reading. Every line goes through _Doc.line,
which on writing appends the line and then, in both modes, parses it back,
so the writer can only produce what the reader accepts.
"""

import json
from dataclasses import asdict

import numpy as np

from .baseline_learners import (
    DecisionTreeModel,
    MlpModel,
    NaiveBayesModel,
    RandomForestModel,
    Rule,
    RuleListModel,
    TrainedModel,
    TreeNode,
    node_arrays,
)
from .dataset import Standardizer
from .errors import ParseError
from .imbalance import CostMatrix, CostSensitiveModel
from .labeling_em import GaussianMixtureModel
from .stacking import LearnerSpec, ScaledModel, StackSpec, StackedModel
from .svm_smo import CalibratedSvm, KernelSpec, SvmModel
from .util import atomic_write_text


class _Doc:
    """A model document being written (lines=None) or read (lines given)."""

    def __init__(self, lines=None):
        self.writing = lines is None
        self.lines = [] if lines is None else lines
        self.pos = 0

    def _next(self, key):
        if self.pos == len(self.lines):
            raise ParseError(f"unexpected end of model document, expected {key!r}")
        self.pos += 1
        return self.lines[self.pos - 1]

    def line(self, key, text, parse=int):
        """The line `key text` when writing, the next line when reading;
        returns parse of the text after the key."""
        if self.writing:
            self.lines.append(f"{key} {text}")
        got = self._next(key)
        if not got.startswith(key + " "):
            raise ParseError(f"expected {key!r}, got {got!r}")
        try:
            return parse(got[len(key) + 1 :].strip())
        except (ValueError, TypeError, KeyError, IndexError) as e:
            raise ParseError(f"{e} in {got!r}") from e

    def floats(self, key, values, n=None):
        """A line of floats, exactly n of them unless n is None."""
        return self.line(key, self.writing and _floats(values), _vector(n))

    def optional_floats(self, key, values) -> list:
        """A float line written only when values is non-empty and read only
        when present; [] when absent."""
        upcoming = self.lines[self.pos] if self.pos < len(self.lines) else ""
        present = len(values) > 0 if self.writing else upcoming.startswith(key + " ")
        return self.floats(key, values).tolist() if present else []

    def _mark(self, key):
        if self.writing:
            self.lines.append(key)
        text = self._next(key)
        if text.strip() != key:
            raise ParseError(f"expected {key!r}, got {text!r}")

    def model(self, m, cls=object):
        """A `model <kind>` line and the kind's layout; the kind's class must
        be a subclass of cls."""

        def kind(text):
            if text not in _KINDS:
                raise ValueError(f"unknown model kind {text!r}")
            if not issubclass(_KINDS[text][0], cls):
                raise ValueError(f"a {text} model cannot appear here")
            return text

        if self.writing and type(m) not in _KIND_OF:
            raise ParseError(f"cannot serialize model type {type(m).__name__}")
        name = self.line("model", m and _KIND_OF[type(m)], kind)
        try:
            return _KINDS[name][1](self, m)
        except ParseError:
            raise
        except (ValueError, TypeError) as e:  # the model's own constructor checks
            raise ParseError(f"inconsistent {name} model: {e}") from e

    def nested(self, m, cls=TrainedModel):
        self._mark("begin_model")
        model = self.model(m, cls)
        self._mark("end_model")
        return model


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _vector(n=None, cast=float):
    """Parser of a vector of cast values, exactly n of them unless n is None."""

    def parse(text):
        v = np.array([cast(t) for t in text.split()], dtype=cast)
        if n is not None and len(v) != n:
            raise ValueError(f"expected {n} values, got {len(v)}")
        return v

    return parse


_flag = {"0": False, "1": True}.__getitem__


def _names(text) -> list:
    names = json.loads(text)
    if not (isinstance(names, list) and names and all(isinstance(c, str) for c in names)):
        raise ValueError("expected a non-empty JSON list of class names")
    return names


def _classes(doc, m) -> list:
    return doc.line("classes", m and json.dumps(list(m.classes)), _names)


def _feature(text, arity) -> int:
    feature = int(text)
    if not 0 <= feature < arity:
        raise ValueError(f"feature {feature} outside arity {arity}")
    return feature


def _gaussians(doc, m, K, dim=None):
    """The interleaved `mean k`/`var k` lines of K diagonal Gaussians of dim
    features (the first mean's length when None)."""
    means, variances = [], []
    for k in range(K):
        means.append(doc.floats(f"mean {k}", m and m.means[k], dim))
        dim = len(means[0])
        variances.append(doc.floats(f"var {k}", m and m.variances[k], dim))
    return np.vstack(means), np.vstack(variances)


def _scaler(doc, s) -> Standardizer:
    scaler = Standardizer()
    scaler.means = doc.floats("scaler_means", s and s.means)
    scaler.scales = doc.floats("scaler_scales", s and s.scales, len(scaler.means))
    return scaler


# ---------------------------------------------------------------------------
# One layout per kind

def _nb(doc, m):
    classes = _classes(doc, m)
    priors = doc.floats("priors", m and m.priors, len(classes))
    return NaiveBayesModel(classes, priors, *_gaussians(doc, m, len(classes)))


def _gmm(doc, m):
    K = doc.line("components", m and m.n_components)
    dim = doc.line("dim", m and m.means.shape[1])
    weights = doc.floats("weights", m and m.weights, K)
    means, variances = _gaussians(doc, m, K, dim)
    converged = doc.line("converged", m and int(m.converged), _flag)
    n_iter = doc.line("n_iter", m and m.n_iter)
    trace = doc.optional_floats("trace", m and m.loglik_trace)
    return GaussianMixtureModel(weights, means, variances, trace, converged, n_iter)


def _node_text(node) -> str:
    if node.is_leaf:
        return "leaf " + _floats(node.counts)
    return f"split {int(node.feature)} {float(node.threshold)!r}"


def _tree(doc, m):
    """The node lines of the tree in pre-order: a split's left subtree, then
    its right subtree."""
    classes, arity = _classes(doc, m), doc.line("arity", m and m.arity)
    K = len(classes)

    def parse(text):
        kind, *rest = text.split()
        if kind == "leaf":
            return -1, np.nan, _vector(K)(" ".join(rest))
        if kind != "split":
            raise ValueError(f"unknown node kind {kind!r}")
        feature, threshold = rest
        return _feature(feature, arity), float(threshold), np.zeros(K)

    nodes, to_come = [], 1  # a split adds its two children to the nodes still to come
    while to_come:
        nodes.append(doc.line("node", m and _node_text(TreeNode(m.nodes, len(nodes))), parse))
        to_come += 1 if nodes[-1][0] >= 0 else -1
    return DecisionTreeModel(classes, node_arrays(*zip(*nodes)), arity)


def _rf(doc, m):
    classes, arity = _classes(doc, m), doc.line("arity", m and m.arity)
    views = m and m.trees
    n_trees = doc.line("n_trees", views and len(views))
    trees = [doc.nested(views and views[i], DecisionTreeModel) for i in range(n_trees)]
    for tree in trees:
        tree.check_fits(classes, arity)
    nodes = node_arrays(*map(np.concatenate, zip(*(tree.nodes[:3] for tree in trees))))
    return RandomForestModel(classes, nodes, arity)


def _conditions_text(conditions) -> str:
    conds = " ".join(f"{int(f)} {op} {float(thr)!r}" for f, op, thr in conditions)
    return f"{len(conditions)} {conds}"


def _conditions(text, arity) -> list:
    n, *parts = text.split()
    if len(parts) != 3 * int(n):
        raise ValueError(f"expected {n} conditions")
    conds = []
    for f, op, thr in zip(parts[::3], parts[1::3], parts[2::3]):
        if op not in ("le", "gt"):
            raise ValueError(f"unknown condition op {op!r}")
        conds.append((_feature(f, arity), op, float(thr)))
    return conds


def _part(doc, m):
    classes, arity = _classes(doc, m), doc.line("arity", m and m.arity)
    rules = []
    for i in range(doc.line("n_rules", m and len(m.rules))):
        rule = m and m.rules[i]
        conds = doc.line("rule", rule and _conditions_text(rule.conditions),
                         lambda text: _conditions(text, arity))
        counts = doc.floats("rule_counts", rule and rule.counts, len(classes))
        rules.append(Rule(conds, counts))
    default = doc.floats("default_counts", m and m.default_counts, len(classes))
    return RuleListModel(classes, rules, default, arity)


def _mlp(doc, m):
    classes = _classes(doc, m)
    scaler = _scaler(doc, m and m.scaler)
    shape = m and f"{m.W1.shape[0]} {m.W1.shape[1]} {m.W2.shape[1]}"
    dim, hidden, K = doc.line("shape", shape, _vector(3, int))
    W1 = np.vstack([doc.floats("w1", m and m.W1[i], hidden) for i in range(dim)])
    b1 = doc.floats("b1", m and m.b1, hidden)
    W2 = np.vstack([doc.floats("w2", m and m.W2[i], K) for i in range(hidden)])
    b2 = doc.floats("b2", m and m.b2, K)
    return MlpModel(classes, W1, b1, W2, b2, scaler)


def _kernel_text(k) -> str:
    gamma = "none" if k.gamma is None else repr(float(k.gamma))
    return f"{k.kind} {gamma} {k.degree} {float(k.coef0)!r}"


def _kernel(text) -> KernelSpec:
    kind, gamma, degree, coef0 = text.split()
    gamma = None if gamma == "none" else float(gamma)
    return KernelSpec(kind, gamma, int(degree), float(coef0))


def _sv_text(m, i) -> str:
    return f"{float(m.alpha[i])!r} {int(m.sv_y[i])} " + _floats(m.sv_X[i])


def _svm(doc, m):
    classes = _classes(doc, m)
    kernel = doc.line("kernel", m and _kernel_text(m.kernel), _kernel)
    C = doc.line("c", m and repr(float(m.C)), float)
    b = doc.line("b", m and repr(float(m.b)), float)
    dual = doc.line("dual_objective", m and repr(float(m.dual_objective)), float)
    converged = doc.line("converged", m and int(m.converged), _flag)
    n_train = doc.line("n_train", m and m.n_train)
    arity = doc.line("arity", m and m.arity)
    sv_indices = doc.line("sv_indices", m and " ".join(map(str, m.sv_indices)),
                          _vector(cast=int))
    n_sv = doc.line("n_sv", m and len(m.alpha))
    # One row per support vector: alpha, y, then its features.
    rows = [doc.line("sv", m and _sv_text(m, i), _vector(arity + 2)) for i in range(n_sv)]
    rows = np.array(rows).reshape(n_sv, arity + 2)
    alpha, sv_y, sv_X = rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2:].copy()
    return SvmModel(classes, sv_X, sv_y, alpha, b, kernel, C, dual, converged, sv_indices,
                    n_train)


def _svm_cal(doc, m):
    A = doc.line("a", m and repr(float(m.A)), float)
    B = doc.line("b", m and repr(float(m.B)), float)
    fallback = doc.line("fallback", m and int(m.fallback), _flag)
    return CalibratedSvm(doc.nested(m and m.svm, SvmModel), A, B, fallback)


def _scaled(doc, m):
    scaler = _scaler(doc, m and m.scaler)
    return ScaledModel(doc.nested(m and m.inner), scaler)


def _costwrap(doc, m):
    cm = CostMatrix([doc.floats(f"costs{a}", m and m.cm.m[a], 2) for a in range(2)])
    return CostSensitiveModel(doc.nested(m and m.base), cm)


def _spec(raw) -> LearnerSpec:
    return LearnerSpec(raw["name"], tuple(tuple(p) for p in raw["params"]))


def _stack(doc, m):
    classes, arity = _classes(doc, m), doc.line("arity", m and m.arity)
    spec = m and m.spec
    folds = doc.line("folds", spec and spec.folds)
    meta = doc.line("meta_spec", spec and json.dumps(asdict(spec.meta)),
                    lambda t: _spec(json.loads(t)))
    base = doc.line("base_specs", spec and json.dumps([asdict(s) for s in spec.base]),
                    lambda t: tuple(_spec(raw) for raw in json.loads(t)))
    spec = StackSpec(base=base, meta=meta, folds=folds)
    base_models = [doc.nested(m and m.base_models[i]) for i in range(len(base))]
    return StackedModel(spec, base_models, doc.nested(m and m.meta_model), classes, arity)


_KINDS = {
    "nb": (NaiveBayesModel, _nb),
    "rf": (RandomForestModel, _rf),
    "tree": (DecisionTreeModel, _tree),
    "part": (RuleListModel, _part),
    "mlp": (MlpModel, _mlp),
    "svm": (SvmModel, _svm),
    "svm_cal": (CalibratedSvm, _svm_cal),
    "scaled": (ScaledModel, _scaled),
    "costwrap": (CostSensitiveModel, _costwrap),
    "stack": (StackedModel, _stack),
    "gmm": (GaussianMixtureModel, _gmm),
}
_KIND_OF = {cls: name for name, (cls, _) in _KINDS.items()}


def model_to_text(model) -> str:
    doc = _Doc()
    doc.model(model)
    return "\n".join(doc.lines) + "\n"


def model_from_text(text: str):
    doc = _Doc([ln for ln in text.splitlines() if ln.strip()])
    model = doc.model(None)
    if doc.pos < len(doc.lines):
        raise ParseError(f"unexpected line after the model: {doc.lines[doc.pos]!r}")
    return model


def save_model(model, path: str) -> None:
    atomic_write_text(path, model_to_text(model))


def load_model(path: str):
    with open(path) as fh:
        return model_from_text(fh.read())
