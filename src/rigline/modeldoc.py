"""Plain-text model documents.

Every trained model serializes to a line-based tagged format ("model <kind>"
first, then key/value lines; nested models wrapped in begin_model/end_model).
Floats are written with repr so a reload reproduces the exact bits.
"""

import json

import numpy as np

from .baseline_learners import (
    DecisionTreeModel,
    MlpModel,
    NaiveBayesModel,
    RandomForestModel,
    Rule,
    RuleListModel,
    TreeNode,
)
from .dataset import Standardizer
from .errors import ParseError
from .imbalance import CostMatrix, CostSensitiveModel
from .stacking import LearnerSpec, ScaledModel, StackSpec, StackedModel
from .svm_smo import CalibratedSvm, KernelSpec, SvmModel
from .util import atomic_write_text


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _parse_floats(parts) -> np.ndarray:
    return np.array([float(v) for v in parts])


class _Reader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self):
        line = self.peek()
        if line is None:
            raise ParseError("unexpected end of model document")
        self.pos += 1
        return line

    def expect(self, prefix):
        line = self.take()
        if not line.startswith(prefix):
            raise ParseError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix) :].strip()

    def bad(self, why):
        """A ParseError naming the line taken last."""
        return ParseError(f"{why} in {self.lines[self.pos - 1]!r}")


# ---------------------------------------------------------------------------
# Emitters

def _emit_classes(model, out):
    out.append("classes " + json.dumps(list(model.classes)))


def _emit_tree_nodes(node: TreeNode, out):
    if node.is_leaf:
        out.append("node leaf " + _floats(node.counts))
    else:
        out.append(f"node split {int(node.feature)} {float(node.threshold)!r}")
        _emit_tree_nodes(node.left, out)
        _emit_tree_nodes(node.right, out)


def _emit_scaler(scaler: Standardizer, out):
    out.append("scaler_means " + _floats(scaler.means))
    out.append("scaler_scales " + _floats(scaler.scales))


def _emit_nested(model, out):
    out.append("begin_model")
    _emit(model, out)
    out.append("end_model")


def _emit(model, out):
    if isinstance(model, NaiveBayesModel):
        out.append("model nb")
        _emit_classes(model, out)
        out.append("priors " + _floats(model.priors))
        for k in range(len(model.classes)):
            out.append(f"mean {k} " + _floats(model.means[k]))
            out.append(f"var {k} " + _floats(model.variances[k]))
    elif isinstance(model, RandomForestModel):
        out.append("model rf")
        _emit_classes(model, out)
        out.append(f"arity {model.arity}")
        out.append(f"n_trees {len(model.trees)}")
        for tree in model.trees:
            _emit_nested(tree, out)
    elif isinstance(model, DecisionTreeModel):
        out.append("model tree")
        _emit_classes(model, out)
        out.append(f"arity {model.arity}")
        _emit_tree_nodes(model.root, out)
    elif isinstance(model, RuleListModel):
        out.append("model part")
        _emit_classes(model, out)
        out.append(f"arity {model.arity}")
        out.append(f"n_rules {len(model.rules)}")
        for rule in model.rules:
            conds = " ".join(
                f"{int(f)} {op} {float(thr)!r}" for f, op, thr in rule.conditions
            )
            out.append(f"rule {len(rule.conditions)} {conds}")
            out.append("rule_counts " + _floats(rule.counts))
        out.append("default_counts " + _floats(model.default_counts))
    elif isinstance(model, MlpModel):
        out.append("model mlp")
        _emit_classes(model, out)
        _emit_scaler(model.scaler, out)
        out.append(f"shape {model.W1.shape[0]} {model.W1.shape[1]} {model.W2.shape[1]}")
        for row in model.W1:
            out.append("w1 " + _floats(row))
        out.append("b1 " + _floats(model.b1))
        for row in model.W2:
            out.append("w2 " + _floats(row))
        out.append("b2 " + _floats(model.b2))
    elif isinstance(model, SvmModel):
        out.append("model svm")
        _emit_classes(model, out)
        k = model.kernel
        gamma = "none" if k.gamma is None else repr(float(k.gamma))
        out.append(f"kernel {k.kind} {gamma} {k.degree} {float(k.coef0)!r}")
        out.append(f"c {float(model.C)!r}")
        out.append(f"b {float(model.b)!r}")
        out.append(f"dual_objective {float(model.dual_objective)!r}")
        out.append(f"converged {int(model.converged)}")
        out.append(f"n_train {model.n_train}")
        out.append(f"arity {model.arity}")
        out.append("sv_indices " + " ".join(str(int(i)) for i in model.sv_indices))
        out.append(f"n_sv {len(model.alpha)}")
        for a, y, x in zip(model.alpha, model.sv_y, model.sv_X):
            out.append(f"sv {float(a)!r} {int(y)} " + _floats(x))
    elif isinstance(model, CalibratedSvm):
        out.append("model svm_cal")
        out.append(f"a {float(model.A)!r}")
        out.append(f"b {float(model.B)!r}")
        out.append(f"fallback {int(model.fallback)}")
        _emit_nested(model.svm, out)
    elif isinstance(model, ScaledModel):
        out.append("model scaled")
        _emit_scaler(model.scaler, out)
        _emit_nested(model.inner, out)
    elif isinstance(model, CostSensitiveModel):
        out.append("model costwrap")
        out.append("costs0 " + _floats(model.cm.m[0]))
        out.append("costs1 " + _floats(model.cm.m[1]))
        _emit_nested(model.base, out)
    elif isinstance(model, StackedModel):
        out.append("model stack")
        _emit_classes(model, out)
        out.append(f"arity {model.arity}")
        spec = model.spec
        out.append(f"folds {spec.folds}")
        out.append(f"seed {spec.seed}")
        out.append(
            "meta_spec "
            + json.dumps({"name": spec.meta.name, "params": list(spec.meta.params)})
        )
        out.append(
            "base_specs "
            + json.dumps(
                [{"name": ls.name, "params": list(ls.params)} for ls in spec.base]
            )
        )
        for bm in model.base_models:
            _emit_nested(bm, out)
        _emit_nested(model.meta_model, out)
    else:
        raise ParseError(f"cannot serialize model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Parsers

def _parse_classes(r: _Reader):
    return [str(c) for c in json.loads(r.expect("classes "))]


def _parse_feature(r: _Reader, text, arity) -> int:
    feature = int(text)
    if not 0 <= feature < arity:
        raise r.bad(f"feature {feature} outside arity {arity}")
    return feature


def _parse_tree_nodes(r: _Reader, arity) -> TreeNode:
    parts = r.expect("node ").split()
    if parts[0] == "leaf":
        return TreeNode(counts=_parse_floats(parts[1:]))
    feature = _parse_feature(r, parts[1], arity)
    threshold = float(parts[2])
    left = _parse_tree_nodes(r, arity)
    right = _parse_tree_nodes(r, arity)
    return TreeNode(feature, threshold, left, right)


def _parse_scaler(r: _Reader) -> Standardizer:
    scaler = Standardizer()
    scaler.means = _parse_floats(r.expect("scaler_means ").split())
    scaler.scales = _parse_floats(r.expect("scaler_scales ").split())
    return scaler


def _parse_nested(r: _Reader):
    r.expect("begin_model")
    model = _parse_model(r)
    r.expect("end_model")
    return model


def _parse_model(r: _Reader):
    kind = r.expect("model ")
    if kind == "nb":
        classes = _parse_classes(r)
        priors = _parse_floats(r.expect("priors ").split())
        means, variances = [], []
        for k in range(len(classes)):
            means.append(_parse_floats(r.expect(f"mean {k} ").split()))
            variances.append(_parse_floats(r.expect(f"var {k} ").split()))
        return NaiveBayesModel(classes, priors, np.vstack(means), np.vstack(variances))
    if kind == "tree":
        classes = _parse_classes(r)
        arity = int(r.expect("arity "))
        return DecisionTreeModel(classes, _parse_tree_nodes(r, arity), arity)
    if kind == "rf":
        classes = _parse_classes(r)
        arity = int(r.expect("arity "))
        n_trees = int(r.expect("n_trees "))
        trees = [_parse_nested(r) for _ in range(n_trees)]
        return RandomForestModel(classes, trees, arity)
    if kind == "part":
        classes = _parse_classes(r)
        arity = int(r.expect("arity "))
        n_rules = int(r.expect("n_rules "))
        rules = []
        for _ in range(n_rules):
            parts = r.expect("rule ").split()
            n_conds = int(parts[0])
            if len(parts) != 1 + 3 * n_conds:
                raise r.bad(f"expected {n_conds} conditions")
            conds = []
            for f, op, thr in zip(parts[1::3], parts[2::3], parts[3::3]):
                if op not in ("le", "gt"):
                    raise r.bad(f"unknown condition op {op!r}")
                conds.append((_parse_feature(r, f, arity), op, float(thr)))
            counts = _parse_floats(r.expect("rule_counts ").split())
            rules.append(Rule(conds, counts))
        default = _parse_floats(r.expect("default_counts ").split())
        return RuleListModel(classes, rules, default, arity)
    if kind == "mlp":
        classes = _parse_classes(r)
        scaler = _parse_scaler(r)
        dim, hidden, K = (int(v) for v in r.expect("shape ").split())
        W1 = np.vstack([_parse_floats(r.expect("w1 ").split()) for _ in range(dim)])
        b1 = _parse_floats(r.expect("b1 ").split())
        W2 = np.vstack([_parse_floats(r.expect("w2 ").split()) for _ in range(hidden)])
        b2 = _parse_floats(r.expect("b2 ").split())
        return MlpModel(classes, W1, b1, W2, b2, scaler)
    if kind == "svm":
        classes = _parse_classes(r)
        kparts = r.expect("kernel ").split()
        kernel = KernelSpec(
            kind=kparts[0],
            gamma=None if kparts[1] == "none" else float(kparts[1]),
            degree=int(kparts[2]),
            coef0=float(kparts[3]),
        )
        C = float(r.expect("c "))
        b = float(r.expect("b "))
        dual = float(r.expect("dual_objective "))
        converged = bool(int(r.expect("converged ")))
        n_train = int(r.expect("n_train "))
        arity = int(r.expect("arity "))
        idx_text = r.expect("sv_indices ")
        sv_indices = np.array(
            [int(v) for v in idx_text.split()] if idx_text else [], dtype=int
        )
        n_sv = int(r.expect("n_sv "))
        alpha = np.empty(n_sv)
        sv_y = np.empty(n_sv)
        sv_X = np.empty((n_sv, arity))
        for i in range(n_sv):
            parts = r.expect("sv ").split()
            alpha[i] = float(parts[0])
            sv_y[i] = float(parts[1])
            sv_X[i] = _parse_floats(parts[2:])
        return SvmModel(
            classes, sv_X, sv_y, alpha, b, kernel, C, dual, converged, sv_indices, n_train
        )
    if kind == "svm_cal":
        A = float(r.expect("a "))
        B = float(r.expect("b "))
        fallback = bool(int(r.expect("fallback ")))
        svm = _parse_nested(r)
        return CalibratedSvm(svm, A, B, fallback)
    if kind == "scaled":
        scaler = _parse_scaler(r)
        inner = _parse_nested(r)
        return ScaledModel(inner, scaler)
    if kind == "costwrap":
        row0 = _parse_floats(r.expect("costs0 ").split())
        row1 = _parse_floats(r.expect("costs1 ").split())
        base = _parse_nested(r)
        return CostSensitiveModel(base, CostMatrix([row0, row1]))
    if kind == "stack":
        classes = _parse_classes(r)
        arity = int(r.expect("arity "))
        folds = int(r.expect("folds "))
        seed = int(r.expect("seed "))
        meta_raw = json.loads(r.expect("meta_spec "))
        base_raw = json.loads(r.expect("base_specs "))

        def to_spec(raw):
            return LearnerSpec(raw["name"], tuple(tuple(p) for p in raw["params"]))

        spec = StackSpec(
            base=tuple(to_spec(b) for b in base_raw),
            meta=to_spec(meta_raw),
            folds=folds,
            seed=seed,
        )
        base_models = [_parse_nested(r) for _ in spec.base]
        meta_model = _parse_nested(r)
        return StackedModel(spec, base_models, meta_model, classes, arity)
    raise ParseError(f"unknown model kind {kind!r}")


def model_to_text(model) -> str:
    out = []
    _emit(model, out)
    return "\n".join(out) + "\n"


def model_from_text(text: str):
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    return _parse_model(_Reader(lines))


def save_model(model, path: str) -> None:
    atomic_write_text(path, model_to_text(model))


def load_model(path: str):
    with open(path) as fh:
        return model_from_text(fh.read())
