"""Stacked generalization: base classifiers' out-of-fold probabilities train
a second-level meta-classifier (SMO with calibration by default).

Also houses the learner registry the CLI and the model presets build on.
"""

from dataclasses import dataclass, field

import numpy as np

from .baseline_learners import (
    MlpConfig,
    TrainedModel,
    train_cart,
    train_mlp,
    train_naive_bayes,
    train_random_forest,
    train_rule_list,
)
from .dataset import Dataset, Standardizer, class_order, stratified_folds
from .errors import ConfigError, ShapeError
from .svm_smo import KernelSpec, SmoConfig, calibrate_probability, smo_train
from .util import derive_seed


class ScaledModel(TrainedModel):
    """Applies a stored standardizer before delegating to the inner model."""

    def __init__(self, inner: TrainedModel, scaler: Standardizer):
        super().__init__(inner.classes)
        self.inner = inner
        self.scaler = scaler
        self.learner = inner.learner
        self.arity = len(scaler.means)

    def _proba_matrix(self, X):
        P = self.inner.predict_proba(self.scaler.transform(X))
        return P.reshape(1, -1) if P.ndim == 1 else P

    def ranking_scores(self, X):
        Z = self.scaler.transform(np.atleast_2d(np.asarray(X, dtype=float)))
        fn = getattr(self.inner, "ranking_scores", None)
        return fn(Z) if callable(fn) else self.inner.predict_proba(Z)

    def predict(self, x):
        X = np.asarray(x, dtype=float)
        single = X.ndim == 1
        Z = self.scaler.transform(X.reshape(1, -1) if single else X)
        out = self.inner.predict(Z)
        return out[0] if single and not np.isscalar(out) else out


def _train_nb(d, seed, params):
    return train_naive_bayes(d)


def _train_tree(d, seed, params):
    return train_cart(d, **params)


def _train_rf(d, seed, params):
    return train_random_forest(d, seed=seed, **params)


def _train_part(d, seed, params):
    return train_rule_list(d, **params)


def _train_mlp(d, seed, params):
    return train_mlp(d, MlpConfig(seed=seed, **params))


def _train_smo(d, seed, params):
    params = dict(params)
    cal_folds = int(params.pop("cal_folds", 3))
    kernel = KernelSpec(
        kind=params.pop("kernel", "linear"),
        gamma=params.pop("gamma", None),
        degree=int(params.pop("degree", 3)),
        coef0=float(params.pop("coef0", 1.0)),
    )
    cfg = SmoConfig(kernel=kernel, seed=seed, **params)
    scaler = Standardizer().fit(d.X)
    zd = scaler.transform_dataset(d)
    svm = smo_train(zd, cfg)
    calibrated = calibrate_probability(svm, zd, folds=cal_folds)
    return ScaledModel(calibrated, scaler)


LEARNERS = {
    "nb": _train_nb,
    "tree": _train_tree,
    "rf": _train_rf,
    "part": _train_part,
    "mlp": _train_mlp,
    "smo": _train_smo,
}


def register_learner(name: str, trainer) -> None:
    """Add a learner to the registry. trainer(d, seed, params) -> TrainedModel."""
    LEARNERS[name] = trainer


def train_learner(name: str, d: Dataset, seed: int = 0, params=None) -> TrainedModel:
    if name not in LEARNERS:
        raise ConfigError(
            f"unknown learner {name!r}; choices: {sorted(LEARNERS)}"
        )
    return LEARNERS[name](d, seed, dict(params or {}))


@dataclass(frozen=True)
class LearnerSpec:
    name: str
    params: tuple = ()  # ((key, value), ...) kept hashable

    def params_dict(self):
        return dict(self.params)


@dataclass(frozen=True)
class StackSpec:
    base: tuple
    meta: LearnerSpec = LearnerSpec("smo")
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if len(self.base) < 1:
            raise ConfigError("a stack needs at least one base learner")
        if self.folds < 2:
            raise ConfigError(f"fold count must be >= 2, got {self.folds}")


def _preset(*names):
    return StackSpec(base=tuple(LearnerSpec(n) for n in names))


MODEL_PRESETS = {
    "model1": _preset("tree", "mlp"),
    "model2": _preset("rf", "nb"),
    "model3": _preset("part", "mlp", "nb"),
    "model4": _preset("rf", "part"),
    "model5": _preset("rf", "nb", "mlp"),
}


def parse_stack_spec(text: str, seed: int = 0) -> StackSpec:
    """Parse `model1`..`model5` or `stack:meta=smo;base=part,mlp,nb;folds=5`."""
    text = text.strip()
    if text in MODEL_PRESETS:
        preset = MODEL_PRESETS[text]
        return StackSpec(base=preset.base, meta=preset.meta, folds=preset.folds, seed=seed)
    if not text.startswith("stack:"):
        raise ConfigError(
            f"unknown stack spec {text!r}; use model1..model5 or stack:..."
        )
    meta = LearnerSpec("smo")
    base = None
    folds = 5
    for part in text[len("stack:") :].split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad stack spec segment {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key == "meta":
            meta = LearnerSpec(value.strip())
        elif key == "base":
            base = tuple(LearnerSpec(n.strip()) for n in value.split(",") if n.strip())
        elif key == "folds":
            folds = int(value)
        else:
            raise ConfigError(f"unknown stack spec key {key!r}")
    if not base:
        raise ConfigError("stack spec needs base=<learner,...>")
    return StackSpec(base=base, meta=meta, folds=folds, seed=seed)


def _aligned_proba(model: TrainedModel, X, classes) -> np.ndarray:
    """Model probabilities re-ordered onto the global class list; classes the
    model never saw get zero columns."""
    P = model.predict_proba(X)
    if P.ndim == 1:
        P = P.reshape(1, -1)
    out = np.zeros((P.shape[0], len(classes)))
    for j, c in enumerate(model.classes):
        if c in classes:
            out[:, classes.index(c)] = P[:, j]
    return out


def _meta_schema(spec: StackSpec, classes):
    schema = []
    for t, ls in enumerate(spec.base):
        for c in classes:
            schema.append((f"b{t}_{ls.name}_p_{c}", "prob"))
    return schema


def build_meta_features(d: Dataset, spec: StackSpec) -> Dataset:
    """Out-of-fold meta-dataset: every base learner is trained on k-1 folds
    and predicts the held-out fold, so no row's meta-features come from a
    model that trained on that row. Labels carry over unchanged."""
    if not d.label_presence:
        raise ConfigError("stacking needs a labeled dataset")
    classes = class_order(d.labels)
    assign = stratified_folds(
        d.labels, spec.folds, seed=derive_seed(spec.seed, "folds")
    )
    T = len(spec.base)
    K = len(classes)
    M = np.empty((d.n_rows, T * K))
    for f in sorted(set(assign)):
        hold = assign == f
        train_part = d.subset(np.flatnonzero(~hold))
        for t, ls in enumerate(spec.base):
            model = train_learner(
                ls.name,
                train_part,
                seed=derive_seed(spec.seed, "fold", int(f), t),
                params=ls.params_dict(),
            )
            M[hold, t * K : (t + 1) * K] = _aligned_proba(model, d.X[hold], classes)
    return Dataset(_meta_schema(spec, classes), M, d.labels)


class StackedModel(TrainedModel):
    """Base models refit on the full training data plus the meta-model."""

    learner = "stack"

    def __init__(self, spec: StackSpec, base_models, meta_model, classes, arity):
        super().__init__(classes)
        self.spec = spec
        self.base_models = base_models
        self.meta_model = meta_model
        self.arity = arity

    def _meta_matrix(self, X):
        if X.shape[1] != self.arity:
            raise ShapeError(f"stack expects {self.arity} features, got {X.shape[1]}")
        return np.hstack(
            [_aligned_proba(bm, X, self.classes) for bm in self.base_models]
        )

    def _proba_matrix(self, X):
        P = self.meta_model.predict_proba(self._meta_matrix(X))
        return P.reshape(1, -1) if P.ndim == 1 else P

    def ranking_scores(self, X):
        M = self._meta_matrix(np.atleast_2d(np.asarray(X, dtype=float)))
        fn = getattr(self.meta_model, "ranking_scores", None)
        return fn(M) if callable(fn) else self.meta_model.predict_proba(M)

    def predict(self, x):
        X = np.asarray(x, dtype=float)
        single = X.ndim == 1
        out = self.meta_model.predict(self._meta_matrix(np.atleast_2d(X)))
        return out[0] if single else out


def train_stack(d: Dataset, spec: StackSpec) -> StackedModel:
    """Meta-learner on out-of-fold base probabilities; bases refit on all rows."""
    meta_d = build_meta_features(d, spec)
    meta_model = train_learner(
        spec.meta.name,
        meta_d,
        seed=derive_seed(spec.seed, "meta"),
        params=spec.meta.params_dict(),
    )
    base_models = [
        train_learner(
            ls.name, d, seed=derive_seed(spec.seed, "refit", t), params=ls.params_dict()
        )
        for t, ls in enumerate(spec.base)
    ]
    return StackedModel(spec, base_models, meta_model, class_order(d.labels), d.arity)


def predict_stack(m: StackedModel, x) -> np.ndarray:
    """Probability vector for one instance (or matrix for many)."""
    features = getattr(x, "features", x)
    return m.predict_proba(np.asarray(features, dtype=float))
