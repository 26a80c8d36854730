"""Stacked generalization: base classifiers' out-of-fold probabilities train
a second-level meta-classifier (SMO with calibration by default).

Also houses the learner registry the CLI and the model presets build on.
"""

from dataclasses import dataclass, replace

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
from .util import derive_seed, parse_fields


class ScaledModel(TrainedModel):
    """Applies a stored standardizer before delegating to the inner model."""

    def __init__(self, inner: TrainedModel, scaler: Standardizer):
        super().__init__(inner.classes)
        self.inner = inner
        self.scaler = scaler
        self.learner = inner.learner
        self.arity = len(scaler.means)

    def _score(self, X):
        return self.inner.score(self.scaler.transform(X))


def _train_nb(d, seed, params):
    return train_naive_bayes(d, **params)


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
    calibrated = calibrate_probability(svm, zd, cfg, folds=cal_folds)
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


def _names(text: str) -> tuple:
    return tuple(n.strip() for n in text.split(",") if n.strip())


def parse_stack_spec(text: str, seed: int = 0) -> StackSpec:
    """Parse `model1`..`model5` or `stack:meta=smo;base=part,mlp,nb;folds=5`.

    Fields are `;`-separated; meta (default smo) and folds (default 5) are
    optional. Every learner name must be registered when the spec is read.
    """
    text = text.strip()
    if text in MODEL_PRESETS:
        return replace(MODEL_PRESETS[text], seed=seed)
    if not text.startswith("stack:"):
        raise ConfigError(
            f"unknown stack spec {text!r}; use model1..model5 or stack:..."
        )
    what = f"stack spec {text!r}"
    fields = parse_fields(
        text[len("stack:") :], ";", {"meta": str, "base": _names, "folds": int}, what
    )
    meta = fields.get("meta", "smo")
    base = fields.get("base")
    if not base:
        raise ConfigError(f"{what} needs base=<learner,...>")
    for name in (meta, *base):
        if name not in LEARNERS:
            raise ConfigError(
                f"{what}: unknown learner {name!r}; choices: {sorted(LEARNERS)}"
            )
    return StackSpec(
        base=tuple(LearnerSpec(n) for n in base),
        meta=LearnerSpec(meta),
        folds=fields.get("folds", 5),
        seed=seed,
    )


def _check_classes(model: TrainedModel, classes) -> None:
    """A base model's probability columns must be the stack's classes."""
    if model.classes != list(classes):
        raise ShapeError(
            f"base model {model.learner} has classes {model.classes}, "
            f"the stack has {list(classes)}"
        )


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
            # Stratified folds give every training part every class.
            _check_classes(model, classes)
            M[hold, t * K : (t + 1) * K] = model.predict_proba(d.X[hold])
    return Dataset(_meta_schema(spec, classes), M, d.labels)


class StackedModel(TrainedModel):
    """Base models refit on the full training data plus the meta-model."""

    learner = "stack"

    def __init__(self, spec: StackSpec, base_models, meta_model, classes, arity):
        super().__init__(classes)
        for bm in base_models:
            _check_classes(bm, self.classes)
        self.spec = spec
        self.base_models = base_models
        self.meta_model = meta_model
        self.arity = arity

    def _meta_matrix(self, X):
        return np.hstack([bm.predict_proba(X) for bm in self.base_models])

    def _score(self, X):
        return self.meta_model.score(self._meta_matrix(X))


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

