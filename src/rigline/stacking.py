"""Stacked generalization: base classifiers' out-of-fold probabilities train
a second-level meta-classifier (SMO with calibration by default).

Also houses the learner registry the CLI and the model presets build on.
"""

from dataclasses import dataclass
from functools import cache

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
from .dataset import Dataset, Standardizer, stratified_folds
from .errors import ConfigError
from .svm_smo import KernelSpec, SmoConfig, calibrate_probability, smo_train
from .util import check_number, derive_seed, parse_fields


class ScaledModel(TrainedModel):
    """Applies a stored standardizer before delegating to the inner model."""

    def __init__(self, inner: TrainedModel, scaler: Standardizer):
        super().__init__(inner.classes, len(scaler.means))
        inner.check_fits(self.classes, self.arity)
        self.inner = inner
        self.scaler = scaler
        self.learner = inner.learner

    def _score(self, X):
        return self.inner.score(self.scaler.transform(X))


def _train_smo(d, seed, params):
    params = dict(params)
    cal_folds = params.pop("cal_folds", 3)
    kernel = KernelSpec(params.pop("kernel", "linear"),
                        **{k: params.pop(k) for k in ("gamma", "degree", "coef0") if k in params})
    cfg = SmoConfig(kernel=kernel, **params)
    scaler = Standardizer().fit(d.X)
    zd = scaler.transform_dataset(d)
    svm = smo_train(zd, cfg)
    calibrated = calibrate_probability(svm, zd, cfg, folds=cal_folds)
    return ScaledModel(calibrated, scaler)


LEARNERS = {
    "nb": lambda d, seed, params: train_naive_bayes(d, **params),
    "tree": lambda d, seed, params: train_cart(d, **params),
    "rf": lambda d, seed, params: train_random_forest(d, seed=seed, **params),
    "part": lambda d, seed, params: train_rule_list(d, **params),
    "mlp": lambda d, seed, params: train_mlp(d, MlpConfig(seed=seed, **params)),
    "smo": _train_smo,
}


def register_learner(name: str, trainer) -> None:
    """Add a learner to the registry. trainer(d, seed, params) -> TrainedModel."""
    LEARNERS[name] = trainer


def train_seed(master: int, token: str) -> int:
    """The seed a learner trains under, on its own and as a stack's base
    model; a stack token trains under the master seed itself."""
    return derive_seed(master, "train", token) if token in LEARNERS else master


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

    def __post_init__(self):
        if len(self.base) < 1:
            raise ConfigError("a stack needs at least one base learner")
        check_number("folds", self.folds, int, lambda v: v >= 2, ">= 2")


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


def parse_stack_spec(text: str) -> StackSpec:
    """Parse `model1`..`model5` or `stack:meta=smo;base=part,mlp,nb;folds=5`.

    Fields are `;`-separated; meta (default smo) and folds (default 5) are
    optional. Every learner name must be registered when the spec is read.
    """
    text = text.strip()
    if text in MODEL_PRESETS:
        return MODEL_PRESETS[text]
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
    )


class StackMemo:
    """Every model trained on one training set d under one master seed (a
    stack's only seed), and the base-learner work its stacks share. fit(ls)
    is the learner's full-data model, seeded train_seed(seed, name) and
    fitted once, alone or as a stack's base model; model(token) names a
    learner or a stack. blocks holds one out-of-fold probability block
    (rows x classes) per (LearnerSpec, folds); fold models are dropped once
    they have predicted."""

    def __init__(self, d: Dataset, seed: int):
        self.d, self.seed, self.blocks = d, seed, {}
        self.fit = cache(lambda ls: train_learner(
            ls.name, d, seed=train_seed(seed, ls.name), params=ls.params_dict()
        ))

    def model(self, token: str, params=()) -> TrainedModel:
        """The learner token with params ((key, value) pairs), or the stack
        spec token trained through this memo."""
        if token in LEARNERS:
            return self.fit(LearnerSpec(token, tuple(params)))
        return train_stack(self, parse_stack_spec(token))


def build_meta_features(memo: StackMemo, spec: StackSpec) -> Dataset:
    """Out-of-fold meta-dataset of memo.d: every base learner is trained on
    k-1 folds and predicts the held-out fold, so no row's meta-features come
    from a model that trained on that row. Labels carry over unchanged.

    The folds come from the master seed memo.seed and the fold count, and a
    fold fit's seed from (learner, fold count, fold), so a learner's block is
    the same in every stack: the memo computes each block once."""
    d, master = memo.d, memo.seed
    if not d.label_presence:
        raise ConfigError("stacking needs a labeled dataset")
    assign = stratified_folds(d, spec.folds, derive_seed(master, "folds", spec.folds))
    for ls in spec.base:
        if (ls, spec.folds) in memo.blocks:
            continue
        block = np.empty((d.n_rows, len(d.classes)))
        for f in sorted(set(assign)):
            hold = assign == f
            seed = derive_seed(master, "fold", ls.name, spec.folds, int(f))
            model = train_learner(ls.name, d.subset(np.flatnonzero(~hold)), seed=seed,
                                  params=ls.params_dict())
            # Stratified folds give every training part every class.
            model.check_fits(d.classes, d.arity)
            block[hold] = model.predict_proba(d.X[hold])
        memo.blocks[ls, spec.folds] = block
    schema = [(f"b{t}_{ls.name}_p_{c}", "prob")
              for t, ls in enumerate(spec.base) for c in d.classes]
    M = np.hstack([memo.blocks[ls, spec.folds] for ls in spec.base])
    return d.with_features(schema, M)


class StackedModel(TrainedModel):
    """The base models (the standalone full-data fits) plus the meta-model."""

    learner = "stack"

    def __init__(self, spec: StackSpec, base_models, meta_model, classes, arity):
        super().__init__(classes, arity)
        for bm in base_models:
            bm.check_fits(self.classes, arity)
        meta_model.check_fits(self.classes, len(base_models) * len(self.classes))
        self.spec = spec
        self.base_models = base_models
        self.meta_model = meta_model

    def _meta_matrix(self, X):
        return np.hstack([bm.predict_proba(X) for bm in self.base_models])

    def _score(self, X):
        return self.meta_model.score(self._meta_matrix(X))


def train_stack(memo: StackMemo, spec: StackSpec) -> StackedModel:
    """Meta-learner on the out-of-fold base probabilities of memo.d, seeded
    derive_seed(memo.seed, "meta"); the base models are memo.fit's
    standalone full-data fits. So stacks that share a memo share their base
    fits and blocks, and a stack is the same model in every memo of its
    rows and master seed."""
    meta_model = train_learner(spec.meta.name, build_meta_features(memo, spec),
                               seed=derive_seed(memo.seed, "meta"),
                               params=spec.meta.params_dict())
    base_models = [memo.fit(ls) for ls in spec.base]
    return StackedModel(spec, base_models, meta_model, memo.d.classes, memo.d.arity)
