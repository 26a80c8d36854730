import numpy as np
import pytest

from rigline.baseline_learners import TrainedModel, train_naive_bayes
from rigline.dataset import (
    CLASS_FAILURE,
    CLASS_NORMAL,
    SyntheticGenConfig,
    class_order,
    generate_synthetic,
    split_train_test,
)
from rigline.errors import ConfigError, ShapeError
from rigline.modeldoc import model_to_text
from rigline.stacking import (
    MODEL_PRESETS,
    LearnerSpec,
    StackedModel,
    StackMemo,
    StackSpec,
    build_meta_features,
    parse_stack_spec,
    register_learner,
    train_learner,
    train_stack,
)


def synth(n=400, seed=0):
    return generate_synthetic(SyntheticGenConfig(row_count=n, seed=seed))


class TruthLookupModel(TrainedModel):
    """Emits probability 1 for the true class, looked up by feature bytes."""

    learner = "truth"

    def __init__(self, classes, table):
        super().__init__(classes)
        self.table = table

    def _proba_matrix(self, X):
        P = np.zeros((X.shape[0], len(self.classes)))
        for i, row in enumerate(X):
            P[i, self.classes.index(self.table[row.tobytes()])] = 1.0
        return P


class RecordingModel(TrainedModel):
    """Remembers its training rows and flags any overlap at predict time."""

    learner = "recorder"

    def __init__(self, classes, seen):
        super().__init__(classes)
        self.seen = seen
        self.overlap = 0

    def _proba_matrix(self, X):
        for row in X:
            if row.tobytes() in self.seen:
                self.overlap += 1
        return np.full((X.shape[0], len(self.classes)), 1.0 / len(self.classes))


def test_presets_match_published_compositions():
    def names(spec):
        return [ls.name for ls in spec.base]

    assert names(MODEL_PRESETS["model1"]) == ["tree", "mlp"]
    assert names(MODEL_PRESETS["model2"]) == ["rf", "nb"]
    assert names(MODEL_PRESETS["model3"]) == ["part", "mlp", "nb"]
    assert names(MODEL_PRESETS["model4"]) == ["rf", "part"]
    assert names(MODEL_PRESETS["model5"]) == ["rf", "nb", "mlp"]
    for spec in MODEL_PRESETS.values():
        assert spec.meta.name == "smo"
        assert spec.folds == 5


def test_parse_stack_spec_forms():
    spec = parse_stack_spec("stack:meta=smo;base=part,mlp,nb;folds=5")
    assert [ls.name for ls in spec.base] == ["part", "mlp", "nb"]
    assert spec.meta.name == "smo"
    assert spec.folds == 5
    assert parse_stack_spec("model3") is MODEL_PRESETS["model3"]
    with pytest.raises(ConfigError):
        parse_stack_spec("model9")
    with pytest.raises(ConfigError):
        parse_stack_spec("stack:meta=smo")
    with pytest.raises(ConfigError):
        parse_stack_spec("stack:bogus=1;base=nb")


def test_parse_stack_spec_reads_the_registry_when_called():
    with pytest.raises(ConfigError, match="unknown learner 'fake'"):
        parse_stack_spec("stack:base=nb,fake")
    register_learner("fake", lambda d, seed, params: train_naive_bayes(d))
    try:
        spec = parse_stack_spec("stack:meta=fake;base=nb,fake;folds=3")
        assert [ls.name for ls in spec.base] == ["nb", "fake"]
        assert spec.meta.name == "fake" and spec.folds == 3
    finally:
        from rigline.stacking import LEARNERS

        LEARNERS.pop("fake", None)
    with pytest.raises(ConfigError, match="bad value for folds: 'x'"):
        parse_stack_spec("stack:base=nb;folds=x")


def test_stack_spec_validation():
    with pytest.raises(ConfigError):
        StackSpec(base=())
    with pytest.raises(ConfigError):
        StackSpec(base=(LearnerSpec("nb"),), folds=1)


def test_meta_feature_shape_and_labels():
    d = synth(300, seed=1)
    spec = StackSpec(base=(LearnerSpec("nb"), LearnerSpec("tree")), folds=5)
    meta = build_meta_features(StackMemo(d, 2), spec)
    assert meta.n_rows == d.n_rows
    assert meta.arity == 2 * 2  # two learners x two classes
    assert np.array_equal(meta.labels, d.labels)
    assert meta.feature_names()[0].startswith("b0_nb_p_")
    # Probability blocks each sum to 1.
    assert np.allclose(meta.X[:, 0] + meta.X[:, 1], 1.0)
    assert np.allclose(meta.X[:, 2] + meta.X[:, 3], 1.0)


def test_meta_features_from_truth_oracle_separate_classes():
    d = synth(200, seed=3)
    table = {d.X[i].tobytes(): str(d.labels[i]) for i in range(d.n_rows)}

    def train_truth(sub, seed, params):
        return TruthLookupModel(class_order(d.labels), table)

    register_learner("truth_oracle", train_truth)
    try:
        spec = StackSpec(base=(LearnerSpec("truth_oracle"),), folds=5)
        meta = build_meta_features(StackMemo(d, 0), spec)
        p_normal = meta.X[:, 0]
        assert np.all(p_normal[meta.labels == CLASS_NORMAL] == 1.0)
        assert np.all(p_normal[meta.labels == CLASS_FAILURE] == 0.0)
    finally:
        from rigline.stacking import LEARNERS

        del LEARNERS["truth_oracle"]


def test_out_of_fold_discipline_no_leakage():
    d = synth(250, seed=4)
    recorders = []

    def train_recorder(sub, seed, params):
        model = RecordingModel(
            class_order(sub.labels), {row.tobytes() for row in sub.X}
        )
        recorders.append(model)
        return model

    register_learner("recorder", train_recorder)
    try:
        spec = StackSpec(base=(LearnerSpec("recorder"),), folds=5)
        build_meta_features(StackMemo(d, 5), spec)
        assert len(recorders) == 5
        assert all(r.overlap == 0 for r in recorders)
    finally:
        from rigline.stacking import LEARNERS

        del LEARNERS["recorder"]


def test_fold_reduction_warning_small_minority():
    d = synth(40, seed=6)  # about 5 failure rows
    n_fail = int(np.sum(d.labels == CLASS_FAILURE))
    spec = StackSpec(base=(LearnerSpec("nb"),), folds=n_fail + 2)
    with pytest.warns(UserWarning):
        meta = build_meta_features(StackMemo(d, 0), spec)
    assert meta.n_rows == d.n_rows


def test_train_stack_determinism():
    d = synth(250, seed=7)
    spec = StackSpec(
        base=(LearnerSpec("nb"), LearnerSpec("tree", (("max_depth", 3),))),
        folds=3,
    )
    a = train_stack(StackMemo(d, 11), spec)
    b = train_stack(StackMemo(d, 11), spec)
    X = d.X[:40]
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_stack_predictions_are_probabilities():
    d = synth(300, seed=8)
    spec = StackSpec(base=(LearnerSpec("nb"), LearnerSpec("tree")), folds=3)
    m = train_stack(StackMemo(d, 1), spec)
    P = m.predict_proba(d.X[:25])
    assert P.shape == (25, 2)
    assert np.all(P >= 0) and np.all(P <= 1)
    assert np.allclose(P.sum(axis=1), 1.0)
    one = m.predict_proba(d.X[0])
    assert one.shape == (2,)
    assert np.allclose(one.sum(), 1.0)
    preds = m.predict(d.X[:25])
    assert set(preds) <= {CLASS_NORMAL, CLASS_FAILURE}


def test_stack_arity_mismatch():
    d = synth(120, seed=9)
    spec = StackSpec(base=(LearnerSpec("nb"),), folds=3)
    m = train_stack(StackMemo(d, 0), spec)
    with pytest.raises(ShapeError):
        m.predict_proba(np.zeros((3, 9)))


def test_base_models_must_share_the_stack_classes():
    d = synth(120, seed=9)
    classes = class_order(d.labels)

    def flipped(d, seed, params):
        return TruthLookupModel(classes[::-1], {})

    nb = train_naive_bayes(d)
    with pytest.raises(ShapeError, match="classes"):
        StackedModel(StackSpec(base=(LearnerSpec("flipped"),)), [flipped(d, 0, {})], nb,
                     classes, d.arity)
    register_learner("flipped", flipped)
    try:
        with pytest.raises(ShapeError, match="classes"):
            build_meta_features(StackMemo(d, 0), StackSpec(base=(LearnerSpec("flipped"),),
                                                           folds=3))
    finally:
        from rigline.stacking import LEARNERS

        LEARNERS.pop("flipped", None)


def test_duplicated_base_learner_duplicates_blocks():
    d = synth(200, seed=10)
    spec = StackSpec(base=(LearnerSpec("nb"), LearnerSpec("nb")), folds=3)
    m = train_stack(StackMemo(d, 2), spec)
    meta_row = m._meta_matrix(d.X[:10])
    assert np.allclose(meta_row[:, :2], meta_row[:, 2:])


def test_degenerate_stack_close_to_base_alone():
    full = synth(700, seed=11)
    train, test = split_train_test(full, 0.66, seed=1)
    base = train_naive_bayes(train)
    base_acc = float(np.mean(base.predict(test.X) == test.labels))
    spec = StackSpec(base=(LearnerSpec("nb"),), folds=5)
    stack = train_stack(StackMemo(train, 3), spec)
    stack_acc = float(np.mean(stack.predict(test.X) == test.labels))
    assert abs(stack_acc - base_acc) <= 0.02


def test_train_learner_unknown_name():
    d = synth(60, seed=12)
    with pytest.raises(ConfigError):
        train_learner("boosting", d)


def test_smo_learner_wrapper_scales_and_calibrates():
    d = synth(200, seed=13)
    m = train_learner("smo", d, seed=0, params={"C": 1.0})
    P = m.predict_proba(d.X)
    assert P.shape == (200, 2)
    assert np.allclose(P.sum(axis=1), 1.0)
    acc = float(np.mean(m.predict(d.X) == d.labels))
    assert acc > 0.9


# Stacks that share a base learner; the last two differ only in the tree's
# params, so a memo keyed without them would hand one tree's block to both.
SHARED_BASE_SPECS = {
    **MODEL_PRESETS,
    "tree3-nb": StackSpec(base=(LearnerSpec("tree", (("max_depth", 3),)), LearnerSpec("nb"))),
    "tree-nb": StackSpec(base=(LearnerSpec("tree"), LearnerSpec("nb"))),
}


@pytest.fixture(scope="module")
def stacks_alone():
    """Each spec of SHARED_BASE_SPECS trained under master seed 5 in a memo of
    its own."""
    d = synth(120, seed=14)
    alone = {name: model_to_text(train_stack(StackMemo(d, 5), spec))
             for name, spec in SHARED_BASE_SPECS.items()}
    return d, alone


@pytest.mark.parametrize("first, second", [
    ("model2", "model5"), ("model1", "model3"), ("model1", "model5"), ("model2", "model3"),
    ("model2", "model4"), ("model3", "model4"), ("model3", "model5"), ("model4", "model5"),
    ("tree3-nb", "tree-nb"), ("tree-nb", "tree3-nb"),
])
def test_a_filled_memo_changes_no_stack(stacks_alone, first, second):
    d, alone = stacks_alone
    memo = StackMemo(d, 5)
    train_stack(memo, SHARED_BASE_SPECS[first])
    spec = SHARED_BASE_SPECS[second]
    assert {(ls, spec.folds) for ls in spec.base} & set(memo.blocks)  # a filled block is read
    shared = train_stack(memo, spec)
    assert model_to_text(shared) == alone[second]


def test_stacks_that_differ_in_base_params_differ(stacks_alone):
    _, alone = stacks_alone
    assert alone["tree3-nb"] != alone["tree-nb"]


def test_memo_model_is_the_one_fit_of_each_learner():
    d = synth(120, seed=16)
    memo = StackMemo(d, 4)
    assert memo.model("nb") is memo.fit(LearnerSpec("nb"))
    stack = memo.model("model2")
    assert stack.spec is MODEL_PRESETS["model2"]
    assert stack.base_models[0] is memo.model("rf")
    assert stack.base_models[1] is memo.model("nb")
