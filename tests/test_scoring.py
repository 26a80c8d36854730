"""The one scoring pass: predict, predict_proba and evaluate all read
TrainedModel.score, which checks the input's shape once for every kind of
model and scores each row once."""

import numpy as np
import pytest

from rigline import svm_smo
from rigline.baseline_learners import TrainedModel
from rigline.cli import main
from rigline.dataset import Dataset, SyntheticGenConfig, generate_synthetic
from rigline.errors import ShapeError
from rigline.evaluation import evaluate
from rigline.imbalance import CostSensitiveModel, default_cost_matrix
from rigline.modeldoc import model_from_text, model_to_text
from rigline.stacking import StackMemo, parse_stack_spec, train_learner, train_stack


@pytest.fixture(scope="module")
def data():
    return generate_synthetic(SyntheticGenConfig(row_count=120, failure_fraction=0.25, seed=2))


@pytest.fixture(scope="module")
def models(data):
    cm = default_cost_matrix(data)
    out = {
        name: train_learner(name, data, seed=1, params=params)
        for name, params in [("nb", {}), ("tree", {}), ("rf", {"n_trees": 10}),
                             ("part", {}), ("mlp", {"epochs": 20}), ("smo", {})]
    }
    out["stack"] = train_stack(StackMemo(data, 1), parse_stack_spec("model3"))
    out["cost-smo"] = CostSensitiveModel(out["smo"], cm)
    out["cost-stack"] = CostSensitiveModel(out["stack"], cm)
    return out


def _dataset(X, labels):
    return Dataset([(f"x{j}", "") for j in range(X.shape[1])], X, labels)


@pytest.mark.parametrize("reload", [False, True], ids=["trained", "reloaded"])
@pytest.mark.parametrize("kind", ["smo", "stack", "cost-smo"])
@pytest.mark.parametrize("width", [1, 9])
def test_wrong_arity_is_a_shape_error(data, models, kind, reload, width):
    m = models[kind]
    if reload:
        m = model_from_text(model_to_text(m))
    X = np.zeros((3, width))
    with pytest.raises(ShapeError):
        m.predict(X)
    with pytest.raises(ShapeError):
        m.predict_proba(X)
    with pytest.raises(ShapeError):
        evaluate(m, _dataset(X, data.labels[:3]))


def test_evaluate_rejects_model_of_other_arity(tmp_path, capsys):
    data = tmp_path / "d.csv"
    one = tmp_path / "one.csv"
    model = tmp_path / "smo.txt"
    report = tmp_path / "r.csv"
    main(["generate", "--rows", "80", "--seed", "4", "--out", str(data)])
    assert main(["train", "--data", str(data), "--learner", "smo", "--out", str(model)]) == 0
    with open(data) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    one.write_text("".join(f"{r[0]},{r[-1]}\n" for r in rows))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(one),
                 "--out", str(report)]) == 1
    assert "stage evaluate: model expects 5 features, got 1" in capsys.readouterr().err
    assert not report.exists()


def _count_rows(monkeypatch, owner, name, key=lambda args: None):
    """Wrap owner.name so each call adds its row count under key(args)."""
    fed = {}
    original = getattr(owner, name)

    def counting(*args):
        k = key(args)
        fed[k] = fed.get(k, 0) + np.atleast_2d(args[1]).shape[0]
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return fed


def test_stack_evaluation_scores_each_row_once(data, models, monkeypatch):
    stack = models["stack"]
    base_rows = _count_rows(monkeypatch, TrainedModel, "predict_proba", key=lambda a: id(a[0]))
    margin_rows = _count_rows(monkeypatch, svm_smo, "decision_values")
    evaluate(stack, data)
    for bm in stack.base_models:
        assert base_rows[id(bm)] == data.n_rows
    assert margin_rows == {None: data.n_rows}


def test_cost_wrapped_smo_computes_margins_once(data, models, monkeypatch):
    margin_rows = _count_rows(monkeypatch, svm_smo, "decision_values")
    evaluate(models["cost-smo"], data)
    assert margin_rows == {None: data.n_rows}


@pytest.mark.parametrize("kind", ["nb", "tree", "rf", "part", "mlp", "smo", "stack",
                                  "cost-smo", "cost-stack"])
def test_predict_reads_the_scoring_pass(data, models, kind):
    m = models[kind]
    s = m.score(data.X)
    assert np.array_equal(m.predict(data.X), np.asarray(m.classes)[s.picks])
    assert m.predict(data.X[0]) == m.classes[s.picks[0]]
    assert np.array_equal(m.predict_proba(data.X), s.proba)
    if isinstance(m, CostSensitiveModel):
        # Minimum expected cost, not the most probable class.
        assert np.array_equal(s.picks, np.argmin(s.proba @ m.cm.m, axis=1))
    else:
        # SVM ranks are the margins [f, -f]: their argmax is the sign rule.
        assert np.array_equal(s.picks, np.argmax(s.ranks, axis=1))
