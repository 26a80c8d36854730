import importlib
import pkgutil
import re

import numpy as np
import pytest

import rigline
from rigline.baseline_learners import (
    MlpConfig,
    TrainedModel,
    train_cart,
    train_mlp,
    train_naive_bayes,
    train_random_forest,
    train_rule_list,
)
from rigline.dataset import Standardizer, SyntheticGenConfig, generate_synthetic
from rigline.errors import ParseError, ShapeError
from rigline.imbalance import CostMatrix, CostSensitiveModel
from rigline.labeling_em import GaussianMixtureModel, em_fit
from rigline.modeldoc import _KINDS, load_model, model_from_text, model_to_text, save_model
from rigline.stacking import (
    MODEL_PRESETS,
    LearnerSpec,
    ScaledModel,
    StackMemo,
    StackSpec,
    train_learner,
    train_stack,
)
from rigline.svm_smo import (
    SmoConfig,
    SvmModel,
    calibrate_probability,
    decision_values,
    smo_train,
)


def synth(n=150, seed=0):
    return generate_synthetic(SyntheticGenConfig(row_count=n, seed=seed))


def round_trip(model, tmp_path, name):
    p = tmp_path / f"{name}.txt"
    save_model(model, str(p))
    back = load_model(str(p))
    # A second serialization of the reload must be byte-identical.
    assert model_to_text(back) == model_to_text(model)
    return back


def test_nb_round_trip(tmp_path):
    d = synth(seed=1)
    m = train_naive_bayes(d)
    back = round_trip(m, tmp_path, "nb")
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))
    assert back.classes == m.classes


def test_tree_round_trip(tmp_path):
    d = synth(seed=2)
    m = train_cart(d, max_depth=5)
    back = round_trip(m, tmp_path, "tree")
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))


def test_deep_tree_round_trip_and_cli(tmp_path):
    # Labels alternate along the one feature, so every split cuts off one
    # row: a tree of depth 1,199, deeper than Python's recursion limit.
    from rigline.cli import main
    from rigline.dataset import Dataset, save_csv

    n = 1200
    d = Dataset([("v", "")], np.arange(n, dtype=float).reshape(-1, 1),
                [("a", "b")[i % 2] for i in range(n)])
    m = train_cart(d)
    assert m.depth() == n - 1
    text = model_to_text(m)
    back = model_from_text(text)
    assert model_to_text(back) == text
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))
    data, model = tmp_path / "d.csv", tmp_path / "m.txt"
    save_csv(d, str(data))
    assert main(["train", "--data", str(data), "--learner", "tree", "--out", str(model)]) == 0
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert load_model(str(model)).depth() == n - 1


def test_forest_round_trip(tmp_path):
    d = synth(seed=3)
    m = train_random_forest(d, n_trees=7, seed=4, max_depth=4)
    back = round_trip(m, tmp_path, "rf")
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))


def test_rule_list_round_trip(tmp_path):
    d = synth(seed=5)
    m = train_rule_list(d)
    back = round_trip(m, tmp_path, "part")
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))
    assert [r.conditions for r in back.rules] == [r.conditions for r in m.rules]


def test_mlp_round_trip(tmp_path):
    d = synth(seed=6)
    m = train_mlp(d, MlpConfig(epochs=10, seed=1))
    back = round_trip(m, tmp_path, "mlp")
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))


def test_svm_round_trip(tmp_path):
    d = synth(seed=7)
    m = smo_train(d, SmoConfig(C=1.0))
    back = round_trip(m, tmp_path, "svm")
    assert np.array_equal(decision_values(back, d.X), decision_values(m, d.X))
    assert back.b == m.b
    assert back.dual_objective == m.dual_objective
    assert np.array_equal(back.sv_indices, m.sv_indices)
    assert back.converged == m.converged


def test_calibrated_svm_round_trip(tmp_path):
    d = synth(seed=8)
    cfg = SmoConfig(C=1.0)
    m = smo_train(d, cfg)
    cal = calibrate_probability(m, d, cfg)
    back = round_trip(cal, tmp_path, "svm_cal")
    assert np.array_equal(back.predict_proba(d.X), cal.predict_proba(d.X))
    assert back.A == cal.A and back.B == cal.B


def test_scaled_smo_round_trip(tmp_path):
    d = synth(seed=9)
    m = train_learner("smo", d, seed=0)
    back = round_trip(m, tmp_path, "scaled")
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))
    assert list(back.predict(d.X)) == list(m.predict(d.X))


def test_costwrap_round_trip(tmp_path):
    d = synth(seed=10)
    m = CostSensitiveModel(train_naive_bayes(d), CostMatrix([[0, 1], [6.7, 0]]))
    back = round_trip(m, tmp_path, "costwrap")
    assert list(back.predict(d.X)) == list(m.predict(d.X))
    assert np.array_equal(back.cm.m, m.cm.m)


def test_stack_round_trip(tmp_path):
    d = synth(n=250, seed=11)
    spec = StackSpec(
        base=(LearnerSpec("nb"), LearnerSpec("tree", (("max_depth", 3),))),
        folds=3,
    )
    m = train_stack(StackMemo(d, 7), spec)
    back = round_trip(m, tmp_path, "stack")
    assert np.array_equal(back.predict_proba(d.X), m.predict_proba(d.X))
    assert back.spec == m.spec


def test_train_stack_document_holds_no_seed(tmp_path):
    # The master seed is the manifest's alone: a stack document written by
    # `train --stack` has no seed line, and one that has it does not load.
    from rigline.cli import main
    from rigline.dataset import load_csv

    data, path = tmp_path / "d.csv", tmp_path / "m.txt"
    assert main(["generate", "--rows", "120", "--seed", "3", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--stack", "model2", "--seed", "7",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert not any(ln.startswith("seed") for ln in lines)
    d = load_csv(str(data))
    m = StackMemo(d, 7).model("model2")
    assert np.array_equal(load_model(str(path)).predict_proba(d.X), m.predict_proba(d.X))
    i = next(i for i, ln in enumerate(lines) if ln.startswith("folds ")) + 1
    with pytest.raises(ParseError, match="expected 'meta_spec', got 'seed 7'"):
        model_from_text("\n".join(lines[:i] + ["seed 7"] + lines[i:]))


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        model_from_text("model quantum\nclasses []\n")


def test_truncated_document_rejected():
    d = synth(seed=12)
    text = model_to_text(train_naive_bayes(d))
    with pytest.raises(ParseError):
        model_from_text("\n".join(text.splitlines()[:3]))


def _corrupt_first(text, prefix, edit):
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = edit(lines[i])
    return "\n".join(lines) + "\n"


def _drop_last_triple(line):
    return " ".join(line.split()[:-3])


def _set_field(i, value):
    def edit(line):
        parts = line.split()
        parts[i] = value
        return " ".join(parts)

    return edit


# Fields: "rule <count> <feature> <op> <threshold> ..." and
# "node split <feature> <threshold>"; the synthetic tables have arity 5.
@pytest.mark.parametrize("learner, prefix, edit, message", [
    pytest.param("part", "rule ", _set_field(3, "xx"), "unknown condition op 'xx'",
                 id="rule-op"),
    pytest.param("part", "rule ", _drop_last_triple, "conditions", id="rule-short"),
    pytest.param("part", "rule ", _set_field(2, "5"), "feature 5 outside arity 5",
                 id="rule-feature"),
    pytest.param("tree", "node split ", _set_field(2, "7"), "feature 7 outside arity 5",
                 id="node-feature"),
])
def test_corrupt_tree_and_rule_lines_rejected_at_load(tmp_path, capsys, learner, prefix,
                                                      edit, message):
    from rigline.cli import main
    from rigline.dataset import save_csv

    d = synth(seed=13)
    m = train_rule_list(d) if learner == "part" else train_cart(d)
    bad = _corrupt_first(model_to_text(m), prefix, edit)
    path = tmp_path / "bad.txt"
    path.write_text(bad)
    with pytest.raises(ParseError, match=message) as err:
        load_model(str(path))
    # The error quotes the offending line.
    assert prefix.strip() in str(err.value)
    data = tmp_path / "d.csv"
    save_csv(d, str(data))
    assert main(["evaluate", "--model", str(path), "--data", str(data),
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert "stage load" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def _doc_of(kind):
    d = synth(n=80, seed=14)
    if kind.startswith("gmm"):
        gmm = em_fit(d.without_labels(), 2, seed=1, max_iter=4)
        if kind == "gmm-no-trace":
            gmm = GaussianMixtureModel(gmm.weights, gmm.means, gmm.variances)
        return model_to_text(gmm)
    if kind == "model3":
        return model_to_text(train_stack(StackMemo(d, 0), MODEL_PRESETS["model3"]))
    if kind == "costwrap":
        return model_to_text(CostSensitiveModel(train_cart(d, max_depth=2),
                                                CostMatrix([[0, 1], [4, 0]])))
    name, _, kernel = kind.partition("-")
    params = {"kernel": kernel} if kernel else {}
    if name == "rf":
        params = {"n_trees": 3, "max_depth": 2}
    return model_to_text(train_learner(name, d, seed=0, params=params))


KINDS = ["nb", "tree", "rf", "part", "mlp", "smo-linear", "smo-rbf", "model3", "costwrap",
         "gmm", "gmm-no-trace"]


@pytest.fixture(scope="module")
def docs():
    return {kind: _doc_of(kind) for kind in KINDS}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_is_strict(docs, kind):
    text = docs[kind]
    assert model_to_text(model_from_text(text)) == text
    lines = text.splitlines()
    # Only the mixture's closing trace line is optional.
    required = len(lines) - (kind == "gmm")
    for n in range(required):
        with pytest.raises(ParseError):
            model_from_text("\n".join(lines[:n]))
    with pytest.raises(ParseError, match="after the model"):
        model_from_text(text + lines[-1] + "\n")
    garbled = {"priors": "priors x", "weights": "weights x", "classes": "classes [",
               "arity": "arity x"}
    hits = 0
    for key, bad in garbled.items():
        i = next((i for i, ln in enumerate(lines) if ln.startswith(key + " ")), None)
        if i is None:
            continue
        hits += 1
        with pytest.raises(ParseError) as err:
            model_from_text("\n".join(lines[:i] + [bad] + lines[i + 1 :]))
        assert repr(bad) in str(err.value)
    assert hits > 0


@pytest.mark.parametrize("old, new", [("components 2", "components 3"),
                                      ("dim 5", "dim 4")])
def test_gmm_sizes_must_match_vectors(docs, old, new):
    assert old in docs["gmm"]
    with pytest.raises(ParseError):
        model_from_text(docs["gmm"].replace(old, new, 1))


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_costwrap_costs_must_be_finite(docs, bad):
    assert "costs1 4.0 0.0" in docs["costwrap"]
    with pytest.raises(ParseError, match="costs must be finite"):
        model_from_text(docs["costwrap"].replace("costs1 4.0", f"costs1 {bad}", 1))


def test_stack_base_classes_must_match_the_stack(docs):
    lines = docs["model3"].splitlines()
    # The stack's classes line comes first, then its first base model's.
    i = [k for k, ln in enumerate(lines) if ln.startswith("classes ")][1]
    assert lines[i] == 'classes ["normal", "failure"]'
    lines[i] = 'classes ["failure", "normal"]'
    with pytest.raises(ParseError, match="inconsistent stack model"):
        model_from_text("\n".join(lines))


def test_forest_nested_in_a_forest_rejected(docs):
    # A tree is the one-tree forest, but a forest is not a tree: the first
    # tree of a forest document replaced by a whole forest does not load.
    lines = docs["rf"].splitlines()
    i, j = lines.index("begin_model"), lines.index("end_model")
    with pytest.raises(ParseError, match="a rf model cannot appear here"):
        model_from_text("\n".join(lines[:i + 1] + lines + lines[j:]))


def _trees_edited(rf_doc, edit):
    """The forest document with edit applied to each line of its trees."""
    lines = rf_doc.splitlines()
    i = lines.index("begin_model")
    return "\n".join(lines[:i] + [edit(ln) for ln in lines[i:]])


@pytest.mark.parametrize("edit", [
    # Three classes, with three counts in every leaf.
    pytest.param(lambda ln: 'classes ["a", "b", "c"]' if ln.startswith("classes ")
                 else ln + " 0.0" if ln.startswith("node leaf ") else ln, id="classes"),
    # Nine features, every split on the eighth.
    pytest.param(lambda ln: "arity 9" if ln.startswith("arity ")
                 else re.sub(r"^node split \d+ ", "node split 7 ", ln), id="arity"),
])
def test_forest_trees_must_fit_the_forest(docs, edit):
    # Trees that agree with each other but not with the forest.
    bad = _trees_edited(docs["rf"], edit)
    assert bad != docs["rf"]
    with pytest.raises(ParseError, match="inconsistent rf model"):
        model_from_text(bad)


def test_stack_meta_classes_must_match_the_stack(docs):
    lines = docs["model3"].splitlines()
    # The last classes line is the meta model's SVM's.
    i = [k for k, ln in enumerate(lines) if ln.startswith("classes ")][-1]
    assert lines[i] == 'classes ["normal", "failure"]'
    lines[i] = 'classes ["failure", "normal"]'
    with pytest.raises(ParseError, match="inconsistent stack model"):
        model_from_text("\n".join(lines))


def test_scaled_model_inner_must_fit_the_scaler():
    d = synth(seed=3)
    with pytest.raises(ShapeError, match="arity 5.*arity 3"):
        ScaledModel(train_naive_bayes(d), Standardizer().fit(d.X[:, :3]))


def test_every_model_class_has_a_layout():
    for info in pkgutil.iter_modules(rigline.__path__):
        importlib.import_module(f"rigline.{info.name}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = {c for c in subclasses(TrainedModel) if c.__module__.startswith("rigline.")}
    classes |= {SvmModel, GaussianMixtureModel}
    assert classes - {cls for cls, _ in _KINDS.values()} == set()
