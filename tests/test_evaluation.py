import csv
import io

import numpy as np
import pytest

from rigline.baseline_learners import Scores, TrainedModel, train_naive_bayes
from rigline.dataset import (
    CLASS_FAILURE,
    CLASS_NORMAL,
    Dataset,
    SyntheticGenConfig,
    generate_synthetic,
)
from rigline.errors import EmptyDatasetError, SingleClassError
from rigline.evaluation import (
    MEASURE_ROWS,
    ConfusionMatrix,
    compare_table,
    confusion,
    evaluate,
    metrics,
    render_detail,
    roc_auc,
)


class ConstantModel(TrainedModel):
    """Always predicts the first class with probability p."""

    learner = "const"

    def __init__(self, classes, p=0.9):
        super().__init__(classes)
        self.p = p

    def _proba_matrix(self, X):
        return np.tile([self.p, 1 - self.p], (X.shape[0], 1))


class OracleModel(TrainedModel):
    """Cheating model used to construct perfect or known-quality predictions."""

    learner = "oracle"

    def __init__(self, classes, truth, scores):
        super().__init__(classes)
        self.truth = list(truth)
        self.scores = np.asarray(scores, dtype=float)
        self._cursor = 0

    def _proba_matrix(self, X):
        # Scores are positional: X must be the full test matrix.
        p = self.scores[: X.shape[0]]
        return np.column_stack([p, 1 - p])

    def _score(self, X):
        P = self._proba_matrix(X)
        picks = np.array([self.classes.index(t) for t in self.truth[: X.shape[0]]])
        return Scores(P, P, picks)


def brute_force_auc(scores, labels):
    wins = ties = 0
    pos = [s for s, l in zip(scores, labels) if l > 0]
    neg = [s for s, l in zip(scores, labels) if l < 0]
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def small_labeled(n=200, seed=0):
    return generate_synthetic(SyntheticGenConfig(row_count=n, seed=seed))


# ---------------------------------------------------------------------------
# Confusion matrix

def test_confusion_counts_sum_and_perfect_model():
    d = small_labeled(150, seed=1)
    m = OracleModel([CLASS_NORMAL, CLASS_FAILURE], d.labels, np.zeros(150))
    cm = confusion(m.classes, d, m.score(d.X).picks)
    assert cm.total == 150
    for c in cm.classes:
        tp, fp, fn, tn = cm.per_class(c)
        assert fp == 0 and fn == 0
        assert tp + tn == 150


def test_confusion_constant_predictor_imbalanced():
    d = small_labeled(1000, seed=2)  # 870/130
    m = ConstantModel([CLASS_NORMAL, CLASS_FAILURE])
    cm = confusion(m.classes, d, m.score(d.X).picks)
    report = metrics(cm)
    assert report.tp_rate == pytest.approx(0.87)
    assert report.per_class[CLASS_NORMAL]["tp_rate"] == 1.0
    assert report.per_class[CLASS_FAILURE]["tp_rate"] == 0.0


def test_confusion_empty_test_set():
    d = small_labeled(10, seed=3)
    empty = d.subset([])
    m = ConstantModel([CLASS_NORMAL, CLASS_FAILURE])
    with pytest.raises(EmptyDatasetError):
        evaluate(m, empty)


# ---------------------------------------------------------------------------
# Metrics

def test_metrics_hand_computed_cell():
    # One class with TP=8, FP=2, FN=1 against a 20-instance backdrop.
    counts = np.array([[8, 1], [2, 9]])
    cm = ConfusionMatrix(["a", "b"], counts)
    report = metrics(cm)
    pc = report.per_class["a"]
    assert pc["precision"] == pytest.approx(0.8)
    assert pc["recall"] == pytest.approx(8 / 9)
    assert pc["f_measure"] == pytest.approx(2 * 0.8 * (8 / 9) / (0.8 + 8 / 9))


def test_metrics_weighted_average_and_recall_equals_tp_rate():
    counts = np.array([[87, 0], [13, 0]])  # constant majority predictor
    cm = ConfusionMatrix(["n", "f"], counts)
    report = metrics(cm)
    assert report.tp_rate == pytest.approx(0.87)
    assert report.recall == report.tp_rate
    # Explicit weights override the instance fractions.
    half = metrics(cm, class_weights={"n": 0.5, "f": 0.5})
    assert half.tp_rate == pytest.approx(0.5)


def test_metrics_all_wrong_matrix():
    counts = np.array([[0, 5], [7, 0]])
    report = metrics(ConfusionMatrix(["a", "b"], counts))
    assert report.precision == 0.0
    assert report.recall == 0.0


def test_metrics_perfect_matrix():
    counts = np.array([[5, 0], [0, 7]])
    report = metrics(ConfusionMatrix(["a", "b"], counts))
    assert report.tp_rate == 1.0
    assert report.fp_rate == 0.0
    assert report.precision == 1.0
    assert report.f_measure == 1.0


# ---------------------------------------------------------------------------
# ROC AUC

def test_auc_hand_cases():
    assert roc_auc([(0.9, 1), (0.8, 1), (0.4, -1), (0.3, -1)]) == 1.0
    assert roc_auc([(0.9, 1), (0.4, 1), (0.8, -1), (0.3, -1)]) == 0.75
    assert roc_auc([(0.5, 1), (0.5, -1), (0.5, 1), (0.5, -1)]) == 0.5


def test_auc_matches_brute_force_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 100))
        labels = rng.choice([1, -1], size=n)
        if len(set(labels)) < 2:
            labels[0] = 1
            labels[1] = -1
        # Quantized scores force plenty of ties.
        scores = np.round(rng.uniform(0, 1, size=n), 1)
        got = roc_auc(zip(scores, labels))
        want = brute_force_auc(scores, labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=60)
    labels = rng.choice([1, -1], size=60)
    labels[0], labels[1] = 1, -1
    base = roc_auc(zip(scores, labels))
    squashed = roc_auc(zip(1 / (1 + np.exp(-3 * scores + 1)), labels))
    assert squashed == pytest.approx(base, abs=1e-12)


def test_auc_single_class_error():
    with pytest.raises(SingleClassError):
        roc_auc([(0.3, 1), (0.5, 1)])


# ---------------------------------------------------------------------------
# evaluate / compare_table

def test_evaluate_perfect_model_all_ones():
    d = small_labeled(120, seed=6)
    scores = np.where(d.labels == CLASS_NORMAL, 0.9, 0.1)
    m = OracleModel([CLASS_NORMAL, CLASS_FAILURE], d.labels, scores)
    report = evaluate(m, d)
    assert report.row_values() == (1.0, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_evaluate_real_model_and_auc_agreement():
    d = small_labeled(300, seed=7)
    m = train_naive_bayes(d)
    report = evaluate(m, d)
    assert 0.0 <= report.fp_rate <= report.tp_rate <= 1.0
    P = m.predict_proba(d.X)
    want = brute_force_auc(P[:, 0], np.where(d.labels == CLASS_NORMAL, 1, -1))
    assert report.per_class[CLASS_NORMAL]["roc_auc"] == pytest.approx(want, abs=1e-12)
    # Two-class AUC is symmetric, so the weighted value equals each side.
    assert report.roc_auc == pytest.approx(want, abs=1e-12)


def test_compare_table_shape_order_and_round_trip():
    d = small_labeled(200, seed=8)
    nb = train_naive_bayes(d)
    const = ConstantModel([CLASS_NORMAL, CLASS_FAILURE])
    report = evaluate(nb, d)
    text = compare_table([("nb", report), ("const", evaluate(const, d))])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["Measure", "nb", "const"]
    assert [r[0] for r in rows[1:]] == list(MEASURE_ROWS)
    # Re-parsing reproduces the in-memory values at three decimals.
    for row, value in zip(rows[1:], report.row_values()):
        assert row[1] == f"{value:.3f}"


def test_compare_table_err_marker():
    d = small_labeled(100, seed=9)
    nb = train_naive_bayes(d)
    text = compare_table([("nb", evaluate(nb, d)), ("broken", None)])
    rows = list(csv.reader(io.StringIO(text)))
    assert all(r[2] == "ERR" for r in rows[1:])
    assert all(r[1] != "ERR" for r in rows[1:])


def test_render_detail_contains_matrix_and_rows():
    d = small_labeled(150, seed=10)
    nb = train_naive_bayes(d)
    report = evaluate(nb, d)
    # The report carries the matrix of the same predictions.
    picks = nb.score(d.X).picks
    assert np.array_equal(report.cm.counts, confusion(nb.classes, d, picks).counts)
    text = render_detail("nb", report)
    assert "== nb ==" in text
    assert CLASS_NORMAL in text and CLASS_FAILURE in text
    assert "weighted" in text
    assert report.cm.render() in text
