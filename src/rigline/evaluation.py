"""Confusion-matrix metrics, rank-statistic ROC AUC, and comparison tables.

Summary numbers are instance-weighted averages of the per-class values, so a
table row is a single number even on imbalanced data; per-class values are
always available alongside.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .dataset import Dataset, class_order, csv_text
from .errors import EmptyDatasetError, MissingLabelsError, SingleClassError

MEASURE_ROWS = ("TP Rate", "FP Rate", "Precision", "Recall", "F-Measure", "ROC")
# The EvalReport field and per-class key of each measure, in MEASURE_ROWS order.
MEASURES = ("tp_rate", "fp_rate", "precision", "recall", "f_measure", "roc_auc")


class ConfusionMatrix:
    """K x K counts, rows = actual class, columns = predicted class."""

    def __init__(self, classes, counts):
        self.classes = list(classes)
        self.counts = np.asarray(counts, dtype=int)
        if self.counts.shape != (len(self.classes), len(self.classes)):
            raise ValueError("counts shape does not match class list")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def actual_count(self, cls) -> int:
        return int(self.counts[self.classes.index(cls)].sum())

    def per_class(self, cls):
        """(tp, fp, fn, tn) treating cls as the positive class."""
        i = self.classes.index(cls)
        tp = int(self.counts[i, i])
        fp = int(self.counts[:, i].sum() - tp)
        fn = int(self.counts[i, :].sum() - tp)
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn

    def render(self) -> str:
        width = max(len(c) for c in self.classes) + 2
        head = " " * width + "".join(f"{c:>{width}}" for c in self.classes)
        lines = [head + "   <- predicted"]
        for i, c in enumerate(self.classes):
            row = "".join(f"{int(v):>{width}}" for v in self.counts[i])
            lines.append(f"{c:<{width}}" + row)
        return "\n".join(lines)


def confusion(classes, test: Dataset, picks) -> ConfusionMatrix:
    """Confusion matrix of a labeled test set's classes against picked class
    indices into the model's classes; the matrix covers both the model's and
    the test set's classes."""
    matrix_classes = class_order(set(classes) | set(test.classes))
    K = len(matrix_classes)
    actual = np.array([matrix_classes.index(c) for c in test.classes], dtype=int)[test.codes]
    predicted = np.array([matrix_classes.index(c) for c in classes], dtype=int)[picks]
    counts = np.bincount(actual * K + predicted, minlength=K * K)
    return ConfusionMatrix(matrix_classes, counts.reshape(K, K))


@dataclass
class EvalReport:
    """Instance-weighted summary metrics, the per-class breakdown, and the
    confusion matrix they were computed from."""

    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f_measure: float
    roc_auc: float
    cm: ConfusionMatrix
    per_class: dict = field(default_factory=dict)

    def row_values(self):
        return tuple(getattr(self, key) for key in MEASURES)


def _safe_div(num, den):
    return num / den if den > 0 else 0.0


def metrics(cm: ConfusionMatrix, class_weights=None, aucs=None) -> EvalReport:
    """Per-class rates from the matrix and AUCs from aucs (0 for a class it
    lacks; evaluate() fills it from model scores), each averaged with the
    given weights (defaults to each class's instance fraction)."""
    if class_weights is None:
        class_weights = {
            c: _safe_div(cm.actual_count(c), cm.total) for c in cm.classes
        }
    per_class = {}
    for c in cm.classes:
        tp, fp, fn, tn = cm.per_class(c)
        tp_rate, precision = _safe_div(tp, tp + fn), _safe_div(tp, tp + fp)
        per_class[c] = {
            "tp_rate": tp_rate,
            "fp_rate": _safe_div(fp, fp + tn),
            "precision": precision,
            "recall": tp_rate,
            "f_measure": _safe_div(2 * precision * tp_rate, precision + tp_rate),
            "roc_auc": (aucs or {}).get(c, 0.0),
            "count": tp + fn,
        }

    def weighted(key):
        return sum(class_weights[c] * per_class[c][key] for c in cm.classes)

    return EvalReport(**{key: weighted(key) for key in MEASURES}, cm=cm, per_class=per_class)


def roc_auc(scored) -> float:
    """rank_auc of a sequence of (score, label) pairs with labels +1/-1."""
    pairs = np.fromiter(chain.from_iterable(scored), dtype=float).reshape(-1, 2)
    return rank_auc(pairs[:, 0], pairs[:, 1] > 0)


def rank_auc(scores, positive) -> float:
    """AUC by the rank statistic: P(score+ > score-) + half the tie mass,
    of an array of scores and a mask of the positive rows. Tied scores get
    average ranks, making this the exact Mann-Whitney value.
    """
    n_pos = int(np.count_nonzero(positive))
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs both positive and negative examples")
    # Tied scores share the mean of the 1-based ranks their block spans.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - 0.5 * (counts - 1))[inverse]
    r_pos = float(np.sum(ranks[positive]))
    u = r_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate(m, test: Dataset) -> EvalReport:
    """Full six-measure report from one scoring pass: matrix metrics from the
    model's picks plus per-class-as-positive AUC from its rank scores (0 for a
    class the model lacks or one the test set does not split)."""
    if test.n_rows == 0:
        raise EmptyDatasetError("cannot evaluate on an empty test set")
    if not test.label_presence:
        raise MissingLabelsError("evaluation needs a labeled test set")
    scores = m.score(test.X)
    cm = confusion(m.classes, test, scores.picks)
    aucs = {c: rank_auc(scores.ranks[:, m.classes.index(c)], test.codes == test.classes.index(c))
            if c in m.classes and 0 < cm.actual_count(c) < cm.total else 0.0
            for c in cm.classes}
    return metrics(cm, aucs=aucs)


def compare_table(named_reports) -> str:
    """CSV with one measure per row and one column per (name, report), 3
    decimals, quoted as save_csv quotes (csv_text writes both).

    Entries of (name, None) mark models that failed upstream; their cells
    read ERR so the table stays rectangular.
    """
    columns = [
        ["ERR"] * len(MEASURE_ROWS) if report is None
        else [f"{v:.3f}" for v in report.row_values()]
        for _, report in named_reports
    ]
    rows = [["Measure", *(name for name, _ in named_reports)]]
    return csv_text(rows + [[measure, *(col[r] for col in columns)]
                            for r, measure in enumerate(MEASURE_ROWS)])


def render_detail(name: str, report: EvalReport) -> str:
    """Plain-text block: confusion matrix plus per-class and summary rows."""
    lines = [f"== {name} ==", report.cm.render(), ""]
    header = f"{'class':<12}" + "".join(f"{k:>11}" for k in MEASURE_ROWS)
    lines.append(header)
    for c in report.cm.classes:
        vals = (report.per_class[c][key] for key in MEASURES)
        lines.append(f"{c:<12}" + "".join(f"{v:>11.3f}" for v in vals))
    lines.append(
        f"{'weighted':<12}" + "".join(f"{v:>11.3f}" for v in report.row_values())
    )
    return "\n".join(lines) + "\n"
