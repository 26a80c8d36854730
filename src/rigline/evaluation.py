"""Confusion-matrix metrics, rank-statistic ROC AUC, and comparison tables.

Summary numbers are instance-weighted averages of the per-class values, so a
table row is a single number even on imbalanced data; per-class values are
always available alongside.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, class_order
from .errors import EmptyDatasetError, MissingLabelsError, SingleClassError

MEASURE_ROWS = ("TP Rate", "FP Rate", "Precision", "Recall", "F-Measure", "ROC")


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


def confusion(m, test: Dataset) -> ConfusionMatrix:
    """Confusion matrix of the model's predictions on a labeled test set."""
    if test.n_rows == 0:
        raise EmptyDatasetError("cannot evaluate on an empty test set")
    if not test.label_presence:
        raise MissingLabelsError("evaluation needs a labeled test set")
    classes = class_order(set(m.classes) | set(test.labels))
    index = {c: i for i, c in enumerate(classes)}
    preds = m.predict(test.X)
    counts = np.zeros((len(classes), len(classes)), dtype=int)
    for actual, pred in zip(test.labels, preds):
        counts[index[str(actual)], index[str(pred)]] += 1
    return ConfusionMatrix(classes, counts)


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
        return (
            self.tp_rate,
            self.fp_rate,
            self.precision,
            self.recall,
            self.f_measure,
            self.roc_auc,
        )


def _safe_div(num, den):
    return num / den if den > 0 else 0.0


def metrics(cm: ConfusionMatrix, class_weights=None) -> EvalReport:
    """Per-class rates from the matrix, averaged with the given weights
    (defaults to each class's instance fraction). AUC is left at 0 here;
    evaluate() fills it from model scores."""
    if class_weights is None:
        class_weights = {
            c: _safe_div(cm.actual_count(c), cm.total) for c in cm.classes
        }
    per_class = {}
    for c in cm.classes:
        tp, fp, fn, tn = cm.per_class(c)
        tp_rate = _safe_div(tp, tp + fn)
        per_class[c] = {
            "tp_rate": tp_rate,
            "fp_rate": _safe_div(fp, fp + tn),
            "precision": _safe_div(tp, tp + fp),
            "recall": tp_rate,
            "f_measure": _safe_div(
                2 * _safe_div(tp, tp + fp) * tp_rate,
                _safe_div(tp, tp + fp) + tp_rate,
            ),
            "roc_auc": 0.0,
            "count": tp + fn,
        }

    def weighted(key):
        return sum(class_weights[c] * per_class[c][key] for c in cm.classes)

    return EvalReport(
        tp_rate=weighted("tp_rate"),
        fp_rate=weighted("fp_rate"),
        precision=weighted("precision"),
        recall=weighted("recall"),
        f_measure=weighted("f_measure"),
        roc_auc=0.0,
        cm=cm,
        per_class=per_class,
    )


def roc_auc(scored) -> float:
    """AUC by the rank statistic: P(score+ > score-) + half the tie mass.

    scored is a sequence of (score, label) with labels +1/-1. Tied scores get
    average ranks, making this the exact Mann-Whitney value.
    """
    scored = list(scored)
    scores = np.array([s for s, _ in scored], dtype=float)
    labels = np.array([l for _, l in scored])
    n_pos = int(np.sum(labels > 0))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs both positive and negative examples")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r_pos = float(np.sum(ranks[labels > 0]))
    u = r_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def rank_score_matrix(m, X) -> np.ndarray:
    """Per-class score columns for rank metrics, aligned with m.classes.

    Margin-based models expose ranking_scores: an order-true channel that a
    saturating probability map would collapse (distinct margins rounding to
    the same float probability). Everything else is ranked by its class
    probabilities; any strictly monotone rescaling leaves AUC unchanged.
    """
    fn = getattr(m, "ranking_scores", None)
    if callable(fn):
        return np.atleast_2d(np.asarray(fn(X), dtype=float))
    P = m.predict_proba(X)
    return P.reshape(1, -1) if P.ndim == 1 else P


def evaluate(m, test: Dataset) -> EvalReport:
    """Full six-measure report: matrix metrics plus per-class-as-positive AUC
    from the model's rank scores, all instance-weighted."""
    cm = confusion(m, test)
    report = metrics(cm)
    P = rank_score_matrix(m, test.X)
    auc_weighted = 0.0
    for c in cm.classes:
        frac = _safe_div(cm.actual_count(c), cm.total)
        if c in m.classes and 0 < cm.actual_count(c) < cm.total:
            col = m.classes.index(c)
            scored = zip(P[:, col], np.where(test.labels == c, 1, -1))
            auc = roc_auc(scored)
        else:
            auc = 0.0
        report.per_class[c]["roc_auc"] = auc
        auc_weighted += frac * auc
    report.roc_auc = auc_weighted
    return report


def compare_table(named_reports) -> str:
    """CSV with one measure per row and one column per (name, report), 3
    decimals.

    Entries of (name, None) mark models that failed upstream; their cells
    read ERR so the table stays rectangular.
    """
    columns = [
        ["ERR"] * len(MEASURE_ROWS) if report is None
        else [f"{v:.3f}" for v in report.row_values()]
        for _, report in named_reports
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Measure"] + [name for name, _ in named_reports])
    for r, measure in enumerate(MEASURE_ROWS):
        writer.writerow([measure] + [col[r] for col in columns])
    return buf.getvalue()


def render_detail(name: str, report: EvalReport) -> str:
    """Plain-text block: confusion matrix plus per-class and summary rows."""
    lines = [f"== {name} ==", report.cm.render(), ""]
    header = f"{'class':<12}" + "".join(f"{k:>11}" for k in MEASURE_ROWS)
    lines.append(header)
    for c in report.cm.classes:
        pc = report.per_class[c]
        vals = (
            pc["tp_rate"],
            pc["fp_rate"],
            pc["precision"],
            pc["recall"],
            pc["f_measure"],
            pc["roc_auc"],
        )
        lines.append(f"{c:<12}" + "".join(f"{v:>11.3f}" for v in vals))
    lines.append(
        f"{'weighted':<12}" + "".join(f"{v:>11.3f}" for v in report.row_values())
    )
    return "\n".join(lines) + "\n"
