"""External per-layer tracer: wraps rigline's public functions from outside.

A wrapped function is replaced in every ``rigline`` module namespace that
holds it, because modules import each other's functions by name: ``cli``
calls its own ``evaluate`` and ``train_learner`` bindings and ``stacking``
its own ``smo_train``, so patching only the defining module would miss those
calls. Span functions record (name, start, end, parent) in memory; hot
functions get count-only wrappers, since ``take_step`` alone runs millions of
times in a larger solve. Nothing here edits the program's files.
"""

import collections
import os
import statistics
import sys
from time import perf_counter

import numpy as np

# Traced layers and functions. "span" times each call and links it to the
# enclosing span; "count" only counts calls (and what the hook records).
TARGETS = (
    ("cli", "main", "span"),
    ("dataset", "load_csv", "span"),
    ("dataset", "save_csv", "span"),
    ("labeling_em", "em_fit", "span"),
    ("imbalance", "smote", "span"),
    ("imbalance", "undersample", "span"),
    ("svm_smo", "smo_train", "span"),
    ("svm_smo", "calibrate_probability", "span"),
    ("svm_smo", "take_step", "count"),
    ("svm_smo", "examine_example", "count"),
    ("svm_smo", "kernel_matrix", "count"),
    ("baseline_learners", "best_split", "span"),
    ("baseline_learners", "train_cart", "span"),
    ("baseline_learners", "train_random_forest", "span"),
    ("baseline_learners", "train_rule_list", "span"),
    ("baseline_learners", "train_mlp", "span"),
    ("baseline_learners", "train_naive_bayes", "span"),
    ("baseline_learners", "TrainedModel.predict_proba", "span"),
    ("stacking", "train_learner", "span"),
    ("stacking", "build_meta_features", "span"),
    ("stacking", "train_stack", "span"),
    ("evaluation", "evaluate", "span"),
    ("evaluation", "confusion", "span"),
    ("evaluation", "roc_auc", "span"),
    ("modeldoc", "save_model", "span"),
    ("modeldoc", "load_model", "span"),
)


def _tree_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _rows(x) -> int:
    a = np.asarray(x)
    return 1 if a.ndim == 1 else int(a.shape[0])


def _minority(d) -> int:
    _, counts = np.unique(d.labels, return_counts=True)
    return int(counts.min())


def _path_arg(args, kwargs):
    return kwargs.get("path", args[1] if len(args) > 1 else None)


# Per-call hooks: (counters, args, kwargs, result) -> None. Keys are the
# per-layer metric names they feed.
def _hook_smo_train(c, args, kwargs, m):
    c["svm_smo.n_support"] += m.n_support()
    c["svm_smo.unconverged"] += 0 if m.converged else 1


def _hook_take_step(c, args, kwargs, ok):
    if ok:
        c["svm_smo.take_step.steps"] += 1


def _hook_kernel_matrix(c, args, kwargs, K):
    A = args[1] if len(args) > 1 else kwargs["A"]
    if getattr(A, "ndim", 0) == 2 and A.shape[0] == 1:
        c["svm_smo.kernel_rows"] += 1


def _hook_cart(c, args, kwargs, m):
    c["baseline_learners.tree_nodes"] += _tree_nodes(m.root)


def _hook_forest(c, args, kwargs, m):
    c["baseline_learners.tree_nodes"] += sum(_tree_nodes(t.root) for t in m.trees)


def _hook_predict_proba(c, args, kwargs, P):
    c["baseline_learners.predict_proba.rows"] += _rows(args[1])


def _hook_load_csv(c, args, kwargs, d):
    c["dataset.load_csv.rows"] += d.n_rows


def _hook_save_csv(c, args, kwargs, _):
    c["dataset.save_csv.bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _hook_em_fit(c, args, kwargs, gmm):
    c["labeling_em.em_fit.iters"] += gmm.n_iter
    c["labeling_em.em_fit.reseeds"] += len(gmm.notes)


def _hook_smote(c, args, kwargs, out):
    d = args[0]
    c["imbalance.smote.rows_out"] += out.n_rows
    if out.n_rows > d.n_rows:  # the minority distance matrix was built
        c["imbalance.smote.dist_bytes"] += 8 * _minority(d) ** 2


def _hook_save_model(c, args, kwargs, _):
    c["modeldoc.save_model.bytes"] += os.path.getsize(_path_arg(args, kwargs))


HOOKS = {
    "smo_train": _hook_smo_train,
    "take_step": _hook_take_step,
    "kernel_matrix": _hook_kernel_matrix,
    "train_cart": _hook_cart,
    "train_random_forest": _hook_forest,
    "TrainedModel.predict_proba": _hook_predict_proba,
    "load_csv": _hook_load_csv,
    "save_csv": _hook_save_csv,
    "em_fit": _hook_em_fit,
    "smote": _hook_smote,
    "save_model": _hook_save_model,
}


class Tracer:
    """Spans and counters for one workload process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []

    def _span_wrapper(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name, fn, hook):
        counts = self.counts
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return counted

    def install(self):
        """Wrap every target in every loaded rigline namespace holding it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rigline" or n.startswith("rigline.")]
        for layer, qualname, mode in TARGETS:
            home = sys.modules[f"rigline.{layer}"]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = owner.__dict__[attr]
            name = f"{layer}.{attr}"
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            wrapped = make(name, original, HOOKS.get(qualname))
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def summarize(spans, counts, models):
    """(per-layer metrics, self time per function) from one traced process.

    ``.s`` totals count a span only when no enclosing span has the same
    name, so nested calls (a stack's base models inside its own
    predict_proba) are not counted twice; ``predict_proba.s`` and
    ``cli.self_s`` are self times.
    """
    counts = collections.Counter(counts)
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = collections.Counter()
    self_time = collections.Counter()
    calls = collections.Counter()
    durations = collections.defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_time[name] += dur - child_time[i]
        durations[name].append(dur)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += dur

    split_ms = sorted(1000.0 * d for d in durations["baseline_learners.best_split"])
    tail_pct, tail_ms = _tail_percentile(split_ms)
    attempts = counts["svm_smo.take_step.calls"]
    out = {
        "svm_smo.smo_train.s": total["svm_smo.smo_train"],
        "svm_smo.smo_train.calls": calls["svm_smo.smo_train"],
        "svm_smo.calibrate_probability.s": total["svm_smo.calibrate_probability"],
        "svm_smo.take_step.attempts": attempts,
        "svm_smo.take_step.steps": counts["svm_smo.take_step.steps"],
        "svm_smo.step_yield": counts["svm_smo.take_step.steps"] / attempts if attempts else 0.0,
        "svm_smo.examine_example.calls": counts["svm_smo.examine_example.calls"],
        "svm_smo.kernel_rows": counts["svm_smo.kernel_rows"],
        "svm_smo.n_support": counts["svm_smo.n_support"],
        "svm_smo.unconverged": counts["svm_smo.unconverged"],
        "baseline_learners.best_split.calls": calls["baseline_learners.best_split"],
        "baseline_learners.best_split.s": total["baseline_learners.best_split"],
        "baseline_learners.best_split.call_ms.p50": statistics.median(split_ms) if split_ms else 0.0,
        "baseline_learners.best_split.call_ms.tail": tail_ms,
        "baseline_learners.best_split.call_ms.tail_pct": tail_pct,
    }
    for fn in ("train_random_forest", "train_rule_list", "train_cart", "train_mlp",
               "train_naive_bayes"):
        out[f"baseline_learners.{fn}.s"] = total[f"baseline_learners.{fn}"]
    out.update({
        "baseline_learners.predict_proba.s": self_time["baseline_learners.predict_proba"],
        "baseline_learners.predict_proba.rows": counts["baseline_learners.predict_proba.rows"],
        "baseline_learners.tree_nodes": counts["baseline_learners.tree_nodes"],
        "stacking.train_learner.calls": calls["stacking.train_learner"],
        "stacking.build_meta_features.s": total["stacking.build_meta_features"],
        "stacking.train_stack.s": total["stacking.train_stack"],
        "evaluation.evaluate.calls": calls["evaluation.evaluate"],
        "evaluation.evaluate.s": total["evaluation.evaluate"],
        "evaluation.confusion.s": total["evaluation.confusion"],
        "evaluation.roc_auc.s": total["evaluation.roc_auc"],
        "cli.self_s": self_time["cli.main"],
        "cli.evaluate_per_model": calls["evaluation.evaluate"] / models,
        "dataset.load_csv.s": total["dataset.load_csv"],
        "dataset.load_csv.rows": counts["dataset.load_csv.rows"],
        "dataset.save_csv.s": total["dataset.save_csv"],
        "dataset.save_csv.bytes": counts["dataset.save_csv.bytes"],
        "labeling_em.em_fit.s": total["labeling_em.em_fit"],
        "labeling_em.em_fit.iters": counts["labeling_em.em_fit.iters"],
        "labeling_em.em_fit.reseeds": counts["labeling_em.em_fit.reseeds"],
        "imbalance.smote.s": total["imbalance.smote"],
        "imbalance.smote.rows_out": counts["imbalance.smote.rows_out"],
        "imbalance.smote.dist_bytes": counts["imbalance.smote.dist_bytes"],
        "imbalance.undersample.s": total["imbalance.undersample"],
        "modeldoc.save_model.s": total["modeldoc.save_model"],
        "modeldoc.save_model.bytes": counts["modeldoc.save_model.bytes"],
        "modeldoc.load_model.s": total["modeldoc.load_model"],
    })
    return out, dict(self_time)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = name.rpartition(".")[2]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if ".call_ms." in name:
        return "%" if last == "tail_pct" else "ms"
    if last in ("bytes", "dist_bytes"):
        return "bytes"
    if last in ("rows", "rows_out"):
        return "rows"
    if last in ("step_yield", "evaluate_per_model"):
        return "ratio"
    return "count"


def _tail_percentile(sorted_values):
    """(p, value) for the highest of p90/p99/p99.9 with at least ten samples
    above it; (0, 0.0) when there are too few samples for any of them."""
    n = len(sorted_values)
    best = (0.0, 0.0)
    for p in (90.0, 99.0, 99.9):
        k = int(p / 100.0 * n)  # index of the percentile sample
        if n - 1 - k >= 10:
            best = (p, sorted_values[k])
    return best
