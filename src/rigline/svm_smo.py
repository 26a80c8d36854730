"""Two-class SVM trained by Sequential Minimal Optimization.

The solver maximizes the dual objective

    W(a) = sum_i a_i - 1/2 sum_ij y_i y_j k(x_i, x_j) a_i a_j

subject to 0 <= a_i <= C and sum_i y_i a_i = 0, by repeatedly picking two
multipliers and solving their restricted subproblem in closed form. Class
order maps the first class to +1 and the second to -1.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, stratified_folds
from .errors import ConfigError, ShapeError, SingleClassError
from .baseline_learners import Scores, TrainedModel, sigmoid
from .util import check_number

_SNAP = 1e-8  # multipliers this close to a bound count as on it and are set onto it
_TAU = 1e-12  # curvature used for a pair whose kernel distance is zero or negative


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function selector.

    kind: linear (the default), rbf, or polynomial. gamma applies to rbf
    (None means 1/feature-count, resolved at training time); degree/coef0
    to polynomial.
    """

    kind: str = "linear"
    gamma: float | None = None
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "polynomial"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None:
            check_number("gamma", self.gamma, float, lambda v: v > 0, "> 0")
        check_number("degree", self.degree, int, lambda v: v >= 1, ">= 1")
        check_number("coef0", self.coef0, float)


@dataclass(frozen=True)
class SmoConfig:
    # Every solver step updates one pair of multipliers, chosen by
    # second-order working-set selection, and the solve converges when the
    # largest KKT gap m(a) - M(a) is below kkt_tol (see smo_train).
    # max_steps caps pair updates as a runaway guard. The largest solve of
    # the 5,000-row `run --learner smo` and `run --stack model3` pipelines
    # takes 2,181 updates, so the cap leaves a factor of 9; a solve that
    # never converges, such as C=1e308 on overlapping classes, stops at it
    # within seconds on a few hundred rows.
    C: float = 1.0
    kkt_tol: float = 1e-3
    kernel: KernelSpec = KernelSpec()
    max_steps: int = 20_000

    def __post_init__(self):
        for name in ("C", "kkt_tol"):
            check_number(name, getattr(self, name), float, lambda v: v > 0, "> 0")
        check_number("max_steps", self.max_steps, int, lambda v: v >= 1, ">= 1")


def resolve_kernel(spec: KernelSpec, n_features: int) -> KernelSpec:
    if spec.kind == "rbf" and spec.gamma is None:
        return replace(spec, gamma=1.0 / n_features)
    return spec


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """k(a_i, b_j) for every row pair; shape (len(A), len(B))."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    G = A @ B.T
    if spec.kind == "linear":
        return G
    if spec.kind == "polynomial":
        return (G + spec.coef0) ** spec.degree
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * G
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-spec.gamma * sq)


def kernel_diagonal(spec: KernelSpec, X) -> np.ndarray:
    """k(x_i, x_i) for every row of X."""
    if spec.kind == "rbf":
        return np.ones(len(X))
    sq = np.einsum("ij,ij->i", X, X)
    return sq if spec.kind == "linear" else (sq + spec.coef0) ** spec.degree


class SolverState:
    """Mutable SMO working state.

    The error cache holds E_i = f(x_i) - y_i for every training point under
    the bias b. It starts at -y, exact for a = 0 and b = 0, and each
    successful step adds its change to all n entries at once. Steps leave b
    at 0: they read only error differences, and smo_train computes the final
    bias from the multipliers. Code that sets alpha or b directly must call
    sync_errors() afterwards. The kernel diagonal is computed once; a step
    computes the kernel rows it needs.
    """

    def __init__(self, X, y, cfg: SmoConfig):
        self.X = X
        self.y = y
        self.cfg = cfg
        self.kernel = resolve_kernel(cfg.kernel, X.shape[1])
        self.n = X.shape[0]
        self.alpha = np.zeros(self.n)
        self.b = 0.0
        self.e_cache = -np.asarray(y, dtype=float)
        self.diag = kernel_diagonal(self.kernel, X)
        self.step_monitor = None

    def kernel_row(self, i: int) -> np.ndarray:
        return kernel_matrix(self.kernel, self.X[i : i + 1], self.X)[0]

    def working_sets(self):
        """Masks (I_up, I_low) of the multipliers free to move so that y_i a_i
        grows (I_up) or shrinks (I_low). A multiplier within _SNAP of a bound
        counts as on it, so a rounding residue cannot hold a point in a set
        along which it has no room to move."""
        above_zero = self.alpha > _SNAP
        below_c = self.alpha < self.cfg.C - _SNAP
        pos = self.y > 0
        return np.where(pos, below_c, above_zero), np.where(pos, above_zero, below_c)

    def expansion(self) -> np.ndarray:
        """sum_j a_j y_j k(x_j, x_i) for every training point i, computed from
        the support vectors without reading the running error cache."""
        sv = np.flatnonzero(self.alpha > 0)
        K = kernel_matrix(self.kernel, self.X[sv], self.X)
        return (self.alpha[sv] * self.y[sv]) @ K

    def sync_errors(self) -> None:
        """Rebuild the error cache after alpha or b were set directly."""
        self.e_cache = self.expansion() + self.b - self.y

    def cache_drift(self) -> float:
        """Largest gap between cached errors and freshly computed ones."""
        return float(np.max(np.abs(self.e_cache - (self.expansion() + self.b - self.y))))


def take_step(state: SolverState, i1: int, i2: int, row1=None) -> bool:
    """Jointly re-optimize multipliers i1, i2 in closed form. Returns False,
    changing nothing, when the pair cannot move. row1 is i1's kernel row if
    the caller has already computed it."""
    if i1 == i2:
        return False
    C = state.cfg.C
    alph1 = float(state.alpha[i1])
    alph2 = float(state.alpha[i2])
    y1 = float(state.y[i1])
    y2 = float(state.y[i2])
    s = y1 * y2

    # The equality constraint confines (a1, a2) to a diagonal segment. The
    # bounds need no errors or kernel values, so check them first.
    if s > 0:
        L = max(0.0, alph1 + alph2 - C)
        H = min(C, alph1 + alph2)
    else:
        L = max(0.0, alph2 - alph1)
        H = min(C, C + alph2 - alph1)
    if L >= H:
        return False

    if row1 is None:
        row1 = state.kernel_row(i1)
    row2 = state.kernel_row(i2)
    # A flat direction (repeated points) takes the curvature _TAU, so the
    # step runs to the end of the segment the objective rises towards.
    eta = max(float(row1[i1] + row2[i2] - 2.0 * row1[i2]), _TAU)
    a2 = alph2 + y2 * float(state.e_cache[i1] - state.e_cache[i2]) / eta
    a2 = min(max(a2, L), H)
    if a2 < _SNAP:
        a2 = 0.0
    elif a2 > C - _SNAP:
        a2 = C
    if a2 == alph2:
        return False

    a1 = alph1 + s * (alph2 - a2)
    # Rounding can push a1 a hair outside the box; clamp and push the
    # correction back into a2 so the equality constraint survives exactly.
    if a1 < 0.0 or a1 > C:
        a1 = min(max(a1, 0.0), C)
        a2 = alph2 + s * (alph1 - a1)
        a2 = min(max(a2, 0.0), C)

    state.e_cache += y1 * (a1 - alph1) * row1 + y2 * (a2 - alph2) * row2
    state.alpha[i1] = a1
    state.alpha[i2] = a2
    if state.step_monitor is not None:
        state.step_monitor(state)
    return True


def examine_example(state: SolverState, i: int, sets=None) -> int:
    """Step multiplier i, if it is in I_up, against the partner j in I_low
    that maximizes the second-order gain (E_j - E_i)^2 / max(k_ii + k_jj -
    2 k_ij, tau), among the partners whose gap E_j - E_i reaches kkt_tol
    (Fan, Chen & Lin's WSS2). Returns 1 when the step moved the pair, 0 when
    i has no such partner or the pair could not move. sets is the state's
    working_sets() if the caller has already computed them."""
    up, low = state.working_sets() if sets is None else sets
    if not up[i]:
        return 0
    gap = state.e_cache - state.e_cache[i]
    partners = low & (gap >= state.cfg.kkt_tol)
    if not partners.any():
        return 0
    row = state.kernel_row(i)
    curvature = np.maximum(state.diag[i] + state.diag - 2.0 * row, _TAU)
    j = int(np.argmax(np.where(partners, gap * gap / curvature, -1.0)))
    return int(take_step(state, i, j, row))


def dual_objective_value(X, y, alpha, kernel: KernelSpec) -> float:
    """W(a) evaluated directly from its definition."""
    nz = np.flatnonzero(alpha)
    K = kernel_matrix(kernel, X[nz], X[nz])
    u = alpha[nz] * y[nz]
    return float(np.sum(alpha[nz]) - 0.5 * (u @ K @ u))


@dataclass(eq=False)
class SvmModel:
    """Trained SVM: support vectors with their multipliers plus the bias.
    With no support vectors sv_X keeps its shape (0, arity) and f(x) is b."""

    classes: list
    sv_X: np.ndarray
    sv_y: np.ndarray
    alpha: np.ndarray
    b: float
    kernel: KernelSpec
    C: float
    dual_objective: float
    converged: bool
    sv_indices: np.ndarray
    n_train: int

    def __post_init__(self):
        self.classes = list(self.classes)

    @property
    def arity(self) -> int:
        return self.sv_X.shape[1]

    def n_support(self) -> int:
        return len(self.alpha)


def _final_bias(state: SolverState, C: float) -> float:
    """Bias computed from the final multipliers.

    Two-multiplier steps only see error differences, so the bias never
    influences which optimum the multipliers reach. Each training point
    bounds the bias from below or above (or both, when interior); the
    midpoint of the tightest bounds satisfies every case with equal slack.
    """
    t = state.y - state.expansion()
    at_zero = state.alpha <= _SNAP
    at_c = state.alpha >= C - _SNAP
    interior = ~at_zero & ~at_c
    pos, neg = state.y > 0, state.y < 0
    from_below = (at_zero & pos) | (at_c & neg) | interior
    from_above = (at_zero & neg) | (at_c & pos) | interior
    lo = float(t[from_below].max()) if np.any(from_below) else None
    hi = float(t[from_above].min()) if np.any(from_above) else None
    if lo is None:
        return hi
    if hi is None:
        return lo
    return 0.5 * (lo + hi)


def smo_train(d: Dataset, cfg: SmoConfig = SmoConfig(), step_monitor=None) -> SvmModel:
    """Solve the dual by SMO with second-order working-set selection.

    Each step takes i, the point in I_up (see SolverState.working_sets) with
    the smallest error E. The solve has converged when max E over I_low
    minus E_i is below kkt_tol: that gap is m(a) - M(a) of Keerthi et al.
    (Neural Computation 2001), and below the tolerance every optimality case
    holds within it. Otherwise examine_example picks i's partner by the
    second-order rule of Fan, Chen & Lin (JMLR 2005; LIBSVM's WSS2) and
    take_step updates the pair. Reaching cfg.max_steps pair updates, or a
    pair that cannot move, returns the current iterate flagged
    non-converged, with a UserWarning. The bias is computed from the final
    multipliers (see _final_bias).

    The solver expects standardized features, as the CLI passes them
    (dataset.Standardizer). On raw features the kernel values are large and
    the solve needs far more pair updates: a linear C=1 solve on 500 raw
    synthetic rows, with column means up to 362, took 172,386 updates
    against 410 after standardizing, so it can stop at max_steps.
    """
    if not d.label_presence:
        raise SingleClassError("smo_train needs a labeled dataset")
    if len(d.classes) < 2:
        raise SingleClassError(f"need two classes, got {d.classes}")
    if len(d.classes) > 2:
        raise ConfigError(f"two-class solver, got {len(d.classes)} classes")
    y = np.where(d.codes == 0, 1.0, -1.0)
    state = SolverState(d.X, y, cfg)
    state.step_monitor = step_monitor

    converged = False
    steps = 0
    while steps < cfg.max_steps:
        up, low = state.working_sets()
        e_up = np.where(up, state.e_cache, np.inf)
        i = int(np.argmin(e_up))
        if np.max(state.e_cache, where=low, initial=-np.inf) - e_up[i] < cfg.kkt_tol:
            converged = True
            break
        if not examine_example(state, i, (up, low)):
            break  # nothing moved, so the next step would pick the same pair
        steps += 1
    if not converged:
        warnings.warn(f"SMO stopped after {steps} pair updates (max_steps={cfg.max_steps}) "
                      "without converging; the model is flagged converged 0")

    sv = np.flatnonzero(state.alpha > 0)
    w = dual_objective_value(state.X, state.y, state.alpha, state.kernel)
    return SvmModel(
        classes=d.classes,
        sv_X=state.X[sv].copy(),
        sv_y=state.y[sv].copy(),
        alpha=state.alpha[sv].copy(),
        b=_final_bias(state, cfg.C),
        kernel=state.kernel,
        C=cfg.C,
        dual_objective=w,
        converged=converged,
        sv_indices=sv.copy(),
        n_train=state.n,
    )


def decision_values(m: SvmModel, X) -> np.ndarray:
    """Margins f(x) for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != m.arity:
        raise ShapeError(f"model expects {m.arity} features, got {X.shape[1]}")
    K = kernel_matrix(m.kernel, m.sv_X, X)
    return (m.alpha * m.sv_y) @ K + m.b


def kkt_report(m: SvmModel, d: Dataset, tol: float) -> dict:
    """Count violations of the three optimality cases over the training set.

    a = 0       requires y f >= 1 (within tol)
    0 < a < C   requires y f = 1 (within tol)
    a = C       requires y f <= 1 (within tol)
    """
    if d.n_rows != m.n_train:
        raise ShapeError(
            f"model was trained on {m.n_train} rows, report got {d.n_rows}"
        )
    alpha = np.zeros(d.n_rows)
    alpha[m.sv_indices] = m.alpha
    y = np.where(d.codes == 0, 1.0, -1.0)
    margins = y * decision_values(m, d.X)
    at_zero = alpha <= _SNAP
    at_c = alpha >= m.C - _SNAP
    interior = ~at_zero & ~at_c
    return {
        "alpha_zero": int(np.sum(at_zero & (margins < 1.0 - tol))),
        "alpha_interior": int(np.sum(interior & (np.abs(margins - 1.0) > tol))),
        "alpha_at_c": int(np.sum(at_c & (margins > 1.0 + tol))),
    }


# ---------------------------------------------------------------------------
# Probability calibration (sigmoid on out-of-fold margins)

def sigmoid_nll(A: float, B: float, f, t) -> float:
    """Negative log-likelihood of targets t under p = 1/(1+exp(A f + B))."""
    z = -(A * f + B)
    # log p = z - log(1+e^z) for z<0, -log(1+e^-z) otherwise
    log_p = np.where(z < 0, z - np.log1p(np.exp(np.minimum(z, 0))), -np.log1p(np.exp(-np.maximum(z, 0))))
    log_q = log_p - z  # log(1-p)
    return float(-np.sum(t * log_p + (1.0 - t) * log_q))


def fit_sigmoid(f, t, max_iter: int = 100):
    """Newton fit of (A, B) minimizing sigmoid_nll; step-halved for safety."""
    f = np.asarray(f, dtype=float)
    t = np.asarray(t, dtype=float)
    n_pos = float(np.sum(t > 0.5))
    n_neg = len(t) - n_pos
    A, B = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    nll = sigmoid_nll(A, B, f, t)
    for _ in range(max_iter):
        p = sigmoid(-(A * f + B))
        g = np.array([np.dot(t - p, f), np.sum(t - p)])
        w = np.maximum(p * (1.0 - p), 1e-12)
        H = np.array(
            [
                [np.dot(w, f * f) + 1e-12, np.dot(w, f)],
                [np.dot(w, f), np.sum(w) + 1e-12],
            ]
        )
        step = np.linalg.solve(H, g)
        if not np.all(np.isfinite(step)):
            break
        scale = 1.0
        for _ in range(30):
            cand = sigmoid_nll(A - scale * step[0], B - scale * step[1], f, t)
            if cand <= nll:
                break
            scale *= 0.5
        else:
            break
        A -= scale * step[0]
        B -= scale * step[1]
        if abs(nll - cand) < 1e-12 * max(1.0, abs(nll)):
            nll = cand
            break
        nll = cand
    return A, B


class CalibratedSvm(TrainedModel):
    """SVM wrapper emitting probabilities through a fitted sigmoid.

    Class predictions keep the SVM's own sign rule; the sigmoid only maps
    margins onto [0,1] for cost estimates. Rank scores are the margins
    [f, -f] themselves: a steep sigmoid rounds distinct margins to identical
    probabilities, and being monotone it gives the same order without that
    collapse.
    """

    learner = "smo"

    def __init__(self, svm: SvmModel, A: float, B: float, fallback: bool = False):
        super().__init__(svm.classes)
        self.svm = svm
        self.A = A
        self.B = B
        self.fallback = fallback
        self.arity = svm.arity

    def _score(self, X):
        f = decision_values(self.svm, X)
        if self.fallback:
            p_pos = (f >= 0).astype(float)
        else:
            p_pos = sigmoid(-(self.A * f + self.B))
        # argmax of [f, -f] is the sign rule: f >= 0 picks the first class.
        return Scores(
            np.column_stack([p_pos, 1.0 - p_pos]),
            np.column_stack([f, -f]),
            np.where(f >= 0, 0, 1),
        )


def calibrate_probability(
    m: SvmModel, d: Dataset, cfg: SmoConfig, folds: int = 3
) -> CalibratedSvm:
    """Fit the margin-to-probability sigmoid on out-of-fold margins.

    Each fold's margins come from a fresh solve on the other folds under
    cfg, the settings m was trained with, so the sigmoid never sees
    resubstitution margins. Each fold solve runs the same second-order loop
    under the same max_steps cap, and warns on its own if it stops there.
    Datasets whose rarest class has fewer than 2 rows cannot be folded and
    fall back, with a warning, to hard {0,1} probabilities; fewer than 2
    folds is a configuration error.
    """
    if not d.label_presence:
        raise SingleClassError("calibration needs a labeled dataset")
    check_number("folds", folds, int, lambda v: v >= 2, ">= 2")
    try:
        assign = stratified_folds(d, folds)
    except ConfigError as e:
        warnings.warn(f"calibration falls back to hard 0/1 probabilities: {e}")
        return CalibratedSvm(m, 0.0, 0.0, fallback=True)
    margins = np.empty(d.n_rows)
    for fold in sorted(set(assign)):
        hold = assign == fold
        sub = d.subset(np.flatnonzero(~hold))
        fold_model = smo_train(sub, cfg)
        margins[hold] = decision_values(fold_model, d.X[hold])
    n_pos, n_neg = np.bincount(d.codes, minlength=2).tolist()
    # Soft targets keep the fit finite when the margins separate perfectly.
    t = np.where(d.codes == 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    A, B = fit_sigmoid(margins, t)
    return CalibratedSvm(m, A, B)
