"""Expectation-maximization clustering used to label raw sensor data.

Fits a Gaussian mixture with diagonal covariance. For the rig pipeline the
mixture has two components; the larger cluster is taken to be normal
operation and the smaller one failure.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import CLASS_FAILURE, CLASS_NORMAL, Dataset
from .errors import ConfigError, ShapeError
from .util import diag_gaussian_log_density

# Mixture weights below this are treated as a collapsed component and reseeded.
_DEGENERATE_WEIGHT = 1e-8


@dataclass
class GaussianMixtureModel:
    """Diagonal-covariance Gaussian mixture fit by EM.

    loglik_trace holds the total log-likelihood after each iteration's
    parameter update; it is non-decreasing up to floating-point slack.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    loglik_trace: list = field(default_factory=list)
    converged: bool = False
    n_iter: int = 0
    notes: list = field(default_factory=list)

    @property
    def n_components(self) -> int:
        return len(self.weights)


def _posterior(gmm: GaussianMixtureModel, X):
    """(per-row log-sum-exp, responsibilities) of the rows of X under gmm."""
    lw = diag_gaussian_log_density(X, gmm.means, gmm.variances) + np.log(gmm.weights)
    m = lw.max(axis=1, keepdims=True)
    p = np.exp(lw - m)
    s = p.sum(axis=1, keepdims=True)
    return m[:, 0] + np.log(s[:, 0]), p / s


def _check_arity(gmm: GaussianMixtureModel, d: Dataset) -> None:
    if d.arity != gmm.means.shape[1]:
        raise ShapeError(
            f"model has {gmm.means.shape[1]} features, data has {d.arity}"
        )


def em_loglik(gmm: GaussianMixtureModel, d: Dataset) -> float:
    """Total log-likelihood of the dataset under the mixture."""
    _check_arity(gmm, d)
    return float(np.sum(_posterior(gmm, d.X)[0]))


def em_responsibilities(gmm: GaussianMixtureModel, d: Dataset) -> np.ndarray:
    """Per-row component membership probabilities; rows sum to 1."""
    _check_arity(gmm, d)
    return _posterior(gmm, d.X)[1]


def _farthest_point_means(X, K, rng):
    """Seed one mean at a random row, then repeatedly take the row farthest
    from all chosen means. Spreads the initial centers apart so the two-cluster
    fit does not start with both centers inside the majority mode."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    dist = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    while len(chosen) < K:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sum((X - X[nxt]) ** 2, axis=1))
    return X[chosen].copy()


def em_fit(
    d: Dataset,
    n_components: int,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> GaussianMixtureModel:
    """Fit a diagonal-covariance Gaussian mixture by EM.

    Each iteration runs a full E-step and M-step, then records the
    log-likelihood under the updated parameters. Convergence is declared when
    the trace improves by at most tol * |loglik| between iterations. Collapsed
    components (vanishing weight) are reseeded at a random row.
    """
    if n_components < 1:
        raise ConfigError(f"n_components must be >= 1, got {n_components}")
    if d.n_rows < n_components:
        raise ConfigError(
            f"{n_components} components need at least that many rows, got {d.n_rows}"
        )
    X = d.X
    n, dim = X.shape
    rng = np.random.default_rng(seed)

    col_var = X.var(axis=0)
    var_floor = np.maximum(1e-6 * col_var, 1e-12)
    means = _farthest_point_means(X, n_components, rng)
    variances = np.tile(np.maximum(col_var, var_floor), (n_components, 1))
    if n == 1:
        variances = np.tile(var_floor, (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    gmm = GaussianMixtureModel(weights, means, variances)
    # One density evaluation per iteration: the posterior under the updated
    # parameters gives both the recorded log-likelihood and the next E-step's
    # responsibilities.
    _, resp = _posterior(gmm, X)
    prev = None
    for it in range(1, max_iter + 1):
        mass = resp.sum(axis=0)

        reseeded = False
        for k in range(n_components):
            if mass[k] / n < _DEGENERATE_WEIGHT:
                # Collapsed component: restart it at a random row with the
                # global column variance and skip this round's convergence test.
                i = int(rng.integers(n))
                gmm.means[k] = X[i]
                gmm.variances[k] = np.maximum(col_var, var_floor)
                gmm.weights = np.full(n_components, 1.0 / n_components)
                note = f"iter {it}: reseeded collapsed component {k}"
                gmm.notes.append(note)
                warnings.warn(note)
                reseeded = True
        if reseeded:
            prev = None
            lse, resp = _posterior(gmm, X)
            gmm.loglik_trace.append(float(np.sum(lse)))
            gmm.n_iter = it
            continue

        weights = mass / n
        means = (resp.T @ X) / mass[:, None]
        variances = np.empty_like(means)
        for k in range(n_components):
            diff = X - means[k]
            variances[k] = (resp[:, k] @ (diff * diff)) / mass[k]
        variances = np.maximum(variances, var_floor)

        gmm.weights, gmm.means, gmm.variances = weights, means, variances
        lse, resp = _posterior(gmm, X)
        ll = float(np.sum(lse))
        gmm.loglik_trace.append(ll)
        gmm.n_iter = it
        if prev is not None and abs(ll - prev) <= tol * max(abs(ll), 1.0):
            gmm.converged = True
            break
        prev = ll
    return gmm


def em_assign_labels(d: Dataset, gmm: GaussianMixtureModel) -> Dataset:
    """Hard-assign each row to its most probable component and label it.

    Requires a two-component mixture. The component holding more rows becomes
    the normal class, the other failure; existing labels are replaced.
    """
    if gmm.n_components != 2:
        raise ConfigError(
            f"labeling needs exactly 2 components, model has {gmm.n_components}"
        )
    assign = np.argmax(em_responsibilities(gmm, d), axis=1)
    counts = np.bincount(assign, minlength=2)
    normal_component = 0 if counts[0] >= counts[1] else 1
    labels = np.where(assign == normal_component, CLASS_NORMAL, CLASS_FAILURE)
    return d.with_labels(labels)


def save_gmm(gmm: GaussianMixtureModel, path: str) -> None:
    lines = ["model gmm", f"components {gmm.n_components}", f"dim {gmm.means.shape[1]}"]
    lines.append("weights " + " ".join(repr(float(w)) for w in gmm.weights))
    for k in range(gmm.n_components):
        lines.append(f"mean {k} " + " ".join(repr(float(v)) for v in gmm.means[k]))
        lines.append(f"var {k} " + " ".join(repr(float(v)) for v in gmm.variances[k]))
    lines.append(f"converged {int(gmm.converged)}")
    lines.append(f"n_iter {gmm.n_iter}")
    if gmm.loglik_trace:
        lines.append("trace " + " ".join(repr(float(v)) for v in gmm.loglik_trace))
    from .util import atomic_write_text

    atomic_write_text(path, "\n".join(lines) + "\n")


def load_gmm(path: str) -> GaussianMixtureModel:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != "model gmm":
        raise ConfigError(f"{path}: not a mixture model file")
    fields = {}
    means = {}
    variances = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "mean":
            means[int(parts[1])] = np.array([float(v) for v in parts[2:]])
        elif parts[0] == "var":
            variances[int(parts[1])] = np.array([float(v) for v in parts[2:]])
        else:
            fields[parts[0]] = parts[1:]
    K = int(fields["components"][0])
    gmm = GaussianMixtureModel(
        weights=np.array([float(v) for v in fields["weights"]]),
        means=np.vstack([means[k] for k in range(K)]),
        variances=np.vstack([variances[k] for k in range(K)]),
        converged=bool(int(fields["converged"][0])),
        n_iter=int(fields["n_iter"][0]),
    )
    if "trace" in fields:
        gmm.loglik_trace = [float(v) for v in fields["trace"]]
    return gmm
