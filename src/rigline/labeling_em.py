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
from .util import check_number, diag_gaussian_posterior

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
    return diag_gaussian_posterior(X, gmm.weights, gmm.means, gmm.variances)


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
    dist = _squared_distances(X, X[chosen[0]])
    while len(chosen) < K:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        np.minimum(dist, _squared_distances(X, X[nxt]), out=dist)
    return X[chosen].copy()


def _squared_distances(X, x):
    """Each row's squared distance to x, with one n x d temporary."""
    diff = X - x
    diff *= diff
    return np.sum(diff, axis=1)


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
    the trace improves by at most tol * |loglik| between iterations. An
    iteration that reseeds collapsed components (vanishing weight) at random
    rows, with a note and a warning, has no M-step; it and the next skip the
    convergence test.
    """
    check_number("n_components", n_components, int, lambda v: v >= 1, ">= 1")
    check_number("seed", seed, int, lambda v: v >= 0, ">= 0")
    check_number("tol", tol, float, lambda v: v >= 0, ">= 0")
    check_number("max_iter", max_iter, int, lambda v: v >= 1, ">= 1")
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
    # The M-step's squared deviations from each mean, one buffer reused.
    sq = np.empty_like(X)
    prev = None
    for it in range(1, max_iter + 1):
        mass = resp.sum(axis=0)
        collapsed = [k for k in range(n_components) if mass[k] / n < _DEGENERATE_WEIGHT]
        for k in collapsed:
            # Collapsed component: restart it at a random row with the
            # global column variance, in place of this round's M-step.
            gmm.means[k] = X[int(rng.integers(n))]
            gmm.variances[k] = np.maximum(col_var, var_floor)
            gmm.weights = np.full(n_components, 1.0 / n_components)
            note = f"iter {it}: reseeded collapsed component {k}"
            gmm.notes.append(note)
            warnings.warn(note)
        if not collapsed:
            means = (resp.T @ X) / mass[:, None]
            variances = np.empty_like(means)
            for k in range(n_components):
                np.subtract(X, means[k], out=sq)
                sq *= sq
                variances[k] = (resp[:, k] @ sq) / mass[k]
            gmm.weights, gmm.means = mass / n, means
            gmm.variances = np.maximum(variances, var_floor)
        lse, resp = _posterior(gmm, X)
        ll = float(np.sum(lse))
        gmm.loglik_trace.append(ll)
        gmm.n_iter = it
        if not collapsed and prev is not None and abs(ll - prev) <= tol * max(abs(ll), 1.0):
            gmm.converged = True
            break
        prev = None if collapsed else ll
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
    normal_first = counts[0] >= counts[1]
    names = (CLASS_NORMAL, CLASS_FAILURE) if normal_first else (CLASS_FAILURE, CLASS_NORMAL)
    return d.with_codes(names, assign)
