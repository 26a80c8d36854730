"""Small shared helpers: seed derivation, atomic file writes, and the
diagonal-Gaussian log-density that naive Bayes and EM share."""

import os
import tempfile

import numpy as np


def derive_seed(master: int, *tags) -> int:
    """Derive a child seed from a master seed and a tuple of tags.

    Deterministic across runs and platforms; distinct tags give independent
    streams. Tags may be ints or short strings.
    """
    entropy = [int(master) & 0xFFFFFFFFFFFFFFFF]
    for t in tags:
        if isinstance(t, str):
            entropy.extend(t.encode("utf-8"))
        else:
            entropy.append(int(t) & 0xFFFFFFFFFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def diag_gaussian_log_density(X, means, variances) -> np.ndarray:
    """(n, K) log densities of each row under K diagonal-covariance Gaussians.

    means and variances are (K, d); row k holds component k's parameters.
    """
    n, d = X.shape
    K = means.shape[0]
    out = np.empty((n, K))
    for k in range(K):
        diff = X - means[k]
        out[:, k] = -0.5 * (
            d * np.log(2.0 * np.pi)
            + np.sum(np.log(variances[k]))
            + np.sum(diff * diff / variances[k], axis=1)
        )
    return out


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_rigline_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
