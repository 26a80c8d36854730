"""Small shared helpers: seed derivation, atomic file writes, the
diagonal-Gaussian posterior that naive Bayes and EM share, the checker of
every numeric setting, and the `key=value` field reader behind the CLI's
option tokens and stack specs."""

import math
import numbers
import os
import tempfile

import numpy as np

from .errors import ConfigError


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


def diag_gaussian_posterior(X, weights, means, variances):
    """(lse, resp) of the rows of X under K weighted diagonal-covariance
    Gaussians: lse (n,) is each row's log of the weighted density sum, resp
    (n, K) the posterior component probabilities, rows summing to 1.

    weights is (K,); means and variances are (K, d), row k holding component
    k's parameters.
    """
    n, d = X.shape
    K = means.shape[0]
    log_w = np.empty((n, K))
    for k in range(K):
        diff = X - means[k]
        log_w[:, k] = -0.5 * (
            d * np.log(2.0 * np.pi)
            + np.sum(np.log(variances[k]))
            + np.sum(diff * diff / variances[k], axis=1)
        )
    log_w += np.log(weights)
    m = log_w.max(axis=1, keepdims=True)
    p = np.exp(log_w - m)
    s = p.sum(axis=1, keepdims=True)
    return m[:, 0] + np.log(s[:, 0]), p / s


def atomic_write_text(path: str, text) -> None:
    """Write text to path via a temp file + rename so readers never see partial files.

    text is a str or an iterable of str chunks, written in order; if the
    iterable raises, the temp file is removed and path is left as it was.
    The file gets the mode a plain `open(path, "w")` would give it under the
    current umask; `mkstemp` alone would leave it 0600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_rigline_")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_number(name: str, value, kind, ok=None, rule: str = ""):
    """Return value if it is a valid numeric setting, else raise ConfigError
    "<name> must be <an integer|a finite number> <rule>, got <value!r>".

    kind int takes any Integral, kind float any Real that is a finite float
    (integers included); a bool is neither. ok, when given, is the range
    predicate that rule states. The value is returned as it came.
    """
    if kind is int:
        noun, fits = "an integer", isinstance(value, numbers.Integral)
    else:
        noun = "a finite number"
        try:
            fits = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            fits = False
    if isinstance(value, bool) or not fits or not (ok is None or ok(value)):
        raise ConfigError(f"{name} must be {noun}{' ' + rule if rule else ''}, got {value!r}")
    return value


def parse_fields(text: str, sep: str, casts, what: str = "") -> dict:
    """Read sep-separated `key=value` fields into {key: cast(value)}.

    casts maps each allowed key to the converter of its value, or is None to
    allow any key and keep values as strings. Empty fields are skipped. A
    field without `=`, an unknown key or a value its cast rejects raises
    ConfigError, prefixed with what when given.
    """
    prefix = f"{what}: " if what else ""
    out = {}
    for field in text.split(sep):
        field = field.strip()
        if not field:
            continue
        key, eq, value = field.partition("=")
        if not eq:
            raise ConfigError(f"{prefix}expected key=value, got {field!r}")
        key, value = key.strip(), value.strip()
        if casts is None:
            out[key] = value
        elif key not in casts:
            raise ConfigError(f"{prefix}unknown key {key!r}; choices: {', '.join(casts)}")
        else:
            try:
                out[key] = casts[key](value)
            except ValueError:
                raise ConfigError(f"{prefix}bad value for {key}: {value!r}")
    return out
