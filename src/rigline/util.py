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

    The work is done on (n,) columns, one feature and one component at a
    time, with numpy's own arithmetic in numpy's order (`sum_columns` for
    the row sums), so the results are those of the (n, d) broadcast form
    bit for bit, below 8 features or components without its n x d arrays.
    """
    n, d = X.shape
    log_weights = np.log(weights)
    log_w = []
    for k in range(means.shape[0]):
        col = sum_columns(_scaled_squares(X, means[k], variances[k]), d) if d else np.zeros(n)
        col += d * np.log(2.0 * np.pi) + np.sum(np.log(variances[k]))
        col *= -0.5
        col += log_weights[k]
        log_w.append(col)
    m = log_w[0].copy()
    for col in log_w[1:]:
        np.maximum(m, col, out=m)
    for col in log_w:
        col -= m
        np.exp(col, out=col)
    s = sum_columns((col.copy() for col in log_w), len(log_w))
    resp = np.empty((n, len(log_w)))
    for k, col in enumerate(log_w):
        np.divide(col, s, out=resp[:, k])
    m += np.log(s)
    return m, resp


def _scaled_squares(X, mean, var):
    """Each column's (x - mean) ** 2 / var, formed as diff * diff / var."""
    for j in range(X.shape[1]):
        t = X[:, j] - mean[j]
        t *= t
        t /= var[j]
        yield t


def sum_columns(columns, count):
    """The sum of the next count (n,) arrays of the iterator columns, equal
    bit for bit to `np.sum(axis=1)` of the (n, count) array they would form.

    numpy adds fewer than 8 terms of a row in order, then adds its initial
    0.0, so below 8 the arrays are summed into the first in place (each must
    be one the caller gives up). From 8 on they are copied, one at a time,
    into that (n, count) array for `np.sum`: one n x count temporary.
    """
    total = next(columns)
    if count < 8:
        for _ in range(count - 1):
            total += next(columns)
        total += 0.0
        return total
    table = np.empty((len(total), count))
    table[:, 0] = total
    for j in range(1, count):
        table[:, j] = next(columns)
    return table.sum(axis=1)


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
